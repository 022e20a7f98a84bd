"""Words, substitutions, level words, complexity, palindromes, squares."""

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsturm.contfrac import ContinuedFraction, approximants
from qsturm.errors import (
    IntegerOverflow,
    LengthBudgetExceeded,
    NoCommonSite,
    NotPalindromicDecomposition,
    SymbolOutsideDomain,
    WindowTooLarge,
)
from qsturm.words import (
    DEFAULT_LENGTH_BUDGET,
    ModelSpec,
    Substitution,
    Word,
    characteristic_prefix,
    complexity,
    factor_index,
    find_squares,
    level_words_prime,
    palindrome_split,
    qs_prefix,
    reflect,
    reflect_subst,
    safe_window,
    sturmian_levels,
    substitute,
    _build_index,
    _ostrowski_digits,
)

BENCH = ("fibonacci", "q5", "digits", "prefixed")


def _assert_same_word(got, expected):
    assert got.alphabet == expected.alphabet
    assert got.codes.dtype == expected.codes.dtype
    assert np.array_equal(got.codes, expected.codes)


# ---------------------------------------------------------------- Word basics

def test_word_roundtrip_and_ops():
    w = Word.from_str("abba", ("a", "b"))
    assert w.to_str() == "abba"
    assert len(w) == 4
    assert w.count("a") == 2 and w.count("b") == 2 and w.count("c") == 0
    assert (w + w).to_str() == "abbaabba"
    assert (w * 3).to_str() == "abba" * 3
    assert w[1:3].to_str() == "bb"
    assert w[0] == "a"
    assert w.reverse().to_str() == "abba"
    assert reflect(Word.from_str("aab")).to_str() == "baa"


def test_word_unknown_symbol():
    with pytest.raises(SymbolOutsideDomain):
        Word.from_str("abc", ("a", "b"))


def test_word_equality_across_alphabets():
    assert Word.from_str("ab", ("a", "b")) == Word.from_str("ab", ("a", "b", "c"))


# ---------------------------------------------------------------- level words

def test_sturmian_levels_fibonacci(fib_cf):
    levels = sturmian_levels(fib_cf, 5)
    # index i holds s_{i-1}
    assert levels[0].to_str() == "a"
    assert levels[1].to_str() == "b"
    assert levels[2].to_str() == "a"
    assert levels[3].to_str() == "ab"
    assert levels[4].to_str() == "aba"
    assert levels[5].to_str() == "abaab"
    assert levels[6].to_str() == "abaababa"


def test_level_word_recursion_general(cf2):
    levels = sturmian_levels(cf2, 6)
    for n in range(2, 7):
        a_n = cf2.coefficient(n)
        assert levels[n + 1] == levels[n] * a_n + levels[n - 1]


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=10))
@settings(max_examples=40, deadline=None)
def test_length_and_count_match_convergents(coeffs):
    cf = ContinuedFraction(tuple(coeffs))
    levels = sturmian_levels(cf, len(coeffs))
    for n in range(1, len(coeffs) + 1):
        p, q = approximants(cf, n)
        assert len(levels[n + 1]) == q
        assert levels[n + 1].count("a") == p


def test_length_budget(fib_cf):
    with pytest.raises(LengthBudgetExceeded):
        sturmian_levels(fib_cf, 40)


def test_prefix_budget_fails_before_allocating(fib_cf, fib_spec):
    # One symbol past DEFAULT_LENGTH_BUDGET is refused before any word is
    # built: a 5e7-symbol word would take 200 MB.
    over = DEFAULT_LENGTH_BUDGET + 1
    calls = [(lambda: characteristic_prefix(fib_cf, over),
              f"requested length {over} exceeds budget {DEFAULT_LENGTH_BUDGET}"),
             (lambda: qs_prefix(fib_spec, over), f"window length {over} exceeds budget {DEFAULT_LENGTH_BUDGET}")]
    for call, message in calls:
        tracemalloc.start()
        try:
            with pytest.raises(LengthBudgetExceeded, match=f"^{message}$"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


@pytest.mark.parametrize("model", BENCH)
def test_prefix_at_huge_shift_takes_memory_of_its_length(bench_specs, model):
    # The budget bounds the window's length only: 10^4 symbols from shift
    # 10^15 are joined from level factors no longer than the window (about
    # 10-19 bytes per symbol), where building u up to the window's end
    # would take petabytes.
    spec = bench_specs[model]
    tracemalloc.start()
    try:
        word = qs_prefix(spec, 10**4, shift=10**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(word) == 10**4
    assert peak < 40 * 10**4, peak


def test_sturmian_levels_refuses_overflowing_level():
    # |s_2| = 2^64 + 1 does not fit 64 bits: refused before it is built
    with pytest.raises(IntegerOverflow, match=r"^convergent q_2 exceeds 64-bit range$"):
        sturmian_levels(ContinuedFraction((1, 2**64)), 2)


@pytest.mark.parametrize("model", ["fibonacci", "q5", "digits", "prefixed", "a2_is_10^7"])
def test_ostrowski_blocks_concatenate_to_characteristic_prefix(bench_specs, model):
    # c_theta[:N] = s_k^{b_k} ... s_0^{b_0} over the greedy Ostrowski digits
    # of N, which obey 0 <= b_0 < a_1, b_j <= a_{j+1}, and b_{j-1} = 0 where
    # b_j = a_{j+1}. Oracle: the first q_k - 2 symbols of c_theta are those
    # of the characteristic word of p_k / q_k, floor((n + 2) p/q) -
    # floor((n + 1) p/q), 1 for a and 0 for b.
    cf = ContinuedFraction((1, 10**7), (1,)) if model == "a2_is_10^7" else bench_specs[model].cf
    k = next(k for k in range(1, 40) if approximants(cf, k)[1] >= 2402)
    p, q = approximants(cf, k)
    oracle = "".join("ab"[((n + 1) * p) // q - ((n + 2) * p) // q + 1] for n in range(2400))
    levels = [w.to_str() for w in sturmian_levels(cf, k - 1)]
    for N in range(1, 2401):
        digits, lengths = _ostrowski_digits(cf, N)
        assert sum(b * n for b, n in zip(digits, lengths[1:])) == N
        for j, b in enumerate(digits[:-1]):
            assert b <= cf.coefficient(j + 1) - (j == 0) and (b < cf.coefficient(j + 1) or not j
                                                            or not digits[j - 1]), (N, digits)
        blocks = "".join(levels[j + 1] * b for j, b in reversed(list(enumerate(digits))) if b)
        assert blocks == oracle[:N] == characteristic_prefix(cf, N).to_str(), N


@pytest.mark.parametrize("coeffs,expected", [((1, 2**40), "aaaaa"), ((2**64, 1), "bbbbb")],
                         ids=["huge_a2", "huge_a1"])
def test_qs_prefix_builds_no_level_longer_than_needed(coeffs, expected):
    # s_2 = a^(2^40) b and s_1 = b^(2^64 - 1) a: both prefixes are cut from
    # a power of the level below, and neither level is built.
    spec = ModelSpec(ContinuedFraction(coeffs), Substitution.identity(),
                     Word.from_str("", ("a", "b")), {"a": 1.0, "b": 0.0})
    tracemalloc.start()
    try:
        word = qs_prefix(spec, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word.to_str() == expected
    assert peak < 2**20, peak


@pytest.mark.parametrize("model", BENCH)
def test_level_words_prime_match_substituted_levels(bench_specs, model):
    # level_words_prime concatenates S(a) and S(b); substituting every
    # Sturmian level word is the definition.
    spec = bench_specs[model]
    for n in range(1, 15):
        expected = [substitute(spec.subst, s) for s in sturmian_levels(spec.cf, n)]
        got = level_words_prime(spec, n)
        assert len(got) == len(expected) == n + 2
        for g, e in zip(got, expected):
            _assert_same_word(g, e)


def test_level_words_prime_needs_both_letters(fib_cf):
    subst = Substitution.from_strings({"b": "01", "c": "1"})
    spec = ModelSpec(fib_cf, subst, Word.from_str("", ("0", "1")), {"0": 0.0, "1": 1.0})
    with pytest.raises(SymbolOutsideDomain, match=r"^symbol 'a' outside substitution domain$"):
        level_words_prime(spec, 3)


def test_characteristic_prefix_is_common_prefix(fib_cf):
    w = characteristic_prefix(fib_cf, 30)
    levels = sturmian_levels(fib_cf, 9)
    assert levels[10][:30] == w


# -------------------------------------------------------------- substitutions

def test_substitute_concatenates():
    s = Substitution.from_strings({"a": "011001", "b": "001011"})
    w = Word.from_str("ab", ("a", "b"))
    assert substitute(s, w).to_str() == "011001001011"


def _substitute_loop(s, w):
    """Reference: concatenate the images symbol by symbol."""
    alphabet = s.target_alphabet
    out = []
    for c in w.codes:
        letter = w.alphabet[c]
        if letter not in s.images:
            raise SymbolOutsideDomain(f"symbol {letter!r} outside substitution domain")
        out.append(s.images[letter].recode(alphabet).codes)
    return Word(np.concatenate(out) if out else np.empty(0, dtype=np.int32), alphabet)


_LABELS = ("a", "b", "c", "xy", "\u03b1", "")


@given(st.lists(st.text("01z", min_size=1, max_size=7), min_size=1, max_size=4),
       st.lists(st.integers(0, 4), max_size=60))
@settings(max_examples=80, deadline=None)
def test_substitute_and_to_str_match_loops(images, letters):
    # Images for the first len(images) letters only: letter codes beyond
    # them are outside the domain and must raise the loop's error.
    s = Substitution.from_strings({"abcde"[i]: img for i, img in enumerate(images)})
    w = Word(letters, tuple("abcde"))
    try:
        expected = _substitute_loop(s, w)
    except SymbolOutsideDomain as e:
        with pytest.raises(SymbolOutsideDomain, match=str(e)):
            substitute(s, w)
        return
    got = substitute(s, w)
    assert got.alphabet == expected.alphabet
    assert got.codes.tolist() == expected.codes.tolist()
    labelled = Word([c % len(_LABELS) for c in letters], _LABELS)
    assert labelled.to_str() == "".join(_LABELS[c] for c in labelled.codes)
    assert got.to_str() == "".join(got.alphabet[c] for c in got.codes)


def test_substitution_aperiodicity():
    assert Substitution.from_strings({"a": "011001", "b": "001011"}).is_aperiodic()
    assert Substitution.from_strings({"a": "ab", "b": "b"}).is_aperiodic()
    assert not Substitution.from_strings({"a": "ab", "b": "abab"}).is_aperiodic()


def test_reflection_identity(fib_cf):
    # S^R(w^R) = (S(w))^R
    s = Substitution.from_strings({"a": "011001", "b": "001011"})
    w = sturmian_levels(fib_cf, 8)[9]
    lhs = substitute(reflect_subst(s), reflect(w))
    rhs = reflect(substitute(s, w))
    assert lhs == rhs


def test_qs_prefix_matches_level_words(q5_spec):
    primes = level_words_prime(q5_spec, 8)
    u = qs_prefix(q5_spec, len(primes[9]))
    assert u == primes[9]


def test_qs_prefix_shift(fib_spec):
    u = qs_prefix(fib_spec, 50)
    v = qs_prefix(fib_spec, 40, shift=10)
    assert u[10:50] == v


def _characteristic_symbols(cf, start, length):
    """Oracle: c_theta[start:start + length] in exact integers, from the
    characteristic word of a convergent p/q with q > start + length + 1,
    whose symbol n < q - 2 is a where floor((n + 2) p/q) - floor((n + 1) p/q)
    is 1 and b where it is 0."""
    k = next(k for k in range(1, 200) if approximants(cf, k)[1] > start + length + 1)
    p, q = approximants(cf, k)
    return "".join("ab"[((n + 1) * p) // q - ((n + 2) * p) // q + 1] for n in range(start, start + length))


@pytest.mark.parametrize("coeffs,periodic", [((), (1,)), ((3, 1, 4, 1, 5, 9, 2, 6), (1,)), ((1, 1000), (2, 999)),
                                             ((7,), (1, 3))], ids=["fibonacci", "digits", "a2_is_1000", "a1_is_7"])
@pytest.mark.parametrize("shift", [10**9, 10**9 + 7, 10**12 - 1, 10**12 + 12345, 10**15 - 2000, 10**15])
def test_sturmian_window_at_huge_shift_matches_integer_oracle(coeffs, periodic, shift):
    # With S the identity and no prefix, u = c_theta: its window far past
    # the length budget's end matches the exact characteristic word.
    cf = ContinuedFraction(coeffs, periodic)
    spec = ModelSpec(cf, Substitution.identity(), Word.from_str("", ("a", "b")), {"a": 1.0, "b": 0.0})
    assert qs_prefix(spec, 2000, shift=shift).to_str() == _characteristic_symbols(cf, shift, 2000)


# A substitution model with |S(a)| > |S(b)|, a transient prefix and a
# three-letter model with a_1 = 7, besides the benchmark's q5 and prefixed.
COMPOSE_MODELS = {
    "long_a": {"cf": {"coeffs": [3, 2, 1], "periodic": [2, 1]}, "substitution": {"a": "0110", "b": "1"},
               "prefix": "10110", "potential": {"0": 0.0, "1": 1.0}},
    "a1_is_7": {"cf": {"coeffs": [7, 2, 3], "periodic": [1, 2]}, "substitution": {"a": "xyz", "b": "zy"},
                "prefix": "x", "potential": {"x": 0.0, "y": 1.0, "z": 2.0}},
}


@given(model=st.sampled_from(["q5", "prefixed", *COMPOSE_MODELS]), shift=st.integers(0, 10**15),
       L1=st.integers(1, 3000), L2=st.integers(1, 3000))
@settings(max_examples=80, deadline=None)
def test_qs_prefix_windows_compose(bench_specs, model, shift, L1, L2):
    # u[s:s+L1+L2] = u[s:s+L1] u[s+L1:s+L1+L2]: three windows tiled apart
    # by their own Ostrowski digits spell the same word.
    spec = bench_specs[model] if model in bench_specs else ModelSpec.from_json(COMPOSE_MODELS[model])
    whole = qs_prefix(spec, L1 + L2, shift=shift)
    _assert_same_word(whole, qs_prefix(spec, L1, shift=shift) + qs_prefix(spec, L2, shift=shift + L1))


def test_qs_prefix_with_head(prefix_spec):
    u = qs_prefix(prefix_spec, 30)
    assert u.to_str().startswith("bb")
    assert u[2:30] == characteristic_prefix(prefix_spec.cf, 28)


# ------------------------------------------------------------------ ModelSpec

def test_modelspec_injectivity_guard(fib_cf):
    with pytest.raises(ValueError, match=r"^potential map must be injective \(or set allow_non_injective\)$"):
        ModelSpec(fib_cf, Substitution.identity(), Word.from_str("", ("a", "b")),
                  {"a": 1.0, "b": 1.0})
    with pytest.raises(ValueError, match=r"^potential undefined for alphabet symbol 'b'$"):
        ModelSpec(fib_cf, Substitution.identity(), Word.from_str("", ("a", "b")), {"a": 1.0})


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e308", "-1.01e300"])
def test_modelspec_refuses_nonfinite_and_huge_potential(value):
    # json reads Infinity and NaN as floats, and near the largest double the
    # energy window and the Sturm chunking overflow: every value past 1e300,
    # where all commands still run without a RuntimeWarning, is refused.
    d = json.loads('{"cf": {"coeffs": [1], "periodic": [1]}, "substitution": {"a": "a", "b": "b"}, '
                   f'"potential": {{"a": 0.0, "b": {value}}}}}')
    with pytest.raises(ValueError, match=r"^potential value for symbol 'b' must be finite"):
        ModelSpec.from_json(d)
    d["potential"]["b"] = 1e300
    assert ModelSpec.from_json(d).potential == {"a": 0.0, "b": 1e300}


def test_modelspec_json_roundtrip(q5_spec):
    back = ModelSpec.from_json(q5_spec.to_json())
    assert back.fingerprint() == q5_spec.fingerprint()
    assert qs_prefix(back, 100) == qs_prefix(q5_spec, 100)


def test_fingerprint_distinguishes_models(fib_spec, cf2_spec):
    assert fib_spec.fingerprint() != cf2_spec.fingerprint()


@pytest.mark.parametrize("model", BENCH)
def test_fingerprint_is_hashlib_sha256(bench_specs, model):
    # The fingerprint takes SHA-256 from the interpreter's own module, not
    # from hashlib; the digest is the same.
    spec = bench_specs[model]
    blob = json.dumps(spec.to_json(), sort_keys=True, separators=(",", ":")).encode()
    assert spec.fingerprint() == hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------- complexity

def test_sturmian_complexity(fib_cf):
    w = characteristic_prefix(fib_cf, 2000)
    assert complexity(w, 40) == [n + 1 for n in range(1, 41)]


def test_periodic_complexity_is_bounded():
    w = Word.from_str("ab" * 100, ("a", "b"))
    assert complexity(w, 10) == [2] * 10


@pytest.mark.parametrize("length", [1000, 30_000])
def test_substitute_long_words_match_loop(length):
    # Images of lengths 1, 3 and 2.
    s = Substitution.from_strings({"a": "0", "b": "01z", "c": "z1"})
    w = Word(np.random.default_rng(length).integers(0, 3, length), ("a", "b", "c"))
    assert substitute(s, w) == _substitute_loop(s, w)
    with pytest.raises(SymbolOutsideDomain, match="'d'"):
        substitute(s, Word(np.r_[w.codes, 3, 0], ("a", "b", "c", "d")))


def _substitute_per_symbol(s, w):
    """Oracle: the per-symbol substitute, one image array per symbol of w."""
    alphabet = s.target_alphabet
    missing = [letter not in s.images for letter in w.alphabet]
    if any(missing):
        bad = np.flatnonzero(np.array(missing)[w.codes])
        if len(bad):
            raise SymbolOutsideDomain(f"symbol {w[int(bad[0])]!r} outside substitution domain")
    images = [s.images[letter].recode(alphabet).codes if letter in s.images
              else np.empty(0, dtype=np.int32) for letter in w.alphabet]
    pieces = [images[c] for c in w.codes.tolist()] or [np.empty(0, dtype=np.int32)]
    return Word(np.concatenate(pieces), alphabet)


@pytest.mark.parametrize("model", BENCH)
def test_substitute_matches_per_symbol_on_bench_models(bench_specs, model):
    spec = bench_specs[model]
    base = characteristic_prefix(spec.cf, 10**5)
    _assert_same_word(substitute(spec.subst, base), _substitute_per_symbol(spec.subst, base))


@pytest.mark.parametrize("letters", ["", "a", "b", "c", "ba", "cab", "ccccbcaaab"])
def test_substitute_matches_per_symbol_on_short_words(letters):
    # Images of lengths 3, 1 and 5; the word's alphabet has a letter the
    # substitution has no image for, which is fine while it does not occur.
    s = Substitution.from_strings({"a": "xyz", "b": "y", "c": "zzxyx"})
    w = Word.from_str(letters, ("a", "b", "c", "d"))
    _assert_same_word(substitute(s, w), _substitute_per_symbol(s, w))


def test_substitute_missing_symbol_message():
    s = Substitution.from_strings({"a": "xyz", "b": "y"})
    w = Word.from_str("abbadab", ("a", "b", "d"))
    with pytest.raises(SymbolOutsideDomain) as want:
        _substitute_per_symbol(s, w)
    assert str(want.value) == "symbol 'd' outside substitution domain"
    with pytest.raises(SymbolOutsideDomain, match=f"^{re.escape(str(want.value))}$"):
        substitute(s, w)


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", BENCH)
def test_substitute_peak_memory(bench_specs, model):
    # The per-symbol oracle peaks at about 4.0 MB on a 10^5-symbol base
    # whatever the images; the gather's int32 index and output scale with
    # |S(w)|, which is 6 * 10^5 symbols on q5.
    spec = bench_specs[model]
    base = characteristic_prefix(spec.cf, 10**5)
    per_symbol = _peak(lambda: _substitute_per_symbol(spec.subst, base))
    peak = _peak(lambda: substitute(spec.subst, base))
    if model == "q5":
        assert peak <= 1.25 * per_symbol, (peak, per_symbol)
    else:
        assert peak < per_symbol, (peak, per_symbol)


def _brute_complexity(codes, n_max):
    return [len({tuple(codes[i:i + n]) for i in range(len(codes) - n + 1)})
            for n in range(1, n_max + 1)]


# A short random block repeated gives long repeated factors, so both the
# capped index (ties left at 2^P) and the fully sorted one are reached.
_words = st.tuples(st.integers(2, 4), st.lists(st.integers(0, 3), min_size=1, max_size=12),
                   st.integers(1, 8), st.lists(st.integers(0, 3), max_size=12)).map(
    lambda t: [c % t[0] for c in t[1] * t[2] + t[3]]).filter(lambda codes: len(codes) >= 2)


@given(_words, st.data())
@settings(max_examples=150, deadline=None)
def test_complexity_matches_brute_force(codes, data):
    n_max = data.draw(st.integers(1, len(codes) - 1))
    w = Word(codes, ("a", "b", "c", "d"))
    assert complexity(w, n_max) == _brute_complexity(codes, n_max)


@given(_words, st.data())
@settings(max_examples=80, deadline=None)
def test_complexity_reuses_and_regrows_index(codes, data):
    small = data.draw(st.integers(1, len(codes) - 1))
    large = data.draw(st.integers(small, len(codes) - 1))
    w = Word(codes, ("a", "b", "c", "d"))
    complexity(w, small)
    assert complexity(w, large) == complexity(Word(codes, ("a", "b", "c", "d")), large)
    assert complexity(w, small) == _brute_complexity(codes, small)


# Two or three letters, with long repeats so that capped indexes are reached.
_sliced = st.tuples(st.integers(2, 3), st.lists(st.integers(0, 2), min_size=1, max_size=12),
                    st.integers(1, 8), st.lists(st.integers(0, 2), max_size=12)).map(
    lambda t: [c % t[0] for c in t[1] * t[2] + t[3]]).filter(lambda codes: len(codes) >= 3)


@given(_sliced, st.data())
@settings(max_examples=150, deadline=None)
def test_factor_counts_match_complexity_of_the_slice(codes, data):
    # decompose reads the counts of its length-0 base from the window's index
    lo = data.draw(st.integers(0, len(codes) - 2))
    hi = data.draw(st.integers(lo + 2, len(codes)))
    n_max = data.draw(st.integers(1, hi - lo - 1))
    w = Word(codes, ("a", "b", "c"))
    counts = factor_index(w, n_max).factor_counts(lo, hi, n_max)
    assert counts == complexity(w[lo:hi], n_max)


# The packed first key spans 32 symbols over one or two letters, 16 over
# three to five and 4 over 255 (base^k < 2^63 with base = letters + 1).
_PACKED_SPAN = {1: 32, 2: 32, 3: 16, 5: 16, 255: 4}


def _index_words(sigma):
    rng = np.random.default_rng(sigma)
    top = sigma - 1
    block = rng.integers(0, sigma, 7).tolist()
    return {
        "random": rng.integers(0, sigma, 90).tolist(),
        "periodic": (block * 13)[:90],
        "one_letter": [top] * 70,
        # 32 copies of the largest letter give the largest packed key
        "top_run": rng.integers(0, sigma, 20).tolist() + [top] * 32 + rng.integers(0, sigma, 30).tolist(),
    }


def _index_oracle(codes):
    """Suffixes sorted as Python slices, the LCP of neighbours by direct
    comparison, and per length m the dense rank of every window w[i:i+m]
    (cut at the end of the word) and the first occurrence of each factor."""
    n = len(codes)
    order = sorted(range(n), key=lambda i: codes[i:])

    def common(i, j):
        k = 0
        while i + k < n and j + k < n and codes[i + k] == codes[j + k]:
            k += 1
        return k

    lcp = [common(i, j) for i, j in zip(order, order[1:])]
    classes, first = {}, {}
    for m in range(1, n + 1):
        windows = [tuple(codes[i:i + m]) for i in range(n)]
        rank = {win: r for r, win in enumerate(sorted(set(windows)))}
        classes[m] = [rank[win] for win in windows]
        seen = {}
        for i, win in enumerate(windows[:n - m + 1]):
            seen.setdefault(win, i)
        first[m] = sorted(seen.values())
    return lcp, classes, first


@pytest.mark.parametrize("kind", ["random", "periodic", "one_letter", "top_run"])
@pytest.mark.parametrize("sigma", sorted(_PACKED_SPAN))
def test_build_index_matches_naive_oracle(sigma, kind):
    codes = _index_words(sigma)[kind]
    n = len(codes)
    lcp, classes, first = _index_oracle(codes)
    k = _PACKED_SPAN[sigma]
    for length in sorted({1, 2, 3, k - 1, k, k + 1, 2 * k + 3, n - 1, n, n + 5}):
        span = 1
        while span < length:
            span *= 2
        cap = span if max(lcp) >= span else n
        index = _build_index(np.array(codes, dtype=np.int32), length)
        assert index.cap == cap, (length, index.cap, cap)
        assert index.lcp.tolist() == [min(x, cap) for x in lcp], length
        assert sorted(index.order.tolist()) == list(range(n))
        for m in range(1, min(cap, n) + 1):
            runs = index.classes(m)
            assert runs.dtype == np.int32, runs.dtype
            assert runs.tolist() == classes[m], (length, m)
            assert index.first_occurrences(m).tolist() == first[m], (length, m)


def test_build_index_peak_memory(bench_specs):
    # The ranks of the doubling rounds, in the smallest type that holds them,
    # are kept for the LCP lifting, and the packed key is rebuilt once they
    # are used up; the rest is freed round by round or allocated per chunk.
    codes = qs_prefix(bench_specs["fibonacci"], 10**5).codes
    peak = _peak(lambda: _build_index(codes, 401))
    assert peak <= 3.6e6, peak


@pytest.mark.parametrize("model", BENCH)
def test_build_index_bytes_per_symbol(bench_specs, model):
    # int32 order and LCP, int8 or int16 ranks, int32 keys after the first
    # round and chunked LCP lifting: about 24 bytes per symbol at this length
    # (46 with int32 ranks and int64 keys, 80 with int64 everything).
    codes = qs_prefix(bench_specs[model], 10**5).codes
    peak = _peak(lambda: _build_index(codes, 201))
    assert peak <= 34 * len(codes), peak / len(codes)


def test_complexity_window_guard():
    w = Word.from_str("ab" * 10)
    with pytest.raises(WindowTooLarge):
        complexity(w, 20)
    assert safe_window(w) == 5


# ---------------------------------------------------------------- palindromes

def test_palindrome_split_parity(fib_cf):
    levels = sturmian_levels(fib_cf, 10)
    for n in range(2, 11):
        pi, tail = palindrome_split(levels[n + 1], n, strict_parity=True)
        assert pi == pi.reverse()
        expected = ("a", "b") if n % 2 == 0 else ("b", "a")
        assert (tail[0], tail[1]) == expected
        assert pi + tail == levels[n + 1]


def test_palindrome_split_rejects_non_level_word():
    with pytest.raises(NotPalindromicDecomposition):
        palindrome_split(Word.from_str("aabb"), 3)
    with pytest.raises(NotPalindromicDecomposition):
        palindrome_split(Word.from_str("abab"), 3)


# -------------------------------------------------------------------- squares

def test_find_squares_fibonacci(fib_spec):
    squares = find_squares(fib_spec, 0, 6)
    assert [n for (_m, n, _k) in squares] == [2, 3, 4, 5, 6]
    sites = {m for (m, _n, _k) in squares}
    assert len(sites) == 1
    # each reported square really is a repetition in the sequence
    primes = level_words_prime(fib_spec, 7)
    m = sites.pop()
    for _, n, kind in squares:
        ell = len(primes[n + 1]) + (len(primes[n]) if kind == "composite" else 0)
        u = qs_prefix(fib_spec, m + 2 * ell)
        assert u[m:m + ell] == u[m + ell:m + 2 * ell]


def test_find_squares_rejects_bad_level(fib_spec):
    with pytest.raises(ValueError):
        find_squares(fib_spec, 0, 1)


def _rotations(wb: bytes) -> set:
    ell = len(wb)
    doubled = wb + wb
    return {doubled[i:i + ell] for i in range(ell)}


def _find_squares_scan(spec, shift, n_max):
    """Oracle: the per-site scan find_squares ran before the linear one."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    primes = level_words_prime(spec, n_max)
    ell_max = len(primes[n_max + 1]) + len(primes[n_max])
    window = 4 * len(primes[n_max + 1])
    scan_len = window + 2 * ell_max + 1
    u = qs_prefix(spec, scan_len, shift=shift)
    ub = u.to_bytes()

    per_level = []
    for n in range(2, n_max + 1):
        sn = primes[n + 1]
        found = {}
        for kind, block in (("single", sn), ("composite", sn + primes[n])):
            ell = len(block)
            rots = _rotations(block.recode(u.alphabet).to_bytes())
            for m in range(window):
                if m in found:
                    continue
                cand = ub[m:m + ell]
                if cand == ub[m + ell:m + 2 * ell] and cand in rots:
                    found[m] = kind
        per_level.append(found)

    common = set(per_level[0])
    for found in per_level[1:]:
        common &= set(found)
    if not common:
        raise NoCommonSite(
            f"no common square site for levels 2..{n_max} within window {window}; enlarge and retry"
        )
    m = min(common)
    return [(m, n, per_level[n - 2][m]) for n in range(2, n_max + 1)]


@pytest.mark.parametrize("shift", [0, 97, 500])
@pytest.mark.parametrize("model", ["fibonacci", "q5", "digits", "prefixed"])
def test_find_squares_matches_scan(bench_specs, model, shift):
    spec = bench_specs[model]
    for n_max in range(2, (8 if model == "digits" else 12) + 1):
        assert find_squares(spec, shift, n_max) == _find_squares_scan(spec, shift, n_max)


def test_find_squares_no_common_site_matches_scan(bench_specs):
    # A head of 100 equal symbols holds no square of a word with both
    # symbols, and the scan window at n_max <= 3 ends inside it.
    spec = bench_specs["prefixed"]
    spec = ModelSpec(spec.cf, spec.subst, Word.from_str("1" * 100, ("0", "1")), spec.potential)
    for n_max in (2, 3):
        with pytest.raises(NoCommonSite) as want:
            _find_squares_scan(spec, 0, n_max)
        with pytest.raises(NoCommonSite, match=re.escape(str(want.value))):
            find_squares(spec, 0, n_max)
    assert find_squares(spec, 100, 3) == _find_squares_scan(spec, 100, 3)
