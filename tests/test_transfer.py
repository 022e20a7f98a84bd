"""Transfer matrices, Lyapunov estimates, solutions, Gordon residuals."""

import decimal
import json
import math
import re
import tracemalloc
import warnings
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsturm.transfer
import qsturm.window
from qsturm.cli import main
from qsturm.contfrac import approximants
from qsturm.errors import DegenerateFit, OutOfRange, SymbolOutsideDomain, ZeroInitialCondition
from qsturm.spectrum import energy_window
from qsturm.tracemap import orbit_trace
from qsturm.transfer import (
    _BATCH,
    GordonResult,
    GrowthExponents,
    _dyadic,
    _levels,
    _power,
    _window_product,
    gordon_residual,
    growth_exponents,
    half_traces_many,
    initial_triple,
    initial_triple_many,
    level_matrices,
    level_matrices_many,
    local_matrix,
    local_norm,
    lyapunov,
    lyapunov_many,
    solve,
    sturm_counts,
    word_matrix,
)
from qsturm.window import _dd_mul, _dd_sites, _fold, _pair_mul, _pair_sites
from qsturm.words import (
    ModelSpec,
    Word,
    _potential_table,
    _window_factors,
    characteristic_prefix,
    find_squares,
    level_words_prime,
    qs_prefix,
    substitute,
)

BENCH_MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"
# The approximant levels of the benchmark's `bands` ops, one per model.
BENCH_LEVELS = {"fibonacci": 12, "q5": 8, "digits": 5, "prefixed": 10}
# Grids one short of, equal to and one past a batch, and three batches and a tail.
BATCH_SIZES = [_BATCH - 1, _BATCH, _BATCH + 1, 3 * _BATCH + 17]


# ------------------------------------------------------------------- matrices

def test_local_matrix_unimodular():
    M = local_matrix(1.7, 0.4)
    assert np.linalg.det(M) == pytest.approx(1.0)
    assert M[0, 0] == pytest.approx(1.3)


def test_word_matrix_order():
    # first symbol of the word must act first (rightmost factor)
    f = {"a": 2.0, "b": 0.0}
    E = 0.7
    w = Word.from_str("ab")
    expected = local_matrix(E, 0.0) @ local_matrix(E, 2.0)
    assert word_matrix(E, w, f) == pytest.approx(expected)


def test_word_matrix_concatenation():
    f = {"a": 2.0, "b": 0.0}
    E = -0.3
    u, v = Word.from_str("abba"), Word.from_str("bab")
    assert word_matrix(E, u + v, f) == pytest.approx(
        word_matrix(E, v, f) @ word_matrix(E, u, f))


def test_word_matrix_refuses_symbols_outside_the_potential(fib_spec):
    # A symbol that f does not map is refused as ModelSpec.potential_values
    # refuses it, not with a raw KeyError.
    w = Word.from_str("abc")
    for call in (lambda: word_matrix(0.5, w, {"a": 1.0, "b": 0.0}), lambda: fib_spec.potential_values(w)):
        with pytest.raises(SymbolOutsideDomain, match=r"^symbol 'c' outside potential domain$"):
            call()
    # the matrix of a word over a larger f is the product of its sites
    expected = local_matrix(0.5, 3.0) @ local_matrix(0.5, 0.0) @ local_matrix(0.5, 1.0)
    assert word_matrix(0.5, w, {"a": 1.0, "b": 0.0, "c": 3.0, "d": 9.0}) == pytest.approx(expected)


def test_level_matrix_recursion(fib_spec):
    E = 0.25
    mats = level_matrices(fib_spec, E, 8)
    for n in range(2, 9):
        a_n = fib_spec.cf.coefficient(n)
        assert mats[n + 1] == pytest.approx(
            mats[n - 1] @ np.linalg.matrix_power(mats[n], a_n))
        # determinants stay unimodular up to rounding at the matrix scale
        scale = float(np.max(np.abs(mats[n + 1]))) ** 2
        assert abs(np.linalg.det(mats[n + 1]) - 1.0) <= 1e-12 * (1.0 + scale)


def test_level_matrix_equals_word_matrix(q5_spec):
    from qsturm.words import level_words_prime
    E = 1.1
    mats = level_matrices(q5_spec, E, 6)
    primes = level_words_prime(q5_spec, 6)
    for n in (3, 5, 6):
        assert mats[n + 1] == pytest.approx(
            word_matrix(E, primes[n + 1], q5_spec.potential), rel=1e-10)


def test_vectorized_matrices_match_scalar(fib_spec):
    energies = np.array([-1.0, 0.0, 1.5, 3.0])
    stacks = level_matrices_many(fib_spec, energies, 7)
    for i, E in enumerate(energies):
        mats = level_matrices(fib_spec, float(E), 7)
        for n in range(-1, 8):
            assert stacks[n + 1][i] == pytest.approx(mats[n + 1])
    x, y, z = initial_triple_many(fib_spec, energies)
    for i, E in enumerate(energies):
        t = initial_triple(fib_spec, float(E))
        assert (x[i], y[i], z[i]) == pytest.approx(tuple(t))
    ht = half_traces_many(fib_spec, energies, 5)
    for i, E in enumerate(energies):
        M = level_matrices(fib_spec, float(E), 5)[6]
        assert ht[i] == pytest.approx(0.5 * np.trace(M))


@pytest.mark.parametrize("model,top", [("fib_spec", 4.0), ("q5_spec", 4.0), ("digits_spec", -1.9)],
                         ids=["fib_spec", "q5_spec", "digits_spec"])
def test_level_matrices_many_match_site_products(model, top, request):
    # Oracle: the product of single-site matrices over s'_n, built site by
    # site without the level recursion. On digits_spec the site product
    # over |s'_6| = 1229 sites overflows at E = 4.0, so -1.9 stands in.
    from qsturm.words import level_words_prime
    spec = request.getfixturevalue(model)
    energies = np.array([-1.3, 0.2, 1.1, 2.6, top])
    stacks = level_matrices_many(spec, energies, 6)
    primes = level_words_prime(spec, 6)
    for i, E in enumerate(energies):
        for n in range(-1, 7):
            ref = np.eye(2)
            for v in spec.potential_values(primes[n + 1]):
                ref = local_matrix(E, v) @ ref
            err = np.max(np.abs(stacks[n + 1][i] - ref))
            assert err <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("K", BATCH_SIZES)
def test_batched_traces_match_level_stacks(bench_specs, K):
    # Bit for bit: batching cuts the grid, not the arithmetic of an energy.
    # half_traces_many gives each energy the y of its scalar orbit_trace,
    # and the initial triple is read from the traces of the level stacks.
    for model, n in BENCH_LEVELS.items():
        spec = bench_specs[model]
        energies = np.linspace(*energy_window(spec), K)
        with np.errstate(over="ignore", invalid="ignore"):
            stacks = level_matrices_many(spec, energies, 1)
            got = half_traces_many(spec, energies, n)
            x, y, z = initial_triple_many(spec, energies)
        sample = np.unique(np.r_[0, _BATCH - 1, _BATCH, K - 1, np.arange(0, K, 97)].clip(0, K - 1))
        for i in sample:
            with np.errstate(over="ignore", invalid="ignore"):
                want = orbit_trace(spec, float(energies[i]), n)[n - 1].y
            assert np.float64(want).tobytes() == got[i].tobytes()
        half_trace = [0.5 * (M[:, 0, 0] + M[:, 1, 1]) for M in stacks]
        assert x.tobytes() == half_trace[1].tobytes()
        assert y.tobytes() == half_trace[2].tobytes()
        a, b = stacks[2], stacks[1]  # tr(M(1) M(0)), entrywise as the kernel multiplies
        tr = (a[:, 0, 0] * b[:, 0, 0] + a[:, 0, 1] * b[:, 1, 0]) + (a[:, 1, 0] * b[:, 0, 1] + a[:, 1, 1] * b[:, 1, 1])
        assert z.tobytes() == (0.5 * tr).tobytes()


def _half_trace_digits(spec, n, E, digits=40):
    """Oracle: tr M_E(n) / 2 from the site-by-site product over s'_n in
    `digits`-digit decimal arithmetic (E and the potential enter exactly)."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        e = decimal.Decimal(E)
        m11, m12, m21, m22 = 1, 0, 0, 1
        for v in spec.potential_values(level_words_prime(spec, n)[n + 1]):
            d = e - decimal.Decimal(float(v))
            m11, m12, m21, m22 = d * m11 - m21, d * m12 - m22, m11, m12
        return float((m11 + m22) / 2)


@pytest.mark.parametrize("model,n", [("fibonacci", 14), ("q5", 10), ("digits", 6), ("prefixed", 12)])
def test_half_traces_accurate_where_level_products_disagree(bench_specs, model, n):
    # Where the trace map and the level products differ most, the trace map
    # is within 1e-10 of the 40-digit half trace (worst seen: 2.7e-11 on
    # digits); the level products were off by 1.3e-10 to 2.6e-7 there.
    spec = bench_specs[model]
    energies = np.linspace(*energy_window(spec), 3 * _BATCH + 17)
    with np.errstate(over="ignore", invalid="ignore"):
        got = half_traces_many(spec, energies, n)
        M = level_matrices_many(spec, energies, n)[n + 1]
        gap = np.abs(got - 0.5 * (M[:, 0, 0] + M[:, 1, 1]))
    gap[~(np.abs(got) <= 1.5)] = -1.0
    for i in np.argsort(gap)[-12:]:
        assert abs(got[i] - _half_trace_digits(spec, n, energies[i])) <= 1e-10


def test_half_traces_report_overflow_without_a_warning(bench_specs):
    # digits at level 6 leaves double range over half of [-5, 5]: the orbit
    # there reads inf or nan, and numpy's overflow warning (an error under
    # the pytest settings) is not raised.
    y = half_traces_many(bench_specs["digits"], np.linspace(-5.0, 5.0, 2000), 6)
    assert int((~np.isfinite(y)).sum()) == 1012
    assert np.isfinite(y[np.abs(np.linspace(-5.0, 5.0, 2000)) < 2.0]).all()


# ------------------------------------------------------------------- Lyapunov

def test_lyapunov_free_case_closed_form(free_spec):
    # |E| > 2: gamma = ln((|E| + sqrt(E^2 - 4)) / 2)
    got = lyapunov(free_spec, 3.0, 20_000)
    assert got == pytest.approx(math.log((3.0 + math.sqrt(5.0)) / 2.0), abs=1e-4)


def test_lyapunov_free_case_inside_band(free_spec):
    assert lyapunov(free_spec, 0.5, 20_000) < 5e-3


def test_lyapunov_many_matches_scalar(fib_spec):
    energies = np.array([-1.5, 0.0, 4.0])
    many = lyapunov_many(fib_spec, energies, 2000)
    for i, E in enumerate(energies):
        assert many[i] == pytest.approx(lyapunov(fib_spec, float(E), 2000))


def test_lyapunov_requires_long_product(fib_spec):
    with pytest.raises(ValueError):
        lyapunov(fib_spec, 0.0, 100)


def _spectral_norms(m11, m12, m21, m22):
    """Largest singular value of each 2x2 in entrywise representation, from
    entries scaled by the exact power of two that brings the largest to
    [0.5, 1), so that no square overflows."""
    _, e = np.frexp(np.maximum.reduce([np.abs(m11), np.abs(m12), np.abs(m21), np.abs(m22)]))
    m11, m12, m21, m22 = (np.ldexp(m, -e) for m in (m11, m12, m21, m22))
    t = m11 * m11 + m12 * m12 + m21 * m21 + m22 * m22
    det = m11 * m22 - m12 * m21
    disc = np.maximum(t * t - 4.0 * det * det, 0.0)
    return np.ldexp(np.sqrt(np.maximum(0.5 * (t + np.sqrt(disc)), 0.0)), e)


def _lyapunov_sites(spec, energies, L, shift=0, every=64):
    """Oracle: (1/L) ln ||M_E(L)|| from the plain per-site product in double,
    renormalizing after every `every` sites."""
    energies = np.asarray(energies, dtype=float)
    v = spec.potential_values(qs_prefix(spec, L, shift=shift))
    K = len(energies)
    m11 = np.ones(K)
    m12 = np.zeros(K)
    m21 = np.zeros(K)
    m22 = np.ones(K)
    logsum = np.zeros(K)
    for i in range(L):
        d = energies - v[i]
        m11, m12, m21, m22 = d * m11 - m21, d * m12 - m22, m11, m12
        if (i + 1) % every == 0:
            scale = np.maximum.reduce([np.abs(m11), np.abs(m12), np.abs(m21), np.abs(m22)])
            scale = np.where(scale > 0, scale, 1.0)
            m11 /= scale
            m12 /= scale
            m21 /= scale
            m22 /= scale
            logsum += np.log(scale)
    logsum += np.log(_spectral_norms(m11, m12, m21, m22))
    return logsum / L


@given(model=st.sampled_from(["fibonacci", "q5", "digits", "prefixed"]),
       L=st.integers(min_value=1000, max_value=5000).filter(lambda L: L % 64),
       shift=st.integers(min_value=0, max_value=1000),
       grid=st.sampled_from([1, 200]))
@settings(max_examples=16, deadline=None)
def test_lyapunov_many_matches_site_loop(bench_specs, model, L, shift, grid):
    # on the energy grid of the lyapunov command (worst seen 8.0e-14 on the
    # 200-energy grids of the four models, from 1,000 to 16,383 sites)
    spec = bench_specs[model]
    energies = np.linspace(*energy_window(spec), grid)
    got = lyapunov_many(spec, energies, L, shift=shift)
    assert np.max(np.abs(got - _lyapunov_sites(spec, energies, L, shift))) <= 1e-11


@pytest.mark.parametrize("L", [1024, 1088, 1089])
def test_lyapunov_many_matches_site_loop_at_chunk_ends(bench_specs, L):
    # the oracle renormalizes after the last site where L is a multiple of
    # 64, and not one site later
    energies = np.array([-1.7, 0.0, 0.3, 2.9, 6.0])
    got = lyapunov_many(bench_specs["q5"], energies, L, shift=5)
    assert np.max(np.abs(got - _lyapunov_sites(bench_specs["q5"], energies, L, 5))) <= 1e-11
    assert lyapunov_many(bench_specs["q5"], energies[:0], L).shape == (0,)


@pytest.mark.parametrize("big", [1e5, 1e7])
def test_lyapunov_large_potential_stays_finite(big, tmp_path, capsys):
    # A site can grow the entries by about big, so 64 sites in double
    # overflow (1e7), and so do the squares of entries left unrenormalized
    # (1e5). The window product rescales every site and level matrix by a
    # power of two before it multiplies it, and the oracle renormalizes
    # after every site, so its entries stay below 1.
    model = json.loads((BENCH_MODELS / "fibonacci.json").read_text())
    model["potential"] = {"a": big, "b": 0.0}
    path = tmp_path / "large.json"
    path.write_text(json.dumps(model))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["lyapunov", str(path), "--length", "1000", "--grid", "5"])
    out = capsys.readouterr()
    assert code == 0, out.err
    rows = [line.split(",") for line in out.out.splitlines()
            if line and not line.startswith(("#", "E,"))]
    energies, gammas = np.array(rows, dtype=float).T
    want = _lyapunov_sites(ModelSpec.from_json(model), energies, 1000, every=1)
    assert np.all(np.isfinite(gammas))
    assert np.max(np.abs(gammas - want)) <= 1e-8


# Lengths either side of 2^14, one 37 past it, and 10^5.
SEGMENT_LENGTHS = [16_383, 16_384, 16_421, 100_000]


@pytest.mark.parametrize("L", SEGMENT_LENGTHS)
@pytest.mark.parametrize("model", ["fibonacci", "q5", "digits", "prefixed"])
def test_lyapunov_many_segments_match_site_loop(bench_specs, model, L):
    # On a 200-energy grid and on one energy (worst seen 6.8e-13).
    spec = bench_specs[model]
    grid = np.linspace(*energy_window(spec), 200)
    for shift in (0, 5):
        want = _lyapunov_sites(spec, np.r_[grid, grid[0]], L, shift)
        for energies, ref in ((grid, want[:-1]), (grid[:1], want[-1:])):
            got = lyapunov_many(spec, energies, L, shift=shift)
            assert np.max(np.abs(got - ref)) <= 1e-11


def _lyapunov_digits(v, E, L, digits=50):
    """Oracle: (1/L) ln ||M_E(L)|| from the site-by-site product in
    `digits`-digit mpmath arithmetic (E and the potential enter exactly)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        e = mpmath.mpf(float(E))
        m11, m12, m21, m22 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        for x in v:
            d = e - mpmath.mpf(float(x))
            m11, m12, m21, m22 = d * m11 - m21, d * m12 - m22, m11, m12
        t = m11 ** 2 + m12 ** 2 + m21 ** 2 + m22 ** 2
        det = m11 * m22 - m12 * m21
        return float(mpmath.log(mpmath.sqrt((t + mpmath.sqrt(t * t - 4 * det * det)) / 2)) / L)


@pytest.mark.parametrize("model,energies", [
    # band centres of sigma_8 (the first three) and gap energies
    ("q5", [1.7776758168486193, 0.22232418315138186, 1.2990887900586154, -0.8818, -2.5, 3.0]),
    # band centres of sigma_12 and gap energies
    ("fibonacci", [-1.0851752888850965, 1.4525087579781024, -0.43159015440330095, 3.0, -1.5]),
])
def test_lyapunov_many_segments_against_50_digit_product(bench_specs, model, energies):
    # In the spectrum ||M_E(L)|| is far smaller than the product of the
    # norms of its factors, so each factor's rounding is amplified; in
    # double-double gamma stays within 1e-13 of the 50-digit product.
    pytest.importorskip("mpmath")
    spec = bench_specs[model]
    L, shift = 16_421, 5
    energies = np.array(energies)
    got = lyapunov_many(spec, energies, L, shift=shift)
    v = spec.potential_values(qs_prefix(spec, L, shift=shift))
    for E, g in zip(energies, got):
        assert abs(g - _lyapunov_digits(v, E, L)) <= 1e-13, E


@pytest.mark.parametrize("model,energies", [
    # q5 band centres where the segmented sweep was off by up to 6.6e-6 and
    # 4.7e-8, and a fibonacci band centre (up to 4.7e-13); at 10^4 sites
    # the site sweep in double was off by 2.9e-6 at the first
    ("q5", [-1.3763462959091761, 3.3763438452369474]),
    ("fibonacci", [-1.0976174165235704]),
])
@pytest.mark.parametrize("L,shift", [(1000, 5), (10_000, 0), (16_421, 5), (16_422, 0)])
def test_lyapunov_window_against_50_digit_product(bench_specs, model, energies, L, shift):
    # The window product in double-double: within 1e-13 of the 50-digit
    # site product (worst seen 4.4e-19).
    pytest.importorskip("mpmath")
    spec = bench_specs[model]
    got = lyapunov_many(spec, np.array(energies), L, shift=shift)
    v = spec.potential_values(qs_prefix(spec, L, shift=shift))
    for E, g in zip(energies, got):
        assert abs(g - _lyapunov_digits(v, E, L)) <= 1e-13, E


# Models whose Ostrowski digits over the image lengths are capped below the
# greedy quotient: |S(a)| > |S(b)| caps b_0 at a_1 - 1, and a_1 = 1 with
# |S(a)| < |S(b)| caps b_1 at a_2. Each has a transient prefix.
CAPPED_MODELS = {
    "long_a": {"cf": {"coeffs": [3, 2, 1], "periodic": [2, 1]},
               "substitution": {"a": "0110", "b": "1"}, "prefix": "10110",
               "potential": {"0": 0.0, "1": 1.0}},
    "a1_is_1": {"cf": {"coeffs": [1, 4], "periodic": [1, 3]},
                "substitution": {"a": "01", "b": "110"}, "prefix": "0",
                "potential": {"0": 0.0, "1": 1.0}},
}


def _window_specs(bench_specs):
    return {**bench_specs, **{k: ModelSpec.from_json(d) for k, d in CAPPED_MODELS.items()}}


@given(model=st.sampled_from(["fibonacci", "q5", "digits", "prefixed", *CAPPED_MODELS]),
       L=st.integers(min_value=1, max_value=3000), shift=st.integers(min_value=0, max_value=3000))
@settings(max_examples=200, deadline=None)
def test_window_factors_spell_the_window(bench_specs, model, L, shift):
    # Expanded symbol by symbol, the factors are the window of u: code
    # arrays as they are, (j, m) as m copies of s'_j. The oracle builds u
    # as prefix . S(c_theta[:6001]), at least 6,001 symbols, by substitution.
    spec = _window_specs(bench_specs)[model]
    factors = _window_factors(spec, L, shift)
    n = next(n for n in range(1, 40) if len(level_words_prime(spec, n)[-1]) > 6000)
    levels = [w.codes for w in level_words_prime(spec, n)]
    got = np.concatenate([np.tile(levels[f[0] + 1], f[1]) if isinstance(f, tuple) else f
                          for f in factors])
    u = spec.prefix.recode(spec.subst.target_alphabet) + substitute(spec.subst, characteristic_prefix(spec.cf, 6001))
    assert got.tolist() == u.codes[shift:shift + L].tolist()


@pytest.mark.parametrize("model", ["prefixed", *CAPPED_MODELS])
@pytest.mark.parametrize("L", [16_384, 16_421])
def test_lyapunov_window_matches_site_loop_on_shifts(bench_specs, model, L):
    # Windows that start in the transient prefix (shifts 0 and 1 on
    # prefixed), at its end, and inside partial images.
    spec = _window_specs(bench_specs)[model]
    energies = np.linspace(*energy_window(spec), 200)
    for shift in (0, 1, 2, 3, 5, 999):
        got = lyapunov_many(spec, energies, L, shift=shift)
        assert np.max(np.abs(got - _lyapunov_sites(spec, energies, L, shift))) <= 1e-11, shift


# The prefixed model behind a transient prefix of 1,000 symbols: the
# Thue-Morse word over 0 and 1.
LONG_PREFIX_MODEL = dict(json.loads((BENCH_MODELS / "prefixed.json").read_text()),
                         prefix="".join("01"[bin(i).count("1") % 2] for i in range(1000)))


@pytest.mark.parametrize("L", [1000, 10_000])
def test_lyapunov_window_matches_site_loop_after_long_prefix(L):
    # Windows that lie inside the prefix (L = 1,000 from shift 0), straddle
    # its end, start on it and start after it. The prefix is multiplied
    # site by site in double-double.
    spec = ModelSpec.from_json(LONG_PREFIX_MODEL)
    energies = np.linspace(*energy_window(spec), 50)
    for shift in (0, 1, 500, 999, 1000, 1001, 4321):
        got = lyapunov_many(spec, energies, L, shift=shift)
        assert np.max(np.abs(got - _lyapunov_sites(spec, energies, L, shift))) <= 1e-11, shift


def test_window_products_count_the_kernel_products(bench_specs, monkeypatch):
    # The CLI's factors metadata is the number of double-double products per
    # energy that the window product performs, one for each lane of a call,
    # besides the one of the spectral norm. transfer reads window._dd_mul at
    # call time, so patching window counts every product, of the window and
    # of the spectral norm alike; a call's lanes are its exponent arrays'
    # size over the 3 energies.
    products = []
    dd_mul = qsturm.window._dd_mul
    monkeypatch.setattr(qsturm.window, "_dd_mul",
                        lambda A, B: products.append(np.broadcast(A[2], B[2]).size // 3) or dd_mul(A, B))
    for model, L, shift in [("q5", 100_000, 0), ("digits", 16_421, 5), ("prefixed", 20_000, 1)]:
        spec = bench_specs[model]
        products.clear()
        lyapunov_many(spec, np.linspace(*energy_window(spec), 3), L, shift=shift)
        assert sum(products) == _window_product.products + 1


def test_lyapunov_long_window_builds_no_word(bench_specs):
    # 10^7 sites of q5 as 46 level products: no 10^7-symbol window is built
    # (that alone would take 80 MB of potential values).
    spec = bench_specs["q5"]
    energies = np.linspace(*energy_window(spec), 200)
    tracemalloc.start()
    try:
        got = lyapunov_many(spec, energies, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 * 4, peak
    assert np.all(np.isfinite(got)) and np.all(got >= 0)
    assert lyapunov_many(spec, energies[:0], 10**7).shape == (0,)


def _dd_window(spec, energies, L, shift):
    """The double-double matrix (hi, lo, e) of the window u[shift:shift+L]."""
    return _window_product(spec, [L], shift, lambda v: _dd_sites(energies, v), _dd_mul)[0]


@pytest.mark.parametrize("model", ["fibonacci", "q5", "prefixed"])
def test_window_products_compose_past_the_length_budget(bench_specs, model):
    # u[s:s+L1+L2] = u[s+L1:s+L1+L2] u[s:s+L1], 8*10^10 sites from 10^9 + 7,
    # three Ostrowski tilings of different windows. Entries are compared
    # after aligning the exponents: 2^e alone overflows off the spectrum.
    spec = bench_specs[model]
    energies = np.linspace(*energy_window(spec), 50)
    s, L1, L2 = 10**9 + 7, 3 * 10**10, 5 * 10**10 + 3
    (ah, al, ae) = _dd_window(spec, energies, L1 + L2, s)
    (bh, bl, be) = _dd_mul(_dd_window(spec, energies, L2, s + L1), _dd_window(spec, energies, L1, s))
    da, db = np.exp2(ae - np.maximum(ae, be)), np.exp2(be - np.maximum(ae, be))
    diff = (ah * da - bh * db) + (al * da - bl * db)
    assert ae.max() > 10**11  # off the spectrum the entries pass 2^(10^11)
    assert np.abs(diff).max() <= 1e-20


@pytest.mark.parametrize("n", [10, 20, 30, 40, 50])
def test_window_half_trace_matches_periodic_orbit(bench_specs, n):
    # With an empty prefix and S the identity, u[0:|s'_n|] = s'_n, whose half
    # trace is the trace map's y_E(n). At fibonacci E = -1 the orbit is
    # periodic and y cycles through +-0.5; |s'_50| = 20,365,011,074.
    spec = bench_specs["fibonacci"]
    hi, lo, e = _dd_window(spec, np.array([-1.0]), approximants(spec.cf, n)[1], 0)
    y = orbit_trace(spec, -1.0, n)[n - 1].y
    assert abs(y) == 0.5
    assert abs((((hi[0, 0] + hi[1, 1]) + (lo[0, 0] + lo[1, 1])) * np.exp2(e))[0] / 2 - y) <= 1e-12


def test_window_product_past_int64_exponents(bench_specs):
    # Off the spectrum the exponent of M passes 2^63 near 3*10^18 q5 sites,
    # where an int64 exponent wrapped (gamma read -0.18 at E = -2.5 and 10^19
    # sites). As a double it rounds past 2^53, and gamma converges at O(1/L).
    spec = bench_specs["q5"]
    energies = np.linspace(*energy_window(spec), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ref = lyapunov_many(spec, energies, 10**15)
        for L in (10**19, 10**100, 10**300):
            assert np.max(np.abs(lyapunov_many(spec, energies, L, shift=10**30) - ref)) <= 1e-12, L
        # the Gram sums add terms whose exponents differ by more than int64 holds
        assert growth_exponents(spec, 0.5, 0, 2**200) == growth_exponents(spec, 0.5, 0, 2**40)
    with pytest.raises(ValueError, match="^shift must be >= 0$"):
        _window_factors(spec, 10**12, -1)


def test_lyapunov_refuses_lengths_past_1e300(bench_specs):
    # From 10**308 q5 sites the exponent of M passed the largest double at
    # E = -2.5 (gamma read inf), and from 10**309 out / L could not convert L
    # to a float. At 10**300 the exponent stays finite at any finite energy.
    spec = bench_specs["q5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gammas = lyapunov_many(spec, np.array([-np.finfo(float).max, 1.0, np.finfo(float).max]), 10**300)
    assert np.isfinite(gammas).all()
    for L in (10**300 + 1, 10**309):
        with pytest.raises(ValueError, match=r"^lyapunov requires L <= 10\*\*300$"):
            lyapunov_many(spec, np.array([1.0]), L)


def test_growth_exponents_refuse_lengths_past_1e300(bench_specs, monkeypatch):
    # alpha --lmax 10**309 ran 105 s and let numpy RuntimeWarnings through
    # as its exponents passed the largest double. The bound is checked
    # before any window product is formed.
    def no_product(*args):
        raise AssertionError("window product formed before the length check")

    monkeypatch.setattr(qsturm.transfer, "_window_product", no_product)
    for L_max in (10**300 + 1, 10**309):
        with pytest.raises(ValueError, match=r"^growth_exponents requires L_max <= 10\*\*300$"):
            growth_exponents(bench_specs["fibonacci"], 0.5, 0, L_max)


def test_dyadic_scales_increase_to_any_length():
    # float log2 rounds 2^53 - 1 up to 53, which put 2^53 past L_max.
    for L_max in (1000, 1024, 2**53 - 1, 2**60 + 1, 10**30):
        scales = _dyadic(L_max)
        assert scales[0] == 8 and scales[-1] == L_max
        assert all(a < b <= L_max for a, b in zip(scales, scales[1:]))


@pytest.mark.parametrize("big", [1e5, 1e7])
def test_lyapunov_large_potential_stays_finite_in_segments(big, tmp_path, capsys):
    # As test_lyapunov_large_potential_stays_finite, through the window
    # product of 24 level products: every site and level matrix is rescaled
    # by a power of two before it is multiplied.
    model = json.loads((BENCH_MODELS / "fibonacci.json").read_text())
    model["potential"] = {"a": big, "b": 0.0}
    path = tmp_path / "large.json"
    path.write_text(json.dumps(model))
    L = 16_384
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["lyapunov", str(path), "--length", str(L), "--grid", "5"])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert "# factors=24" in out.out.splitlines()
    rows = [line.split(",") for line in out.out.splitlines()
            if line and not line.startswith(("#", "E,"))]
    energies, gammas = np.array(rows, dtype=float).T
    want = _lyapunov_sites(ModelSpec.from_json(model), energies, L, every=1)
    assert np.all(np.isfinite(gammas))
    assert np.max(np.abs(gammas - want)) <= 1e-8


# ------------------------------------------------------------------ solutions

def test_solve_matches_transfer_matrix(fib_spec):
    E, L = 0.4, 50
    seg = solve(fib_spec, E, 0, 1.0, 0.5, L)
    w = qs_prefix(fib_spec, L)
    M = word_matrix(E, w, fib_spec.potential)
    assert M @ np.array([0.5, 1.0]) == pytest.approx(
        np.array([seg.values[L + 1], seg.values[L]]))


def _solve_sites(spec, E, shift, phi0, phi1, L):
    """Oracle: the per-site loop solve ran before the lane kernel."""
    v = spec.potential_values(qs_prefix(spec, L, shift=shift))
    phi = np.empty(L + 2)
    phi[0] = phi0
    phi[1] = phi1
    for n in range(1, L + 1):
        phi[n + 1] = (E - v[n - 1]) * phi[n] - phi[n - 1]
    return phi


@pytest.mark.parametrize("model,E,L", [
    ("fibonacci", 1.4525087579781024, 1000),
    ("q5", 1.2990887900586154, 129),   # two chunks and a site
    ("digits", 0.37894771296405877, 64),
    ("prefixed", 4.0, 3000),           # overflows to inf and then nan
    ("q5", 0.5, 1),
])
def test_solve_matches_site_loop(bench_specs, model, E, L):
    # bit for bit, and off the spectrum no RuntimeWarning escapes
    spec = bench_specs[model]
    with np.errstate(over="ignore", invalid="ignore"):
        want = _solve_sites(spec, E, 97, 0.6, 0.8, L)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        seg = solve(spec, E, 97, 0.6, 0.8, L)
    assert seg.values.tobytes() == want.tobytes()
    assert seg.normalized and seg.energy == E and seg.shift == 97


def test_solve_guards(fib_spec):
    with pytest.raises(ZeroInitialCondition):
        solve(fib_spec, 0.0, 0, 0.0, 0.0, 10)


def test_local_norm_interpolates(fib_spec):
    seg = solve(fib_spec, 0.4, 0, 1.0, 0.0, 20)
    n5, n6 = local_norm(seg, 5.0), local_norm(seg, 6.0)
    mid = local_norm(seg, 5.5)
    assert min(n5, n6) <= mid <= max(n5, n6) + 1e-12
    assert local_norm(seg, 0.0) == pytest.approx(abs(seg.values[0]))
    for L in (100.0, -1.0, math.nan):
        with pytest.raises(OutOfRange):
            local_norm(seg, L)


# --------------------------------------------------------------------- Gordon

def test_gordon_residual_vanishes_on_true_square(fib_spec):
    squares = find_squares(fib_spec, 0, 5)
    for sq in squares:
        res = gordon_residual(fib_spec, 0.1, sq)
        assert isinstance(res, GordonResult)
        assert res.residual <= 1e-9 * max(1.0, res.trace ** 2)


# ------------------------------------------------------------ growth exponents

def test_growth_exponents_free_case(free_spec):
    g = growth_exponents(free_spec, 0.0, 0, 100_000)
    assert not g.escaped
    assert 0.45 <= g.gamma1 <= g.gamma2 <= 0.55
    assert 0.9 <= g.alpha <= 1.0


def test_growth_exponents_off_spectrum_escapes(fib_spec):
    g = growth_exponents(fib_spec, 10.0, 0, 100_000)
    assert g.escaped


def test_growth_exponents_guard(fib_spec):
    with pytest.raises(ValueError):
        growth_exponents(fib_spec, 0.0, 0, 100)


def _growth_sites(spec, E, shift, L_max):
    """Oracle: the per-site loop growth_exponents ran before the lane kernel."""
    angles = np.pi * np.arange(32) / 32
    phi_prev = np.cos(angles)
    phi_cur = np.sin(angles)
    v = spec.potential_values(qs_prefix(spec, L_max + 1, shift=shift))
    sq_sum = phi_prev**2  # sum over n <= 0
    dyadic = [2**j for j in range(3, int(np.log2(L_max)) + 1)]
    if dyadic[-1] != L_max:
        dyadic.append(L_max)
    norms = np.empty((len(dyadic), 32))
    idx = 0
    escaped = False
    for n in range(1, L_max + 1):
        sq_sum = sq_sum + phi_cur**2
        if idx < len(dyadic) and n == dyadic[idx]:
            norms[idx] = np.sqrt(sq_sum)
            idx += 1
        nxt = (E - v[n - 1]) * phi_cur - phi_prev
        phi_prev, phi_cur = phi_cur, nxt
        if np.max(np.abs(phi_cur)) > 1e100:
            escaped = True
            norms = norms[:idx]
            dyadic = dyadic[:idx]
            break
    if len(dyadic) < 4:
        raise DegenerateFit("not enough dyadic scales before blow-up")
    lnL = np.log(np.asarray(dyadic, dtype=float))
    slopes = np.polyfit(lnL, np.log(norms), 1)[0]
    gamma1 = float(np.min(slopes))
    gamma2 = float(np.max(slopes))
    if gamma1 + gamma2 <= 0.0 or not np.isfinite(gamma1 + gamma2):
        raise DegenerateFit(f"non-positive slope span: gamma1={gamma1}, gamma2={gamma2}")
    return GrowthExponents(gamma1, gamma2, 2.0 * gamma1 / (gamma1 + gamma2), escaped)


def _fit_sizes(monkeypatch, fits=None):
    """The number of dyadic scales of each fit from here on, the site loop's
    np.polyfit and growth_exponents' closed-form slopes alike; the values
    growth_exponents fits (ln ||phi||, scale by angle) go to fits if one is
    given."""
    sizes = []
    polyfit, slopes = np.polyfit, qsturm.transfer._slopes

    def spy_polyfit(x, y, deg):
        sizes.append(len(x))
        return polyfit(x, y, deg)

    def spy(x, y):
        sizes.append(len(x))
        if fits is not None:
            fits.append(y)
        return slopes(x, y)

    monkeypatch.setattr(np, "polyfit", spy_polyfit)
    monkeypatch.setattr(qsturm.transfer, "_slopes", spy)
    return sizes


@pytest.mark.parametrize("L_max", [1000, 30_000, 100_000, 10**7])
def test_slopes_match_polyfit(L_max):
    # ln ||phi|| by scale and angle, slopes between 0 and 1 with noise
    rng = np.random.default_rng(L_max)
    x = np.log(np.asarray(_dyadic(L_max), dtype=float))
    y = x[:, None] * rng.uniform(0.0, 1.0, 32) + rng.normal(0.0, 0.3, (len(x), 32))
    assert np.abs(qsturm.transfer._slopes(x, y) - np.polyfit(x, y, 1)[0]).max() <= 1e-13


def _assert_growth_matches(got, want, sizes):
    # The window products are in double-double and the site loop in double:
    # the exponents agree to 1e-8, and the escape and the dyadic scales kept
    # are the same.
    assert abs(got.gamma1 - want.gamma1) <= 1e-8, (got, want)
    assert abs(got.gamma2 - want.gamma2) <= 1e-8, (got, want)
    assert got.escaped == want.escaped
    assert sizes[-1] == sizes[-2]


@pytest.mark.parametrize("model,E,L_max,escapes", [
    # band centres of sigma_12, sigma_8, sigma_5 and sigma_10
    ("fibonacci", 1.4525087579781024, 3001, False),
    ("q5", 1.2990887900586154, 10_000, False),
    ("digits", 0.37894771296405877, 4097, False),
    ("prefixed", 0.6357801009742721, 5000, False),
    ("fibonacci", 10.0, 100_000, True),
    ("q5", 0.5, 30_000, True),
    ("q5", -1.376, 30_000, True),
    ("fibonacci", 20.0, 1000, True),  # escapes after 4 scales
    ("fibonacci", 7.60725, 1000, True),  # phi(128) escapes: scale 128 is not kept
], ids=lambda x: str(x))
def test_growth_exponents_match_site_loop(bench_specs, monkeypatch, model, E, L_max, escapes):
    spec = bench_specs[model]
    sizes = _fit_sizes(monkeypatch)
    for shift in (0, 97):
        want = _growth_sites(spec, E, shift, L_max)
        _assert_growth_matches(growth_exponents(spec, E, shift, L_max), want, sizes)
        assert want.escaped == escapes


def test_growth_exponents_degenerate_fit_matches_site_loop(bench_specs):
    # |phi| passes 1e100 before the fourth dyadic scale
    spec = bench_specs["fibonacci"]
    with pytest.raises(DegenerateFit) as want:
        _growth_sites(spec, 50.0, 0, 1000)
    with pytest.raises(DegenerateFit, match=re.escape(str(want.value))):
        growth_exponents(spec, 50.0, 0, 1000)


@pytest.mark.parametrize("L_max", SEGMENT_LENGTHS)
def test_growth_exponents_segments_match_site_loop(bench_specs, monkeypatch, L_max):
    # At the band centres of the bench pools (worst seen 3.4e-12).
    centres = {"fibonacci": 1.4525087579781024, "q5": 1.2990887900586154,
               "digits": 0.37894771296405877, "prefixed": 0.6357801009742721}
    sizes = _fit_sizes(monkeypatch)
    for i, (model, E) in enumerate(centres.items()):
        spec = bench_specs[model]
        # the site loop takes about 1.4 s at 10^5 sites, so there each model
        # runs one of the two shifts
        for shift in (0, 97) if L_max < 100_000 else ((0, 97)[i % 2],):
            want = _growth_sites(spec, E, shift, L_max)
            _assert_growth_matches(growth_exponents(spec, E, shift, L_max), want, sizes)


@pytest.mark.parametrize("model,E", [
    # just outside a band: phi passes 1e100 at site 35,803 (shift 0)
    ("fibonacci", -1.0558889722430609),
    ("q5", -0.8755938984746188),  # at site 38,388
])
def test_growth_exponents_escape_after_first_segment(bench_specs, monkeypatch, model, E):
    spec = bench_specs[model]
    L_max = 100_000
    sizes = _fit_sizes(monkeypatch)
    for shift in (0, 5):
        want = _growth_sites(spec, E, shift, L_max)
        got = growth_exponents(spec, E, shift, L_max)
        assert want.escaped
        # both keep the scales up to 2^15
        assert sizes[-1] == 13
        _assert_growth_matches(got, want, sizes)


@pytest.mark.parametrize("L_max", [1000, 4096])
def test_growth_exponents_match_site_loop_after_long_prefix(monkeypatch, L_max):
    # Windows inside the 1,000-symbol prefix (shift 0 up to 1,000 sites),
    # across its end and after it. The prefix is folded into the pairs site
    # by site.
    spec = ModelSpec.from_json(LONG_PREFIX_MODEL)
    sizes = _fit_sizes(monkeypatch)
    for E in (0.6357801009742721, 1.7):
        for shift in (0, 500, 1000, 4321):
            want = _growth_sites(spec, E, shift, L_max)
            _assert_growth_matches(growth_exponents(spec, E, shift, L_max), want, sizes)


def test_growth_products_count_the_kernel_products(bench_specs, monkeypatch):
    # The CLI's factors metadata for alpha is the number of pair products
    # that the window products perform, one for each lane of a call (its
    # exponent arrays' size at one energy), besides the last call, which
    # reads every angle.
    products = []
    pair_mul = qsturm.window._pair_mul
    monkeypatch.setattr(qsturm.window, "_pair_mul",
                        lambda A, B: products.append(np.broadcast(A[0][2], B[0][2]).size) or pair_mul(A, B))
    for model, L, shift in [("q5", 100_000, 0), ("digits", 16_421, 5), ("prefixed", 20_000, 1),
                            ("fibonacci", 1000, 0)]:
        spec = bench_specs[model]
        products.clear()
        growth_exponents(spec, 0.1, shift, L)
        assert sum(products[:-1]) == _window_product.products


def test_growth_products_are_sequential_in_log_length(bench_specs, monkeypatch):
    # The dyadic pieces are folded side by side, so the sequential pair
    # products grow as log L_max: 346 calls at 2^100, where folding each
    # piece on its own took 5,249.
    calls = []
    pair_mul = qsturm.window._pair_mul
    monkeypatch.setattr(qsturm.window, "_pair_mul", lambda A, B: calls.append(1) or pair_mul(A, B))
    growth_exponents(bench_specs["fibonacci"], 0.5, 0, 2**100)
    assert len(calls) <= 400


def _window_product_per_piece(spec, ends, shift, sites, mul):
    """Oracle: the window product with each piece's factors folded on their
    own in word order, each level power formed again wherever it appears."""
    pieces = [_window_factors(spec, b - a, shift + a) for a, b in zip([0] + ends, ends)]
    top = max((f[0] for factors in pieces for f in factors if isinstance(f, tuple)), default=0)
    levels = _levels(spec, top, sites, mul)
    table = _potential_table(spec.potential, spec.subst.target_alphabet)
    products = [_fold(mul, [_power(levels[f[0] + 1], f[1], mul) if isinstance(f, tuple) else sites(table[f])
                            for f in factors]) for factors in pieces]
    return list(accumulate(products, lambda P, M: mul(M, P)))


def _leaves(M):
    return [y for x in M for y in _leaves(x)] if isinstance(M, tuple) else [M]


@pytest.mark.parametrize("model", ["fibonacci", "q5", "digits", "prefixed"])
def test_lockstep_window_products_match_per_piece_fold(bench_specs, model):
    # Folding the dyadic pieces side by side along a lane axis repeats each
    # piece's products in the same order, elementwise, so the window
    # matrices and pairs are bit for bit those of the per-piece fold.
    spec = bench_specs[model]
    energies = np.linspace(*energy_window(spec), 4)
    energy = np.array([0.5])
    algebras = [(lambda v: _dd_sites(energies, v), _dd_mul), (lambda v: _pair_sites(energy, v), _pair_mul)]
    for L_max in (10**4, 3 * 10**4, 10**5, 2**40):
        for shift in (0, 121, 10**15):
            for sites, mul in algebras:
                args = (spec, _dyadic(L_max), shift, sites, mul)
                got, want = _window_product(*args), _window_product_per_piece(*args)
                assert len(got) == len(want)
                for g, w in zip(_leaves(tuple(got)), _leaves(tuple(want))):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes(), (L_max, shift)


def _log_norms_digits(v, E, angles, scales, digits=40):
    """Oracle: ln ||phi||_N of each angle at each scale N from the site loop
    in `digits`-digit mpmath arithmetic, from phi(0) = cos t and phi(1) =
    sin t as doubles."""
    mpmath = pytest.importorskip("mpmath")
    out = np.empty((len(scales), len(angles)))
    with mpmath.workdps(digits):
        e = mpmath.mpf(float(E))
        d = [e - mpmath.mpf(float(x)) for x in v]
        for a, t in enumerate(angles):
            prev, cur = mpmath.mpf(float(np.cos(t))), mpmath.mpf(float(np.sin(t)))
            total, i = prev * prev, 0
            for n in range(1, scales[-1] + 1):
                total += cur * cur
                if n == scales[i]:
                    out[i, a] = float(mpmath.log(total) / 2)
                    i += 1
                prev, cur = cur, d[n - 1] * cur - prev
    return out


def test_growth_log_norms_against_40_digit_loop(bench_specs, monkeypatch):
    # A band centre of sigma_8 that the transport bench picks. Angles 24, 25
    # and 23 grow slowest, nearest the subordinate direction; there the site
    # sweep in double was off the 40-digit loop by up to 1.4e-3 in ln ||phi||
    # (worst seen here 1.4e-14, over all 32 angles).
    pytest.importorskip("mpmath")
    spec = bench_specs["q5"]
    E, L_max = -1.3758084884632231, 30_000
    fits = []
    _fit_sizes(monkeypatch, fits)
    growth_exponents(spec, E, 0, L_max)
    picked = [0, 23, 24, 25]
    scales = _dyadic(L_max)
    v = spec.potential_values(qs_prefix(spec, L_max))
    want = _log_norms_digits(v, E, np.pi * np.array(picked) / 32, scales)
    assert fits[-1].shape == (len(scales), 32)
    assert np.abs(fits[-1][:, picked] - want).max() <= 1e-12


# ---------------------------------------------------------------- Sturm counts

def _jacobi(v):
    """Dense matrix with diagonal v and unit off-diagonals."""
    n = len(v)
    return np.diag(v) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)


@given(values=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=3),
       codes=st.lists(st.integers(0, 2), min_size=2, max_size=300),
       extra=st.lists(st.floats(-7.0, 7.0), max_size=8))
@settings(max_examples=60, deadline=None)
def test_sturm_counts_match_dense(values, codes, extra):
    v = np.array(values)[np.array(codes) % len(values)]
    lam = np.linalg.eigvalsh(_jacobi(v))
    x = np.array(values + extra)
    counts, _ = sturm_counts(v, x)
    # Equal to the dense count unless an eigenvalue lies within rounding of x:
    # a diagonal value is an exact eigenvalue of some mirror-symmetric windows.
    assert np.all(np.searchsorted(lam, x - 1e-9) <= counts)
    assert np.all(counts <= np.searchsorted(lam, x + 1e-9))


def test_sturm_counts_two_by_two_closed_form():
    a, b = 0.5, -1.25
    x = np.array([-3.0, -1.25, 0.0, 0.5, 3.0])
    counts, log_det = sturm_counts(np.array([a, b]), x)
    # eigenvalues (a + b)/2 -+ sqrt(((a - b)/2)^2 + 1) = -1.7, 0.95
    assert counts.tolist() == [0, 1, 1, 1, 2]
    assert log_det == pytest.approx(np.log(np.abs((x - a) * (x - b) - 1.0)), abs=1e-14)
    # the empty matrix: no eigenvalues, det = 1
    counts, log_det = sturm_counts(np.array([]), x)
    assert counts.tolist() == [0] * len(x) and log_det.tolist() == [0.0] * len(x)
    with pytest.raises(ValueError, match=r"^energies must not contain NaN$"):
        sturm_counts(np.array([a, b]), np.array([math.nan]))
    with pytest.raises(ValueError, match=r"^diag must not contain NaN$"):
        sturm_counts(np.array([a, math.nan]), x)


def test_sturm_counts_log_det_matches_dense(bench_specs):
    # 1,000 sites are 16 chunks, so every rescale and carry between chunks
    # reaches ln|det(E - T)|, which the Illinois steps of the eigenvalue
    # solver read. Dense oracle: ln|det(E - T)| = sum of ln|E - lambda_i|.
    for spec in bench_specs.values():
        v = spec.potential_values(qs_prefix(spec, 1000, shift=97))
        lam = np.linalg.eigvalsh(_jacobi(v))
        x = np.linspace(v.min() - 3.0, v.max() + 3.0, 400)
        x = x[np.abs(x[:, None] - lam).min(axis=1) > 1e-3]
        counts, log_det = sturm_counts(v, x)
        assert counts.tolist() == np.searchsorted(lam, x).tolist()
        want = np.log(np.abs(x[:, None] - lam)).sum(axis=1)
        assert np.abs(log_det - want).max() <= 1e-9


@pytest.mark.parametrize("big", [1e8, 1e40])
def test_sturm_counts_large_potential_does_not_overflow(big):
    # Per-site growth up to 2 big: the chunks shorten so that no lane overflows.
    v = np.tile([big, 0.0, -big, 1.0], 50)
    lam = np.linalg.eigvalsh(_jacobi(v))
    x = np.array([-2 * big, -big / 2, 0.5, 3.0, big / 2, 2 * big])
    counts, log_det = sturm_counts(v, x)
    assert counts.tolist() == np.searchsorted(lam, x).tolist()
    assert np.all(np.isfinite(log_det))


def _sturm_counts_scalar(v, energies, C=64):
    """Oracle: the counts of sturm_counts from a scalar loop over energies
    and sites with its arithmetic: (E - v_k) x_k - x_{k-1} in double, a
    change wherever two sign bits differ, and the last two values rescaled
    by the same power of two after every C sites."""
    out = []
    for E in energies.tolist():
        prev, cur, changes = 0.0, 1.0, 0
        for k, x in enumerate(v.tolist(), start=1):
            prev, cur = cur, (E - x) * cur - prev
            changes += math.copysign(1.0, prev) != math.copysign(1.0, cur)
            if k % C == 0:
                e = math.frexp(max(abs(prev), abs(cur)))[1]
                prev, cur = math.ldexp(prev, -e), math.ldexp(cur, -e)
        out.append(len(v) - changes)
    return out


def _diagonal(kind, n, spec):
    """n diagonal values with 1, 2 or 3 distinct values, or all distinct."""
    codes = np.random.default_rng(n).integers(0, 3, n)
    return {"one": np.full(n, 0.5),
            "two": spec.potential_values(qs_prefix(spec, n, shift=5)) if n else np.zeros(0),
            "three": np.array([1.0, -0.5, 0.0])[codes],
            "distinct": np.random.default_rng(n).permutation(np.linspace(-2.0, 2.0, n))}[kind]


@pytest.mark.parametrize("kind", ["one", "two", "three", "distinct"])
def test_sturm_counts_match_scalar_loop_exactly(kind, bench_specs):
    # Lengths on both sides of the 64-site chunk edge. A word's diagonal takes
    # one d row per value, one of more distinct values than a chunk has sites
    # the chunk's own rows; both must give the scalar loop's counts exactly,
    # also where E is a diagonal value and some x_k is an exact zero.
    spec = bench_specs["fibonacci"]
    energies = np.linspace(-3.0, 3.0, 2000)
    energies[:4] = [0.5, -0.5, 0.0, -0.0]
    for n in (0, 1, 63, 64, 65, 1000):
        v = _diagonal(kind, n, spec)
        assert len(set(v.tolist())) == {"one": min(n, 1), "two": min(n, 2), "three": min(n, 3)}.get(kind, n)
        assert qsturm.transfer._chunk_sites(energies, v) == 64
        assert (qsturm.transfer._distinct(v, 64) is None) == (kind == "distinct" and n > 64)
        for E in (energies[:1], energies):
            counts, _ = sturm_counts(v, E)
            assert counts.tolist() == _sturm_counts_scalar(v, E), (n, len(E))
    # At E = -0.0 the rows E - 0.0 and E - (-0.0) differ in sign, so the two
    # values keep a row each.
    assert len(qsturm.transfer._distinct(np.array([0.0, -0.0, 0.0]), 64)[0]) == 2


@pytest.mark.parametrize("kind", ["two", "distinct"])
def test_sturm_counts_peak_memory(kind, bench_specs):
    # The chunk buffer of C + 2 rows, the per-value rows and the sign scratch
    # stay within (2C + 2) K doubles, the chunk buffer and the C x K block of
    # d rows that every chunk once wrote.
    v = _diagonal(kind, 2000, bench_specs["fibonacci"])
    energies = np.linspace(-3.0, 3.0, 2000)
    C, K = 64, len(energies)
    tracemalloc.start()
    try:
        sturm_counts(v, energies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * C + 2) * K * 8, peak
