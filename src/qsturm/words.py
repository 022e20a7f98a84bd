"""Sturmian and quasi-Sturmian words: level words, substitutions, the factor
index and complexity, palindromes, reflection, square search.

Words are one uint8 code per symbol with a label table, so alphabets of up
to 255 symbols work; labels are opaque strings.
"""

from __future__ import annotations

import itertools
import json
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# hashlib is heavy to load (it maps OpenSSL's libcrypto); the interpreter's
# own SHA-256 gives the same digest: _sha2 from Python 3.12, _sha256 before.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .contfrac import ContinuedFraction, approximants
from .errors import (
    LengthBudgetExceeded,
    NoCommonSite,
    NotPalindromicDecomposition,
    SymbolOutsideDomain,
    WindowTooLarge,
)

DEFAULT_LENGTH_BUDGET = 50_000_000


class Word:
    """Immutable finite word over a labelled alphabet, one byte per symbol."""

    __slots__ = ("codes", "alphabet", "_index")

    def __init__(self, codes, alphabet: Sequence[str]):
        self.alphabet = tuple(alphabet)
        if len(self.alphabet) > 255:
            raise ValueError("alphabets larger than 255 symbols are not supported")
        if not (isinstance(codes, np.ndarray) and codes.dtype == np.uint8):  # uint8: from a word
            codes = np.asarray(codes)
            if codes.size and not 0 <= codes.min() <= codes.max() < len(self.alphabet):
                raise ValueError(f"codes must lie in [0, {len(self.alphabet)}) for alphabet {self.alphabet}")
            codes = codes.astype(np.uint8)
        codes.setflags(write=False)
        self.codes = codes
        self._index: Optional["FactorIndex"] = None  # memo of factor_index

    @classmethod
    def from_labels(cls, labels: Sequence[str], alphabet: Optional[Sequence[str]] = None) -> "Word":
        if alphabet is None:
            alphabet = sorted(set(labels))
        idx = {s: i for i, s in enumerate(alphabet)}
        try:
            codes = np.array([idx[s] for s in labels], dtype=np.uint8)
        except KeyError as e:
            raise SymbolOutsideDomain(f"symbol {e.args[0]!r} not in alphabet {alphabet}") from None
        return cls(codes, alphabet)

    @classmethod
    def from_str(cls, s: str, alphabet: Optional[Sequence[str]] = None) -> "Word":
        return cls.from_labels(list(s), alphabet)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        for c in self.codes:
            yield self.alphabet[c]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.codes[i], self.alphabet)
        return self.alphabet[self.codes[i]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet == other.alphabet:
            return np.array_equal(self.codes, other.codes)
        return list(self) == list(other)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.codes.tobytes()))

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet == other.alphabet:
            return Word(np.concatenate([self.codes, other.codes]), self.alphabet)
        alphabet = tuple(sorted(set(self.alphabet) | set(other.alphabet)))
        return Word(
            np.concatenate([self.recode(alphabet).codes, other.recode(alphabet).codes]),
            alphabet,
        )

    def __mul__(self, k: int) -> "Word":
        return Word(np.tile(self.codes, k) if k > 0 else np.empty(0, dtype=np.uint8), self.alphabet)

    def __repr__(self) -> str:
        body = self.to_str() if all(len(s) == 1 for s in self.alphabet) and len(self) <= 40 else f"<{len(self)} symbols>"
        return f"Word({body!r})"

    def recode(self, alphabet: Sequence[str]) -> "Word":
        """Same word expressed over a (super)alphabet."""
        alphabet = tuple(alphabet)
        if alphabet == self.alphabet:
            return self
        idx = {s: i for i, s in enumerate(alphabet)}
        try:
            table = np.array([idx[s] for s in self.alphabet], dtype=np.uint8)
        except KeyError as e:
            raise SymbolOutsideDomain(f"symbol {e.args[0]!r} not in alphabet {alphabet}") from None
        return Word(table[self.codes] if len(self.codes) else self.codes, alphabet)

    def to_str(self) -> str:
        # One gather from the labels' UTF-8 bytes, padded with 0xFF, which no
        # UTF-8 text holds and the decoder drops.
        raw = [s.encode() for s in self.alphabet]
        width = max(map(len, raw), default=0)
        table = np.frombuffer(b"".join(b.ljust(width, b"\xff") for b in raw), dtype=np.uint8)
        return str(table.reshape(len(raw), width)[self.codes], "utf-8", "ignore")

    def to_bytes(self) -> bytes:
        return self.codes.tobytes()

    def count(self, label: str) -> int:
        if label not in self.alphabet:
            return 0
        return int(np.count_nonzero(self.codes == self.alphabet.index(label)))

    def reverse(self) -> "Word":
        return Word(self.codes[::-1].copy(), self.alphabet)


def reflect(w: Word) -> Word:
    """w^R: reverse the symbol order."""
    return w.reverse()


class _SubstitutionFields(NamedTuple):
    images: Mapping[str, Word]


class Substitution(_SubstitutionFields):
    """Letter-to-word morphism, extended to words by concatenation."""

    __slots__ = ()

    def __new__(cls, images: Mapping[str, Word]):
        images = dict(images)
        for letter, img in images.items():
            if len(img) == 0:
                raise ValueError(f"substitution image of {letter!r} must be nonempty")
        return super().__new__(cls, images)

    @classmethod
    def from_strings(cls, images: Mapping[str, str]) -> "Substitution":
        alphabet = tuple(sorted({c for img in images.values() for c in img}))
        return cls({k: Word.from_str(v, alphabet) for k, v in images.items()})

    @classmethod
    def identity(cls, alphabet: Sequence[str] = ("a", "b")) -> "Substitution":
        alphabet = tuple(alphabet)
        return cls({s: Word.from_labels([s], alphabet) for s in alphabet})

    @property
    def domain(self) -> Tuple[str, ...]:
        return tuple(sorted(self.images))

    @property
    def target_alphabet(self) -> Tuple[str, ...]:
        return tuple(sorted({s for img in self.images.values() for s in img.alphabet}))

    def is_aperiodic(self) -> bool:
        """S(ab) != S(ba) on a two-letter domain."""
        dom = self.domain
        if len(dom) != 2:
            raise ValueError("aperiodicity test requires a two-letter domain")
        a, b = dom
        return self.images[a] + self.images[b] != self.images[b] + self.images[a]

    def to_json(self) -> dict:
        return {k: v.to_str() for k, v in sorted(self.images.items())}


def substitute(s: Substitution, w: Word) -> Word:
    """Morphic image S(w); |S(w)| = sum of image lengths.

    One gather from the concatenated images: the index runs through the image
    of each symbol in turn, a cumulative sum of unit steps that jumps to the
    start of the next image where each symbol's piece begins.
    """
    alphabet = s.target_alphabet
    missing = [letter not in s.images for letter in w.alphabet]
    if any(missing):
        bad = np.flatnonzero(np.array(missing)[w.codes])
        if len(bad):
            raise SymbolOutsideDomain(f"symbol {w[int(bad[0])]!r} outside substitution domain")
    if len(w) == 0:
        return Word(np.empty(0, dtype=np.uint8), alphabet)
    images = [s.images[letter].recode(alphabet).codes if letter in s.images
              else np.empty(0, dtype=np.uint8) for letter in w.alphabet]
    lengths = np.array([len(img) for img in images], dtype=np.int32)
    starts = np.cumsum(lengths, dtype=np.int32) - lengths  # of each image in the concatenation
    piece = np.cumsum(lengths[w.codes], dtype=np.int32)  # end of each symbol's piece in S(w)
    jump = starts[w.codes[1:]]
    jump -= (starts + lengths - 1)[w.codes[:-1]]
    idx = np.ones(int(piece[-1]), dtype=np.int32)
    idx[0] = starts[w.codes[0]]
    idx[piece[:-1]] = jump
    del piece, jump  # before the output is allocated
    np.cumsum(idx, dtype=np.int32, out=idx)
    return Word(np.concatenate(images)[idx], alphabet)


def reflect_subst(s: Substitution) -> Substitution:
    """S^R: reverse each image."""
    return Substitution({k: v.reverse() for k, v in s.images.items()})


class _ModelSpecFields(NamedTuple):
    cf: ContinuedFraction
    subst: Substitution
    prefix: Word
    potential: Mapping[str, float]
    allow_non_injective: bool


def _potential_table(f: Mapping[str, float], alphabet: Sequence[str]) -> np.ndarray:
    """f over an alphabet, indexed by symbol code."""
    try:
        return np.array([f[s] for s in alphabet], dtype=float)
    except KeyError as e:
        raise SymbolOutsideDomain(f"symbol {e.args[0]!r} outside potential domain") from None


# The largest |f(s)| a ModelSpec takes: at 1e300 every command still runs
# without a numpy RuntimeWarning, while inf, nan and values near the largest
# double overflow the energy window and the chunking of the Sturm counts.
POTENTIAL_MAX = 1e300


class ModelSpec(_ModelSpecFields):
    """Quasi-Sturmian model u = prefix . S(c_theta) with a potential map f."""

    __slots__ = ()

    def __new__(cls, cf: ContinuedFraction, subst: Substitution, prefix: Word,
                potential: Mapping[str, float], allow_non_injective: bool = False):
        potential = dict(potential)
        for s, x in potential.items():
            if not abs(x) <= POTENTIAL_MAX:
                raise ValueError(f"potential value for symbol {s!r} must be finite and at most "
                                 f"{POTENTIAL_MAX:g} in magnitude, got {x}")
        values = list(potential.values())
        if not allow_non_injective and len(set(values)) != len(values):
            raise ValueError("potential map must be injective (or set allow_non_injective)")
        for s in subst.target_alphabet:
            if s not in potential:
                raise ValueError(f"potential undefined for alphabet symbol {s!r}")
        return super().__new__(cls, cf, subst, prefix, potential, allow_non_injective)

    def potential_values(self, w: Word) -> np.ndarray:
        """f applied symbol-wise; energy units."""
        return _potential_table(self.potential, w.alphabet)[w.codes]

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "cf": self.cf.to_json(),
            "substitution": self.subst.to_json(),
            "prefix": self.prefix.to_str(),
            "potential": {k: float(v) for k, v in sorted(self.potential.items())},
            "allow_non_injective": self.allow_non_injective,
        }

    @classmethod
    def from_json(cls, d: dict) -> "ModelSpec":
        subst = Substitution.from_strings(d["substitution"])
        alphabet = subst.target_alphabet
        prefix = Word.from_str(d.get("prefix", ""), alphabet)
        return cls(
            cf=ContinuedFraction.from_json(d["cf"]),
            subst=subst,
            prefix=prefix,
            potential={k: float(v) for k, v in d["potential"].items()},
            allow_non_injective=bool(d.get("allow_non_injective", False)),
        )


AB = ("a", "b")


def _sturmian_words(cf: ContinuedFraction, a, b):
    """The Sturmian recursion started from s_{-1} = a, s_0 = b: s_{-1}, s_0,
    s_1, ... one level at a time. Started from two lengths, it gives the
    level lengths."""
    yield a
    yield b
    prev, cur = b, b * (cf.coefficient(1) - 1) + a
    for n in itertools.count(2):
        yield cur
        prev, cur = cur, cur * cf.coefficient(n) + prev


def _letters() -> Tuple[Word, Word]:
    return Word.from_str("a", AB), Word.from_str("b", AB)


def _check_levels(cf: ContinuedFraction, n_max: int, max_length: int):
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _, q = approximants(cf, n_max)
    if q > max_length:
        raise LengthBudgetExceeded(f"|s_{n_max}| = {q} exceeds budget {max_length}")


def sturmian_levels(cf: ContinuedFraction, n_max: int) -> List[Word]:
    """Level words s_{-1}..s_{n_max}; returned list index i holds s_{i-1}.

    s_{-1} = a, s_0 = b, s_1 = b^{a_1 - 1} a, s_n = s_{n-1}^{a_n} s_{n-2}.
    """
    _check_levels(cf, n_max, DEFAULT_LENGTH_BUDGET)
    return list(itertools.islice(_sturmian_words(cf, *_letters()), n_max + 2))


def _ostrowski_digits(cf: ContinuedFraction, n: int,
                      ell: Sequence[int] = (1, 1)) -> Tuple[List[int], List[int]]:
    """Greedy Ostrowski digits of n >= 0 over the level lengths of images of
    lengths ell = (|S(a)|, |S(b)|): (digits, lengths), digits[j] = b_j for
    j = 0..k and lengths[j + 1] = |S(s_j)| for j = -1..k, where k >= 1 is the
    first level with |S(s_k)| >= n.

    Over ell = (1, 1), c_theta[:n] = s_k^{b_k} ... s_0^{b_0} (Ostrowski
    numeration; Allouche and Shallit, Automatic Sequences, 3.9). Over image
    lengths the digits are those of the largest N with |S(c_theta[:N])| <= n,
    so S(c_theta[:N]) = S(s_k)^{b_k} ... S(s_0)^{b_0}. Each digit below the
    top is capped at a_{j+1} (a_1 - 1 for b_0); the caps bind only where
    |S(s_j)| < |S(s_{j-1})|, at levels 0 and 1. Reads a_j only while
    |S(s_{j-1})| < n, and a_1.
    """
    lengths = []
    for q in _sturmian_words(cf, *ell):
        lengths.append(q)
        if len(lengths) > 2 and q >= n:
            break
    digits = []
    k = len(lengths) - 2
    for j in range(k, -1, -1):
        b = n // lengths[j + 1]
        if j < k:
            b = min(b, cf.coefficient(j + 1) - (j == 0))
        digits.append(b)
        n -= b * lengths[j + 1]
    return digits[::-1], lengths


def characteristic_prefix(cf: ContinuedFraction, length: int) -> Word:
    """First `length` symbols of c_theta = lim s_n: the blocks
    s_k^{b_k} ... s_0^{b_0} of its Ostrowski digits, so no level longer than
    `length` is built.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if length > DEFAULT_LENGTH_BUDGET:
        raise LengthBudgetExceeded(f"requested length {length} exceeds budget {DEFAULT_LENGTH_BUDGET}")
    digits, _ = _ostrowski_digits(cf, length)
    top = max(j for j, b in enumerate(digits) if b)
    levels = list(itertools.islice(_sturmian_words(cf, *_letters()), top + 2))
    return Word(np.concatenate([(levels[j + 1] * digits[j]).codes for j in range(top, -1, -1)]), AB)


def _images(spec: ModelSpec) -> Tuple[Word, Word]:
    """S(a) and S(b) over the substitution's target alphabet."""
    alphabet = spec.subst.target_alphabet
    try:
        a, b = (spec.subst.images[letter].recode(alphabet) for letter in AB)
    except KeyError as e:
        raise SymbolOutsideDomain(f"symbol {e.args[0]!r} outside substitution domain") from None
    return a, b


def level_words_prime(spec: ModelSpec, n_max: int) -> List[Word]:
    """s'_n = S(s_n) for n = -1..n_max; list index i holds s'_{i-1}.

    S is a morphism, so s'_n follows the Sturmian recursion started from
    s'_{-1} = S(a) and s'_0 = S(b): only concatenations, no substitution.
    """
    ell = max(len(img) for img in spec.subst.images.values())
    _check_levels(spec.cf, n_max, max(1, DEFAULT_LENGTH_BUDGET // ell))
    return list(itertools.islice(_sturmian_words(spec.cf, *_images(spec)), n_max + 2))


def _window_factors(spec: ModelSpec, L: int, shift: int):
    """The window u[shift:shift+L] of u = prefix . S(c_theta) as factors in
    word order, each a code array over the target alphabet or a pair (j, m)
    for s'_j^m. No word is built, so neither L nor shift is bounded here.

    Its part in S(c_theta) ends in the image of c_theta[N], for the largest N
    with |S(c_theta[:N])| at most that end, and S(c_theta[:N]) =
    s'_k^{b_k} ... s'_0^{b_0} over N's Ostrowski digits. The copies of s'_j
    before the window start are dropped, and the one it falls in gives a
    suffix, which s'_j = s'_{j-1}^{a_j} s'_{j-2} splits into level factors
    (Damanik, Killip and Lenz, CMP 212 (2000), tile Sturmian windows so).
    Only the prefix and two partial images are left as code arrays.
    """
    if shift < 0:
        raise ValueError("shift must be >= 0")
    prefix = spec.prefix.recode(spec.subst.target_alphabet).codes
    images = [w.codes for w in _images(spec)]
    factors = [prefix[shift:shift + L]] if shift < len(prefix) else []
    lo, hi = max(shift - len(prefix), 0), shift + L - len(prefix)
    if hi <= 0:
        return factors
    digits, q = _ostrowski_digits(spec.cf, hi, [len(v) for v in images])  # q[j + 1] = |s'_j|

    def suffix(j, r):
        """Factors of the last r symbols of s'_j, 0 < r <= |s'_j|, found last
        first by a loop: a window may span more levels than Python recurses."""
        rev = []
        while r and r != q[j + 1] and j >= 1:
            if r <= q[j - 1]:
                j -= 2
            else:
                m, r = divmod(r - q[j - 1], q[j])
                rev += [(j - 2, 1)] + ([(j - 1, m)] if m else [])
                j -= 1
        if r:
            rev.append((j, 1) if r == q[j + 1] else images[j + 1][-r:])
        return rev[::-1]

    pos = 0
    for j in range(len(digits) - 1, -1, -1):
        start, pos = pos, pos + digits[j] * q[j + 1]
        if pos > lo:
            m, r = divmod(pos - max(start, lo), q[j + 1])
            factors += (suffix(j, r) if r else []) + ([(j, m)] if m else [])
    if pos < hi:
        # c_theta[N] ends c_theta[:N + 1], so it ends that prefix's lowest
        # block s_j: a for odd j, b for even j
        N = sum(b * n for b, n in zip(digits, _ostrowski_digits(spec.cf, hi)[1][1:]))
        low = next(j for j, b in enumerate(_ostrowski_digits(spec.cf, N + 1)[0]) if b)
        factors.append(images[1 - low % 2][max(lo - pos, 0):hi - pos])
    return factors


def qs_prefix(spec: ModelSpec, length: int, shift: int = 0) -> Word:
    """Symbols shift..shift+length-1 of u = prefix . S(c_theta): the window's
    factors (_window_factors) written in turn into one array, m rows of s'_j
    for each (j, m), so the length budget bounds the window's length and any
    shift is taken."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if shift < 0:
        raise ValueError("shift must be >= 0")
    if length > DEFAULT_LENGTH_BUDGET:
        raise LengthBudgetExceeded(f"window length {length} exceeds budget {DEFAULT_LENGTH_BUDGET}")
    factors = _window_factors(spec, length, shift)
    n_levels = max((f[0] + 2 for f in factors if isinstance(f, tuple)), default=1)
    levels = list(itertools.islice(_sturmian_words(spec.cf, *_images(spec)), n_levels))
    out, end = np.empty(length, dtype=np.uint8), 0
    for f in factors:
        codes, m = (levels[f[0] + 1].codes, f[1]) if isinstance(f, tuple) else (f, 1)
        start, end = end, end + m * len(codes)
        out[start:end].reshape(m, len(codes))[:] = codes
    return Word(out, spec.subst.target_alphabet)


# ---------------------------------------------------------------------------
# factor index: suffix order and capped LCP (exact counts on the finite word)

class FactorIndex:
    """Suffixes of a word sorted by their first `cap` symbols, with the LCP of
    neighbours capped at `cap`: lcp[k] = min(lcp(order[k], order[k+1]), cap).

    For every m <= cap the length-m windows that are equal sit in one run of
    `order` joined by lcp >= m; each suffix shorter than m is a run of its own.
    """

    __slots__ = ("order", "lcp", "cap")

    def __init__(self, order: np.ndarray, lcp: np.ndarray, cap: int):
        self.order, self.lcp, self.cap = order, lcp, cap

    def run_starts(self, m: int) -> np.ndarray:
        """Index into `order` at which each run of equal length-m prefixes starts."""
        new = np.ones(len(self.order), dtype=bool)
        new[1:] = self.lcp < m
        return np.flatnonzero(new)

    def classes(self, m: int) -> np.ndarray:
        """Run number at length m of the suffix starting at each position (int32)."""
        runs = np.zeros(len(self.order), dtype=np.int32)
        np.cumsum(self.lcp < m, dtype=np.int32, out=runs[1:])
        out = np.empty_like(runs)
        out[self.order] = runs
        return out

    def first_occurrences(self, m: int) -> np.ndarray:
        """Start of the first occurrence of each distinct length-m factor, ascending."""
        first = np.minimum.reduceat(self.order, self.run_starts(m))
        return np.sort(first[first <= len(self.order) - m])

    def factor_counts(self, lo: int, hi: int, n_max: int) -> List[int]:
        """Factor counts p(1..n_max) of the factor w[lo:hi] of the indexed word,
        for n_max <= cap: at each length m, the runs that hold a start in
        [lo, hi - m]."""
        after = self.order >= lo
        return [int(np.count_nonzero(np.logical_or.reduceat(after & (self.order <= hi - m),
                                                             self.run_starts(m))))
                for m in range(1, n_max + 1)]


_CHUNK = 1 << 14  # positions or pairs per step of the packing, the tie test and the LCP lifting


def _rank(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """Suffix order by key (int32), the dense rank of each position in the
    smallest signed type that holds the top rank + 1, with a -1 sentinel
    after the last (the end of the word matches nothing), and the top rank."""
    n = len(key)
    order = np.argsort(key).astype(np.int32)
    sorted_key = key[order]
    new = np.zeros(n, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new[1:])
    del sorted_key  # before the rank is allocated
    top = int(np.count_nonzero(new))
    dtype = next(t for t in (np.int8, np.int16, np.int32) if top < np.iinfo(t).max)
    rank = np.empty(n + 1, dtype=dtype)
    rank[order] = np.cumsum(new, dtype=dtype)
    rank[n] = -1
    return order, rank, top


def _packed_key(codes: np.ndarray, base: int, k: int) -> np.ndarray:
    """The first k symbols of each suffix as one int64 in base `base`: code + 1
    per symbol and 0 past the end of the word, then a -1 sentinel after the
    last position (the end of the word is below every digit).

    Appends s = 1, 2, 4, ... symbols at a time in place, chunk by chunk from
    the front, so a chunk reads only digits that have not been shifted yet.
    """
    n = len(codes)
    packed = np.empty(n + 1, dtype=np.int64)
    packed[:n] = codes
    packed[:n] += 1
    packed[n] = -1
    for s in (1 << j for j in range(k.bit_length() - 1)):
        m = max(n - s, 0)  # the positions followed by s symbols
        for a in range(0, n, _CHUNK):
            b = min(a + _CHUNK, n)
            head = packed[a:b] * base**s
            c = min(max(m, a), b)
            head[:c - a] += packed[a + s:c + s]
            packed[a:b] = head
    return packed


def _build_index(codes: np.ndarray, length: int) -> FactorIndex:
    """Prefix doubling (Manber & Myers) stopped once 2^P >= length, then the
    capped LCP by binary lifting over the ranks of every round.

    The first round sorts one packed int64 key per position: its first k
    symbols in base B = sigma + 1, sigma = largest code + 1. Each later round
    sorts one key rank*(top+2) + next+1, int32 while (top+2)^2 < 2^31. The
    doubling also stops early when all ranks are distinct, and the LCP is
    then exact. O(n log n) per round, 1 + ceil(log2(length / k)) rounds.
    Orders and the LCP are int32 and ranks the smallest type that holds
    them; each round's order is freed before the next argsort, the packed key
    is rebuilt for the lifting only once the ranks are used up, and the tie
    test and the lifting run over chunks of pairs, so the build peaks at
    about 24 bytes per symbol.
    """
    n = len(codes)
    base = int(codes.max(initial=0)) + 2
    k = 1  # the largest power of two with base^k < 2^63 that length still needs
    while k < length and base ** (2 * k) < 2**63:
        k *= 2
    order, rank, top = _rank(_packed_key(codes, base, k)[:n])
    ranks = [rank]  # ranks[j][i] ranks w[i:i+k*2^j]; equal ranks mean equal full windows
    span = k
    while span < length and top < n - 1:
        key = np.multiply(rank[:n], top + 2, dtype=np.int32 if (top + 2) ** 2 < 2**31 else np.int64)
        key[: n - span] += rank[span:n] + 1
        del order  # before the argsort allocates
        order, rank, top = _rank(key)
        del key
        ranks.append(rank)
        span *= 2
    chunks = [(a, min(a + _CHUNK, n - 1)) for a in range(0, n - 1, _CHUNK)]  # pairs order[i], order[i+1]
    rank = ranks.pop()  # only the ties at the last span are needed of it
    tied = np.empty(max(n - 1, 0), dtype=bool)
    for a, b in chunks:
        tied[a:b] = rank[order[a:b]] == rank[order[a + 1:b + 1]]
    lcp = np.zeros(len(tied), dtype=np.int32)
    q = k.bit_length() - 1
    for p in range(q + len(ranks) - 1, -1, -1):
        if p >= q:
            rank = ranks.pop()  # ranks[p - q], the last one left
        elif p == q - 1:
            del rank  # before the packed key is rebuilt
            rank = _packed_key(codes, base, k)
        unit = base ** max(k - (1 << p), 0)  # below span k the first 2^p symbols are its top digits
        for a, b in chunks:
            run = lcp[a:b]
            left, right = rank[order[a:b] + run], rank[order[a + 1:b + 1] + run]
            if unit > 1:
                left //= unit
                right //= unit
            run[left == right] += 1 << p
    lcp[tied] = span
    cap = span if tied.any() else n
    return FactorIndex(order, lcp, cap)


def factor_index(w: Word, length: int) -> FactorIndex:
    """The factor index of w answering lengths up to `length`, memoised on w;
    rebuilt only when a longer length is asked for."""
    if w._index is None or w._index.cap < min(length, len(w)):
        w._index = None  # free the shallower index before the build allocates
        w._index = _build_index(w.codes, length)
    return w._index


def complexity(w: Word, n_max: int) -> List[int]:
    """Exact factor counts p(1..n_max) of the finite word w.

    Counts undercount the infinite word near the edge; trust n <= |w|/4
    when inferring properties of an infinite sequence.
    """
    N = len(w)
    if n_max >= N:
        raise WindowTooLarge(f"n_max {n_max} must be < |w| = {N}")
    if n_max < 1:
        return []
    lcp = factor_index(w, n_max).lcp
    # distinct length-n factors = windows (N-n+1) minus repeats (lcp >= n)
    repeats = np.cumsum(np.bincount(np.minimum(lcp, n_max), minlength=n_max + 1)[::-1])[::-1]
    ns = np.arange(1, n_max + 1)
    return [int(x) for x in (N - ns + 1) - repeats[1:]]


SAFE_WINDOW_DIVISOR = 4


def safe_window(w: Word) -> int:
    """Largest factor length whose count is trusted as the infinite word's."""
    return len(w) // SAFE_WINDOW_DIVISOR


# ---------------------------------------------------------------------------

def palindrome_split(s_n: Word, n: int, strict_parity: bool = False) -> Tuple[Word, Word]:
    """Split a level word s_n (n >= 2) as palindrome . two-symbol tail.

    Returns (pi_n, tail) with s_n = pi_n tail, tail two distinct symbols and
    pi_n = pi_n^R. With strict_parity, the tail must also match the parity
    labelling (even n: 'ab', odd n: 'ba' under the a,b alphabet).
    """
    if n < 2:
        raise ValueError("palindrome_split requires n >= 2")
    if len(s_n) < 2:
        raise NotPalindromicDecomposition("word too short for a two-symbol tail")
    pi, tail = s_n[:-2], s_n[-2:]
    if len(tail) == 2 and tail[0] == tail[1]:
        raise NotPalindromicDecomposition("tail symbols are equal; not a level word")
    if pi != pi.reverse():
        raise NotPalindromicDecomposition("core is not a palindrome; not a level word")
    if strict_parity:
        expected = ("a", "b") if n % 2 == 0 else ("b", "a")
        if (tail[0], tail[1]) != expected:
            raise NotPalindromicDecomposition(
                f"tail {tail.to_str()!r} violates parity convention for n={n}"
            )
    return pi, tail


# ---------------------------------------------------------------------------
# Gordon square search

def _square_sites(u: Word, ub: bytes, block: Word, window: int) -> np.ndarray:
    """Mask of the sites m < window where u[m:m+2l] = ww, with w a cyclic
    conjugate of block and l = |block|.

    ww starts at m when u[i] = u[i+l] for the l sites i = m..m+l-1: one
    window sum over a cumulative count. The square sites of one run are
    rotations of each other, so conjugacy is tested once per run.
    """
    ell = len(block)
    codes = u.codes
    same = codes[:window + ell - 1] == codes[ell:window + 2 * ell - 1]
    counts = np.concatenate(([0], np.cumsum(same)))
    hit = counts[ell:ell + window] - counts[:window] == ell
    edges = np.flatnonzero(np.diff(np.concatenate(([0], hit.view(np.int8), [0]))))
    doubled = block.recode(u.alphabet).to_bytes() * 2
    for lo, hi in zip(edges[::2].tolist(), edges[1::2].tolist()):
        if ub[lo:lo + ell] not in doubled:
            hit[lo:hi] = False
    return hit


def find_squares(spec: ModelSpec, shift: int, n_max: int) -> List[Tuple[int, int, str]]:
    """Squares ww with w a cyclic conjugate of s'_n (single) or s'_n s'_{n-1}
    (composite), one per level n = 2..n_max, all starting at a common site m.

    Positions are indices into the shifted sequence. Raises NoCommonSite if
    the bounded scan window holds no site shared by all levels. A site with
    both kinds reports the single one.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    primes = level_words_prime(spec, n_max)
    ell_max = len(primes[n_max + 1]) + len(primes[n_max])
    window = 4 * len(primes[n_max + 1])
    scan_len = window + 2 * ell_max + 1
    u = qs_prefix(spec, scan_len, shift=shift)
    ub = u.to_bytes()

    single = []
    common = np.ones(window, dtype=bool)
    for n in range(2, n_max + 1):
        s = _square_sites(u, ub, primes[n + 1], window)
        common &= s | _square_sites(u, ub, primes[n + 1] + primes[n], window)
        single.append(s)
    if not common.any():
        raise NoCommonSite(
            f"no common square site for levels 2..{n_max} within window {window}; enlarge and retry"
        )
    m = int(np.argmax(common))
    return [(m, n, "single" if s[m] else "composite") for n, s in enumerate(single, start=2)]
