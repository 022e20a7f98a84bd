"""Rauzy graphs, special factors, quasi-Sturmian recognition, and extraction
of (prefix w, substitution S, Sturmian base, rotation number) from a raw word.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .contfrac import approximants, expand, value
from .errors import (
    BasePrefixTooShort,
    InconclusiveWindow,
    NoBispecialFound,
    RegenerationMismatch,
    WindowTooLarge,
)
from .words import Word, Substitution, complexity, factor_index, safe_window, substitute


class RauzyGraph(NamedTuple):
    """G(n): vertices are the length-n factors, edges the length-(n+1) factors.

    Edge axb runs from ax to xb.
    """

    n: int
    vertices: Tuple[Word, ...]
    edges: Tuple[Word, ...]

    def edge_endpoints(self, edge: Word) -> Tuple[Word, Word]:
        return edge[:-1], edge[1:]

    def out_degrees(self) -> Dict[Word, int]:
        deg = {v: 0 for v in self.vertices}
        for e in self.edges:
            deg[e[:-1]] += 1
        return deg

    def in_degrees(self) -> Dict[Word, int]:
        deg = {v: 0 for v in self.vertices}
        for e in self.edges:
            deg[e[1:]] += 1
        return deg


def _distinct_windows(w: Word, n: int) -> List[Word]:
    """Distinct length-n factors of w, in order of first occurrence."""
    if n == 0:
        return [w[:0]]
    return [w[i:i + n] for i in factor_index(w, n).first_occurrences(n)]


def rauzy_graph(w: Word, n: int) -> RauzyGraph:
    """Rauzy graph of the factors of w at length n."""
    if n > safe_window(w):
        raise WindowTooLarge(f"n={n} beyond the safe window {safe_window(w)} of |w|={len(w)}")
    return RauzyGraph(
        n=n,
        vertices=tuple(_distinct_windows(w, n)),
        edges=tuple(_distinct_windows(w, n + 1)),
    )


def special_factors(g: RauzyGraph) -> Dict[str, List[Word]]:
    """Right-special (out-degree >= 2), left-special (in-degree >= 2), bispecial."""
    out_deg = g.out_degrees()
    in_deg = g.in_degrees()
    right = [v for v in g.vertices if out_deg[v] >= 2]
    left = [v for v in g.vertices if in_deg[v] >= 2]
    bis = [v for v in right if in_deg[v] >= 2]
    return {"right_special": right, "left_special": left, "bispecial": bis}


class Classification(NamedTuple):
    kind: str  # periodic | sturmian | quasi_sturmian | other
    k: int
    n0: int


_MIN_DETECT_LENGTH = 64


def detect_qs(w: Word) -> Classification:
    """Classify w by its complexity profile on the safe window.

    For quasi_sturmian, k is the plateau constant in p(n) = n + k and n0 the
    plateau onset. Raises InconclusiveWindow if the profile has not
    stabilized within the window.
    """
    if len(w) < _MIN_DETECT_LENGTH:
        raise InconclusiveWindow(f"word of length {len(w)} too short to classify")
    n_max = min(safe_window(w), 400)
    p = complexity(w, n_max)
    # Eventually periodic: complexity bounded, i.e. flat at the tail.
    if p[-1] == p[-2] == p[max(0, n_max // 2)]:
        return Classification("periodic", k=0, n0=0)
    excess = [p[i] - (i + 1) for i in range(n_max)]  # p(n) - n
    k = excess[-1]
    tail_start = None
    for i in range(n_max - 1, -1, -1):
        if excess[i] != k:
            tail_start = i + 1
            break
    else:
        tail_start = 0
    # Require the plateau to fill at least the last quarter of the window.
    if k < 1 or n_max - tail_start < max(4, n_max // 4):
        raise InconclusiveWindow("complexity profile not stabilized; enlarge input")
    n0 = tail_start + 1  # first factor length on the plateau
    if k == 1:
        return Classification("sturmian", k=1, n0=n0)
    return Classification("quasi_sturmian", k=k, n0=n0)


class Decomposition(NamedTuple):
    """Cassaigne decomposition of a quasi-Sturmian window.

    The analyzed window (the first window_length symbols of the input) is
    exactly prefix_w . subst(base_prefix).
    """

    prefix_w: Word
    subst: Substitution
    base_prefix: Word
    theta_estimate: float
    bispecial_length: int
    window_length: int


def cassaigne_decompose(w: Word) -> Decomposition:
    """Extract (prefix, substitution, Sturmian base) via the shortest bispecial
    factor whose two return words generate the window.

    The base letter sequence records which of the two return paths is taken
    at each passage through the bispecial factor; the path extending it by
    the lexicographically smaller symbol is labelled 'a'.
    """
    cls = detect_qs(w)
    if cls.kind not in ("sturmian", "quasi_sturmian"):
        raise NoBispecialFound(f"input classified as {cls.kind}; nothing to decompose")

    start_n = cls.n0 - 1 if cls.kind == "sturmian" else cls.n0
    start_n = max(0, start_n)
    stop_n = min(safe_window(w), start_n + _MAX_BISPECIAL_SCAN)
    for n in range(start_n, stop_n):
        found = _return_structure(w, n)
        if found is None:
            continue
        occ, images, base_codes = found
        base = Word(base_codes, ("a", "b"))
        if not _looks_sturmian(w, n, occ, base):
            continue
        subst = Substitution({"a": images[0], "b": images[1]})
        prefix_w = w[:occ[0]]
        window_length = int(occ[-1])
        regenerated = prefix_w + substitute(subst, base)
        if regenerated != w[:window_length]:
            raise RegenerationMismatch("internal error: decomposition does not regenerate the window")
        theta = base.count("a") / len(base)
        return Decomposition(
            prefix_w=prefix_w,
            subst=subst,
            base_prefix=base,
            theta_estimate=theta,
            bispecial_length=n,
            window_length=window_length,
        )
    raise NoBispecialFound("no bispecial factor with two Sturmian return paths found; scan more lengths")


_MAX_BISPECIAL_SCAN = 512
_MIN_TAIL_RETURNS = 8


def _recurrent_bispecial(w: Word, n: int) -> Optional[np.ndarray]:
    """Sorted occurrences of the unique bispecial length-n factor (n >= 1)
    among recurrent factors, or None.

    Factors seen only once (transient head, junction artifacts) are ignored:
    they are not factors of the underlying two-sided hull.
    """
    index = factor_index(w, n + 1)
    vertex = index.classes(n)
    edges = index.run_starts(n + 1)
    count = np.diff(np.append(edges, len(w)))
    first = index.order[edges[count >= 2]]  # one occurrence per recurrent edge
    right = np.flatnonzero(np.bincount(vertex[first]) >= 2)
    left = np.flatnonzero(np.bincount(vertex[first + 1]) >= 2)
    if len(right) != 1 or len(left) != 1 or right[0] != left[0]:
        return None
    return np.flatnonzero(vertex == right[0])


def _return_structure(w: Word, n: int):
    """Bispecial factor at length n, its two return words and the path choices.

    Returns (occurrences, (return word 'a', return word 'b'), choice codes)
    or None if length n does not work. Passage j runs from occurrence j to
    occurrence j+1 and extends the factor by the symbol at occ[j] + n; the
    path extending it by the smaller symbol is 'a' (code 0). Leading passages
    are dropped up to the last one that breaks the two-path regime: a third
    extension, or a return word other than the last one seen with its
    extension (a finite transient before the recurrent regime).
    """
    if n == 0:
        if len(w.alphabet) < 2:
            return None
        occ = np.arange(len(w), dtype=np.int32)
    else:
        occ = _recurrent_bispecial(w, n)
        if occ is None:
            return None
        occ = occ.astype(np.int32)
    if len(occ) < _MIN_TAIL_RETURNS:
        return None
    ext = w.codes[occ[:-1] + n]
    length = np.diff(occ)
    other = ext != ext[-1]
    if not other.any():
        return None
    ref = np.array([len(ext) - 1, np.flatnonzero(other)[-1]])  # last passage with each extension
    which = np.full(len(ext), -1, dtype=np.int8)
    which[ext == ext[ref[1]]] = 1
    which[~other] = 0
    ok = (which >= 0) & (length == length[ref][which])
    # Compare each candidate return word with its reference, symbol by
    # symbol: the return words tile w[occ[0]:occ[-1]], so one gather through
    # an index that runs along each passage from the start of its reference
    # (of the passage itself where no reference fits) costs O(|w|).
    delta = np.where(ok, occ[ref][which] - occ[:-1], 0)
    starts = occ[:-1] - occ[0]
    idx = np.ones(int(occ[-1] - occ[0]), dtype=np.int32)
    idx[starts[1:]] += np.diff(delta)
    idx[0] = occ[0] + delta[0]
    del delta
    np.cumsum(idx, out=idx)
    mismatch = w.codes[idx] != w.codes[occ[0]:occ[-1]]
    del idx
    ok[np.logical_or.reduceat(mismatch, starts)] = False
    bad = np.flatnonzero(~ok)
    j0 = int(bad[-1]) + 1 if len(bad) else 0
    if ref[1] < j0 or len(ext) - j0 < _MIN_TAIL_RETURNS:
        return None
    ref = ref[np.argsort(ext[ref])]
    images = tuple(w[occ[r]:occ[r + 1]] for r in ref)
    return occ[j0:], images, (ext[j0:] == ext[ref[1]]).astype(np.int32)


def _looks_sturmian(w: Word, n: int, occ: np.ndarray, base: Word) -> bool:
    """Cheap Sturmian check: p(n) = n + 1 on a short window of the base that
    the bispecial factor of length n and its occurrences occ cut from w.

    At n = 0 the base is w[occ[0]:occ[-1]] with its two letters relabelled,
    so its counts are read from w's own factor index; a longer bispecial
    factor gives a shorter base, which gets an index of its own.
    """
    if len(base) < _MIN_DETECT_LENGTH:
        return False
    n_max = min(24, safe_window(base))
    if n_max < 2:
        return False
    if n == 0:
        p = factor_index(w, n_max).factor_counts(int(occ[0]), int(occ[-1]), n_max)
    else:
        p = complexity(base, n_max)
    return all(p[i] == i + 2 for i in range(n_max))


def rotation_number(d: Decomposition, refine: int = 20) -> float:
    """Canonical rotation number: empirical frequency of 'a' in the base,
    refined by truncating its continued fraction at `refine` coefficients.
    """
    if refine < 1:
        raise ValueError(f"refine must be >= 1, got {refine}")
    if len(d.base_prefix) < _MIN_DETECT_LENGTH:
        raise BasePrefixTooShort(f"base prefix of length {len(d.base_prefix)} too short")
    freq = d.base_prefix.count("a") / len(d.base_prefix)
    if not 0.0 < freq < 1.0:
        raise BasePrefixTooShort("degenerate base: single-letter frequency 0 or 1")
    cf, _terminated = expand(freq, refine)
    # Truncate where the convergent resolution exceeds the empirical one:
    # q_n^2 beyond the base length reads noise in the frequency. q_n grows
    # with n, so scan upwards and never form the noisy (possibly huge) tail.
    n = 1
    while n < len(cf.coeffs):
        _, q = approximants(cf, n + 1)
        if q * q > 4 * len(d.base_prefix):
            break
        n += 1
    return value(cf, n)


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "prefix": d.prefix_w.to_str(),
        "substitution": d.subst.to_json(),
        "base_prefix": d.base_prefix.to_str(),
        "theta_estimate": d.theta_estimate,
        "bispecial_length": d.bispecial_length,
        "window_length": d.window_length,
    }
