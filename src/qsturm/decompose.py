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
from .words import _CHUNK, Word, Substitution, complexity, factor_index, safe_window, substitute


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
        if not _regenerates(w, subst, base, len(prefix_w), window_length):
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
    return np.flatnonzero(vertex == right[0]).astype(np.int32)


def _return_structure(w: Word, n: int):
    """Bispecial factor at length n, its two return words and the path choices.

    Returns (occurrences, (return word 'a', return word 'b'), choice codes)
    or None if length n does not work. Passage j runs from occurrence j to
    occurrence j+1 and extends the factor by the symbol at occ[j] + n; the
    path extending it by the smaller symbol is 'a' (code 0). Leading passages
    are dropped up to the last one that breaks the two-path regime: a third
    extension, or a return word other than the last one seen with its
    extension (a finite transient before the recurrent regime).

    Only the occurrences, the extensions and one flag per passage span the
    window; the rest runs over chunks of _CHUNK passages, and the choice
    codes are written over the extensions.
    """
    if n == 0:
        if len(w.alphabet) < 2:
            return None
        occ = np.arange(len(w), dtype=np.int32)
    else:
        occ = _recurrent_bispecial(w, n)
        if occ is None:
            return None
    if len(occ) < _MIN_TAIL_RETURNS:
        return None
    codes = w.codes
    passages = len(occ) - 1
    chunks = [(a, min(a + _CHUNK, passages)) for a in range(0, passages, _CHUNK)]
    ext = np.empty(passages, dtype=np.int32)
    for a, b in chunks:
        ext[a:b] = codes[occ[a:b] + n]
    ok = ext != ext[-1]  # the other extension, until the chunks overwrite it
    if not ok.any():
        return None
    ref = np.array([passages - 1, passages - 1 - int(np.argmax(ok[::-1]))])  # last passage with each extension
    ref_ext, ref_occ, ref_len = ext[ref], occ[ref], occ[ref + 1] - occ[ref]
    for a, b in chunks:
        # Compare each candidate return word with its reference, symbol by
        # symbol: the return words tile w[occ[a]:occ[b]], so one gather
        # through an index that runs along each passage from the start of
        # its reference (of the passage itself where no reference fits)
        # costs O(occ[b] - occ[a]).
        which = (ext[a:b] == ref_ext[1]).view(np.int8)
        good = (ext[a:b] == ref_ext[which]) & (occ[a + 1:b + 1] - occ[a:b] == ref_len[which])
        delta = np.where(good, ref_occ[which] - occ[a:b], 0)
        starts = occ[a:b] - occ[a]
        idx = np.ones(int(occ[b] - occ[a]), dtype=np.int32)
        idx[starts[1:]] += np.diff(delta)
        idx[0] = occ[a] + delta[0]
        np.cumsum(idx, out=idx)
        good[np.logical_or.reduceat(codes[idx] != codes[occ[a]:occ[b]], starts)] = False
        ok[a:b] = good
    j0 = 0 if ok.all() else passages - int(np.argmin(ok[::-1]))  # after the last failed passage
    if ref[1] < j0 or passages - j0 < _MIN_TAIL_RETURNS:
        return None
    order = np.argsort(ref_ext)
    images = tuple(w[occ[r]:occ[r + 1]] for r in ref[order])
    base = ext[j0:]
    np.equal(base, ref_ext[order[1]], out=base)
    return occ[j0:], images, base


def _regenerates(w: Word, subst: Substitution, base: Word, start: int, stop: int) -> bool:
    """Whether S(base) is w[start:stop], compared one chunk of _CHUNK base
    symbols at a time so that S(base) is never built whole."""
    for a in range(0, len(base), _CHUNK):
        piece = substitute(subst, base[a:a + _CHUNK])
        if piece != w[start:start + len(piece)]:
            return False
        start += len(piece)
    return start == stop


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
