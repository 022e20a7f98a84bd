"""Spectrum approximation: periodic-approximant band spectra, stable-set
sweeps via trace-map classification, measure statistics, and the
eigenvalues of finite tridiagonal truncations. Bands and eigenvalues are
both bracketed by Sturm counts (Barth, Martin and Wilkinson 1967), one
lane per energy (transfer.sturm_counts), numpy only.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

# tracemap and window run on their first use: stable_set needs tracemap, and
# window serves only half traces that overflow double.
from . import tracemap, window
from .errors import LengthBudgetExceeded
from .transfer import ENERGY_MARGIN, _batches, _levels, energy_window, half_traces_many, sturm_counts
from .words import DEFAULT_LENGTH_BUDGET, ModelSpec, _images, _sturmian_words, level_words_prime, qs_prefix


class _BandListFields(NamedTuple):
    bands: Tuple[Tuple[float, float], ...]
    level: str
    dd_energies: int


class BandList(_BandListFields):
    """Sorted disjoint closed energy intervals with provenance; dd_energies
    counts the energies whose half trace was recomputed in double-double."""

    __slots__ = ()

    def __new__(cls, bands: Tuple[Tuple[float, float], ...], level: str, dd_energies: int = 0):
        prev_hi = -np.inf
        for lo, hi in bands:
            if lo > hi:
                raise ValueError(f"band [{lo}, {hi}] has lo > hi")
            if lo < prev_hi:
                raise ValueError("bands must be sorted and disjoint")
            prev_hi = hi
        return super().__new__(cls, bands, level, dd_energies)

    @property
    def band_count(self) -> int:
        return len(self.bands)

    @property
    def total_measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.bands))

    def covers(self, E: float, dilation: float = 0.0) -> bool:
        return any(lo - dilation <= E <= hi + dilation for lo, hi in self.bands)


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending: np.unique without its numpy.ma
    import (numpy 2.x asks np.ma.is_masked), which no qsturm array needs."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


# Each round of the band search cuts every open bracket into _SECTIONS: a round
# costs mostly the Python loops over sites and levels, so 8 sections take a
# third of bisection's rounds (16 was slower, 4 no faster, on bench levels).
_SECTIONS = 8


def periodic_bands(spec: ModelSpec, n: int, tol: float = 1e-10) -> BandList:
    """sigma(H_n) = {E : |tr M_E(n)| <= 2}: the p = |s'_n| bands of the periodic
    approximant. Its 2p edges are the jumps of the edge count, read from the
    Sturm counts of s'_n[1:] and the half traces, and each is bracketed to
    tol by one search (README, qsturm.spectrum). The O(p^2) search is
    refused, before the word is built, past p^2 = DEFAULT_LENGTH_BUDGET."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if not np.isfinite(tol):
        raise ValueError("tol must be finite")
    a, b = _images(spec)
    p = next(itertools.islice(_sturmian_words(spec.cf, len(a), len(b)), n + 1, None))
    if p * p > DEFAULT_LENGTH_BUDGET:
        raise LengthBudgetExceeded(f"{p} bands: p^2 = {p * p} exceeds budget {DEFAULT_LENGTH_BUDGET}")
    v = spec.potential_values(level_words_prime(spec, n)[n + 1])
    dd = []

    def edge_count(E, c):
        """m(E) from the Sturm counts c and y = half_traces_many, or where that overflows
        (inf - inf reads nan) from the double-double level product, whose exponent
        never overflows (past 2^1024 y reads +-inf)."""
        y = half_traces_many(spec, E, n)
        bad = ~np.isfinite(y)
        if bad.any():
            hi, lo, e = _levels(spec, n, lambda w: window._dd_sites(E[bad], w), window._dd_mul)[n + 1]
            with np.errstate(over="ignore"):
                y[bad] = np.ldexp(0.5 * (hi[0, 0] + hi[1, 1] + (lo[0, 0] + lo[1, 1])), e.astype(np.int64))
        dd.append(int(bad.sum()))
        return np.where(np.abs(y) >= 1.0, 2 * (c + ((p - c) % 2 != np.signbit(y))), 2 * c + 1)

    # Edge k is the k-th jump of the edge count m(E), the number of edges below E:
    # m = 2c + 1 in band c, below which lie c Dirichlet eigenvalues of v[1:], and
    # m = 2j in gap j, where y has the sign (-1)^(p - j) and j - 1 or j lie below,
    # either count giving j; |y| = 1 reads as a gap, as one may sit on that edge.
    # Brackets keep m_lo <= k < m_hi; one over at most one band knows c = m_lo // 2.
    lo_w, hi_w = energy_window(spec)
    k = act = np.arange(2 * p)
    lo, hi = np.full(2 * p, lo_w), np.full(2 * p, hi_w)
    m_lo, m_hi = np.zeros(2 * p, dtype=np.intp), np.full(2 * p, 2 * p)
    E, c = np.linspace(lo_w, hi_w, p + 3)[1:-1], np.full(p + 1, -1)
    while act.size:
        if (wide := c < 0).any():
            c[wide] = sturm_counts(v[1:], E[wide])[0]
        m = edge_count(E, c)
        # Last trial with every m up to it <= k, first with every m from it on > k,
        # kept inside the old bracket, as m is not monotone where |y| - 1 is noise.
        i = np.searchsorted(np.maximum.accumulate(m), k[act], side="right") - 1
        j = np.searchsorted(np.minimum.accumulate(m[::-1])[::-1], k[act], side="right")
        ic, jc, L, H = np.maximum(i, 0), np.minimum(j, len(E) - 1), lo[act], hi[act]
        new_lo = (i >= 0) & (E[ic] > L) & (E[ic] < H)
        new_hi = (j < len(E)) & (E[jc] > L) & (E[jc] < H)
        lo[act], m_lo[act] = np.where(new_lo, E[ic], L), np.where(new_lo, m[ic], m_lo[act])
        hi[act], m_hi[act] = np.where(new_hi, E[jc], H), np.where(new_hi, m[jc], m_hi[act])
        # A bracket that a round does not move, or no wider than tol, is final.
        act = act[(new_lo | new_hi) & (hi[act] - lo[act] > tol)]
        # Each distinct bracket (equal ones are neighbours) is cut into _SECTIONS.
        L, H = lo[act], hi[act]
        s = act[(L != np.r_[np.nan, L[:-1]]) | (H != np.r_[np.nan, H[:-1]])]
        E = (lo[s, None] + (hi - lo)[s, None] * np.arange(1, _SECTIONS) / _SECTIONS).ravel()
        c = np.repeat(np.where(m_hi[s] - m_lo[s] + m_lo[s] % 2 > 2, -1, m_lo[s] // 2), _SECTIONS - 1)
        E, c = E[order := np.argsort(E, kind="stable")], c[order]
    # lo[k] also bounds edge k + 1 and hi[k + 1] edge k: the envelopes keep edges in order.
    edges = 0.5 * (np.maximum.accumulate(lo) + np.minimum.accumulate(hi[::-1])[::-1])
    return BandList(tuple(zip(edges[0::2].tolist(), edges[1::2].tolist())),
                    level=f"periodic:{n}", dd_energies=sum(dd))


def _runs(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First and last indices of the maximal runs of True in a 1-D mask."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[0::2], edges[1::2] - 1


class StableSweep(NamedTuple):
    """Stable-set sweep: grid cells whose center has a bounded trace-map orbit."""

    bands: BandList
    grid: np.ndarray
    bounded: np.ndarray
    sup_norm: np.ndarray
    cell_width: float = 0.0

    def __repr__(self) -> str:
        # the per-cell arrays are left out, as they can be millions long
        return f"StableSweep(bands={self.bands!r}, cell_width={self.cell_width!r})"

    @property
    def stable_centers(self) -> np.ndarray:
        return self.grid[self.bounded]


def stable_set(spec: ModelSpec, grid: int = 4000, n_levels: int = 30) -> StableSweep:
    """Classify every grid-cell center and return the closure of bounded
    cells as intervals, with the per-cell empirical orbit bound.
    """
    if n_levels < 10:
        raise ValueError("n_levels must be >= 10")
    if grid < 2:
        raise ValueError("grid must have at least 2 cells")
    lo, hi = energy_window(spec)
    width = (hi - lo) / grid
    centers = lo + width * (np.arange(grid) + 0.5)
    bounded, sup = np.empty(grid, dtype=bool), np.empty(grid)
    # One batch at a time, so the escape steps and invariants, which a sweep
    # does not keep, are held for one batch and not for the whole grid.
    for s in _batches(centers):
        escaped, _steps, sup[s], _inv = tracemap.classify_many(spec, centers[s], n_levels)
        bounded[s] = ~escaped
    first, last = _runs(bounded)
    bands = zip((centers[first] - 0.5 * width).tolist(), (centers[last] + 0.5 * width).tolist())
    band_list = BandList(tuple(bands), level=f"stable:grid={grid},levels={n_levels}")
    return StableSweep(band_list, centers, bounded, sup, width)


def finite_eigenvalues(spec: ModelSpec, shift: int, size: int) -> np.ndarray:
    """All eigenvalues, ascending, of the size x size symmetric tridiagonal
    truncation (diagonal = potential values, off-diagonal 1).
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    return tridiagonal_eigenvalues(spec.potential_values(qs_prefix(spec, size, shift=shift)))


# An eigenvalue is final once its certified bracket is this narrow, relative
# to the Gershgorin window it was searched in.
_EIGEN_RTOL = 2.0 ** -40
_LN2 = float(np.log(2.0))


def tridiagonal_eigenvalues(diag: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, of the symmetric tridiagonal matrix with
    the given diagonal and unit off-diagonals. Each lies within half of
    2^-40 times the width of the search window (Gershgorin's, widened by
    ENERGY_MARGIN) of an eigenvalue, up to the rounding of the counts.

    Eigenvalue k is kept in a bracket [lo, hi] with count(lo) <= k <
    count(hi), where count is the Sturm count of sturm_counts. One sweep
    over n + 1 evenly spaced energies seeds every bracket; then each round
    evaluates one trial energy per unfinished eigenvalue and tightens every
    bracket from all the counts of the round. The trial is the bracket
    midpoint, or a regula falsi step on ln|det(E - T)| (Illinois variant:
    the end kept twice in a row has its value halved) once the bracket
    holds one eigenvalue and lies at least its own width from the brackets
    of both neighbours. A bracket that three such steps have not halved is
    bisected. The result is certified by counts alone.
    """
    v = np.asarray(diag, dtype=float)
    n = len(v)
    if not n:
        return np.empty(0)
    if not np.isfinite(v).all():
        raise ValueError("diag must be finite")
    lo_w = float(v.min()) - 2.0 - ENERGY_MARGIN
    hi_w = float(v.max()) + 2.0 + ENERGY_MARGIN
    tol = (hi_w - lo_w) * _EIGEN_RTOL
    k = np.arange(n)
    lo, hi = np.full(n, lo_w), np.full(n, hi_w)
    c_lo, c_hi = np.zeros(n, dtype=np.intp), np.full(n, n, dtype=np.intp)
    # ln|det(E - T)| at the bracket ends; Illinois halvings subtract ln 2
    f_lo, f_hi = np.full(n, np.nan), np.full(n, np.nan)
    moved = np.zeros(n, dtype=np.int8)  # +1 lo alone moved last round, -1 hi alone
    stale = np.zeros(n, dtype=np.int8)  # rounds since the bracket last halved
    last_halved = hi - lo
    act = k
    trials = np.linspace(lo_w, hi_w, n + 1)
    while True:
        counts, log_det = sturm_counts(v, trials)
        L, H = lo[act], hi[act]
        # Last trial with every count up to it <= k, first with every count
        # from it on > k: both hold even where rounding breaks monotonicity.
        up = np.maximum.accumulate(counts)
        down = np.minimum.accumulate(counts[::-1])[::-1]
        i = np.searchsorted(up, k[act], side="right") - 1
        j = np.searchsorted(down, k[act], side="right")
        ic, jc = np.maximum(i, 0), np.minimum(j, len(trials) - 1)
        new_lo = (i >= 0) & (trials[ic] >= L) & (trials[ic] < H)
        new_hi = (j < len(trials)) & (trials[jc] <= H) & (trials[jc] > L)
        lo[act] = np.where(new_lo, trials[ic], L)
        hi[act] = np.where(new_hi, trials[jc], H)
        c_lo[act] = np.where(new_lo, counts[ic], c_lo[act])
        c_hi[act] = np.where(new_hi, counts[jc], c_hi[act])
        side = np.where(new_lo & ~new_hi, 1, np.where(new_hi & ~new_lo, -1, 0)).astype(np.int8)
        again = (side != 0) & (side == moved[act])
        f_lo[act] = np.where(new_lo, log_det[ic], f_lo[act] - _LN2 * (again & (side < 0)))
        f_hi[act] = np.where(new_hi, log_det[jc], f_hi[act] - _LN2 * (again & (side > 0)))
        moved[act] = side
        w = hi[act] - lo[act]
        halved = w <= 0.5 * last_halved[act]
        last_halved[act] = np.where(halved, w, last_halved[act])
        stale[act] = np.where(halved, 0, np.minimum(stale[act] + 1, 3))
        mid = 0.5 * (lo[act] + hi[act])
        act = act[(w > tol) & (mid > lo[act]) & (mid < hi[act])]
        if not act.size:
            return np.sort(0.5 * (lo + hi))
        L, H = lo[act], hi[act]
        w = H - L
        below = np.concatenate(([-np.inf], hi[:-1]))[act]
        above = np.concatenate((lo[1:], [np.inf]))[act]
        with np.errstate(invalid="ignore"):
            df = f_hi[act] - f_lo[act]
            s = np.exp(-np.abs(df))
            step = w * s / (1.0 + s)
            falsi = np.where(df >= 0, L + step, H - step)
            usable = ((c_hi[act] - c_lo[act] == 1) & (stale[act] < 3)
                      & (L - below >= w) & (above - H >= w) & (falsi > L) & (falsi < H))
        trials = _sorted_distinct(np.where(usable, falsi, 0.5 * (L + H)))


class MeasureRow(NamedTuple):
    n: int
    band_count: int
    total_measure: float


def measure_report(spec: ModelSpec, n_range: Sequence[int]) -> List[MeasureRow]:
    """Per-level band statistics: count proliferation and measure decay."""
    if not n_range:
        raise ValueError("n_range must be nonempty")
    bands = [periodic_bands(spec, n) for n in n_range]
    return [MeasureRow(n, bl.band_count, bl.total_measure) for n, bl in zip(n_range, bands)]
