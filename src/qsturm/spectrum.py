"""Spectrum approximation: periodic-approximant band spectra, stable-set
sweeps via trace-map classification, measure statistics, and the
eigenvalues of finite tridiagonal truncations.

The eigenvalues come from Sturm counts (Barth, Martin and Wilkinson 1967)
run on the transfer lane kernel, numpy only: every eigenvalue is bracketed
by counts, bisected until its bracket holds it alone, then refined by
count-checked regula falsi steps to 2^-40 of its Gershgorin window (about
3e-12 at the benchmark models' 500 and 2,000 sites, against dense eigvalsh).
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import GridTooCoarse, LengthBudgetExceeded
from .tracemap import classify_many
from .transfer import ENERGY_MARGIN, energy_grid, energy_window, half_traces_many, sturm_counts
from .words import DEFAULT_LENGTH_BUDGET, ModelSpec, _images, _sturmian_words, qs_prefix


class _BandListFields(NamedTuple):
    bands: Tuple[Tuple[float, float], ...]
    level: str
    merged: bool


class BandList(_BandListFields):
    """Sorted disjoint closed energy intervals with provenance.

    merged: fewer than |s'_n| bands were resolved, because some bands touch
    or are narrower than a grid cell.
    """

    __slots__ = ()

    def __new__(cls, bands: Tuple[Tuple[float, float], ...], level: str, merged: bool = False):
        prev_hi = -np.inf
        for lo, hi in bands:
            if lo > hi:
                raise ValueError(f"band [{lo}, {hi}] has lo > hi")
            if lo < prev_hi:
                raise ValueError("bands must be sorted and disjoint")
            prev_hi = hi
        return super().__new__(cls, bands, level, merged)

    @property
    def band_count(self) -> int:
        return len(self.bands)

    @property
    def total_measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.bands))

    def covers(self, E: float, dilation: float = 0.0) -> bool:
        return any(lo - dilation <= E <= hi + dilation for lo, hi in self.bands)


def periodic_bands(spec: ModelSpec, n: int, tol: float = 1e-10) -> BandList:
    """sigma(H_n) = {E : |tr M_E(n)| <= 2} for the |s'_n|-periodic approximant.

    Band edges are located by sign-change bisection of |tau| - 2 on one grid
    of max(128 |s'_n|, 16384) cells over the energy window, refined to tol.
    A grid of more than DEFAULT_LENGTH_BUDGET cells is refused before it is
    allocated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    # |s'_n| from the level lengths: the word itself is not built
    a, b = _images(spec)
    expected = next(itertools.islice(_sturmian_words(spec.cf, len(a), len(b)), n + 1, None))
    cells = max(128 * expected, 16384)
    if cells > DEFAULT_LENGTH_BUDGET:
        raise LengthBudgetExceeded(f"band grid of {cells} cells exceeds budget {DEFAULT_LENGTH_BUDGET}")
    grid = energy_grid(spec, cells + 1)
    inside = _in_band(spec, n, grid)
    if not inside.any():
        raise GridTooCoarse(f"no bands found for level {n} on a {cells}-cell grid")
    bands = _bands_from_indicator(spec, n, grid, inside, tol)
    merged = len(bands) < expected
    return BandList(tuple(bands), level=f"periodic:{n}", merged=merged)


def _in_band(spec, n, energies) -> np.ndarray:
    """|tr M_E(n)| <= 2, elementwise."""
    # Entries overflow only where |tr M_E(n)| >> 2, that is outside every
    # band; there the half trace is inf or nan and the comparison is False.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(half_traces_many(spec, energies, n)) <= 1.0


def _bands_from_indicator(spec, n, grid, inside, tol) -> List[Tuple[float, float]]:
    """Assemble bands from the grid indicator, bisecting both edges of
    every run at once between the run's end points and their outer neighbours.

    sigma(H_n) lies ENERGY_MARGIN inside the window, so no run reaches its ends.
    """
    first, last = _runs(inside)
    edges = _bisect_edges(spec, n, np.concatenate((grid[first - 1], grid[last + 1])),
                          np.concatenate((grid[first], grid[last])), tol)
    return list(zip(edges[:len(first)].tolist(), edges[len(first):].tolist()))


def _runs(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First and last indices of the maximal runs of True in a 1-D mask."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[0::2], edges[1::2] - 1


def _bisect_edges(spec, n, e_out, e_in, tol):
    """Bisect |tau| - 2 between outside points and inside points, elementwise."""
    for _ in range(200):
        if np.max(np.abs(e_out - e_in)) <= tol:
            break
        mid = 0.5 * (e_out + e_in)
        hit = _in_band(spec, n, mid)
        e_in = np.where(hit, mid, e_in)
        e_out = np.where(hit, e_out, mid)
    return e_in


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
    escaped, _steps, sup, _inv = classify_many(spec, centers, n_levels)
    bounded = ~escaped
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
        trials = np.unique(np.where(usable, falsi, 0.5 * (L + H)))


class MeasureRow(NamedTuple):
    n: int
    band_count: int
    total_measure: float


def measure_report(spec: ModelSpec, n_range: Sequence[int]) -> List[MeasureRow]:
    """Per-level band statistics: count proliferation and measure decay."""
    if not n_range:
        raise ValueError("n_range must be nonempty")
    rows = []
    for n in n_range:
        bl = periodic_bands(spec, n)
        rows.append(MeasureRow(n, bl.band_count, bl.total_measure))
    return rows
