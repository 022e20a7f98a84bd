"""Spectrum approximation: periodic-approximant band spectra, stable-set
sweeps via trace-map classification, measure statistics, and the
eigenvalues of finite tridiagonal truncations (LAPACK, through scipy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import GridTooCoarse
from .tracemap import classify_many
from .transfer import half_traces_many
from .words import ModelSpec, level_words_prime, qs_prefix

ENERGY_MARGIN = 0.5


@dataclass(frozen=True)
class BandList:
    """Sorted disjoint closed energy intervals with provenance."""

    bands: Tuple[Tuple[float, float], ...]
    level: str
    merged: bool = False

    def __post_init__(self):
        prev_hi = -np.inf
        for lo, hi in self.bands:
            if lo > hi:
                raise ValueError(f"band [{lo}, {hi}] has lo > hi")
            if lo < prev_hi:
                raise ValueError("bands must be sorted and disjoint")
            prev_hi = hi

    @property
    def band_count(self) -> int:
        return len(self.bands)

    @property
    def total_measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.bands))

    def covers(self, E: float, dilation: float = 0.0) -> bool:
        return any(lo - dilation <= E <= hi + dilation for lo, hi in self.bands)


def energy_window(spec: ModelSpec) -> Tuple[float, float]:
    """[min f - 2 - margin, max f + 2 + margin]; everything outside is resolvent."""
    values = list(spec.potential.values())
    return min(values) - 2.0 - ENERGY_MARGIN, max(values) + 2.0 + ENERGY_MARGIN


def periodic_bands(spec: ModelSpec, n: int, tol: float = 1e-10) -> BandList:
    """sigma(H_n) = {E : |tr M_E(n)| <= 2} for the |s'_n|-periodic approximant.

    Band edges are located by sign-change bisection of |tau| - 2 on a seed
    grid of at least 8 |s'_n| points, refined to tol.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    expected = len(level_words_prime(spec, n)[n + 1])
    lo, hi = energy_window(spec)

    # Each retry doubles the grid; linspace(lo, hi, 2N + 1)[::2] equals
    # linspace(lo, hi, N + 1) bitwise, so only the new points are evaluated.
    seed = max(8 * expected, 1024)
    grid = np.linspace(lo, hi, seed + 1)
    inside = _in_band(spec, n, grid)
    count, prev_count = len(_runs(inside)), -1
    for _retry in range(4):
        if count >= expected or count == prev_count:
            break  # all found, or touching bands merge and the count is stable
        seed *= 2
        grid = np.linspace(lo, hi, seed + 1)
        finer = np.empty(seed + 1, dtype=bool)
        finer[::2] = inside
        finer[1::2] = _in_band(spec, n, grid[1::2])
        inside, prev_count, count = finer, count, len(_runs(finer))
    bands = _bands_from_indicator(spec, n, grid, inside, tol)
    if not bands:
        raise GridTooCoarse(
            f"no bands found for level {n} on a {seed}-point grid"
        )
    merged = len(bands) < expected
    return BandList(tuple(bands), level=f"periodic:{n}", merged=merged)


def _in_band(spec, n, energies) -> np.ndarray:
    """|tr M_E(n)| <= 2, elementwise."""
    # Entries overflow only where |tr M_E(n)| >> 2, that is outside every band.
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.abs(2.0 * half_traces_many(spec, energies, n)) - 2.0
    return np.isfinite(g) & (g <= 0.0)


def _bands_from_indicator(spec, n, grid, inside, tol) -> List[Tuple[float, float]]:
    """Assemble bands from the seed-grid indicator, bisecting all boundaries
    simultaneously."""
    runs = _runs(inside)
    K = len(grid)
    if not runs:
        return []
    # For each run, bisect the outer bracket; runs touching the window ends
    # keep the grid point itself.
    e_out, e_in, slots = [], [], []
    edges = {}
    for r, (i, j) in enumerate(runs):
        if i == 0:
            edges[(r, 0)] = float(grid[0])
        else:
            slots.append((r, 0))
            e_out.append(grid[i - 1])
            e_in.append(grid[i])
        if j == K - 1:
            edges[(r, 1)] = float(grid[K - 1])
        else:
            slots.append((r, 1))
            e_out.append(grid[j + 1])
            e_in.append(grid[j])
    if slots:
        refined = _bisect_edges(spec, n, np.array(e_out), np.array(e_in), tol)
        for slot, e in zip(slots, refined):
            edges[slot] = float(e)
    return [(edges[(r, 0)], edges[(r, 1)]) for r in range(len(runs))]


def _runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """(first, last) index of every maximal run of True in a 1-D mask."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()))


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


@dataclass(frozen=True)
class StableSweep:
    """Stable-set sweep: grid cells whose center has a bounded trace-map orbit."""

    bands: BandList
    grid: np.ndarray = field(repr=False)
    bounded: np.ndarray = field(repr=False)
    sup_norm: np.ndarray = field(repr=False)
    cell_width: float = 0.0

    @property
    def stable_centers(self) -> np.ndarray:
        return self.grid[self.bounded]

    @property
    def escaped_centers(self) -> np.ndarray:
        return self.grid[~self.bounded]


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
    bands = [(float(centers[i] - 0.5 * width), float(centers[j] + 0.5 * width))
             for i, j in _runs(bounded)]
    band_list = BandList(tuple(bands), level=f"stable:grid={grid},levels={n_levels}")
    return StableSweep(band_list, centers, bounded, sup, width)


def finite_eigenvalues(spec: ModelSpec, shift: int, size: int) -> np.ndarray:
    """All eigenvalues, ascending, of the size x size symmetric tridiagonal
    truncation (diagonal = potential values, off-diagonal 1).
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    # Imported here: at module level scipy would add a quarter second to
    # every CLI call, since the CLI imports this module.
    from scipy.linalg import eigvalsh_tridiagonal

    diag = spec.potential_values(qs_prefix(spec, size, shift=shift))
    return eigvalsh_tridiagonal(diag, np.ones(size - 1))


@dataclass(frozen=True)
class MeasureRow:
    n: int
    band_count: int
    total_measure: float


def measure_report(spec: ModelSpec, n_range: Sequence[int], tol: float = 1e-10) -> List[MeasureRow]:
    """Per-level band statistics: count proliferation and measure decay."""
    if not n_range:
        raise ValueError("n_range must be nonempty")
    rows = []
    for n in n_range:
        bl = periodic_bands(spec, n, tol=tol)
        rows.append(MeasureRow(n, bl.band_count, bl.total_measure))
    return rows
