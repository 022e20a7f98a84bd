"""Band spectra, stable-set sweeps, finite eigenvalues, measure reports."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qsturm import spectrum
from qsturm.contfrac import ContinuedFraction
from qsturm.errors import LengthBudgetExceeded
from qsturm.spectrum import (
    BandList,
    _runs,
    energy_window,
    finite_eigenvalues,
    measure_report,
    periodic_bands,
    stable_set,
    tridiagonal_eigenvalues,
)
from qsturm.transfer import half_traces_many
from qsturm.words import DEFAULT_LENGTH_BUDGET, ModelSpec, Substitution, Word


# ------------------------------------------------------------------- BandList

def test_bandlist_validation():
    with pytest.raises(ValueError, match=r"^band \[0\.0, -1\.0\] has lo > hi$"):
        BandList(((0.0, -1.0),), level="x")
    with pytest.raises(ValueError, match=r"^bands must be sorted and disjoint$"):
        BandList(((0.0, 2.0), (1.0, 3.0)), level="x")
    bl = BandList(((0.0, 1.0), (2.0, 2.5)), level="x")
    assert bl.band_count == 2
    assert bl.total_measure == pytest.approx(1.5)
    assert bl.covers(0.5) and not bl.covers(1.5)
    assert bl.covers(1.1, dilation=0.2)


def test_energy_window(fib_spec):
    lo, hi = energy_window(fib_spec)
    assert lo == pytest.approx(-2.5)
    assert hi == pytest.approx(4.5)


# ------------------------------------------------------------- periodic bands

def test_free_band(free_spec):
    bl = periodic_bands(free_spec, 1)
    assert bl.band_count == 1
    lo, hi = bl.bands[0]
    assert lo == pytest.approx(-2.0, abs=1e-8)
    assert hi == pytest.approx(2.0, abs=1e-8)


def test_period2_bands_closed_form():
    # period-2 potential (2, 0): bands [1 - sqrt5, 0] and [2, 1 + sqrt5]
    cf = ContinuedFraction((), (1,))
    subst = Substitution.from_strings({"a": "ab", "b": "ab"})
    spec = ModelSpec(cf, subst, Word.from_str("", ("a", "b")),
                     {"a": 2.0, "b": 0.0})
    bl = periodic_bands(spec, 1, tol=1e-12)
    s5 = math.sqrt(5.0)
    expected = [(1.0 - s5, 0.0), (2.0, 1.0 + s5)]
    assert bl.band_count == 2
    for (lo, hi), (elo, ehi) in zip(bl.bands, expected):
        assert lo == pytest.approx(elo, abs=1e-8)
        assert hi == pytest.approx(ehi, abs=1e-8)
    assert bl.total_measure == pytest.approx(2.0 * s5 - 2.0, abs=1e-7)


def test_band_count_matches_period(fib_spec):
    for n in (3, 5, 7):
        bl = periodic_bands(fib_spec, n)
        # one band per site of the period unless bands touch
        from qsturm.words import level_words_prime
        expected = len(level_words_prime(fib_spec, n)[n + 1])
        assert bl.band_count == expected
        assert not bl.merged


def test_bands_nested_measure_decreases(fib_spec):
    rows = measure_report(fib_spec, range(3, 9))
    measures = [r.total_measure for r in rows]
    assert all(m2 <= m1 + 1e-9 for m1, m2 in zip(measures, measures[1:]))


def _floquet_edges(values):
    """Periodic and antiperiodic eigenvalues of the one-period matrix: the
    energies where the discriminant is +2 or -2, which hold every band edge."""
    p = len(values)
    edges = []
    for sign in (1.0, -1.0):
        H = np.diag(values) + np.diag(np.ones(p - 1), 1) + np.diag(np.ones(p - 1), -1)
        H[0, p - 1] += sign
        H[p - 1, 0] += sign
        edges.append(np.linalg.eigvalsh(H))
    return np.sort(np.concatenate(edges))


@pytest.mark.parametrize("model,n_max", [("fib_spec", 12), ("q5_spec", 8),
                                         ("cf2_spec", 8), ("prefix_spec", 10)])
def test_band_edges_are_floquet_eigenvalues(model, n_max, request):
    from qsturm.words import level_words_prime
    spec = request.getfixturevalue(model)
    for n in range(1, n_max + 1):
        word = level_words_prime(spec, n)[n + 1]
        oracle = _floquet_edges(spec.potential_values(word))
        bands = np.array(periodic_bands(spec, n).bands)
        nearest = np.abs(bands.ravel()[:, None] - oracle[None, :]).min(axis=1)
        assert nearest.max() <= 1e-9, (model, n)
        # Sorted edges pair up into the p bands; none wider than a grid cell
        # may be missing from the result.
        lo, hi = energy_window(spec)
        wide = oracle[1::2] - oracle[0::2] > (hi - lo) / 16384
        met = [np.any((bands[:, 0] <= b_hi) & (bands[:, 1] >= b_lo))
               for b_lo, b_hi in zip(oracle[0::2][wide], oracle[1::2][wide])]
        assert all(met), (model, n, met.count(False))


def test_bad_arguments(fib_spec):
    with pytest.raises(ValueError):
        periodic_bands(fib_spec, 0)
    for tol in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match=r"^tol must be > 0$"):
            periodic_bands(fib_spec, 3, tol=tol)
    with pytest.raises(ValueError):
        measure_report(fib_spec, [])


def test_band_grid_over_budget_refused_before_allocating():
    # a_2 = 10^7: |s'_2| = 10^7 + 1 asks for a grid of 1.28e9 cells, which
    # would take 9.5 GiB. Neither the grid nor the level word is built.
    spec = ModelSpec(ContinuedFraction((1, 10**7), (1,)), Substitution.identity(),
                     Word.from_str("", ("a", "b")), {"a": 1.0, "b": 0.0})
    assert periodic_bands(spec, 1).band_count == 1
    for n, cells in ((2, 1_280_000_128), (3, 1_280_000_256)):
        tracemalloc.start()
        try:
            with pytest.raises(LengthBudgetExceeded,
                               match=f"^band grid of {cells} cells exceeds budget {DEFAULT_LENGTH_BUDGET}$"):
                periodic_bands(spec, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak


# ----------------------------------------------------------------- stable set

def test_stable_set_free_case(free_spec):
    sweep = stable_set(free_spec, grid=1000, n_levels=15)
    bl = sweep.bands
    assert bl.band_count == 1
    lo, hi = bl.bands[0]
    width = sweep.cell_width
    assert abs(lo - (-2.0)) <= width
    assert abs(hi - 2.0) <= width
    assert np.all(np.abs(sweep.stable_centers) <= 2.0 + width)


def test_stable_set_inside_bands(fib_spec):
    # cells that stay bounded through many levels sit inside every coarse
    # band approximation (up to one cell width)
    sweep = stable_set(fib_spec, grid=4000, n_levels=30)
    bl6 = periodic_bands(fib_spec, 6)
    assert len(sweep.stable_centers) >= 1
    for E in sweep.stable_centers:
        assert bl6.covers(float(E), dilation=sweep.cell_width)


def test_stable_set_guards(fib_spec):
    with pytest.raises(ValueError):
        stable_set(fib_spec, grid=100, n_levels=5)
    with pytest.raises(ValueError):
        stable_set(fib_spec, grid=1, n_levels=15)


# Bytes per energy that stable_set holds by its contract: the sweep's grid,
# sup norm and bounded mask (8 + 8 + 1), the rest of classify_many's results
# (escaped mask, escape step and invariant: 1 + 8 + 8), and two one-byte
# masks (the overflow mask inside classify_many, the run boundaries).
_STABLE_SET_HELD = 36


@pytest.mark.parametrize("kernel", ["half_traces_many", "stable_set"])
def test_working_set_does_not_grow_with_the_grid(bench_specs, kernel):
    # Peak traced memory less the input and output arrays: only one batch of
    # per-energy temporaries is live, so the rest is the same at 10^5 and
    # 10^6 energies (it grew tenfold with the whole-grid kernels).
    spec = bench_specs["fibonacci"]
    extra = []
    for K in (10**5, 10**6):
        tracemalloc.start()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if kernel == "half_traces_many":
                    energies = np.linspace(*energy_window(spec), K)
                    held = energies.nbytes + half_traces_many(spec, energies, 10).nbytes
                else:
                    stable_set(spec, grid=K, n_levels=10)
                    held = _STABLE_SET_HELD * K
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - held)
    assert extra[1] <= extra[0] + 2**20, [f"{e / 2**20:.1f} MiB" for e in extra]


def _runs_loop(mask):
    """Reference: maximal runs of True as (first, last) index pairs."""
    runs, i = [], 0
    while i < len(mask):
        if not mask[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(mask) and mask[j + 1]:
            j += 1
        runs.append((i, j))
        i = j + 1
    return runs


def test_runs_match_loop():
    rng = np.random.default_rng(3)
    masks = [np.zeros(0, bool), np.zeros(5, bool), np.ones(5, bool)]
    masks += [rng.random(n) < p for n in (1, 2, 17, 200) for p in (0.2, 0.5, 0.9)]
    for mask in masks:
        first, last = _runs(mask)
        assert list(zip(first.tolist(), last.tolist())) == _runs_loop(mask)


def _bands_per_slot(spec, n, grid, inside, tol):
    """Oracle: the per-slot band assembly periodic_bands ran before, with
    its window-end cases (a run touching an end keeps that grid point)."""
    runs = _runs_loop(inside)
    K = len(grid)
    if not runs:
        return []
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
        refined = spectrum._bisect_edges(spec, n, np.array(e_out), np.array(e_in), tol)
        for slot, e in zip(slots, refined):
            edges[slot] = float(e)
    return [(edges[(r, 0)], edges[(r, 1)]) for r in range(len(runs))]


# The band levels of the spectral benchmark workload.
SPECTRAL_LEVELS = {"fibonacci": (12, 14), "q5": (8, 10), "digits": (5, 6), "prefixed": (10, 12)}


@pytest.mark.parametrize("model", sorted(SPECTRAL_LEVELS))
def test_band_assembly_matches_per_slot_oracle(bench_specs, model, monkeypatch):
    # Every run lies inside the window, so the oracle's end cases never fire
    # and both assemblies bisect the same brackets: equal bits, band by band.
    seen = []
    assemble = spectrum._bands_from_indicator

    def recording(*args):
        seen.append(args)
        return assemble(*args)

    monkeypatch.setattr(spectrum, "_bands_from_indicator", recording)
    for n in SPECTRAL_LEVELS[model]:
        bands = np.array(periodic_bands(bench_specs[model], n).bands)
        inside = seen[-1][3]
        assert len(bands) > 1 and not inside[0] and not inside[-1]
        assert np.array_equal(bands.view(np.uint64), np.array(_bands_per_slot(*seen[-1])).view(np.uint64))


# ---------------------------------------------------------- finite eigenvalues

def test_finite_eigenvalues_free(free_spec):
    size = 50
    lams = finite_eigenvalues(free_spec, 0, size)
    # Dirichlet Laplacian on 50 sites: 2 cos(k pi / 51), sorted ascending
    expected = np.sort(2.0 * np.cos(np.pi * np.arange(1, size + 1) / (size + 1)))
    assert lams == pytest.approx(expected, abs=1e-8)


def test_finite_eigenvalues_sorted_and_sized(fib_spec):
    lams = finite_eigenvalues(fib_spec, 0, 120)
    assert len(lams) == 120
    assert np.all(np.diff(lams) >= -1e-12)
    lo, hi = energy_window(fib_spec)
    assert np.all((lams >= lo) & (lams <= hi))


@pytest.mark.parametrize("model", ["fib_spec", "q5_spec"])
def test_finite_eigenvalues_match_dense(model, request):
    from qsturm.words import qs_prefix
    spec = request.getfixturevalue(model)
    size, shift = 300, 17
    v = spec.potential_values(qs_prefix(spec, size, shift=shift))
    H = np.diag(v) + np.diag(np.ones(size - 1), 1) + np.diag(np.ones(size - 1), -1)
    expected = np.linalg.eigvalsh(H)
    assert finite_eigenvalues(spec, shift, size) == pytest.approx(expected, abs=1e-9)


def test_finite_eigenvalues_guard(fib_spec):
    with pytest.raises(ValueError):
        finite_eigenvalues(fib_spec, 0, 1)


def _jacobi(v):
    n = len(v)
    return np.diag(v) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)


def test_finite_eigenvalues_match_dense_on_bench_models(bench_specs):
    from qsturm.words import qs_prefix
    for name, spec in bench_specs.items():
        v = spec.potential_values(qs_prefix(spec, 1000, shift=97))
        lams = finite_eigenvalues(spec, 97, 1000)
        assert np.all(np.diff(lams) >= 0), name
        assert np.max(np.abs(lams - np.linalg.eigvalsh(_jacobi(v)))) <= 1e-10, name


def test_tridiagonal_eigenvalues_two_by_two_closed_form():
    for a, b in ((0.0, 0.0), (0.5, -1.25), (3.0, 3.0 + 1e-9), (-7.0, 11.0)):
        half = math.sqrt(((a - b) / 2) ** 2 + 1.0)
        want = [(a + b) / 2 - half, (a + b) / 2 + half]
        # half of 2^-40 times the search window, of width |a - b| + 5
        tol = 2.0 ** -41 * (abs(a - b) + 5.0) + 1e-14
        assert tridiagonal_eigenvalues(np.array([a, b])) == pytest.approx(want, abs=tol)


@pytest.mark.parametrize("barrier", [4, 8, 12, 16, 30])
def test_tridiagonal_eigenvalues_double_well(barrier):
    # Two mirror-image wells: the lowest pair splits by about exp(-1.6 barrier),
    # from 1e-3 down to far below the bracket width, so the pair is found both
    # isolated and inside one shared bracket.
    v = np.array([-1.0] * 10 + [3.0] * barrier + [-1.0] * 10)
    want = np.linalg.eigvalsh(_jacobi(v))
    got = tridiagonal_eigenvalues(v)
    assert np.all(np.diff(got) >= 0)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_finite_eigenvalues_leave_scipy_unloaded():
    # Eigenvalues are computed with numpy alone.
    src = Path(__file__).resolve().parents[1] / "src"
    model = Path(__file__).resolve().parents[1] / "perfbench" / "models" / "fibonacci.json"
    code = ("import json, sys\n"
            "from qsturm import ModelSpec, finite_eigenvalues\n"
            f"spec = ModelSpec.from_json(json.load(open({str(model)!r})))\n"
            "assert len(finite_eigenvalues(spec, 0, 300)) == 300\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n")
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)), check=True)
