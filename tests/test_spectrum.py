"""Band spectra, stable-set sweeps, finite eigenvalues, measure reports."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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


def _assert_floquet_bands(spec, n, tol=1e-10, bound=1e-10):
    """periodic_bands at level n has exactly p = |s'_n| bands, and each edge
    lies within bound of its dense Floquet edge: sorted, the 2p periodic and
    antiperiodic eigenvalues pair up into the p bands."""
    from qsturm.words import level_words_prime
    oracle = _floquet_edges(spec.potential_values(level_words_prime(spec, n)[n + 1]))
    bl = periodic_bands(spec, n, tol=tol)
    assert bl.band_count == len(oracle) // 2, (n, bl.band_count)
    err = np.abs(np.array(bl.bands).ravel() - oracle).max()
    assert err <= bound, (n, err)
    return bl


@pytest.mark.parametrize("model,n_max", [("fib_spec", 12), ("q5_spec", 8),
                                         ("cf2_spec", 8), ("prefix_spec", 10)])
def test_band_edges_are_floquet_eigenvalues(model, n_max, request):
    spec = request.getfixturevalue(model)
    for n in range(1, n_max + 1):
        _assert_floquet_bands(spec, n)


# The band levels of the spectral benchmark workload, and the largest level
# of each model that the tests and the README run.
SPECTRAL_LEVELS = {"fibonacci": (12, 14, 16), "q5": (8, 10, 12), "digits": (5, 6, 7),
                   "prefixed": (10, 12)}


@pytest.mark.parametrize("model,n", [(m, n) for m in sorted(SPECTRAL_LEVELS) for n in SPECTRAL_LEVELS[m]])
def test_bench_model_bands_match_floquet(bench_specs, model, n):
    _assert_floquet_bands(bench_specs[model], n)


def test_strong_coupling_bands_need_the_double_double_fallback():
    # Fibonacci at lambda = 16: from level 15 on, the double trace map
    # overflows to nan at energies the search visits, and without the
    # double-double fallback edges at levels 15 and 16 were 13 and 15 off.
    spec = ModelSpec(ContinuedFraction((), (1,)), Substitution.identity(),
                     Word.from_str("", ("a", "b")), {"a": 16.0, "b": 0.0})
    for n in (15, 16):
        assert _assert_floquet_bands(spec, n).dd_energies > 0


@pytest.mark.parametrize("model", ["free", "period2"])
def test_closed_gaps_stop(free_spec, model):
    # Every gap of the free model, and of the period-2 word of a -> ab, b -> ab,
    # is closed: y touches +-1 there, |y| - 1 is rounding noise and the edge
    # count is not monotone, so the search must stop on brackets that a round
    # does not move. The edges miss tol there (README: worst 7.5e-9 and 2.3e-9).
    # Level 1 has p = 1 band.
    spec = free_spec if model == "free" else ModelSpec(
        ContinuedFraction((), (1,)), Substitution.from_strings({"a": "ab", "b": "ab"}),
        Word.from_str("", ("a", "b")), {"a": 2.0, "b": 0.0})
    for n in (1, 4, 5, 6, 7, 8):
        _assert_floquet_bands(spec, n, bound=1e-8)


def test_band_edge_on_a_dirichlet_eigenvalue():
    # At level 7 of this model a Dirichlet eigenvalue of v[1:] sits on the band
    # edge E = 2, which a first-round trial hits exactly: there |y| = 1 and the
    # Sturm count leaves the eigenvalue out. Read as a band point, E = 2 lost
    # the gap (1.9897, 2) below it (an edge 0.01 off).
    spec = ModelSpec(ContinuedFraction((1, 4), (1,)), Substitution.from_strings({"a": "ba", "b": "a"}),
                     Word.from_str("", ("a", "b")), {"a": 0.0, "b": 1.0})
    for n in range(1, 9):
        _assert_floquet_bands(spec, n)


def test_bands_narrower_than_a_fine_tol(bench_specs):
    # q5 at level 12 has bands narrower than 1e-13; at tol = 1e-13 each of its
    # 1,398 bands still has lo <= hi (BandList checks it) and every edge lies
    # within 1e-12 of Floquet.
    assert _assert_floquet_bands(bench_specs["q5"], 12, tol=1e-13, bound=1e-12).band_count == 1398


def test_bad_arguments(fib_spec):
    with pytest.raises(ValueError):
        periodic_bands(fib_spec, 0)
    for tol in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match=r"^tol must be > 0$"):
            periodic_bands(fib_spec, 3, tol=tol)
    # an infinite tol would end every bracket at once, as p touching intervals
    with pytest.raises(ValueError, match=r"^tol must be finite$"):
        periodic_bands(fib_spec, 3, tol=math.inf)
    with pytest.raises(ValueError):
        measure_report(fib_spec, [])


def test_band_grid_over_budget_refused_before_allocating():
    # a_2 = 10^7: |s'_2| = 10^7 + 1 bands ask for an O(p^2) solve with
    # p^2 = 1e14, past DEFAULT_LENGTH_BUDGET. The level word is not built.
    spec = ModelSpec(ContinuedFraction((1, 10**7), (1,)), Substitution.identity(),
                     Word.from_str("", ("a", "b")), {"a": 1.0, "b": 0.0})
    assert periodic_bands(spec, 1).band_count == 1
    for n, p in ((2, 10_000_001), (3, 10_000_002)):
        tracemalloc.start()
        try:
            with pytest.raises(LengthBudgetExceeded,
                               match=rf"^{p} bands: p\^2 = {p * p} exceeds budget {DEFAULT_LENGTH_BUDGET}$"):
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
# sup norm and bounded mask (8 + 8 + 1) and the two one-byte masks of _runs.
# The rest of classify_many's results (escaped mask, escape step, invariant
# and the overflow mask inside it, 18 bytes more) is held one batch at a time.
_STABLE_SET_HELD = 19


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


def test_tridiagonal_eigenvalues_empty_and_non_finite():
    # A 0 x 0 matrix has no eigenvalues; a NaN or infinite entry is refused
    # by name, not by a numpy reduction or NaN-to-int error further in.
    assert tridiagonal_eigenvalues(np.array([])).shape == (0,)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^diag must be finite$"):
            tridiagonal_eigenvalues(np.array([0.5, bad]))


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
