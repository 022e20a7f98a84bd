"""Trace-map step, generators, invariant conservation, escape classification."""

import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsturm
import qsturm.transfer
from qsturm.tracemap import (
    OVERFLOW_THRESHOLD,
    TraceTriple,
    chebyshev,
    classify_many,
    classify_orbit,
    generators,
    in_escape,
    invariant,
    orbit_trace,
    step,
)
from qsturm.contfrac import ContinuedFraction
from qsturm.spectrum import energy_window
from qsturm.transfer import _BATCH, initial_triple, level_matrices, level_matrices_many
from qsturm.words import ModelSpec, Substitution, Word


# ------------------------------------------------------------------ Chebyshev

def test_chebyshev_base_cases():
    assert chebyshev(-1, 0.7) == 0.0
    assert chebyshev(0, 0.7) == 1.0
    assert chebyshev(1, 0.7) == pytest.approx(1.4)


@given(st.integers(min_value=0, max_value=12),
       st.floats(min_value=-0.999, max_value=0.999))
@settings(max_examples=80, deadline=None)
def test_chebyshev_trigonometric_form(m, x):
    phi = math.acos(x)
    expected = math.sin((m + 1) * phi) / math.sin(phi)
    assert chebyshev(m, x) == pytest.approx(expected, abs=1e-8)


# ----------------------------------------------------------- step & invariant

triples = st.tuples(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
)


@given(triples, st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_step_conserves_invariant(t, a):
    t0 = TraceTriple(*t)
    t1 = step(a, t0)
    i0, i1 = invariant(t0), invariant(t1)
    # rounding in the mapped components perturbs the invariant by up to
    # ~eps * m^3 where m bounds the component magnitudes
    m = max(1.0, abs(t1.x), abs(t1.y), abs(t1.z))
    assert abs(i1 - i0) <= 1e-12 + 1e-13 * m ** 3


def test_step_a1_is_basic_map():
    # a=1: (x,y,z) -> (y, z, 2yz - x)
    t = step(1, TraceTriple(0.3, -0.4, 0.9))
    assert t == pytest.approx((-0.4, 0.9, 2 * (-0.4) * 0.9 - 0.3))


def test_step_rejects_bad_coefficient():
    with pytest.raises(ValueError):
        step(0, TraceTriple(0, 0, 0))


def test_step_costs_log_a_products(monkeypatch):
    # U_{a-1} and U_{a-2} come from one square-and-multiply power, as
    # M(n-1)^{a_n} does: 23 squarings and 13 multiplications for a = 10^7.
    products = []
    mul = qsturm.transfer._mul
    monkeypatch.setattr(qsturm.transfer, "_mul", lambda A, B: products.append(1) or mul(A, B))
    a = 10**7
    step(a, TraceTriple(0.3, -0.4, 0.9))
    assert 0 < len(products) <= 2 * math.ceil(math.log2(a))


@pytest.mark.parametrize("y", [-0.93, -0.31, 0.123, 0.5, 0.999])
def test_chebyshev_high_degree_trigonometric_form(y):
    # Oracle: U_{a-1}(cos phi) = sin(a phi) / sin(phi) in 40 digits. The
    # rounding of a 10^7-th power grows like a eps; the worst seen is 2.8e-7,
    # at y = 0.999 and a = 10^7.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        phi = mpmath.acos(mpmath.mpf(y))
        for a in (1, 2, 3, 17, 1000, 123_457, 10**6, 10**7):
            want = mpmath.sin(a * phi) / mpmath.sin(phi)
            err = abs(mpmath.mpf(chebyshev(a - 1, y)) - want)
            assert err <= 1e-6 * max(1.0, abs(want)), (a, float(err))


@given(triples)
@settings(max_examples=100, deadline=None)
def test_generators_conserve_invariant(t):
    t0 = TraceTriple(*t)
    for name in ("p", "u", "v", "q", "q_inv"):
        t1 = generators(name, t0)
        assert invariant(t1) == pytest.approx(invariant(t0), abs=1e-10, rel=1e-10)


def test_generator_inverses():
    t = TraceTriple(0.2, -1.3, 0.7)
    assert generators("q", generators("q_inv", t)) == pytest.approx(t)
    assert generators("p", generators("p", t)) == pytest.approx(t)
    # u = v . q (apply q first)
    assert generators("v", generators("q", t)) == pytest.approx(generators("u", t))


def test_unknown_generator():
    with pytest.raises(ValueError):
        generators("w", TraceTriple(0, 0, 0))


# ------------------------------------------------- agreement with matrix traces

def test_orbit_matches_level_matrices(fib_spec):
    for E in (-1.0, 0.1, 2.5):
        orbit = orbit_trace(fib_spec, E, 10)
        mats = level_matrices(fib_spec, E, 10)
        for n in range(1, 11):
            assert orbit[n - 1].y == pytest.approx(0.5 * np.trace(mats[n + 1]),
                                                   rel=1e-9, abs=1e-9)


def test_initial_triple_free_case(free_spec):
    # V = 0: half traces are cos of multiples of the quasimomentum
    t = initial_triple(free_spec, 1.0)
    assert t.x == pytest.approx(0.5)   # cos(pi/3)
    assert t.y == pytest.approx(0.5)
    assert t.z == pytest.approx(-0.5)  # cos(2*pi/3)
    assert invariant(t) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------- classification

def test_classify_free_case_inside_band(free_spec):
    v = classify_orbit(free_spec, 0.5, 30)
    assert v.kind == "bounded"
    assert v.sup_norm <= 2.0


def test_classify_free_case_outside_band(free_spec):
    v = classify_orbit(free_spec, 2.5, 30)
    assert v.kind == "escaped"
    assert v.escape_step is not None


def test_classify_fibonacci_far_energy(fib_spec):
    v = classify_orbit(fib_spec, 10.0, 30)
    assert v.kind == "escaped"
    assert v.escape_step <= 5


def test_classify_many_agrees_with_scalar(fib_spec):
    energies = np.linspace(-2.5, 4.5, 60)
    escaped, steps, sup, inv = classify_many(fib_spec, energies, 20)
    for i, E in enumerate(energies):
        v = classify_orbit(fib_spec, float(E), 20)
        assert escaped[i] == (v.kind == "escaped")
        if v.kind == "escaped":
            assert steps[i] == v.escape_step
        assert inv[i] == pytest.approx(v.invariant, rel=1e-12, abs=1e-12)


def _reference_classify(spec, E, n_levels):
    """Plain-Python orbit loop: (escape step or None, sup norm, invariant,
    stopped by overflow)."""
    x, y, z = initial_triple(spec, E)
    inv = x * x + y * y + z * z - 2.0 * x * y * z - 1.0
    sup = math.sqrt(x * x + y * y + z * z)
    for n in range(2, n_levels + 1):
        x, y, z = step(spec.cf.coefficient(n), TraceTriple(x, y, z))
        # Test each component: max() would skip a NaN that is not first.
        if not all(math.isfinite(c) and abs(c) <= OVERFLOW_THRESHOLD for c in (x, y, z)):
            return n, sup, inv, True
        if abs(y) > 1.0 and abs(z) > 1.0 and abs(y * z) > abs(x):
            return n, sup, inv, False
        sup = max(sup, math.sqrt(x * x + y * y + z * z))
    return None, sup, inv, False


@pytest.mark.parametrize("model", ["fib_spec", "q5_spec", "big_a2"])
def test_classify_many_matches_reference_loop(model, request):
    if model == "big_a2":
        # a_2 = 600: U_599(y) leaves float range in one step, so orbits stop
        # by overflow before the escape predicate can fire.
        spec = ModelSpec(ContinuedFraction((1, 600), (1,)), Substitution.identity(),
                         Word.from_str("", ("a", "b")), {"a": 2.0, "b": 0.0})
    else:
        spec = request.getfixturevalue(model)
    energies = np.concatenate([np.linspace(-2.5, 4.5, 57), [30.0, 100.0]])
    escaped, steps, sup, inv = classify_many(spec, energies, 25)
    for i, E in enumerate(energies):
        ref_step, ref_sup, ref_inv, ref_overflow = _reference_classify(spec, float(E), 25)
        assert escaped[i] == (ref_step is not None)
        assert steps[i] == (-1 if ref_step is None else ref_step)
        assert sup[i] == pytest.approx(ref_sup, rel=1e-12)
        assert inv[i] == pytest.approx(ref_inv, rel=1e-12, abs=1e-12)
        v = classify_orbit(spec, float(E), 25)
        assert (v.escape_step, v.overflow) == (ref_step, ref_overflow)


def _classify_where(spec, energies, n_levels):
    """Oracle: the loop classify_many ran before batches and live-orbit
    compaction. It steps every orbit over the whole grid at every level and
    freezes the escaped ones with np.where."""
    M0, M1 = level_matrices_many(spec, energies, 1)[1:]
    # (tr M(0), tr M(1), tr(M(1) M(0))) / 2, entrywise as the kernel multiplies
    tr = (M1[:, 0, 0] * M0[:, 0, 0] + M1[:, 0, 1] * M0[:, 1, 0]) + (M1[:, 1, 0] * M0[:, 0, 1] + M1[:, 1, 1] * M0[:, 1, 1])
    x, y, z = 0.5 * (M0[:, 0, 0] + M0[:, 1, 1]), 0.5 * (M1[:, 0, 0] + M1[:, 1, 1]), 0.5 * tr
    inv = x * x + y * y + z * z - 2.0 * x * y * z - 1.0
    sup = np.sqrt(x * x + y * y + z * z)
    escaped = np.zeros(x.shape, dtype=bool)
    escape_step = np.full(x.shape, -1, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(2, n_levels + 1):
            if escaped.all():
                break
            nx, ny, nz = step(spec.cf.coefficient(n), TraceTriple(x, y, z))
            live = ~escaped
            x = np.where(live, nx, x)
            y = np.where(live, ny, y)
            z = np.where(live, nz, z)
            biggest = np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z)))
            blown = live & (~np.isfinite(biggest) | (biggest > OVERFLOW_THRESHOLD))
            hit = live & (np.abs(y) > 1.0) & (np.abs(z) > 1.0) & (np.abs(y * z) > np.abs(x))
            new = blown | hit
            escape_step[new] = n
            escaped |= new
            live = ~escaped
            norm = np.sqrt(x * x + y * y + z * z)
            sup = np.where(live & (norm > sup), norm, sup)
    return escaped, escape_step, sup, inv


@pytest.mark.parametrize("K", [_BATCH - 1, _BATCH, _BATCH + 1, 3 * _BATCH + 17])
def test_classify_many_matches_where_loop(bench_specs, K):
    # Bit for bit, on the grid of the stable-set sweep at its default depth.
    for spec in bench_specs.values():
        energies = np.linspace(*energy_window(spec), K)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _classify_where(spec, energies, 30)
        got = classify_many(spec, energies, 30)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_escape_set_membership_predicate():
    assert in_escape(TraceTriple(0.5, 1.2, -1.3))
    assert not in_escape(TraceTriple(0.5, 0.9, -1.3))   # |y| <= 1
    assert not in_escape(TraceTriple(2.0, 1.2, -1.3))   # |yz| <= |x|


def test_overflow_counts_as_escape(fib_spec):
    v = classify_orbit(fib_spec, 100.0, 40)
    assert v.kind == "escaped"
    assert math.isfinite(v.sup_norm)


# ------------------------------------------------------------------- layering

SRC = Path(qsturm.__file__).resolve().parent


def test_no_module_imports_inside_a_function():
    nested = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_tracemap_loads_without_spectrum_or_cli():
    # The package __init__ registers every module in sys.modules (running
    # each on first use), so a bare package stands in for it: what is loaded
    # is then what tracemap itself imports.
    code = ("import json, sys, types\n"
            "pkg = types.ModuleType('qsturm')\n"
            "pkg.__path__ = [sys.argv[1]]\n"
            "sys.modules['qsturm'] = pkg\n"
            "import qsturm.tracemap\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qsturm.'))))\n")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    assert {"qsturm.tracemap", "qsturm.transfer"} <= loaded
    assert not {"qsturm.spectrum", "qsturm.cli"} & loaded
