"""Rauzy graphs, classification, and the Cassaigne decomposition."""

import math

import pytest

from qsturm.decompose import (
    cassaigne_decompose,
    detect_qs,
    rauzy_graph,
    rotation_number,
    special_factors,
)
from qsturm.errors import InconclusiveWindow, NoBispecialFound, WindowTooLarge
from qsturm.words import Word, complexity, qs_prefix, substitute

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# --------------------------------------------------------------- Rauzy graphs

def test_rauzy_graph_counts_match_complexity(q5_spec):
    w = qs_prefix(q5_spec, 4000)
    p = complexity(w, 12)
    for n in (4, 8, 11):
        g = rauzy_graph(w, n)
        assert len(g.vertices) == p[n - 1]
        assert len(g.edges) == p[n]


def test_rauzy_edge_endpoints(fib_spec):
    w = qs_prefix(fib_spec, 500)
    g = rauzy_graph(w, 3)
    vset = set(g.vertices)
    for e in g.edges:
        head, tail = g.edge_endpoints(e)
        assert head in vset and tail in vset
        assert len(head) == 3 and len(tail) == 3


def test_rauzy_degree_sums(fib_spec):
    w = qs_prefix(fib_spec, 500)
    g = rauzy_graph(w, 4)
    assert sum(g.out_degrees().values()) == len(g.edges)
    assert sum(g.in_degrees().values()) == len(g.edges)


def test_rauzy_window_guard(fib_spec):
    w = qs_prefix(fib_spec, 100)
    with pytest.raises(WindowTooLarge):
        rauzy_graph(w, 60)


def test_special_factors_sturmian(fib_spec):
    # a Sturmian word has exactly one right-special and one left-special
    # factor at each length
    w = qs_prefix(fib_spec, 2000)
    for n in (2, 5, 9):
        sp = special_factors(rauzy_graph(w, n))
        assert len(sp["right_special"]) == 1
        assert len(sp["left_special"]) == 1


# ------------------------------------------------------------- classification

def test_detect_sturmian(fib_spec):
    cls = detect_qs(qs_prefix(fib_spec, 20_000))
    assert cls.kind == "sturmian" and cls.k == 1


def test_detect_quasi_sturmian(q5_spec):
    cls = detect_qs(qs_prefix(q5_spec, 20_000))
    assert cls.kind == "quasi_sturmian"
    assert cls.k == 9


def test_detect_periodic():
    cls = detect_qs(Word.from_str("ab" * 200))
    assert cls.kind == "periodic"


def test_detect_too_short():
    with pytest.raises(InconclusiveWindow):
        detect_qs(Word.from_str("ab" * 10))


# -------------------------------------------------------------- decomposition

def _check_roundtrip(spec, length=100_000, theta=GOLDEN, tol=1e-3):
    w = qs_prefix(spec, length)
    d = cassaigne_decompose(w)
    regenerated = d.prefix_w + substitute(d.subst, d.base_prefix)
    assert regenerated == w[:d.window_length]
    theta_hat = rotation_number(d)
    assert min(abs(theta_hat - theta), abs((1.0 - theta_hat) - theta)) < tol
    return d


def test_decompose_identity_fibonacci(fib_spec):
    d = _check_roundtrip(fib_spec)
    assert d.prefix_w.to_str() == ""


def test_decompose_q5(q5_spec):
    _check_roundtrip(q5_spec)


def test_decompose_with_transient_head(prefix_spec):
    d = _check_roundtrip(prefix_spec)
    assert len(d.prefix_w) >= 1  # the head cannot be absorbed into the tiling


def test_decompose_cf2(cf2_spec):
    _check_roundtrip(cf2_spec, theta=math.sqrt(2.0) - 1.0)


def test_rotation_number_ignores_noisy_tail(q5_spec):
    # The frequency's expansion ends in a huge coefficient (float noise);
    # truncation must stop before forming that convergent.
    d = cassaigne_decompose(qs_prefix(q5_spec, 10_000, shift=9))
    theta_hat = rotation_number(d)
    assert min(abs(theta_hat - GOLDEN), abs((1.0 - theta_hat) - GOLDEN)) < 1e-3


def test_decompose_rejects_periodic():
    with pytest.raises(NoBispecialFound):
        cassaigne_decompose(Word.from_str("ab" * 200))
