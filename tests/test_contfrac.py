"""Continued fractions: convergents, expansion round-trips, guards."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsturm.contfrac import (
    ContinuedFraction,
    approximants,
    density_score,
    expand,
    value,
)
from qsturm.errors import IndexBeyondCoefficients, IntegerOverflow


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_fibonacci_convergents(fib_cf):
    # q_n are Fibonacci numbers; p_n the shifted sequence.
    qs = [approximants(fib_cf, n)[1] for n in range(8)]
    ps = [approximants(fib_cf, n)[0] for n in range(8)]
    assert qs == [1, 1, 2, 3, 5, 8, 13, 21]
    assert ps == [0, 1, 1, 2, 3, 5, 8, 13]


def test_value_converges_to_golden_mean(fib_cf):
    assert value(fib_cf, 30) == pytest.approx(GOLDEN, abs=1e-12)


def test_coefficient_periodic_extension():
    cf = ContinuedFraction((3, 1), (2, 5))
    assert cf.coefficients(7) == (3, 1, 2, 5, 2, 5, 2)


def test_coefficient_finite_exhaustion():
    cf = ContinuedFraction((1, 2, 3))
    assert cf.coefficient(3) == 3
    with pytest.raises(IndexBeyondCoefficients):
        cf.coefficient(4)
    with pytest.raises(IndexBeyondCoefficients):
        cf.coefficient(0)


def test_invalid_coefficients_rejected():
    with pytest.raises(ValueError, match=r"^continued fraction coefficients must be >= 1, got 0$"):
        ContinuedFraction((0,))
    with pytest.raises(ValueError, match=r"^periodic block must be nonempty$"):
        ContinuedFraction((), ())
    with pytest.raises(ValueError, match=r"^periodic coefficients must be >= 1, got -2$"):
        ContinuedFraction((1,), (1, -2))


def test_overflow_guard():
    cf = ContinuedFraction((), (10,))
    with pytest.raises(IntegerOverflow):
        approximants(cf, 100)
    # q_1 = a_1 is refused like every later denominator
    with pytest.raises(IntegerOverflow, match=r"^convergent q_1 exceeds 64-bit range$"):
        approximants(ContinuedFraction((2**64,)), 1)


def test_expand_golden_mean():
    cf, terminated = expand(GOLDEN, 25)
    assert not terminated
    assert cf.coeffs == (1,) * 25


def test_expand_rational_terminates():
    cf, terminated = expand(3.0 / 7.0, 25)
    assert terminated
    p, q = approximants(cf, len(cf.coeffs))
    assert (p, q) == (3, 7)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=18))
@settings(max_examples=60, deadline=None)
def test_determinant_identity_property(coeffs):
    cf = ContinuedFraction(tuple(coeffs))
    for n in range(1, len(coeffs) + 1):
        p, q = approximants(cf, n)
        p1, q1 = approximants(cf, n - 1)
        assert q * p1 - p * q1 == (-1) ** n


@given(st.floats(min_value=0.05, max_value=0.95).filter(lambda x: abs(x - round(x * 20) / 20) > 1e-3))
@settings(max_examples=40, deadline=None)
def test_expand_value_roundtrip(theta):
    cf, terminated = expand(theta, 20)
    n = len(cf.coeffs)
    assert value(cf, n) == pytest.approx(theta, abs=1e-9)


def test_density_score_bounded(fib_cf):
    assert density_score(fib_cf, 100) == 1.0
    cf = ContinuedFraction((), (1, 3))
    assert density_score(cf, 100) == 2.0


def test_json_roundtrip():
    cf = ContinuedFraction((2, 1), (3,))
    assert ContinuedFraction.from_json(cf.to_json()) == cf
    cf2 = ContinuedFraction((5, 5))
    assert ContinuedFraction.from_json(cf2.to_json()) == cf2
