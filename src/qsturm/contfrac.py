"""Continued fractions: coefficients, convergents, expansion, density diagnostics.

Coefficient indices are 1-based (a_1, a_2, ...) throughout, matching the
convergent recursion p_n = a_n p_{n-1} + p_{n-2}.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

from .errors import IndexBeyondCoefficients, IntegerOverflow

# Convergent denominators grow at least like Fibonacci numbers, so anything
# past 2^63 would corrupt word lengths downstream; refuse instead.
_OVERFLOW_LIMIT = 2**63


class _ContinuedFractionFields(NamedTuple):
    coeffs: Tuple[int, ...]
    periodic: Optional[Tuple[int, ...]]


class ContinuedFraction(_ContinuedFractionFields):
    """Coefficients a_1..a_N, optionally extended indefinitely by a periodic block.

    Immutable; safe to share between threads.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Tuple[int, ...], periodic: Optional[Tuple[int, ...]] = None):
        coeffs = tuple(int(a) for a in coeffs)
        if periodic is not None:
            periodic = tuple(int(a) for a in periodic)
        for a in coeffs:
            if a < 1:
                raise ValueError(f"continued fraction coefficients must be >= 1, got {a}")
        if periodic is not None:
            if not periodic:
                raise ValueError("periodic block must be nonempty")
            for a in periodic:
                if a < 1:
                    raise ValueError(f"periodic coefficients must be >= 1, got {a}")
        return super().__new__(cls, coeffs, periodic)

    def coefficient(self, i: int) -> int:
        """a_i for 1-based index i, drawing from the periodic extension if present."""
        if i < 1:
            raise IndexBeyondCoefficients(f"coefficient index must be >= 1, got {i}")
        if i <= len(self.coeffs):
            return self.coeffs[i - 1]
        if self.periodic is None:
            raise IndexBeyondCoefficients(
                f"coefficient a_{i} requested but only {len(self.coeffs)} available"
            )
        return self.periodic[(i - 1 - len(self.coeffs)) % len(self.periodic)]

    def coefficients(self, n: int) -> Tuple[int, ...]:
        """a_1..a_n as a tuple."""
        return tuple(self.coefficient(i) for i in range(1, n + 1))

    def to_json(self) -> dict:
        d = {"coeffs": list(self.coeffs)}
        if self.periodic is not None:
            d["periodic"] = list(self.periodic)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "ContinuedFraction":
        periodic = d.get("periodic")
        return cls(tuple(d["coeffs"]), tuple(periodic) if periodic else None)


def approximants(cf: ContinuedFraction, n: int) -> Tuple[int, int]:
    """Convergent (p_n, q_n) via p_n = a_n p_{n-1} + p_{n-2}, exactly in integers."""
    if n < 0:
        raise IndexBeyondCoefficients(f"approximant index must be >= 0, got {n}")
    p_prev, p = 1, 0  # p_{-1}, p_0
    q_prev, q = 0, 1  # q_{-1}, q_0
    for i in range(1, n + 1):
        a = cf.coefficient(i)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        if q >= _OVERFLOW_LIMIT or p >= _OVERFLOW_LIMIT:
            raise IntegerOverflow(f"convergent q_{i} exceeds 64-bit range")
    return p, q


def value(cf: ContinuedFraction, n: int) -> float:
    """p_n / q_n as a float; n >= 1."""
    if n < 1:
        raise IndexBeyondCoefficients(f"value requires n >= 1, got {n}")
    p, q = approximants(cf, n)
    return p / q


# Remainders below this are treated as an exactly terminating (rational) expansion.
_RATIONAL_EPS = 1e-12


def expand(theta: float, n: int) -> Tuple[ContinuedFraction, bool]:
    """First n coefficients of the continued fraction of theta in (0,1).

    Returns (cf, terminated). terminated=True flags a rational theta whose
    expansion ended before n coefficients; the finite expansion is returned.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    coeffs = []
    x = theta
    for _ in range(n):
        r = 1.0 / x
        a = math.floor(r)
        frac = r - a
        # Guard against floor(1/x) landing just below an integer.
        if frac > 1.0 - _RATIONAL_EPS:
            a += 1
            frac = 0.0
        coeffs.append(int(a))
        if frac < _RATIONAL_EPS:
            return ContinuedFraction(tuple(coeffs)), True
        x = frac
    return ContinuedFraction(tuple(coeffs)), False


def density_score(cf: ContinuedFraction, n: int) -> float:
    """Cesaro mean (1/n) * sum(a_1..a_n); bounded density shows as a bounded plot."""
    if n < 1:
        raise IndexBeyondCoefficients(f"density_score requires n >= 1, got {n}")
    return sum(cf.coefficients(n)) / n
