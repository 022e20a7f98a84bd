"""The double-double 2x2 products that multiply the Ostrowski level factors
of long windows (words._window_factors) for transfer.lyapunov_many and
transfer.growth_exponents, and the half traces that overflow double in
spectrum.periodic_bands. It imports nothing from the package and is a module
of its own because only those three run it: no other command compiles it.

A double-double matrix is (hi, lo, e): entry arrays hi and lo of shape
(2, 2) + K, K the energy axes, whose sums carry about 106 bits (Dekker 1971; Knuth, TAOCP 2,
4.2.2), scaled by 2^e, e a float64 array (K,) of whole numbers (past 2^53 it
rounds, where an int64 would wrap), so that the largest |hi| of each energy
lies in [0.5, 1). numpy has no fused multiply-add, so products are split
(Dekker); the scaling is exact.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

_SPLIT = 134217729.0  # 2^27 + 1


def _two_sum(a, b):
    """fl(a + b) and its rounding error, exactly."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _dd_scaled(hi, lo, e):
    """hi + lo renormalized and scaled by the power of two that brings the
    largest |hi| of each energy to [0.5, 1); e collects the exponents."""
    s = hi + lo
    lo = lo - (s - hi)
    _, k = np.frexp(np.abs(s).max(axis=(0, 1)))
    return np.ldexp(s, -k), np.ldexp(lo, -k), e + k


def _split(x):
    """x as two halves of 26 bits each, whose products are exact (Dekker)."""
    t = _SPLIT * x
    t = t - (t - x)
    return t, x - t


def _dd_mul(A, B):
    """The double-double product A B, rescaled by _dd_scaled. The energy axes
    of A and B broadcast."""
    (ah, al, ae), (bh, bl, be) = A, B
    # axes [i, k, j, energy]: the eight products A[i, k] B[k, j], exact in
    # p + err up to the lo * lo terms
    (a1, a2), (b1, b2) = _split(ah), _split(bh)
    a1, a2, ah, al = (x[:, :, None] for x in (a1, a2, ah, al))
    p = ah * bh
    err = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2 + (ah * bl + al * bh)
    s, e = _two_sum(p[:, 0], p[:, 1])
    return _dd_scaled(s, e + err[:, 0] + err[:, 1], ae + be)


def _dd_add(A, B):
    """The double-double sum A + B, rescaled by _dd_scaled: both are first
    brought to the larger exponent, exactly unless a term drops below the
    smallest double. Shifts stop at -1100 (any |hi| < 1 is 0 there), which int64 holds."""
    (ah, al, ae), (bh, bl, be) = A, B
    e = np.maximum(ae, be)
    da, db = (np.maximum(x - e, -1100).astype(np.int64) for x in (ae, be))
    s, err = _two_sum(np.ldexp(ah, da), np.ldexp(bh, db))
    return _dd_scaled(s, err + np.ldexp(al, da) + np.ldexp(bl, db), e)


def _dd_t(M):
    """The transpose of a double-double matrix."""
    hi, lo, e = M
    return hi.swapaxes(0, 1), lo.swapaxes(0, 1), e


def _dd_site(energies: np.ndarray, x: float):
    """The double-double matrix [[E - x, -1], [1, 0]] of one site."""
    one, zero = np.ones_like(energies), np.zeros_like(energies)
    d, dl = _two_sum(energies, -x)
    return _dd_scaled(np.array([[d, -one], [one, zero]]), np.array([[dl, zero], [zero, zero]]),
                      np.zeros(energies.shape))


def _fold(mul, factors):
    """The product of factors in word order by mul(A, B) = A B, the first
    factor rightmost."""
    return reduce(lambda P, F: mul(F, P), factors)


def _dd_sites(energies: np.ndarray, v: np.ndarray):
    """Double-double product of the site matrices over potential values v,
    the first site rightmost."""
    return _fold(_dd_mul, (_dd_site(energies, x) for x in v))


def _pair_mul(A, B):
    """The pair (M, G) of a word uv from A of v and B of u, M the matrix and
    G(w) = sum_{k < |w|} M(w[:k])^T e1 e1^T M(w[:k]) the Gram sum of w:
    (M(v) M(u), G(u) + M(u)^T G(v) M(u)), both in double-double."""
    (MA, GA), (MB, GB) = A, B
    return _dd_mul(MA, MB), _dd_add(GB, _dd_mul(_dd_t(MB), _dd_mul(GA, MB)))


def _pair_sites(energies: np.ndarray, v: np.ndarray):
    """The pair (M, G) of the sites with potential values v, folded one site
    at a time as _dd_sites folds M; one site has G = e1 e1^T."""
    one, zero = np.ones_like(energies), np.zeros_like(energies)
    e11 = _dd_scaled(np.array([[one, zero], [zero, zero]]), np.zeros((2, 2) + energies.shape),
                     np.zeros(energies.shape))
    return _fold(_pair_mul, ((_dd_site(energies, x), e11) for x in v))


def _dd_log_norm(M) -> np.ndarray:
    """ln of the spectral norm of a double-double matrix: half the log of the
    largest eigenvalue of G = M^T M, (g11 + g22 + hypot(g11 - g22, 2 g12)) / 2,
    a sum of nonnegative terms once G is accurate."""
    g, gl, ge = _dd_mul(_dd_t(M), M)
    g = g + gl
    lam = 0.5 * (g[0, 0] + g[1, 1] + np.hypot(g[0, 0] - g[1, 1], 2.0 * g[0, 1]))
    return 0.5 * (np.log(lam) + ge * np.log(2.0))


def _dd_log(M) -> np.ndarray:
    """ln |m11| of a double-double matrix (-inf where m11 = 0)."""
    hi, lo, e = M
    with np.errstate(divide="ignore"):
        return np.log(np.abs(hi[0, 0] + lo[0, 0])) + e * np.log(2.0)

