"""Long windows of u = prefix . S(c_theta) as Ostrowski level factors, and
the double-double 2x2 products that multiply them, for
transfer.lyapunov_many.

A double-double matrix is (hi, lo, e): entry arrays hi and lo of shape
(2, 2, K) whose sums carry about 106 bits (Dekker 1971; Knuth, TAOCP 2,
4.2.2), scaled by 2^e, e an int64 array (K,), so that the largest |hi| of
each energy lies in [0.5, 1). numpy has no fused multiply-add, so products
are split (Dekker); the scaling is exact.

This is a module of its own so that no module is long: every CLI call
compiles the package, and the longest module's compile sets a floor under
every call's peak memory.
"""

from __future__ import annotations

import numpy as np

from .words import ModelSpec, _images, _ostrowski_digits, _window_end

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
    """The double-double product A B, rescaled by _dd_scaled."""
    (ah, al, ae), (bh, bl, be) = A, B
    # axes [i, k, j, energy]: the eight products A[i, k] B[k, j], exact in
    # p + err up to the lo * lo terms
    (a1, a2), (b1, b2) = _split(ah), _split(bh)
    a1, a2, ah, al = (x[:, :, None] for x in (a1, a2, ah, al))
    p = ah * bh
    err = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2 + (ah * bl + al * bh)
    s, e = _two_sum(p[:, 0], p[:, 1])
    return _dd_scaled(s, e + err[:, 0] + err[:, 1], ae + be)


def _dd_sites(energies: np.ndarray, v: np.ndarray):
    """Double-double product of the site matrices over potential values v,
    the first site rightmost."""
    K = len(energies)
    one, zero, e = np.ones(K), np.zeros(K), np.zeros(K, dtype=np.int64)
    P = None
    for x in v:
        d, dl = _two_sum(energies, -x)
        T = _dd_scaled(np.array([[d, -one], [one, zero]]), np.array([[dl, zero], [zero, zero]]), e)
        P = T if P is None else _dd_mul(T, P)
    return P


def _dd_log_norm(M) -> np.ndarray:
    """ln of the spectral norm of a double-double matrix: half the log of the
    largest eigenvalue of G = M^T M, (g11 + g22 + hypot(g11 - g22, 2 g12)) / 2,
    a sum of nonnegative terms once G is accurate."""
    hi, lo, e = M
    g, gl, ge = _dd_mul((hi.transpose(1, 0, 2), lo.transpose(1, 0, 2), e), M)
    g = g + gl
    lam = 0.5 * (g[0, 0] + g[1, 1] + np.hypot(g[0, 0] - g[1, 1], 2.0 * g[0, 1]))
    return 0.5 * (np.log(lam) + ge * np.log(2.0))


def _window_factors(spec: ModelSpec, L: int, shift: int):
    """The window u[shift:shift+L] of u = prefix . S(c_theta) as factors in
    word order, each an array of potential values or a pair (j, m) for s'_j^m.

    Its part in S(c_theta) ends in the image of c_theta[N], for the largest N
    with |S(c_theta[:N])| at most that end, and S(c_theta[:N]) =
    s'_k^{b_k} ... s'_0^{b_0} over N's Ostrowski digits. The copies of s'_j
    before the window start are dropped, and the one it falls in gives a
    suffix, which s'_j = s'_{j-1}^{a_j} s'_{j-2} splits into level factors
    (Damanik, Killip and Lenz, CMP 212 (2000), tile Sturmian windows so).
    Only the prefix and two partial images are left site by site.
    """
    end = _window_end(L, shift)
    prefix = spec.potential_values(spec.prefix.recode(spec.subst.target_alphabet))
    images = [spec.potential_values(w) for w in _images(spec)]
    factors = [prefix[shift:end]] if shift < len(prefix) else []
    lo, hi = max(shift - len(prefix), 0), end - len(prefix)
    if hi <= 0:
        return factors
    digits, q = _ostrowski_digits(spec.cf, hi, [len(v) for v in images])  # q[j + 1] = |s'_j|

    def suffix(j, r):
        """Factors of the last r symbols of s'_j, 0 < r <= |s'_j|."""
        if r == q[j + 1]:
            return [(j, 1)]
        if j < 1:
            return [images[j + 1][-r:]]
        if r <= q[j - 1]:
            return suffix(j - 2, r)
        m, t = divmod(r - q[j - 1], q[j])
        return (suffix(j - 1, t) if t else []) + ([(j - 1, m)] if m else []) + [(j - 2, 1)]

    pos = 0
    for j in range(len(digits) - 1, -1, -1):
        start, pos = pos, pos + digits[j] * q[j + 1]
        if pos > lo:
            m, r = divmod(pos - max(start, lo), q[j + 1])
            factors += (suffix(j, r) if r else []) + ([(j, m)] if m else [])
    if pos < hi:
        # c_theta[N] ends c_theta[:N + 1], so it ends that prefix's lowest
        # block s_j: a for odd j, b for even j
        N = sum(b * n for b, n in zip(digits, _ostrowski_digits(spec.cf, hi)[1][1:]))
        low = next(j for j, b in enumerate(_ostrowski_digits(spec.cf, N + 1)[0]) if b)
        factors.append(images[1 - low % 2][max(lo - pos, 0):hi - pos])
    return factors
