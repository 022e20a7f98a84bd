"""Long windows of u = prefix . S(c_theta) as Ostrowski level factors, and
the double-double 2x2 products that multiply them, for
transfer.lyapunov_many and transfer.growth_exponents.

A double-double matrix is (hi, lo, e): entry arrays hi and lo of shape
(2, 2) + K, K the energy axes, whose sums carry about 106 bits (Dekker 1971; Knuth, TAOCP 2,
4.2.2), scaled by 2^e, e a float64 array (K,) of whole numbers (past 2^53 it
rounds, where an int64 would wrap), so that the largest |hi| of each energy
lies in [0.5, 1). numpy has no fused multiply-add, so products are split
(Dekker); the scaling is exact.

This is a module of its own so that no module is long: every CLI call
compiles the package, and the longest module's compile sets a floor under
every call's peak memory.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .words import ModelSpec, _images, _ostrowski_digits

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


def _window_factors(spec: ModelSpec, L: int, shift: int):
    """The window u[shift:shift+L] of u = prefix . S(c_theta) as factors in
    word order, each an array of potential values or a pair (j, m) for s'_j^m.

    Its part in S(c_theta) ends in the image of c_theta[N], for the largest N
    with |S(c_theta[:N])| at most that end, and S(c_theta[:N]) =
    s'_k^{b_k} ... s'_0^{b_0} over N's Ostrowski digits. The copies of s'_j
    before the window start are dropped, and the one it falls in gives a
    suffix, which s'_j = s'_{j-1}^{a_j} s'_{j-2} splits into level factors
    (Damanik, Killip and Lenz, CMP 212 (2000), tile Sturmian windows so).
    Only the prefix and two partial images are left site by site. No word
    is built, so the length budget of words does not bound L or shift.
    """
    if shift < 0:
        raise ValueError("shift must be >= 0")
    end = shift + L
    prefix = spec.potential_values(spec.prefix.recode(spec.subst.target_alphabet))
    images = [spec.potential_values(w) for w in _images(spec)]
    factors = [prefix[shift:end]] if shift < len(prefix) else []
    lo, hi = max(shift - len(prefix), 0), end - len(prefix)
    if hi <= 0:
        return factors
    digits, q = _ostrowski_digits(spec.cf, hi, [len(v) for v in images])  # q[j + 1] = |s'_j|

    def suffix(j, r):
        """Factors of the last r symbols of s'_j, 0 < r <= |s'_j|, found last
        first by a loop: a window may span more levels than Python recurses."""
        rev = []
        while r and r != q[j + 1] and j >= 1:
            if r <= q[j - 1]:
                j -= 2
            else:
                m, r = divmod(r - q[j - 1], q[j])
                rev += [(j - 2, 1)] + ([(j - 1, m)] if m else [])
                j -= 1
        if r:
            rev.append((j, 1) if r == q[j + 1] else images[j + 1][-r:])
        return rev[::-1]

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
