"""Transfer matrices over words and levels, half traces by the trace-map
step, Lyapunov estimates, Sturm counts of finite truncations, solution
propagation, local norms, Gordon residuals, and solution growth exponents.

Matrices are plain 2x2 float numpy arrays, or over an energy array four entry
arrays (m11, m12, m21, m22); products apply the matrix of the FIRST symbol of
a word first (rightmost factor in the product).
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

# window runs on its first use: lyapunov_many and growth_exponents need it,
# the Sturm counts and the trace kernels do not.
from . import window
from .errors import DegenerateFit, OutOfRange, ZeroInitialCondition
from .words import ModelSpec, Word, _images, _potential_table, _window_factors, level_words_prime, qs_prefix


ENERGY_MARGIN = 0.5


def energy_window(spec: ModelSpec) -> Tuple[float, float]:
    """[min f - 2 - margin, max f + 2 + margin]; everything outside is resolvent."""
    values = list(spec.potential.values())
    return min(values) - 2.0 - ENERGY_MARGIN, max(values) + 2.0 + ENERGY_MARGIN


def energy_grid(spec: ModelSpec, points: int) -> np.ndarray:
    """points evenly spaced energies over energy_window, both ends included."""
    return np.linspace(*energy_window(spec), points)


def local_matrix(E: float, v: float) -> np.ndarray:
    """Single-site matrix [[E-v, -1], [1, 0]]; det = 1 exactly."""
    return np.array([[E - v, -1.0], [1.0, 0.0]])


def word_matrix(E: float, w: Word, f) -> np.ndarray:
    """Ordered product of single-site matrices over w, first symbol rightmost.

    f is a mapping from alphabet labels to potential values (a dict or a
    ModelSpec potential).
    """
    return _stack(_word_entries(float(E), _potential_table(f, w.alphabet)[w.codes].tolist()))[0]


def level_matrices(spec: ModelSpec, E: float, n_max: int) -> List[np.ndarray]:
    """M(n) for n = -1..n_max (list index i holds M(i-1)).

    M(-1) and M(0) come from the words S(a) and S(b); M(1) = M(-1)
    M(0)^{a_1 - 1} and M(n) = M(n-2) M(n-1)^{a_n} (see _levels).
    """
    return [M[0] for M in level_matrices_many(spec, np.array([E], dtype=float), n_max)]


class TraceTriple(NamedTuple):
    """Half-trace triple (x, y, z)."""

    x: float
    y: float
    z: float


def initial_triple(spec: ModelSpec, E: float) -> TraceTriple:
    """(x_E(1), y_E(1), z_E(1)) = (tr M(0), tr M(1), tr(M(1) M(0))) / 2."""
    x, y, z = initial_triple_many(spec, np.array([E], dtype=float))
    return TraceTriple(float(x[0]), float(y[0]), float(z[0]))


Entries = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _word_entries(energies, v) -> Entries:
    """The matrix of the sites with potential values v, as entries (m11,
    m12, m21, m22), vectorized over an energy array, or on one Python float
    over a list v: the same IEEE operations without numpy's per-call cost.
    The identity it starts from has scalar entries, which broadcast."""
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    for x in v:
        d = energies - x
        m11, m12, m21, m22 = d * m11 - m21, d * m12 - m22, m11, m12
    return m11, m12, m21, m22


def _stack(m: Entries) -> np.ndarray:
    return np.stack(np.broadcast_arrays(*m), axis=-1).reshape(-1, 2, 2)


def _mul(A: Entries, B: Entries) -> Entries:
    a11, a12, a21, a22 = A
    b11, b12, b21, b22 = B
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def _power(M: Entries, k: int, mul=None) -> Entries:
    """M^k for k >= 0 by square-and-multiply with mul (default _mul); M
    itself when k = 1, and the identity (scalar entries) when k = 0."""
    mul = mul or _mul
    result = None
    while True:
        if k & 1:
            result = M if result is None else mul(M, result)
        k >>= 1
        if not k:
            return (1.0, 0.0, 0.0, 1.0) if result is None else result
        M = mul(M, M)


def _levels(spec: ModelSpec, n: int, sites, mul) -> list:
    """The level matrices M(-1), ..., M(n) of s'_{-1}, ..., s'_n (list index
    i holds M(i-1)), from sites(v), the matrix of the sites with potential
    values v, and mul(A, B) = A B: M(-1) and M(0) are the matrices of S(a)
    and S(b), M(1) = M(-1) M(0)^{a_1 - 1} and M(j) = M(j-2) M(j-1)^{a_j}."""
    levels = [sites(spec.potential_values(w)) for w in _images(spec)]
    for j in range(1, n + 1):
        k = spec.cf.coefficient(j) - (j == 1)
        levels.append(mul(levels[-2], _power(levels[-1], k, mul)) if k else levels[-2])
    return levels


def level_matrices_many(spec: ModelSpec, energies: np.ndarray, n_max: int) -> List[np.ndarray]:
    """level_matrices over an energy array; each entry has shape (K, 2, 2)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    energies = np.asarray(energies, dtype=float)
    return [_stack(m) for m in _levels(spec, n_max, lambda v: _word_entries(energies, v), _mul)]


def _trace_step(a: int, x, y, z):
    """One trace-map level, elementwise: (x, y, z) -> (y, z U_{a-1}(y) -
    x U_{a-2}(y), z U_a(y) - x U_{a-1}(y)).

    U_{a-1} and U_{a-2} are the left column of [[2y, -1], [1, 0]]^{a-1}, so a
    level costs O(log a) products, as M(n-1)^{a_n} does.
    """
    y2 = 2.0 * y
    u1, _, u2, _ = _power((y2, -1.0, 1.0, 0.0), a - 1)
    return y, z * u1 - x * u2, z * (y2 * u1 - u2) - x * u1


# Energies per batch of the grid kernels (half_traces_many, lyapunov_many,
# tracemap.classify_many, spectrum.stable_set): the per-energy temporaries
# of an orbit step are held for one batch at a time, so the working set
# does not grow with the grid. Chosen by measurement; see CHANGES.md.
_BATCH = 8192


def _batches(energies: np.ndarray) -> List[slice]:
    """Consecutive slices of at most _BATCH energies covering the array."""
    return [slice(i, i + _BATCH) for i in range(0, len(energies), _BATCH)]


def initial_triple_many(spec: ModelSpec, energies: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    energies = np.asarray(energies, dtype=float)
    _, m0, m1 = _levels(spec, 1, lambda v: _word_entries(energies, v), _mul)
    return tuple(0.5 * (m[0] + m[3]) for m in (m0, m1, _mul(m1, m0)))


def half_traces_many(spec: ModelSpec, energies: np.ndarray, n: int) -> np.ndarray:
    """y_E(n) = tr(M_E(n)) / 2 by the trace-map orbit of the initial triple,
    _BATCH energies at a time; inf or nan, unwarned, reports an overflow."""
    if n < 1:
        raise ValueError("n must be >= 1")
    energies = np.asarray(energies, dtype=float)
    out = np.empty(len(energies))
    with np.errstate(over="ignore", invalid="ignore"):
        for s in _batches(energies):
            x, y, z = initial_triple_many(spec, energies[s])
            for k in range(2, n + 1):
                x, y, z = _trace_step(spec.cf.coefficient(k), x, y, z)
            out[s] = y
    return out


# ---------------------------------------------------------------------------
# Lyapunov exponents

_RENORM_EVERY = 64

def _chunk_sites(energies: np.ndarray, v: np.ndarray) -> int:
    """Sites per chunk of sturm_counts: _RENORM_EVERY, or fewer where a
    large potential could overflow a chunk.

    Each site grows max(|x_k|, |x_{k-1}|) by at most 1 + |E - v_k|, and
    shrinks it by no more (det = 1), so a chunk of C sites stays within
    2^(+-1000) of its start when C log2(1 + max|E - v|) <= 1000.
    """
    dmax = float(np.abs(energies).max(initial=0.0) + np.abs(v).max(initial=0.0))
    return max(1, min(_RENORM_EVERY, int(1000.0 / np.log2(2.0 + dmax))))


def _distinct(v: np.ndarray, C: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(values, codes) with v = values[codes], values the distinct bit
    patterns of v (so 0.0 and -0.0 stay apart), or None where there are
    more than C of them."""
    bits = v.view(np.int64)
    order = np.argsort(bits, kind="stable")
    new = np.empty(len(v), dtype=bool)
    new[:1] = True
    np.not_equal(bits[order[1:]], bits[order[:-1]], out=new[1:])
    if np.count_nonzero(new) > C:
        return None
    codes = np.empty(len(v), dtype=np.intp)
    codes[order] = np.cumsum(new) - 1
    return v[order[new]], codes


def _lanes(mats):
    """Matrices, or pairs of them, stacked along a new last (lane) axis."""
    return tuple(map(_lanes, zip(*mats))) if isinstance(mats[0], tuple) else np.stack(mats, axis=-1)


def _lane(M, i):
    """Lanes i (an int or a sequence) of stacked matrices or pairs, copied out."""
    return tuple(_lane(x, i) for x in M) if isinstance(M, tuple) else np.take(M, i, axis=-1)


def _window_product(spec: ModelSpec, ends: List[int], shift: int, sites, mul) -> list:
    """The matrices of the windows u[shift:shift + N] for the increasing N in
    ends, from sites(v), the matrix of the sites with potential values v
    (or their pair, window._pair_sites), and mul(A, B) = A B: each is the
    one before times the product of the factors (_window_factors) of the
    piece between. Each distinct factor, a power of a level matrix (_levels)
    or a run of sites (codes looked up in one table of f), is multiplied out
    once. The pieces, longest first, are then folded side by side on a lane
    axis after the energy axes: step t multiplies the t-th factor of every
    piece that has one, so the sequential products grow with the longest
    piece, not with all of them. The 2x2 products per energy, one for each
    lane, are left in _window_product.products.
    """
    products = 0

    def count(k, M):
        nonlocal products
        products += k
        return M

    def mul1(A, B):
        return count(1, mul(A, B))

    distinct = {}  # factor key -> (index, factor), in the order first met
    pieces = [[distinct.setdefault(f if isinstance(f, tuple) else f.tobytes(), (len(distinct), f))[0]
               for f in _window_factors(spec, b - a, shift + a)] for a, b in zip([0] + ends, ends)]
    factors = [f for _, f in distinct.values()]
    levels = _levels(spec, max((f[0] for f in factors if isinstance(f, tuple)), default=0),
                     lambda v: count(len(v) - 1, sites(v)), mul1)
    table = _potential_table(spec.potential, spec.subst.target_alphabet)
    formed = [_power(levels[f[0] + 1], f[1], mul1) if isinstance(f, tuple)
              else count(len(f) - 1, sites(table[f])) for f in factors]
    order = sorted(range(len(pieces)), key=lambda i: -len(pieces[i]))
    folded, R, n = [None] * len(pieces), None, len(pieces)
    for t in range(len(pieces[order[0]]) + 1):
        while n and len(pieces[order[n - 1]]) == t:  # lane n - 1 has had its last factor
            n -= 1
            folded[order[n]] = _lane(R, n)
        if n:
            F = _lanes([formed[pieces[i][t]] for i in order[:n]])
            R = F if R is None else count(n, mul(F, _lane(R, range(n))))
    windows = list(accumulate(folded, lambda P, M: mul1(M, P)))
    _window_product.products = products
    return windows


def lyapunov_many(spec: ModelSpec, energies: np.ndarray, L: int, shift: int = 0) -> np.ndarray:
    """(1/L) ln ||M_E(L)|| (spectral norm) over an energy array.

    The window's matrix is a product of O(sum log a_k) level matrices
    (_window_factors), taken in double-double (_dd_mul), _BATCH energies at
    a time. No word is built, so no length budget applies: L may be up to
    10**300, where the power-of-two exponent stays a finite double at any
    finite energy, and shift any int.
    """
    if L < 1000:
        raise ValueError("lyapunov requires L >= 1000")
    if L > 10**300:
        raise ValueError("lyapunov requires L <= 10**300")
    energies = np.asarray(energies, dtype=float)
    out = np.empty(len(energies))
    for s in _batches(energies):
        E = energies[s]
        M = _window_product(spec, [L], shift, lambda v: window._dd_sites(E, v), window._dd_mul)[0]
        out[s] = window._dd_log_norm(M)
    return out / L


def lyapunov(spec: ModelSpec, E: float, L: int, shift: int = 0) -> float:
    """Finite-length Lyapunov estimate at a single energy."""
    return float(lyapunov_many(spec, np.array([E]), L, shift=shift)[0])


# ---------------------------------------------------------------------------
# Sturm counts

def sturm_counts(diag: np.ndarray, energies: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues below each energy of the Jacobi matrix T with diagonal
    diag and unit off-diagonals, and ln|det(E - T)|.

    The Dirichlet solution x_{k+1} = (E - v_k) x_k - x_{k-1}, x_{-1} = 0,
    x_0 = 1, gives x_k = det(E - T_k) over the leading k x k blocks; n minus
    its sign changes counts the eigenvalues below E (Sturm; the oscillation
    theorem). One lane per energy. A zero inside the sequence adds one
    change whichever sign it takes, and sign(x_n) is that parity, so the
    count and the sign of det(E - T) always agree.

    The lanes run C sites at a time: rows 0 and 1 of a (C + 2, K) buffer
    hold x_{k-1} and x_k at a chunk's start, and row j + 2 receives
    x_{k+j+1}, d * x into it and then x_{k+j} off it. A diagonal of at most
    C distinct values (a word's potential; _distinct) reads d = E - v from
    one row per value, so a few rows stay in cache, and any other from the
    chunk's own rows; the doubles are the same. A chunk's sign changes are
    summed in uint8, which its C <= 64 sites cannot overflow; its last two
    rows, rescaled by a power of two (exact, sign-keeping), carry into rows
    0 and 1.
    """
    v = np.asarray(diag, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if np.isnan(v).any():
        raise ValueError("diag must not contain NaN")
    if np.isnan(energies).any():
        raise ValueError("energies must not contain NaN")
    K = len(energies)
    C = _chunk_sites(energies, v)
    distinct = _distinct(v, C)
    changes = np.zeros(K, dtype=np.intp)
    exponent = np.zeros(K, dtype=np.intp)
    sign, flips = np.empty((C + 1, K), dtype=bool), np.empty((C, K), dtype=bool)
    chunk_changes = np.empty(K, dtype=np.uint8)
    buf = np.empty((C + 2, K))
    buf[0], buf[1] = 0.0, 1.0
    rows = list(buf)
    steps = list(zip(rows, rows[1:], rows[2:]))
    if distinct is not None:
        values, codes = distinct
        value_rows = list(np.subtract(energies, values[:, None]))
    mul, sub = np.multiply, np.subtract
    for start in range(0, len(v), C):
        c = min(C, len(v) - start)
        if distinct is None:
            np.subtract(energies, v[start:start + c, None], out=buf[2:c + 2])
            d = rows[2:c + 2]
        else:
            d = map(value_rows.__getitem__, codes[start:start + c].tolist())
        for dk, (prev, cur, nxt) in zip(d, steps):
            mul(dk, cur, out=nxt)
            sub(nxt, prev, out=nxt)
        # rows 1..c+1 hold x_start..x_{start+c}
        s = np.signbit(buf[1:c + 2], out=sign[:c + 1])
        np.not_equal(s[1:], s[:-1], out=flips[:c])
        changes += np.add.reduce(flips[:c].view(np.uint8), axis=0, dtype=np.uint8, out=chunk_changes)
        _, e = np.frexp(np.maximum(np.abs(buf[c]), np.abs(buf[c + 1])))
        np.ldexp(buf[c:c + 2], -e, out=buf[:2])
        exponent += e
    with np.errstate(divide="ignore"):
        log_det = np.log(np.abs(buf[1])) + exponent * np.log(2.0)
    return len(v) - changes, log_det


# ---------------------------------------------------------------------------
# Solutions of the difference equation

class SolutionSegment(NamedTuple):
    """phi(0..L+1) solving phi(n+1) + phi(n-1) + V(n) phi(n) = E phi(n)."""

    values: np.ndarray
    energy: float
    shift: int
    normalized: bool


def solve(spec: ModelSpec, E: float, shift: int, phi0: float, phi1: float, L: int) -> SolutionSegment:
    """Forward three-term recursion with V(n) = f(u(shift + n - 1)), n = 1..L."""
    if phi0 == 0.0 and phi1 == 0.0:
        raise ZeroInitialCondition("initial condition must be nonzero")
    prev, cur = float(phi0), float(phi1)
    phi = [prev, cur]
    # Python floats: the same IEEE operations as a float64 array, without
    # its per-site call overhead. Off the spectrum phi may overflow to inf
    # or nan; it is returned as computed.
    for d in (E - spec.potential_values(qs_prefix(spec, L, shift=shift))).tolist():
        prev, cur = cur, d * cur - prev
        phi.append(cur)
    normalized = abs(phi0 * phi0 + phi1 * phi1 - 1.0) < 1e-12
    return SolutionSegment(np.array(phi, dtype=float), E, shift, normalized)


def local_norm(seg: SolutionSegment, L: float) -> float:
    """sqrt( sum_{n<=floor(L)} phi(n)^2 + (L - floor(L)) phi(floor(L)+1)^2 )."""
    phi = seg.values
    if not 0 <= L <= len(phi) - 2:
        raise OutOfRange(f"L = {L} outside [0, {len(phi) - 2}]")
    k = int(np.floor(L))
    total = float(np.sum(phi[: k + 1] ** 2)) + (L - k) * float(phi[k + 1] ** 2)
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# Gordon two-block residual

class GordonResult(NamedTuple):
    residual: float
    trace: float


def gordon_residual(spec: ModelSpec, E: float, square: Tuple[int, int, str], shift: int = 0) -> GordonResult:
    """Cayley-Hamilton residual max over canonical initial vectors of
    ||(M^2 - tr(M) M + I) Phi|| for the block word M of a located square,
    alongside the block trace. Unimodularity makes the residual vanish up
    to rounding; the operation validates the square-location pipeline.
    """
    m, n, kind = square
    primes = level_words_prime(spec, n + 1)
    ell = len(primes[n + 1]) + (len(primes[n]) if kind == "composite" else 0)
    block = qs_prefix(spec, ell, shift=shift + m)
    # Off the spectrum the block matrix can overflow; the result is then
    # inf or nan, which callers read as unreliable.
    with np.errstate(over="ignore", invalid="ignore"):
        M = word_matrix(E, block, spec.potential)
        tr = float(np.trace(M))
        R = M @ M - tr * M + np.eye(2)
        residual = max(
            float(np.linalg.norm(R @ np.array([1.0, 0.0]))),
            float(np.linalg.norm(R @ np.array([0.0, 1.0]))),
        )
    return GordonResult(residual, tr)


# ---------------------------------------------------------------------------
# Solution growth exponents and the alpha estimate

_N_ANGLES = 32
_ESCAPE_MAGNITUDE = 1e100


class GrowthExponents(NamedTuple):
    gamma1: float
    gamma2: float
    alpha: float
    escaped: bool = False


def _dyadic(L_max: int) -> List[int]:
    """The scales of the growth fit: 8, 16, ... up to L_max, and L_max."""
    dyadic = [2**j for j in range(3, int(L_max).bit_length())]
    return dyadic if dyadic[-1] == L_max else dyadic + [L_max]


def _slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares slope of each column of y against x in closed form, the
    mean-centred x . y over x . x: np.polyfit's leading coefficient without
    its LAPACK solve."""
    x = x - x.mean()
    return x @ y / (x @ x)


def growth_exponents(spec: ModelSpec, E: float, shift: int, L_max: int) -> GrowthExponents:
    """Power-law exponents of ||phi||_L over normalized initial conditions.

    Takes 32 initial-condition angles, fits ln||phi||_L against ln L on
    a dyadic grid, and reports the extreme slopes gamma1 <= gamma2 and
    alpha = 2 gamma1 / (gamma1 + gamma2). Solutions that blow past float
    comfort are flagged as escaped (exponential regime, E off spectrum).

    phi(0) = cos t and phi(1) = sin t, so with Phi = (sin t, cos t) and the
    pair (M, G) of the first N sites (window._pair_mul), phi(N + 1) =
    e1^T M Phi and ||phi||_N^2 = cos^2 t + Phi^T G Phi. The pair of the
    window up to each scale is the one up to the scale before times the
    Ostrowski product of the piece between (_window_product), in
    double-double as in lyapunov_many; one more pair product, with the
    columns Phi and 0 and G = 0, reads both for every angle and scale. A
    scale is kept while no angle's norm there passes _ESCAPE_MAGNITUDE, and
    phi escapes if a scale is dropped or |phi(L_max + 1)| passes it.
    L_max runs up to 10**300, as L does in lyapunov_many.
    """
    if L_max < 1000:
        raise ValueError("growth_exponents requires L_max >= 1000")
    if L_max > 10**300:
        raise ValueError("growth_exponents requires L_max <= 10**300")
    dyadic = _dyadic(L_max)
    energy = np.array([E], dtype=float)
    pairs = _window_product(spec, dyadic, shift, lambda v: window._pair_sites(energy, v), window._pair_mul)
    # the scales along the last energy axis and the angles along the one before
    W = [[np.concatenate(x, axis=-1)[..., None, :] for x in zip(*half)] for half in zip(*pairs)]
    angles = np.pi * np.arange(_N_ANGLES) / _N_ANGLES
    s, c, zero = np.sin(angles)[:, None], np.cos(angles)[:, None], np.zeros((_N_ANGLES, 1))
    phi, none = np.array([[s, zero], [c, zero]]), np.zeros((2, 2, _N_ANGLES, 1))
    M, G = window._pair_mul(W, ((phi, none, zero), (none, none, zero)))
    # ln ||phi||_N and ln |phi(N + 1)| by angle and scale
    log_norms = 0.5 * np.logaddexp(window._dd_log(G), 2.0 * np.log(np.abs(c)))
    big = np.log(_ESCAPE_MAGNITUDE)
    # the scales before the first where some angle's norm passes big
    kept = int(np.argmin(np.r_[(log_norms <= big).all(axis=0), False]))
    escaped = kept < len(dyadic) or bool((window._dd_log(M)[:, -1] > big).any())
    if kept < 4:
        raise DegenerateFit("not enough dyadic scales before blow-up")
    lnL = np.log(np.asarray(dyadic[:kept], dtype=float))
    slopes = _slopes(lnL, log_norms[:, :kept].T)
    gamma1 = float(np.min(slopes))
    gamma2 = float(np.max(slopes))
    if gamma1 + gamma2 <= 0.0 or not np.isfinite(gamma1 + gamma2):
        raise DegenerateFit(f"non-positive slope span: gamma1={gamma1}, gamma2={gamma2}")
    alpha = 2.0 * gamma1 / (gamma1 + gamma2)
    return GrowthExponents(gamma1, gamma2, alpha, escaped)
