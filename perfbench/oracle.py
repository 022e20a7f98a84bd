"""Reference computations the benchmark checks qsturm against.

Nothing here imports qsturm: every oracle is rebuilt from the model file and
textbook formulas, so a defect in qsturm cannot hide in a shared helper.

- Sequences come from the mechanical-word formula c(k) = [(k+1)t] - [kt]
  (1 -> 'a', 0 -> 'b'), evaluated exactly with a convergent p/q of t.
- Band spectra of a periodic approximant come from Floquet theory: the band
  edges are the eigenvalues of the one-period Jacobi matrix with periodic
  and antiperiodic closure.
- Lyapunov exponents come from a site-by-site product renormalized at every
  site; short products (traces, Gordon blocks) are taken in 40-digit
  arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import mpmath
import numpy as np


@dataclass(frozen=True)
class Model:
    """The parts of a model file the oracles need."""

    coeffs: Tuple[int, ...]
    periodic: Tuple[int, ...]
    subst: Dict[str, str]
    prefix: str
    potential: Dict[str, float]

    @classmethod
    def load(cls, path) -> "Model":
        with open(path) as fh:
            d = json.load(fh)
        return cls(
            coeffs=tuple(d["cf"]["coeffs"]),
            periodic=tuple(d["cf"].get("periodic") or ()),
            subst=dict(d["substitution"]),
            prefix=d.get("prefix", ""),
            potential={k: float(v) for k, v in d["potential"].items()},
        )

    def coefficient(self, i: int) -> int:
        """a_i, 1-based."""
        if i <= len(self.coeffs):
            return self.coeffs[i - 1]
        return self.periodic[(i - 1 - len(self.coeffs)) % len(self.periodic)]


def convergent_denominators(m: Model, n: int) -> List[int]:
    """[q_0, q_1, ..., q_n] with q_0 = 1, q_1 = a_1, q_k = a_k q_{k-1} + q_{k-2}."""
    qs = [1, m.coefficient(1)]
    for k in range(2, n + 1):
        qs.append(m.coefficient(k) * qs[-1] + qs[-2])
    return qs[: n + 1]


def _convergent_beyond(m: Model, length: int) -> Tuple[int, int]:
    """A convergent p/q of theta with q > length + 1."""
    p_prev, p, q_prev, q = 0, 1, 1, m.coefficient(1)
    k = 1
    while q <= length + 1:
        k += 1
        a = m.coefficient(k)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return p, q


def characteristic(m: Model, length: int) -> str:
    """First `length` letters of the characteristic word c_theta.

    For k < q the floors of k p/q and k theta agree, since no fraction with
    denominator below q lies between p/q and theta.
    """
    p, q = _convergent_beyond(m, length)
    if (length + 1) * p >= 2**62:
        raise ValueError(f"length {length} too large for exact int64 floors")
    floors = np.arange(1, length + 2, dtype=np.int64) * p // q
    bits = np.diff(floors).astype(np.uint8)
    return np.where(bits == 1, ord("a"), ord("b")).astype(np.uint8).tobytes().decode()


def substitute(m: Model, word: str) -> str:
    return "".join(m.subst[c] for c in word)


def sequence(m: Model, length: int, shift: int = 0) -> str:
    """Letters shift .. shift+length-1 of u = prefix . S(c_theta)."""
    need = shift + length
    shortest = min(len(v) for v in m.subst.values())
    base = characteristic(m, max(1, -(-(need - len(m.prefix)) // shortest)))
    u = m.prefix + substitute(m, base)
    return u[shift:need]


def level_word(m: Model, n: int) -> str:
    """s_n: s_{-1} = a, s_0 = b, and for n >= 1 the prefix of c_theta of length q_n."""
    if n == -1:
        return "a"
    if n == 0:
        return "b"
    return characteristic(m, convergent_denominators(m, n)[n])


def level_length(m: Model, n: int) -> int:
    """|S(s_n)| from letter counts, without building the word."""
    if n == -1:
        return len(m.subst["a"])
    na, nb = 1, 0  # s_{-1}
    ma, mb = 0, 1  # s_0
    for k in range(1, n + 1):
        a = m.coefficient(k)
        if k == 1:
            na, nb, ma, mb = ma, mb, (a - 1) * ma + na, (a - 1) * mb + nb
        else:
            na, nb, ma, mb = ma, mb, a * ma + na, a * mb + nb
    return ma * len(m.subst["a"]) + mb * len(m.subst["b"])


def potential(m: Model, word: str) -> np.ndarray:
    return np.array([m.potential[c] for c in word], dtype=float)


# --------------------------------------------------------------------------
# Floquet band spectrum of a periodic potential

def floquet_edges(v: Sequence[float]) -> np.ndarray:
    """Sorted band edges of the periodic operator with one period v.

    Periodic (phase +1) and antiperiodic (phase -1) eigenvalues together;
    bands are [e[2k], e[2k+1]]. The matrices are assembled additively so
    periods 1 and 2 get their doubled or cancelled couplings right.
    """
    v = np.asarray(v, dtype=float)
    p = len(v)
    edges = []
    for phase in (1.0, -1.0):
        h = np.diag(v).astype(float)
        for i in range(p):
            j = i + 1
            c = 1.0
            if j == p:
                j, c = 0, phase
            h[i, j] += c
            h[j, i] += c
        edges.append(np.linalg.eigvalsh(h))
    return np.sort(np.concatenate(edges))


def floquet_bands(v: Sequence[float]) -> np.ndarray:
    """Bands as an array of shape (p, 2)."""
    return floquet_edges(v).reshape(-1, 2)


def level_bands(m: Model, n: int) -> np.ndarray:
    """Floquet bands of the |S(s_n)|-periodic approximant sigma_n."""
    return floquet_bands(potential(m, substitute(m, level_word(m, n))))


# --------------------------------------------------------------------------
# Lyapunov exponent and transfer products

def lyapunov(v: Sequence[float], energy: float) -> float:
    """(1/L) ln ||T_L ... T_1|| (spectral norm), renormalized at every site."""
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    logsum = 0.0
    for x in v:
        d = energy - x
        m11, m12, m21, m22 = d * m11 - m21, d * m12 - m22, m11, m12
        s = max(abs(m11), abs(m12), abs(m21), abs(m22))
        m11, m12, m21, m22 = m11 / s, m12 / s, m21 / s, m22 / s
        logsum += math.log(s)
    norm = np.linalg.norm(np.array([[m11, m12], [m21, m22]]), 2)
    return (logsum + math.log(norm)) / len(v)


def word_matrix(v: Sequence[float], energy: float) -> np.ndarray:
    """T_L ... T_1 in 40-digit arithmetic, rounded to double at the end.

    Intermediate entries can exceed the final ones by orders of magnitude,
    and a double-precision product then loses digits the trace map keeps.
    """
    with mpmath.workdps(40):
        e = mpmath.mpf(energy)
        m11, m12, m21, m22 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        for x in v:
            d = e - mpmath.mpf(float(x))
            m11, m12, m21, m22 = d * m11 - m21, d * m12 - m22, m11, m12
        return np.array([[float(m11), float(m12)], [float(m21), float(m22)]])


# --------------------------------------------------------------------------
# Words

def distinct_factors(word: str, n: int) -> int:
    """Brute-force count of distinct length-n factors."""
    return len({word[i:i + n] for i in range(len(word) - n + 1)})


def is_balanced(word: str, n_max: int) -> bool:
    """Counts of 'a' in any two factors of equal length n <= n_max differ by <= 1."""
    ones = np.frombuffer(word.encode(), dtype=np.uint8) == ord("a")
    csum = np.concatenate([[0], np.cumsum(ones)])
    for n in range(1, min(n_max, len(word)) + 1):
        w = csum[n:] - csum[:-n]
        if w.max() - w.min() > 1:
            return False
    return True


def tridiagonal_eigenvalues(diag: np.ndarray) -> np.ndarray:
    """Dense eigvalsh of the tridiagonal matrix with unit off-diagonal."""
    n = len(diag)
    h = np.diag(np.asarray(diag, dtype=float))
    idx = np.arange(n - 1)
    h[idx, idx + 1] = 1.0
    h[idx + 1, idx] = 1.0
    return np.linalg.eigvalsh(h)
