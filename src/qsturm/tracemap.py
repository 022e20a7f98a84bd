"""The quasi-Sturmian trace map: the level step (square-and-multiply, O(log
a_n) per level), group generators, elementary-block orbits, conserved
invariant, and escape classification.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .transfer import TraceTriple, _batches, _power, _trace_step, initial_triple, initial_triple_many
from .words import ModelSpec


class OrbitVerdict(NamedTuple):
    """Outcome of orbit classification.

    kind is "bounded" or "escaped"; escape_step is the trace-map level at
    which the orbit entered the escape set. sup_norm is the largest
    Euclidean norm seen on the orbit. overflow marks orbits that exceeded
    float range before formally entering the escape set (classified escaped).
    """

    kind: str
    steps_checked: int
    escape_step: Optional[int]
    sup_norm: float
    invariant: float
    overflow: bool = False


def chebyshev(m: int, x: float) -> float:
    """Second-kind Chebyshev value U_m(x), m >= -1: the (2, 1) entry of
    [[2x, -1], [1, 0]]^{m+1}."""
    if m < -1:
        raise ValueError("chebyshev requires m >= -1")
    return _power((2.0 * x, -1.0, 1.0, 0.0), m + 1)[2]


def step(a_next: int, t: TraceTriple) -> TraceTriple:
    """One trace-map level: (x,y,z) -> (y, z U_{a-1}(y) - x U_{a-2}(y), z U_a(y) - x U_{a-1}(y))."""
    if a_next < 1:
        raise ValueError("coefficient must be >= 1")
    return TraceTriple(*_trace_step(a_next, *t))


def generators(name: str, t: TraceTriple) -> TraceTriple:
    """Apply one generator of the invariant-preserving group: p, u, v, q, q_inv."""
    x, y, z = t
    if name == "p":
        return TraceTriple(y, x, z)
    if name == "u":
        return TraceTriple(z, y, 2.0 * y * z - x)
    if name == "v":
        return TraceTriple(y, x, 2.0 * x * y - z)
    if name == "q":
        return TraceTriple(y, z, x)
    if name == "q_inv":
        return TraceTriple(z, x, y)
    raise ValueError(f"unknown generator {name!r}")


def invariant(t: TraceTriple) -> float:
    """Fricke-Vogt invariant x^2 + y^2 + z^2 - 2xyz - 1."""
    x, y, z = t
    return x * x + y * y + z * z - 2.0 * x * y * z - 1.0


def in_escape(t: TraceTriple) -> bool:
    """Membership in the absorbing region {|y|>1, |z|>1, |yz|>|x|} (strict),
    elementwise for triples of arrays."""
    x, y, z = t
    return (abs(y) > 1.0) & (abs(z) > 1.0) & (abs(y * z) > abs(x))


OVERFLOW_THRESHOLD = 1e150


def classify_orbit(spec: ModelSpec, E: float, n_levels: int) -> OrbitVerdict:
    """Drive the initial half-trace triple through the trace-map orbit,
    testing the escape predicate after every completed level.

    The escape set is absorbing for completed-level triples (each map is
    p composed with powers of u, and u maps the set into itself), so the
    first hit settles the verdict; otherwise the orbit is bounded over
    n_levels levels with the recorded sup norm. Intermediate half-block
    states may graze the set spuriously and are not tested.
    """
    escaped, steps, sup, inv, blown = _classify(spec, np.array([E], dtype=float), n_levels)
    if escaped[0]:
        n = int(steps[0])
        return OrbitVerdict("escaped", n, n, float(sup[0]), float(inv[0]), overflow=bool(blown[0]))
    return OrbitVerdict("bounded", n_levels, None, float(sup[0]), float(inv[0]))


def classify_many(spec: ModelSpec, energies: np.ndarray, n_levels: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized classification over an energy grid.

    Returns (escaped mask, escape step or -1, sup norm, invariant) arrays.
    Energies run in batches of transfer._BATCH, and each level steps only
    the orbits still live: an escaped orbit keeps its escape-time verdict
    and sup norm, and a batch stops once all its orbits have escaped. Every
    energy gets the same arithmetic however the grid is cut into batches.
    """
    return _classify(spec, np.asarray(energies, dtype=float), n_levels)[:4]


def _classify(spec: ModelSpec, energies: np.ndarray, n_levels: int):
    """classify_many plus the mask of orbits stopped by overflow."""
    if n_levels < 2:
        raise ValueError("n_levels must be >= 2")
    K = len(energies)
    inv = np.empty(K)
    sup = np.empty(K)
    overflow = np.zeros(K, dtype=bool)
    escape_step = np.full(K, -1, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in _batches(energies):
            x, y, z = initial_triple_many(spec, energies[s])
            inv[s] = invariant(TraceTriple(x, y, z))
            # x, y, z, the sup norm so far and the energy index of each live orbit
            live_sup = np.sqrt(x * x + y * y + z * z)
            idx = np.arange(s.start, s.start + len(x))
            for n in range(2, n_levels + 1):
                if not idx.size:
                    break
                x, y, z = _trace_step(spec.cf.coefficient(n), x, y, z)
                biggest = np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z)))
                blown = ~np.isfinite(biggest) | (biggest > OVERFLOW_THRESHOLD)
                new = blown | in_escape(TraceTriple(x, y, z))
                gone = idx[new]
                escape_step[gone] = n
                overflow[idx[blown]] = True
                sup[gone] = live_sup[new]
                keep = ~new
                x, y, z, idx, live_sup = x[keep], y[keep], z[keep], idx[keep], live_sup[keep]
                np.maximum(live_sup, np.sqrt(x * x + y * y + z * z), out=live_sup)
            sup[idx] = live_sup
    return escape_step >= 0, escape_step, sup, inv, overflow


def orbit_trace(spec: ModelSpec, E: float, n_levels: int) -> List[TraceTriple]:
    """Per-level triples (x_E(n), y_E(n), z_E(n)) for n = 1..n_levels."""
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    # A huge |E| overflows the level matrices; the orbit then reads nan.
    with np.errstate(over="ignore", invalid="ignore"):
        t = initial_triple(spec, E)
    out = [t]
    for n in range(1, n_levels):
        t = step(spec.cf.coefficient(n + 1), t)
        out.append(t)
    return out
