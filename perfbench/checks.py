"""Oracle checks of qsturm's output, one per kind of op.

usage: python3 perfbench/checks.py plan WORKLOAD SEED
       python3 perfbench/checks.py verify WORKLOAD SEED PASS_DIR...

`plan` prints the workload's ops as JSON; `verify` prints one verdict per op
output file (PASS_DIR/op<i>.out). Both run in their own process, so run.py
stays small: the op processes it starts inherit its memory in their max-RSS.

check(op, stdout) parses the output and compares it with an oracle from
oracle.py. An op fails on malformed output, a missing fingerprint header, a
non-finite number where the format promises a finite one, or a value outside
the stated tolerance. Bands that `bands` misses are not failures: they are
counted in `info` (found / expected, measure / oracle measure) and reported
as band recall and band measure error. Likewise the error of the traces that
`tracemap` and `gordon` print, against a 40-digit site product, is reported
(`trace_err`, `residual_err`) rather than failed: qsturm computes them in
double precision, and near some q5 energies intermediate products are
10^3-10^4 times larger than the result, which costs it several digits.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import oracle
import workloads

# A reported band edge must lie this close to a Floquet edge of the same side
# (lower or upper): ten times qsturm's default bisection tolerance.
EDGE_TOL = 1e-9
# gamma from qsturm against the site-by-site product, absolute.
LYAPUNOV_TOL = 1e-8
# finite_eigenvalues (bisection to 1e-10) against dense eigvalsh, absolute.
EIGEN_TOL = 1e-8
# Invariant drift on bounded trace-map levels, relative to 1 + x^2 + y^2 + z^2
# (double-precision cancellation grows with the triple).
INVARIANT_TOL = 1e-8
# Factor lengths up to which a decomposed base must be balanced.
BALANCE_N = 50
# Trace-map levels whose half trace is recomputed from the level word.
TRACE_CHECK_MAX_LENGTH = 5000

FINGERPRINT = re.compile(r"^[0-9a-f]{16}$")


class CheckFailed(Exception):
    pass


@dataclass
class Result:
    ok: bool
    message: str = ""
    info: Dict[str, float] = field(default_factory=dict)


@dataclass
class Output:
    meta: Dict[str, str]
    columns: List[str]
    rows: List[List[str]]

    def extra(self, key: str):
        if key not in self.meta:
            raise CheckFailed(f"missing header field {key!r}")
        return json.loads(self.meta[key])


def parse(text: str, command: str) -> Output:
    meta: Dict[str, str] = {}
    columns: Optional[List[str]] = None
    rows: List[List[str]] = []
    for line in text.splitlines():
        if line.startswith("# "):
            k, sep, v = line[2:].partition("=")
            if not sep:
                raise CheckFailed(f"malformed header line {line[:60]!r}")
            meta[k] = v
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    if not FINGERPRINT.match(meta.get("fingerprint", "")):
        raise CheckFailed("fingerprint header missing or malformed")
    if meta.get("command") != command:
        raise CheckFailed(f"command header {meta.get('command')!r} != {command!r}")
    for r in rows:
        if columns is not None and len(r) != len(columns):
            raise CheckFailed(f"row has {len(r)} cells, header has {len(columns)}")
    return Output(meta, columns or [], rows)


def finite(cell: str) -> float:
    x = float(cell)
    if not math.isfinite(x):
        raise CheckFailed(f"non-finite value {cell!r}")
    return x


def matrix_size(M: np.ndarray) -> float:
    """sqrt(1 + |M|^2), Frobenius: the scale of a product's rounding error."""
    return math.sqrt(1.0 + float(np.sum(M * M)))


def expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


class Checker:
    """Holds the models and memoizes oracle results across passes."""

    def __init__(self, models: Dict[str, oracle.Model], seed: int):
        self.models = models
        self.seed = seed
        self._memo: Dict[tuple, object] = {}
        self._verdicts: Dict[tuple, Result] = {}

    def memo(self, key: tuple, fn: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def sequence(self, model: str, length: int, shift: int = 0) -> str:
        return self.memo(("seq", model, length, shift),
                         lambda: oracle.sequence(self.models[model], length, shift))

    def bands(self, model: str, n: int) -> np.ndarray:
        return self.memo(("bands", model, n), lambda: oracle.level_bands(self.models[model], n))

    def check(self, op, text: str) -> Result:
        """Verdict for one op's stdout; identical outputs share a verdict."""
        key = (op.label, hash(text))
        if key not in self._verdicts:
            try:
                info = getattr(self, "_check_" + op.kind)(op, text) or {}
                self._verdicts[key] = Result(True, "", info)
            except (CheckFailed, ValueError, KeyError, IndexError, TypeError) as e:
                self._verdicts[key] = Result(False, f"{type(e).__name__}: {e}")
        return self._verdicts[key]

    # ------------------------------------------------------------------ words

    def _check_generate(self, op, text):
        out = parse(text, "generate")
        m = self.models[op.model]
        if "levels" in op.params:
            levels = op.params["levels"]
            expect(len(out.rows) == levels + 2, f"{len(out.rows)} level rows, want {levels + 2}")
            for (n, s, sp), k in zip(out.rows, range(-1, levels + 1)):
                word = oracle.level_word(m, k)
                expect(int(n) == k and s == word, f"s_{k} differs from the mechanical word")
                expect(sp == oracle.substitute(m, word), f"S(s_{k}) differs")
        else:
            want = self.sequence(op.model, op.params["length"], op.params.get("shift", 0))
            expect(len(out.rows) == 1 and out.rows[0][0] == want,
                   "sequence differs from prefix . S(mechanical word)")

    def _check_complexity(self, op, text):
        out = parse(text, "complexity")
        nmax = op.params["nmax"]
        expect(len(out.rows) == nmax, f"{len(out.rows)} rows, want {nmax}")
        p = [int(r[1]) for r in out.rows]
        expect([int(r[0]) for r in out.rows] == list(range(1, nmax + 1)), "row indices")
        word = self.sequence(op.model, op.params["length"], op.params.get("shift", 0))
        rng = random.Random(f"{self.seed}:{op.label}")
        for n in sorted({1, nmax, *rng.sample(range(2, nmax), 3)}):
            want = self.memo(("factors", op.label, n), lambda: oracle.distinct_factors(word, n))
            expect(p[n - 1] == want, f"p({n}) = {p[n - 1]}, brute force {want}")
        cls = out.extra("classification")
        expect(cls["kind"] in ("sturmian", "quasi_sturmian"), f"classified {cls['kind']}")
        n0, k = cls["n0"], cls["k"]
        expect(all(p[n - 1] == n + k for n in range(n0, nmax + 1)),
               f"p(n) != n + {k} on the plateau from n0 = {n0}")

    def _check_decompose(self, op, text):
        out = parse(text, "decompose")
        d = out.extra("decomposition")
        word = self.sequence(op.model, op.params["length"], op.params.get("shift", 0))
        wl = d["window_length"]
        expect(0 < wl <= len(word), f"window_length {wl}")
        base = d["base_prefix"]
        expect(set(base) <= {"a", "b"}, "base is not over {a, b}")
        regen = d["prefix"] + "".join(d["substitution"][c] for c in base)
        expect(regen == word[:wl], "prefix . S(base) does not regenerate the window")
        expect(self.memo(("balanced", base), lambda: oracle.is_balanced(base, BALANCE_N)),
               f"base is not balanced up to factor length {BALANCE_N}")
        theta = finite(out.rows[0][0])
        expect(0.0 < theta < 1.0, f"theta {theta} outside (0, 1)")

    # --------------------------------------------------------------- tracemap

    def _check_tracemap(self, op, text):
        out = parse(text, "tracemap")
        m = self.models[op.model]
        E = op.params["energy"]
        expect(len(out.rows) == 30, f"{len(out.rows)} levels, want 30")
        inv0 = None
        trace_err = 0.0
        for row in out.rows:
            if row[5] == "true":
                break
            n = int(row[0])
            x, y, z, inv = (finite(c) for c in row[1:5])
            scale = 1.0 + x * x + y * y + z * z
            expect(abs(inv - (x * x + y * y + z * z - 2 * x * y * z - 1)) <= INVARIANT_TOL * scale,
                   f"level {n}: printed invariant disagrees with x, y, z")
            inv0 = inv if inv0 is None else inv0
            expect(abs(inv - inv0) <= INVARIANT_TOL * scale, f"level {n}: invariant drifted")
            if oracle.level_length(m, n) <= TRACE_CHECK_MAX_LENGTH:
                M = self.memo(("level_matrix", op.model, n, E), lambda: oracle.word_matrix(
                    oracle.potential(m, oracle.substitute(m, oracle.level_word(m, n))), E))
                trace_err = max(trace_err, abs(2.0 * y - np.trace(M)) / matrix_size(M))
        expect(inv0 is not None, "no bounded level to check")
        out.extra("verdict")
        return {"trace_err": float(trace_err)}

    # --------------------------------------------------------------- spectrum

    def _check_bands(self, op, text):
        out = parse(text, "bands")
        fb = self.bands(op.model, op.params["level"])
        rep = np.array([[finite(a), finite(b)] for a, b in out.rows]).reshape(-1, 2)
        expect(out.extra("band_count") == len(rep), "band_count header != rows")
        measure = float(np.sum(rep[:, 1] - rep[:, 0]))
        expect(abs(out.extra("total_measure") - measure) <= 1e-9, "total_measure != sum of rows")
        expect(np.all(rep[:, 1] >= rep[:, 0]) and np.all(rep[1:, 0] >= rep[:-1, 1]),
               "bands not sorted and disjoint")
        for col, side in ((0, "lower"), (1, "upper")):
            edges = fb[:, col]
            i = np.clip(np.searchsorted(edges, rep[:, col]), 1, len(edges) - 1)
            dist = np.minimum(np.abs(rep[:, col] - edges[i - 1]), np.abs(rep[:, col] - edges[i]))
            worst = float(dist.max()) if len(dist) else 0.0
            expect(worst <= EDGE_TOL, f"a {side} edge is {worst:.3g} from every Floquet {side} edge")
        oracle_measure = float(np.sum(fb[:, 1] - fb[:, 0]))
        return {"found": len(rep), "expected": len(fb), "measure": measure,
                "oracle_measure": oracle_measure}

    def _check_spectrum(self, op, text):
        out = parse(text, "spectrum")
        m = self.models[op.model]
        expect([int(r[0]) for r in out.rows] == list(range(3, 11)), "levels 3..10 expected")
        for r in out.rows:
            n, count, meas = int(r[0]), int(r[1]), finite(r[2])
            expect(0 < count <= oracle.level_length(m, n), f"level {n}: {count} bands")
            expect(0.0 < meas, f"level {n}: measure {meas}")
        stable = [(finite(a), finite(b)) for a, b in out.extra("stable_bands")]
        expect(all(lo < hi for lo, hi in stable), "empty stable interval")
        expect(all(b[1] <= c[0] for b, c in zip(stable, stable[1:])), "stable bands overlap")
        total = sum(hi - lo for lo, hi in stable)
        expect(abs(out.extra("stable_measure") - total) <= 1e-9, "stable_measure != sum")

    def _check_finite_eigenvalues(self, op, text):
        out = parse(text, "finite_eigenvalues")
        size, shift = op.params["size"], op.params["shift"]
        lams = np.array([finite(r[0]) for r in out.rows])
        m = self.models[op.model]
        want = self.memo(("eig", op.label), lambda: oracle.tridiagonal_eigenvalues(
            oracle.potential(m, self.sequence(op.model, size, shift))))
        expect(len(lams) == size, f"{len(lams)} eigenvalues, want {size}")
        err = float(np.max(np.abs(np.sort(lams) - want)))
        expect(err <= EIGEN_TOL, f"eigenvalues differ from eigvalsh by {err:.3g}")

    # -------------------------------------------------------------- transfer

    def _check_lyapunov(self, op, text):
        out = parse(text, "lyapunov")
        expect(len(out.rows) == 200, f"{len(out.rows)} grid rows, want 200")
        vals = [(finite(e), finite(g)) for e, g in out.rows]
        L, shift = op.params["length"], op.params.get("shift", 0)
        v = self.memo(("pot", op.model, L, shift),
                      lambda: oracle.potential(self.models[op.model], self.sequence(op.model, L, shift)))
        rng = random.Random(f"{self.seed}:{op.label}")
        for i in rng.sample(range(len(vals)), 3):
            E, g = vals[i]
            want = self.memo(("gamma", op.label, E), lambda: oracle.lyapunov(v, E))
            expect(abs(g - want) <= LYAPUNOV_TOL, f"gamma({E}) = {g}, site product gives {want}")

    def _check_alpha(self, op, text):
        out = parse(text, "alpha")
        expect(len(out.rows) == 1, "one row expected")
        g1, g2, alpha = (finite(c) for c in out.rows[0][:3])
        expect(out.rows[0][3] in ("true", "false"), "escaped flag")
        expect(0.0 <= g1 <= g2, f"gamma1 {g1} > gamma2 {g2}")
        expect(abs(alpha - 2 * g1 / (g1 + g2)) <= 1e-12, "alpha != 2 g1 / (g1 + g2)")

    def _check_gordon(self, op, text):
        out = parse(text, "gordon")
        m = self.models[op.model]
        nmax, shift, E = op.params["nmax"], op.params.get("shift", 0), op.params["energy"]
        expect([int(r[1]) for r in out.rows] == list(range(2, nmax + 1)), "levels 2..nmax")
        trace_err = residual_err = 0.0
        for r in out.rows:
            site, n, kind = int(r[0]), int(r[1]), r[2]
            residual, trace = finite(r[3]), finite(r[4])
            sn = oracle.substitute(m, oracle.level_word(m, n))
            block = sn + (oracle.substitute(m, oracle.level_word(m, n - 1)) if kind == "composite" else "")
            ell = len(block)
            u = self.sequence(op.model, site + 2 * ell, shift)
            w = u[site:site + ell]
            expect(w == u[site + ell:], f"level {n}: no square at site {site}")
            expect(w in block + block, f"level {n}: square is not a conjugate of the block")
            M = self.memo(("matrix", op.model, shift + site, ell, E),
                          lambda: oracle.word_matrix(oracle.potential(m, w), E))
            trace_err = max(trace_err, abs(trace - np.trace(M)) / matrix_size(M))
            residual_err = max(residual_err, residual / matrix_size(M) ** 2)
        return {"trace_err": float(trace_err), "residual_err": float(residual_err)}


def main(argv) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    root = Path(__file__).resolve().parent.parent
    ops, models = workloads.build(name, seed, root)
    if mode == "plan":
        print(json.dumps({"why": workloads.WHY[name],
                          "ops": [dict(asdict(op), argv=op.argv, label=op.label) for op in ops]}))
        return 0
    checker = Checker(models, seed)
    verdicts = []
    for pass_dir in argv[3:]:
        verdicts.append([asdict(checker.check(op, (Path(pass_dir) / f"op{i}.out").read_text()))
                         for i, op in enumerate(ops)])
    print(json.dumps(verdicts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
