"""The benchmark's workloads: which qsturm operations run, on which models,
with which seeded inputs, and why each workload exists.

Each workload is a closed loop with one client: the ops of a pass run one
after another, each in a fresh interpreter, because a CLI user pays start-up
and import on every call. The seed picks the energies (band centres of an
oracle approximant sigma_n) and the nonzero shifts; qsturm only ever sees the
model files and argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import oracle

MODEL_DIR = "perfbench/models"

# One-line reason per committed model file.
MODELS: Dict[str, str] = {
    "fibonacci": "the golden-mean Sturmian potential {2, 0}; the reference case of the paper",
    "q5": "the README quasi-Sturmian model: constant-length-6 substitution over the golden mean",
    "digits": "theta = [3,1,4,1,5,9,2,6,1...]: large a_n make |s'_n| jump and exercise the powers M^{a_n}",
    "prefixed": "a nonempty transient prefix and a substitution whose images differ in length",
}

WHY: Dict[str, str] = {
    "spectral": "band spectra, stable sets and trace-map orbits: spectrum and level products dominate, sequence length does not matter",
    "transport": "Lyapunov, growth-exponent and Gordon ops: transfer site loops and sequence generation dominate; spectrum and decompose never run",
    "recognition": "generate, complexity and decompose on long windows: suffix array, LCP and the bispecial scan dominate; transfer never runs",
}

# Approximant level whose Floquet band centres form each model's energy pool:
# a few hundred bands, so the seed has many in-band energies to pick from.
POOL_LEVEL = {"fibonacci": 12, "q5": 8, "digits": 5, "prefixed": 10}


@dataclass
class Op:
    """One operation: a qsturm CLI call ("cli") or a library call ("lib")."""

    kind: str  # subcommand, or the library function's name
    model: str
    args: List[str] = field(default_factory=list)
    params: Dict[str, float] = field(default_factory=dict)
    entry: str = "cli"

    @property
    def model_path(self) -> str:
        return f"{MODEL_DIR}/{self.model}.json"

    @property
    def argv(self) -> List[str]:
        return [self.kind, self.model_path] + self.args

    @property
    def label(self) -> str:
        return " ".join([self.kind, self.model] + self.args)


class Inputs:
    """Seeded choices shared by all ops of a workload."""

    def __init__(self, seed: int, models: Dict[str, oracle.Model]):
        self.rng = random.Random(seed)
        self.models = models
        self._pools: Dict[str, List[float]] = {}

    def energy(self, model: str) -> float:
        if model not in self._pools:
            bands = oracle.level_bands(self.models[model], POOL_LEVEL[model])
            self._pools[model] = [float(c) for c in bands.mean(axis=1)]
        return self.rng.choice(self._pools[model])

    def shift(self) -> int:
        return self.rng.randrange(1, 1000)


def _cli(kind: str, model: str, **params) -> Op:
    args = []
    for k, v in params.items():
        args += [f"--{k}", repr(v) if isinstance(v, float) else str(v)]
    return Op(kind, model, args, dict(params))


def spectral(inp: Inputs) -> List[Op]:
    ops = []
    for model, levels in (("fibonacci", (12, 14)), ("q5", (8, 10)),
                          ("digits", (5, 6)), ("prefixed", (10, 12))):
        ops += [_cli("bands", model, level=n) for n in levels]
    ops += [_cli("spectrum", "fibonacci"), _cli("spectrum", "fibonacci", grid=40000),
            _cli("spectrum", "q5")]
    ops += [_cli("tracemap", m, energy=inp.energy(m)) for m in MODELS]
    ops += [Op("finite_eigenvalues", "fibonacci", [str(shift), str(size)],
               {"shift": shift, "size": size}, "lib")
            for shift, size in ((0, 500), (inp.shift(), 2000))]
    return ops


def transport(inp: Inputs) -> List[Op]:
    ops = []
    for model in ("fibonacci", "q5", "digits"):
        ops += [_cli("lyapunov", model, length=L) for L in (10_000, 100_000)]
    ops.append(_cli("lyapunov", "prefixed", length=10_000, shift=inp.shift()))
    # growth_exponents stops once a solution passes 1e100, so an op's cost
    # depends on its energy. At these lengths no energy of the pools escapes
    # (checked with a log-scaled transfer product over every pool energy), so
    # every seed does the same work; at 10^6 sites most pool energies escape,
    # each at its own length.
    for model, L in (("fibonacci", 10_000), ("fibonacci", 100_000), ("q5", 30_000),
                     ("digits", 100_000)):
        ops.append(_cli("alpha", model, energy=inp.energy(model), lmax=L))
    ops.append(_cli("alpha", "prefixed", energy=inp.energy("prefixed"), lmax=100_000, shift=inp.shift()))
    for model, nmaxes in (("fibonacci", (10, 12)), ("q5", (10, 12)), ("digits", (6,)), ("prefixed", (10,))):
        ops += [_cli("gordon", model, energy=inp.energy(model), nmax=n) for n in nmaxes]
    ops.append(_cli("gordon", "fibonacci", energy=inp.energy("fibonacci"), nmax=10, shift=inp.shift()))
    return ops


def recognition(inp: Inputs) -> List[Op]:
    # decompose on 10^5 symbols runs on every model; the cheaper ops are
    # spread over the models so that a pass stays near 9 s. On q5, decompose
    # of 10^4 symbols fails for about a third of the shifts (IntegerOverflow
    # in rotation_number), so the shifted decompose ops run on the others.
    ops = [_cli("decompose", model, length=100_000) for model in MODELS]
    ops += [_cli("complexity", model, length=100_000, nmax=200) for model in ("fibonacci", "q5")]
    ops += [_cli("complexity", model, length=10_000, nmax=50, shift=inp.shift())
            for model in ("digits", "prefixed")]
    ops += [_cli("decompose", model, length=10_000, shift=inp.shift())
            for model in ("fibonacci", "prefixed")]
    ops += [_cli("generate", "fibonacci", length=100_000),
            _cli("generate", "prefixed", length=100_000, shift=inp.shift()),
            _cli("generate", "q5", levels=20),
            # digits reaches 10^5 symbols by n = 10
            _cli("generate", "digits", levels=10)]
    return ops


WORKLOADS = {"spectral": spectral, "transport": transport, "recognition": recognition}


def build(name: str, seed: int, root) -> Tuple[List[Op], Dict[str, oracle.Model]]:
    models = {m: oracle.Model.load(root / MODEL_DIR / f"{m}.json") for m in MODELS}
    return WORKLOADS[name](Inputs(seed, models)), models
