"""Traced launcher: run one qsturm op in this interpreter with a span around
every public function of every qsturm module, then write the spans as JSON.

usage: python3 perfbench/traced.py SPANS_OUT OP_ID cli|lib ARGV...

Spans are recorded from outside the program: each public function is rebound
in every qsturm module namespace that holds it (so `from .x import y` names
such as spectrum.half_traces_many are covered too), and each qsturm module
body is timed as "<layer>.import". A span is [name, layer, start, end,
parent index]; spans stay in memory until the op has finished. Counts of
work done are taken at the same boundaries, from arguments and results.
RuntimeWarnings are charged to the layer of the innermost open span.
"""

import os
import sys
import time

T_START = time.perf_counter()

import functools  # noqa: E402
import importlib.machinery  # noqa: E402
import inspect  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402

LAYERS = ("cli", "contfrac", "words", "decompose", "tracemap", "transfer", "spectrum")


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def open(self, name, layer):
        self.spans.append([name, layer, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def layer(self):
        return self.spans[self.stack[-1]][1] if self.stack else "cli"


REC = Recorder()


class _TimedFinder:
    """Meta-path finder that times the execution of each qsturm module body."""

    def find_spec(self, name, path, target=None):
        layer = name.rpartition(".")[2]
        if not name.startswith("qsturm.") or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        exec_module = spec.loader.exec_module

        def timed(module):
            sid = REC.open(f"{layer}.import", layer)
            try:
                exec_module(module)
            finally:
                REC.close(sid)

        spec.loader.exec_module = timed
        return spec


def _level_length(spec, n):
    """|S(s_n)| from letter counts (the band count sigma_n should have).

    Same recursion as oracle.level_length, restated on a qsturm ModelSpec so
    that traced ops need not import the oracles.
    """
    na, nb, ma, mb = 1, 0, 0, 1
    for k in range(1, n + 1):
        a = spec.cf.coefficient(k) - (1 if k == 1 else 0)
        na, nb, ma, mb = ma, mb, a * ma + na, a * mb + nb
    return ma * len(spec.subst.images["a"]) + mb * len(spec.subst.images["b"])


# Work counts per function: (bound arguments, result) -> {count name: amount}.
COUNTERS = {
    "words.qs_prefix": lambda a, r: {"words.qs_prefix.symbols": a["length"]},
    "words.complexity": lambda a, r: {"words.complexity.symbols": len(a["w"])},
    "tracemap.classify_many": lambda a, r: {
        "tracemap.classify_many.energy_levels": len(a["energies"]) * a["n_levels"]},
    "transfer.half_traces_many": lambda a, r: {
        "transfer.half_traces_many.energies": len(a["energies"]),
        "spectrum.periodic_bands.energies": len(a["energies"])
        if REC.inside("spectrum.periodic_bands") else 0},
    "transfer.lyapunov_many": lambda a, r: {
        "transfer.lyapunov_many.site_energies": len(a["energies"]) * a["L"]},
    "transfer.growth_exponents": lambda a, r: {"transfer.growth_exponents.sites": a["L_max"]},
    "spectrum.periodic_bands": lambda a, r: {
        "spectrum.periodic_bands.bands_found": r.band_count,
        "spectrum.periodic_bands.bands_expected": _level_length(a["spec"], a["n"])},
    "spectrum.stable_set": lambda a, r: {
        "spectrum.stable_set.bounded_cells": int(r.bounded.sum())},
    "spectrum.finite_eigenvalues": lambda a, r: {"spectrum.finite_eigenvalues.sites": a["size"]},
}


def _wrap(fn, name, layer):
    counter = COUNTERS.get(name)
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = name
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if name == "spectrum.finite_eigenvalues":
                span = f"{name}.n{bound.arguments['size']}"
        if name == "words.complexity" and REC.inside("decompose.cassaigne_decompose"):
            REC.add("decompose.complexity_calls", 1)
        sid = REC.open(span, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            REC.close(sid)
        if counter is not None:
            for key, n in counter(bound.arguments, result).items():
                REC.add(key, n)
        return result

    return traced


def instrument():
    """Rebind every public qsturm function, wherever a module holds it."""
    import qsturm

    modules = [qsturm] + [sys.modules[f"qsturm.{m}"] for m in LAYERS]
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"qsturm.{layer}"]
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = _wrap(obj, f"{layer}.{attr}", layer)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])


def _showwarning(message, category, filename, lineno, file=None, line=None):
    if issubclass(category, RuntimeWarning):
        REC.add(f"{REC.layer()}.runtime_warnings", 1)
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def main(argv):
    out_path, op_id, entry, op_argv = argv[0], int(argv[1]), argv[2], argv[3:]
    sys.meta_path.insert(0, _TimedFinder())
    t0 = time.perf_counter()
    # Import what qsturm imports first, so each module body span holds
    # qsturm's own code and not numpy's or the standard library's import.
    import argparse, dataclasses, hashlib, json, math, typing  # noqa: E401,F401
    import numpy  # noqa: F401
    import qsturm.cli  # noqa: F401
    REC.add("cli.import_s", time.perf_counter() - t0)
    instrument()
    warnings.showwarning = _showwarning
    if entry == "cli":
        code = sys.modules["qsturm.cli"].main(op_argv)
    else:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import libop
        code = libop.main(op_argv)
    sys.stdout.flush()
    spans = [s + [op_id] for s in REC.spans]
    with open(out_path, "w") as fh:
        json.dump({"op": op_id, "start": T_START, "end": time.perf_counter(),
                   "spans": spans, "counts": REC.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
