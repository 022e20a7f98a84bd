"""qsturm benchmark: closed-loop CLI workloads with oracle-checked outputs.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/qsturm).
Every op is a fresh interpreter running qsturm from src/, as a CLI user would
run `qsturm <subcommand> ...`; one client issues the ops of a pass one after
another. Passes repeat until --seconds is used up (at least MIN_PASSES).
Outputs are kept per pass and checked against the oracles in checks.py
after the last pass, in a separate process: this script never imports numpy,
so the op processes it starts do not inherit a large max-RSS from it.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes (traced.py records spans around every public qsturm function)
and reports the per-layer metrics plus the tracing overhead. A report and
the spans are written under perfbench/out/. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The console script `qsturm` is exactly this entry point.
CLI_ENTRY = "import sys; from qsturm.cli import main; sys.exit(main())"
# Machine-speed yardstick: a bare interpreter start, timed before every op and
# set-up launch and once after the last. Times are reported in reference-speed
# seconds: measured seconds x REF_S / r, where r is the median of the three
# reference times nearest the launch (before the previous one, before it,
# after it) and REF_S is the typical reference time on this machine. On a
# shared 2-core host whose speed drifts by up to 2x, this cut the run-to-run
# spread (IQR / median) of a pass's time from about 0.2-0.3 to about 0.06.
# Raw seconds are kept in the report.
REF_CMD = [sys.executable, "-c", "pass"]
REF_S = 0.05
# Single-threaded numerics: two cores are shared with the benchmark itself.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_LAUNCHES = 7
MIN_PASSES = 3
OP_TIMEOUT_S = 60.0
# No new pass starts after this much of the run; keeps a run under 180 s.
HARD_LIMIT_S = 110.0
LAYERS = ("cli", "contfrac", "words", "decompose", "tracemap", "transfer", "spectrum")

# Per-layer metrics reported with --trace 1. Self times are per layer (module)
# plus the few functions every workload calls, so that no metric is a
# constant 0 on a workload that never enters a layer's other functions; the
# per-function self times of all functions are printed and kept in the report.
SELF_TIMES = ["cli.self_s"] + [f"{layer}.self_s" for layer in LAYERS[1:]] + [
    "words.qs_prefix.self_s", "words.substitute.self_s", "words.level_words_prime.self_s"]
COUNTS = [
    "contfrac.calls", "words.qs_prefix.symbols", "words.complexity.symbols",
    "tracemap.classify_many.energy_levels", "transfer.half_traces_many.energies",
    "transfer.lyapunov_many.site_energies", "transfer.growth_exponents.sites",
    "spectrum.periodic_bands.bands_found", "spectrum.stable_set.bounded_cells",
] + [f"{layer}.runtime_warnings" for layer in LAYERS]

# The metrics of the last stdout line, as named in BENCHMARK.json. The other
# end-to-end figures (error_rate, runtime_warnings, band_recall, ...) are
# printed above it: they are 0 on some workloads or apply to one only.
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"cli.import_s": "s", **{k: "s" for k in SELF_TIMES}, "cli.output_bytes": "bytes",
                   **{k: "count" for k in COUNTS}, "decompose.complexity_calls": "count",
                   "spectrum.periodic_bands.bands_missed": "count",
                   "spectrum.energies_per_band": "count",
                   "trace.wall_s": "s", "trace.overhead_s": "s"}

# The keys of workloads.WORKLOADS, which this script cannot import (it pulls
# in numpy); test_oracles.py checks that the two agree.
WORKLOADS = ("spectral", "transport", "recognition")


@dataclass
class OpRun:
    index: int
    seconds: float
    returncode: int
    rss_mb: float
    scaled: float = 0.0
    out_bytes: int = 0
    warnings: int = 0
    ok: bool = False
    message: str = ""
    info: Dict[str, float] = field(default_factory=dict)
    trace: Optional[dict] = None


@dataclass
class Pass:
    traced: bool
    runs: List[OpRun]
    refs: List[float]

    @property
    def wall(self) -> float:
        """One client doing the pass's ops back to back, reference-speed seconds."""
        return sum(r.scaled for r in self.runs)

    @property
    def raw_wall(self) -> float:
        return sum(r.seconds for r in self.runs)


def scaled(seconds: List[float], refs: List[float]) -> List[float]:
    """Reference-speed seconds; refs[i] precedes launch i, refs[-1] follows the last."""
    return [t * REF_S / statistics.median(refs[max(0, i - 1):i + 2]) for i, t in enumerate(seconds)]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def launch(cmd: List[str], env, out_path: Optional[Path] = None, err_path: Optional[Path] = None):
    """Run cmd to completion; (seconds from launch to exit, exit code, max RSS MB).

    Output goes to the given files, or is discarded. os.wait4 reaps the child
    so that its own resource usage can be read.
    """
    with contextlib.ExitStack() as files:
        out, err = (files.enter_context(open(p, "wb")) if p else subprocess.DEVNULL
                    for p in (out_path, err_path))
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def op_command(op, traced: bool, spans_path: Path, index: int) -> List[str]:
    if traced:
        return [sys.executable, str(HERE / "traced.py"), str(spans_path), str(index),
                op.entry] + op.argv
    if op.entry == "lib":
        return [sys.executable, str(HERE / "libop.py")] + op.argv
    return [sys.executable, "-c", CLI_ENTRY] + op.argv


def reference(env) -> float:
    """Seconds for one bare interpreter start, the machine-speed yardstick."""
    return launch(REF_CMD, env)[0]


def run_pass(ops, env, traced: bool, pass_dir: Path) -> Pass:
    pass_dir.mkdir(parents=True)
    runs, refs = [], []
    for i, op in enumerate(ops):
        refs.append(reference(env))
        cmd = op_command(op, traced, pass_dir / f"op{i}.spans.json", i)
        seconds, code, rss = launch(cmd, env, pass_dir / f"op{i}.out", pass_dir / f"op{i}.err")
        runs.append(OpRun(i, seconds, code, rss))
    refs.append(reference(env))
    for run, t in zip(runs, scaled([r.seconds for r in runs], refs)):
        run.scaled = t
    for run in runs:
        stderr = (pass_dir / f"op{run.index}.err").read_text()
        run.out_bytes = (pass_dir / f"op{run.index}.out").stat().st_size
        run.warnings = stderr.count("RuntimeWarning")
        if run.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            run.message = f"exit {run.returncode}: {tail[0][:200]}"
        spans = pass_dir / f"op{run.index}.spans.json"
        if traced and spans.exists():
            run.trace = json.loads(spans.read_text())
    return Pass(traced, runs, refs)


def helper(mode: str, args, *extra: str):
    """Run checks.py (plan or verify) in its own process and parse its JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "checks.py"), mode, args.workload,
                           str(args.seed), *extra], cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"checks.py {mode} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def nearest_rank(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile leaving >= 10 of MIN_PASSES passes' samples beyond it."""
    n = MIN_PASSES * ops_per_pass
    return math.floor(100.0 * (n - 10) / n)


def end_to_end(passes: List[Pass], setup: List[float], setup_raw: List[float],
               n_ops: int) -> dict:
    """The end-to-end metrics; times in reference-speed seconds (see REF_S)."""
    lat = [r.scaled for p in passes for r in p.runs]
    raw_lat = [r.seconds for p in passes for r in p.runs]
    runs = [r for p in passes for r in p.runs]
    bands = [r.info for r in runs if "expected" in r.info]
    pct = tail_percentile(n_ops)
    raw = f"raw {statistics.median(p.raw_wall for p in passes):.4g} s"
    m = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh `qsturm --version`; "
                    f"raw {statistics.median(setup_raw):.4g} s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s",
                   f"median of {len(passes)} passes; {raw}"),
        "op_p50_s": (statistics.median(lat), "s",
                     f"median of {len(lat)} ops; raw {statistics.median(raw_lat):.4g} s"),
        "op_tail_s": (nearest_rank(lat, pct), "s",
                      f"p{pct} of {len(lat)} ops; raw {nearest_rank(raw_lat, pct):.4g} s"),
        "peak_rss_mb": (statistics.median(max(r.rss_mb for r in p.runs) for p in passes), "MB",
                        "median over passes of the largest op max-RSS"),
        "error_rate": (sum(not r.ok for r in runs) / len(runs), "ratio",
                       f"{sum(not r.ok for r in runs)} of {len(runs)} ops failed"),
        "runtime_warnings": (statistics.median(
            sum(r.warnings for r in p.runs) for p in passes), "count",
            "numpy RuntimeWarnings on op stderr per pass"),
        "reference_s": (statistics.median(x for p in passes for x in p.refs), "s",
                        f"raw bare interpreter start; REF_S = {REF_S} s"),
    }
    for key, what in (("trace_err", "half traces"), ("residual_err", "Cayley-Hamilton residuals")):
        errs = [r.info[key] for r in runs if key in r.info]
        if errs:
            m[key] = (max(errs), "ratio", f"worst of {what} against a 40-digit product")
    if bands:
        found = sum(b["found"] for b in bands)
        expected = sum(b["expected"] for b in bands)
        m["band_recall"] = (found / expected, "ratio", f"{found} of {expected} Floquet bands")
        m["band_measure_err"] = (max(abs(b["measure"] - b["oracle_measure"]) / b["oracle_measure"]
                                     for b in bands), "ratio", "largest relative measure error")
    return m


def self_times(trace: dict) -> Dict[str, float]:
    """Self time per span name: duration minus the time its child spans cover."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, float] = {}
    for (name, layer, start, end, parent, _), c in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - c
    return out


def per_layer_pass(p: Pass) -> Dict[str, float]:
    """Self times summed per layer function, and counts, over one traced pass.

    Keys "fn:<span>" and "calls:<span>" hold the per-function detail for the
    report; the other keys are the per-layer metrics. A layer's self time
    includes the execution of its module body at import.
    """
    fn_self: Dict[str, float] = {}
    fn_calls: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    for run in p.runs:
        if run.trace is None:
            continue
        scale = run.scaled / run.seconds
        for name, s in self_times(run.trace).items():
            fn_self[name] = fn_self.get(name, 0.0) + s * scale
        for span in run.trace["spans"]:
            fn_calls[span[0]] = fn_calls.get(span[0], 0) + 1
        for k, v in run.trace["counts"].items():
            counts[k] = counts.get(k, 0) + (v * scale if k == "cli.import_s" else v)
    m: Dict[str, float] = {name: 0.0 for name in SELF_TIMES + COUNTS}
    m.update(counts)
    for name, s in fn_self.items():
        m[f"{name.split('.')[0]}.self_s"] += s
        m[f"fn:{name}"] = s
    for name in ("words.qs_prefix", "words.substitute", "words.level_words_prime"):
        m[f"{name}.self_s"] = fn_self.get(name, 0.0)
    m["contfrac.calls"] = sum(c for n, c in fn_calls.items()
                              if n.startswith("contfrac.") and not n.endswith(".import"))
    m["cli.output_bytes"] = sum(r.out_bytes for r in p.runs)
    decomposes = fn_calls.get("decompose.cassaigne_decompose", 0)
    m["decompose.complexity_calls"] = counts.get("decompose.complexity_calls", 0) / max(decomposes, 1)
    found = counts.get("spectrum.periodic_bands.bands_found", 0)
    m["spectrum.periodic_bands.bands_missed"] = (
        counts.get("spectrum.periodic_bands.bands_expected", 0) - found)
    m["spectrum.energies_per_band"] = counts.get("spectrum.periodic_bands.energies", 0) / max(found, 1)
    m.update({f"calls:{name}": c for name, c in fn_calls.items()})
    return m


def metadata(env, probe: dict) -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "blas_threads": {v: env[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


PROBE = """
import json, numpy, qsturm
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except Exception:
    blas = "unknown"
print(json.dumps({"qsturm": qsturm.__file__, "numpy": numpy.__version__, "blas": blas}))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qsturm" / "cli.py").is_file():
        sys.stderr.write(f"error: no qsturm sources under {ROOT / 'src'}; "
                         "run from a full source checkout\n")
        return 2
    env = child_env()
    # Also the warm-up: the first import compiles src/ to bytecode.
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0 or not Path(json.loads(probe.stdout)["qsturm"]).is_relative_to(ROOT / "src"):
        sys.stderr.write(f"error: qsturm does not import from {ROOT / 'src'}: "
                         f"{(probe.stdout + probe.stderr).strip()[-300:]}\n")
        return 2

    t_start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    for old in OUT.glob("pass*"):
        shutil.rmtree(old)
    plan = helper("plan", args)
    ops = [argparse.Namespace(**op) for op in plan["ops"]]
    meta = metadata(env, json.loads(probe.stdout))

    setup_raw, setup_refs = [], []
    for _ in range(SETUP_LAUNCHES):
        setup_refs.append(reference(env))
        setup_raw.append(launch([sys.executable, "-c", CLI_ENTRY, "--version"], env,
                                OUT / "setup.out", OUT / "setup.err")[0])
    setup_refs.append(reference(env))
    setup = scaled(setup_raw, setup_refs)

    passes: List[Pass] = []
    modes = (False, True) if args.trace else (False,)
    t0 = time.perf_counter()
    while True:
        for traced in modes:
            passes.append(run_pass(ops, env, traced, OUT / f"pass{len(passes)}"))
        elapsed = time.perf_counter() - t0
        rounds = len(passes) // len(modes)
        if elapsed > HARD_LIMIT_S or (rounds >= (1 if args.trace else MIN_PASSES)
                                      and elapsed * (rounds + 1) / rounds > args.seconds):
            break

    verdicts = helper("verify", args, *(str(OUT / f"pass{k}") for k in range(len(passes))))
    for p, pass_verdicts in zip(passes, verdicts):
        for run, v in zip(p.runs, pass_verdicts):
            if run.returncode == 0:
                run.ok, run.message, run.info = v["ok"], v["message"], v["info"]

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    runs = [r for p in passes for r in p.runs]
    failed = sum(not r.ok for r in runs)
    e2e = end_to_end(plain, setup, setup_raw, len(ops))

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"why: {plan['why']}")
    print("meta: " + " ".join(f"{k}={json.dumps(v)}" for k, v in meta.items()))
    print(f"ops/pass={len(ops)} passes={len(plain)} untraced + {len(traced)} traced; "
          f"attempted={len(runs)} failed={failed}; run took {time.perf_counter() - t_start:.1f}s")
    for r, op in zip(passes[0].runs, ops):
        print(f"  op {r.index:2d} {r.seconds:7.3f}s {r.rss_mb:6.1f}MB "
              f"{'ok  ' if r.ok else 'FAIL'} {op.label}")
    for p in passes:
        for r, op in zip(p.runs, ops):
            if not r.ok:
                print(f"  FAILED {op.label}: {r.message}")
    print("end to end (untraced):")
    for name, (value, unit, how) in e2e.items():
        print(f"  {name:18s} {fmt(value):>12s} {unit:6s} {how}")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "meta": meta,
              "why": plan["why"], "ops": [op.label for op in ops],
              "end_to_end": {k: {"value": v[0], "unit": v[1], "how": v[2]} for k, v in e2e.items()},
              "setup_s": {"raw": setup_raw, "reference_s": setup_refs},
              "passes": [{"traced": p.traced, "wall_s": p.wall, "raw_wall_s": p.raw_wall,
                          "ops_s": [r.seconds for r in p.runs], "reference_s": p.refs}
                         for p in passes]}

    if args.trace:
        layer = [per_layer_pass(p) for p in traced]
        keys = sorted(set().union(*layer))
        med = {k: statistics.median(d.get(k, 0.0) for d in layer) for k in keys}
        t_wall = statistics.median(p.wall for p in traced)
        u_wall = statistics.median(p.wall for p in plain)
        med["trace.wall_s"] = t_wall
        med["trace.overhead_s"] = t_wall - u_wall
        print(f"traced: wall {t_wall:.4f}s vs untraced {u_wall:.4f}s, "
              f"overhead {t_wall - u_wall:+.4f}s ({100 * (t_wall / u_wall - 1):+.1f}%)")
        print("self time per layer function (s, summed per pass) and calls:")
        fns = sorted((k[3:] for k in keys if k.startswith("fn:")), key=lambda n: -med["fn:" + n])
        for n in fns:
            print(f"  {n:42s} {med['fn:' + n]:10.5f} s  {int(med.get('calls:' + n, 0)):7d} calls")
        print("per-layer metrics:")
        names = [k for k in keys if ":" not in k] + ["trace.wall_s", "trace.overhead_s"]
        for k in names:
            print(f"  {k:42s} {fmt(med[k]):>14s}")
        metrics = {k: {"value": med[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}
        report["per_layer"] = {k: med[k] for k in keys}
        spans = [{"pass": i, "op": r.index, "spans": r.trace["spans"], "counts": r.trace["counts"]}
                 for i, p in enumerate(traced) for r in p.runs if r.trace]
        (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in END_TO_END}

    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
