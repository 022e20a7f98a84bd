"""Command-line frontend.

Every run reads a JSON model file and emits self-describing CSV or JSON:
the header carries the model fingerprint and all effective parameters, so
identical (model, parameters, version) runs are byte-identical.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import sys
from typing import List, Optional

# The package registers these modules without running them; a command runs
# only the ones it reads an attribute of.
from . import __version__, decompose, errors, spectrum, tracemap, transfer, words


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class Output:
    def __init__(self, spec: words.ModelSpec, command: str, params: dict, fmt: str):
        self.meta = {
            "fingerprint": spec.fingerprint(),
            "command": command,
            "version": __version__,
            **{k: params[k] for k in sorted(params)},
        }
        self.fmt = fmt
        self.rows: List[List[str]] = []
        self.columns: List[str] = []
        self.extra: dict = {}

    def header(self, columns: List[str]):
        self.columns = columns

    def row(self, *cells):
        self.rows.append([c if isinstance(c, str) else _fmt(c) for c in cells])

    def render(self) -> str:
        if self.fmt == "json":
            return json.dumps(
                {"meta": self.meta, "columns": self.columns,
                 "rows": self.rows, **self.extra},
                indent=2, sort_keys=True,
            ) + "\n"
        lines = [f"# {k}={v}" for k, v in self.meta.items()]
        for k, v in sorted(self.extra.items()):
            lines.append(f"# {k}={json.dumps(v, sort_keys=True)}")
        if self.columns:
            lines.append(",".join(self.columns))
        lines.extend(",".join(r) for r in self.rows)
        return "\n".join(lines) + "\n"


def _load_spec(path: str) -> words.ModelSpec:
    with open(path) as fh:
        d = json.load(fh)
    try:
        return words.ModelSpec.from_json(d)
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError(f"{path}: malformed model ({type(e).__name__}: {e})") from None


def _emit(out: Output, out_path: Optional[str]):
    text = out.render()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(spec, args, out: Output):
    if args.levels is not None:
        primes = words.level_words_prime(spec, args.levels)
        base = words.sturmian_levels(spec.cf, args.levels)
        out.header(["n", "s_n", "s_prime_n"])
        for i in range(len(base)):
            out.row(str(i - 1), base[i].to_str(), primes[i].to_str())
    else:
        w = words.qs_prefix(spec, args.length, shift=args.shift)
        out.header(["sequence"])
        out.row(w.to_str())


def _cmd_complexity(spec, args, out: Output):
    if args.nmax < 1:
        raise ValueError(f"--nmax must be at least 1, got {args.nmax}")
    w = words.qs_prefix(spec, args.length, shift=args.shift)
    # detect_qs asks for the deeper factor index, which complexity then reuses;
    # a --nmax that does not fit the word still fails in complexity first.
    cls = decompose.detect_qs(w) if args.nmax < len(w) else None
    p = words.complexity(w, args.nmax)
    out.extra["classification"] = {"kind": cls.kind, "k": cls.k, "n0": cls.n0}
    out.header(["n", "p_n"])
    for i, pn in enumerate(p, start=1):
        out.row(str(i), str(pn))


def _cmd_decompose(spec, args, out: Output):
    if args.refine < 1:  # rotation_number's check, before the decomposition is paid for
        raise ValueError(f"refine must be >= 1, got {args.refine}")
    # The window, and the factor index memoised on it, go with the call.
    d = decompose.cassaigne_decompose(words.qs_prefix(spec, args.length, shift=args.shift))
    theta = decompose.rotation_number(d, refine=args.refine)
    out.extra["decomposition"] = decompose.decomposition_to_json(d)
    out.header(["theta"])
    out.row(theta)


_EPS = sys.float_info.epsilon


def _finite_cell(x: float) -> float | str:
    """x, or "unreliable" where its computation overflowed to inf or nan."""
    return x if math.isfinite(x) else "unreliable"


def _invariant_cell(t) -> float | str:
    """The invariant of a triple, or "unreliable" once the rounding error of
    its terms, about eps max(|x|, |y|, |z|)^3, reaches its size."""
    inv = tracemap.invariant(t)
    big = max(abs(t.x), abs(t.y), abs(t.z))
    return inv if _EPS * big * big * big < abs(inv) else "unreliable"


def _cmd_tracemap(spec, args, out: Output):
    if args.levels < 2:  # classify_orbit's bound, before the orbit is paid for
        raise ValueError(f"--levels must be at least 2, got {args.levels}")
    orbit = tracemap.orbit_trace(spec, args.energy, args.levels)
    verdict = tracemap.classify_orbit(spec, args.energy, args.levels)
    out.extra["verdict"] = {
        "kind": verdict.kind,
        "escape_step": verdict.escape_step,
        "sup_norm": verdict.sup_norm,
        "invariant": verdict.invariant,
    }
    out.header(["level", "x", "y", "z", "invariant", "in_escape"])
    for n, t in enumerate(orbit, start=1):
        escape = str(tracemap.in_escape(t)).lower() if all(map(math.isfinite, t)) else "unreliable"
        out.row(str(n), *map(_finite_cell, t), _invariant_cell(t), escape)


def _cmd_bands(spec, args, out: Output):
    bl = spectrum.periodic_bands(spec, args.level, tol=args.tol)
    out.extra.update(band_count=bl.band_count, dd_energies=bl.dd_energies, total_measure=bl.total_measure)
    out.header(["E_lo", "E_hi"])
    for lo, hi in bl.bands:
        out.row(lo, hi)


def _parse_nrange(s: str) -> List[int]:
    lo, _, hi = s.partition(":")
    try:
        return list(range(int(lo), int(hi) + 1))
    except ValueError:
        raise ValueError(f"--nrange must have the form LO:HI, got {s!r}") from None


def _cmd_spectrum(spec, args, out: Output):
    sweep = spectrum.stable_set(spec, grid=args.grid, n_levels=args.levels)
    rows = spectrum.measure_report(spec, _parse_nrange(args.nrange))
    out.extra["stable_bands"] = [[_fmt(lo), _fmt(hi)] for lo, hi in sweep.bands.bands]
    out.extra["stable_measure"] = sweep.bands.total_measure
    out.header(["n", "band_count", "total_measure"])
    for r in rows:
        out.row(str(r.n), str(r.band_count), r.total_measure)


def _cmd_lyapunov(spec, args, out: Output):
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    grid = transfer.energy_grid(spec, args.grid)
    gammas = transfer.lyapunov_many(spec, grid, args.length, shift=args.shift)
    out.extra["factors"] = transfer._window_product.products
    out.header(["E", "gamma"])
    for e, g in zip(grid, gammas):
        out.row(e, g)


def _cmd_gordon(spec, args, out: Output):
    squares = words.find_squares(spec, args.shift, args.nmax)
    out.header(["m", "n", "kind", "residual", "trace"])
    for sq in squares:
        res = transfer.gordon_residual(spec, args.energy, sq, shift=args.shift)
        out.row(str(sq[0]), str(sq[1]), sq[2], _finite_cell(res.residual), _finite_cell(res.trace))


def _cmd_alpha(spec, args, out: Output):
    g = transfer.growth_exponents(spec, args.energy, args.shift, args.lmax)
    out.extra["factors"] = transfer._window_product.products
    out.header(["gamma1", "gamma2", "alpha", "escaped"])
    out.row(g.gamma1, g.gamma2, g.alpha, str(g.escaped).lower())


# name -> (handler, {flag: add_argument keywords}); every command also takes
# the model path, --out and --format.
_COMMANDS = {
    "generate": (_cmd_generate, {
        "length": {"type": int, "default": 100},
        "shift": {"type": int, "default": 0},
        "levels": {"type": int, "default": None}}),
    "complexity": (_cmd_complexity, {
        "nmax": {"type": int, "default": 50},
        "length": {"type": int, "default": 100_000},
        "shift": {"type": int, "default": 0}}),
    "decompose": (_cmd_decompose, {
        "refine": {"type": int, "default": 20},
        "length": {"type": int, "default": 100_000},
        "shift": {"type": int, "default": 0}}),
    "tracemap": (_cmd_tracemap, {
        "energy": {"type": float, "required": True},
        "levels": {"type": int, "default": 30}}),
    "bands": (_cmd_bands, {
        "level": {"type": int, "required": True},
        "tol": {"type": float, "default": 1e-10}}),
    "spectrum": (_cmd_spectrum, {
        "grid": {"type": int, "default": 4000},
        "levels": {"type": int, "default": 30},
        "nrange": {"type": str, "default": "3:10"}}),
    "lyapunov": (_cmd_lyapunov, {
        "grid": {"type": int, "default": 200},
        "length": {"type": int, "default": 10_000},
        "shift": {"type": int, "default": 0}}),
    "gordon": (_cmd_gordon, {
        "energy": {"type": float, "required": True},
        "nmax": {"type": int, "default": 8},
        "shift": {"type": int, "default": 0}}),
    "alpha": (_cmd_alpha, {
        "energy": {"type": float, "required": True},
        "lmax": {"type": int, "default": 10_000},
        "shift": {"type": int, "default": 0}}),
}


def build_parser(argv: Optional[List[str]] = None) -> argparse.ArgumentParser:
    """The qsturm parser. When argv starts with a command only that command's
    subparser is built, and otherwise (help, --version, usage errors) all of
    them, so every help, usage and error text reads the same either way.
    """
    parser = argparse.ArgumentParser(prog="qsturm",
                                     description="Quasi-Sturmian potentials and their spectra")
    parser.add_argument("--version", action="version", version=f"qsturm {__version__}")
    names = argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    # With one subparser the usage line still lists every command; the
    # metavar is left unset otherwise, as errors about the command name it.
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    for name in names:
        func, flags = _COMMANDS[name]
        p = sub.add_parser(name)
        p.add_argument("spec_path", help="JSON model file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        for flag, kw in flags.items():
            p.add_argument(f"--{flag}", **kw)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # At exit the interpreter's collections traverse every live object only
    # to free memory the OS takes back anyway (12-16 ms of a call that loads
    # numpy); frozen objects are skipped. Once per process, whatever the
    # number of calls; the library leaves its host's exit alone.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        params = {
            k: v for k, v in vars(args).items()
            if k not in ("func", "command", "spec_path", "out") and v is not None
        }
        for k, v in params.items():
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"--{k} must be finite, got {v}")
        spec = _load_spec(args.spec_path)
        out = Output(spec, args.command, params, args.format)
        args.func(spec, args, out)
        _emit(out, args.out)
        return 0
    except (errors.QsturmError, OSError, ValueError, MemoryError) as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
