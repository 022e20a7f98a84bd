"""Command-line frontend: output shape, determinism, error handling."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import qsturm
from qsturm.cli import build_parser, main


FIB_MODEL = {
    "cf": {"coeffs": [], "periodic": [1]},
    "substitution": {"a": "a", "b": "b"},
    "prefix": "",
    "potential": {"a": 2.0, "b": 0.0},
}

DIGITS_MODEL = {
    "cf": {"coeffs": [3, 1, 4, 1, 5, 9, 2, 6], "periodic": [1]},
    "substitution": {"a": "a", "b": "b"},
    "prefix": "",
    "potential": {"a": 1.5, "b": 0.0},
}

FREE_MODEL = {
    "cf": {"coeffs": [], "periodic": [1]},
    "substitution": {"a": "a", "b": "b"},
    "prefix": "",
    "potential": {"a": 0.0, "b": 0.0},
    "allow_non_injective": True,
}


BENCH_MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"
# A band centre of each benchmark model's pool approximant, as the benchmark
# picks them, and energies off the spectrum whose solutions escape.
BENCH_CENTRES = {"fibonacci": 1.4525087579781024, "q5": 1.2990887900586154,
                 "digits": 0.37894771296405877, "prefixed": 0.6357801009742721}
# Energies where phi escapes; at fibonacci E = 50 before the fourth dyadic scale.
ESCAPING = {"fibonacci": [10.0, 20.0, 50.0], "q5": [0.5, -1.376], "digits": [5.0], "prefixed": [4.0]}
GORDON_NMAX = {"fibonacci": (10, 12), "q5": (10, 12), "digits": (6,), "prefixed": (10,)}


@pytest.fixture(scope="module")
def fib_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("models") / "fib.json"
    p.write_text(json.dumps(FIB_MODEL))
    return str(p)


@pytest.fixture(scope="module")
def free_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("models") / "free.json"
    p.write_text(json.dumps(FREE_MODEL))
    return str(p)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_sequence(fib_path, capsys):
    code, out, err = run(["generate", fib_path, "--length", "13"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[0].startswith("# fingerprint=")
    assert "abaababaabaab" in out


def test_generate_levels(fib_path, capsys):
    code, out, _ = run(["generate", fib_path, "--levels", "4"], capsys)
    assert code == 0
    assert any(line.startswith("4,abaab,") for line in out.splitlines())


def test_complexity_reports_classification(fib_path, capsys):
    code, out, _ = run(
        ["complexity", fib_path, "--length", "20000", "--nmax", "10"], capsys)
    assert code == 0
    assert '"kind": "sturmian"' in out
    assert out.splitlines()[-1] == "10,11"


def test_decompose_reports_theta(fib_path, capsys):
    code, out, _ = run(["decompose", fib_path, "--length", "20000"], capsys)
    assert code == 0
    theta = float(out.splitlines()[-1])
    assert abs(theta - 0.6180339887498949) < 1e-3


@pytest.mark.parametrize("refine", ["0", "-3"])
def test_decompose_rejects_refine_below_one(fib_path, refine, capsys):
    code, out, err = run(["decompose", fib_path, "--length", "2000", "--refine", refine], capsys)
    assert code == 1 and out == ""
    assert err == f"error: ValueError: refine must be >= 1, got {refine}\n"


def test_decompose_checks_refine_before_decomposing(fib_path, capsys, monkeypatch):
    # At the default --length the decomposition takes a good part of a
    # second; an invalid --refine is reported before any of it is done.
    def fail(*args, **kwargs):
        raise AssertionError("the window was built or decomposed before --refine was checked")

    monkeypatch.setattr("qsturm.words.qs_prefix", fail)
    monkeypatch.setattr("qsturm.decompose.cassaigne_decompose", fail)
    code, out, err = run(["decompose", fib_path, "--refine", "0"], capsys)
    assert code == 1 and out == ""
    assert err == "error: ValueError: refine must be >= 1, got 0\n"


def test_tracemap_free_energy_zero(free_path, capsys):
    code, out, _ = run(["tracemap", free_path, "--energy", "0"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith(("#", "level"))]
    assert rows
    for row in rows:
        assert abs(float(row[2])) <= 1.0 + 1e-12   # y column
        assert row[5] == "false"


def test_bands_free_model(free_path, capsys):
    code, out, _ = run(["bands", free_path, "--level", "1"], capsys)
    assert code == 0
    lo, hi = map(float, out.splitlines()[-1].split(","))
    assert abs(lo + 2.0) < 1e-8 and abs(hi - 2.0) < 1e-8


def test_bands_emit_no_runtime_warning(fib_path, tmp_path, capsys):
    # Off-spectrum level products overflow; the band test must absorb that
    # rather than let numpy warn on the terminal: the half traces that
    # overflow are recomputed in double-double, and those energies counted,
    # which at lambda = 16, levels 15 and 16, is needed for the right bands.
    digits_path = tmp_path / "digits.json"
    digits_path.write_text(json.dumps(DIGITS_MODEL))
    strong_path = tmp_path / "strong.json"
    strong_path.write_text(json.dumps(dict(FIB_MODEL, potential={"a": 16.0, "b": 0.0})))
    for path, level in ((str(digits_path), "6"), (fib_path, "14"),
                        (str(strong_path), "15"), (str(strong_path), "16")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(["bands", path, "--level", level], capsys)
        assert code == 0, err
        dd = next(int(line[14:]) for line in out.splitlines() if line.startswith("# dd_energies="))
        assert dd > 0 or path != str(strong_path), level


def test_tracemap_marks_unreliable_invariant(capsys):
    # On the escaping q5 orbit at E = 3.3 the invariant is cancellation from
    # level 5 on (383, 17592186044415, -1, nan when printed as a value).
    code, out, _ = run(["tracemap", str(BENCH_MODELS / "q5.json"), "--energy", "3.3"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith(("#", "level"))]
    assert len(rows) == 30 and all(len(r) == 6 for r in rows)
    assert [r[4] for r in rows[:4]] == ["336.93118348905517", "336.931183489055",
                                        "336.93118348903954", "336.93118286132812"]
    assert all(r[4] == "unreliable" for r in rows[4:])


@pytest.mark.parametrize("energy", ["1e200", "1e300"])
def test_tracemap_huge_energy_escapes_without_warning(energy, capsys):
    # The level matrices overflow at such an energy, so the orbit reads nan
    # and escapes at once; numpy must not warn on the terminal.
    argv = ["tracemap", str(BENCH_MODELS / "q5.json"), "--energy", energy, "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["verdict"]["kind"] == "escaped"


def _tracemap_rows(argv, capsys):
    code, out, _ = run(["tracemap", *argv], capsys)
    assert code == 0
    return [line.split(",") for line in out.splitlines()
            if line and not line.startswith(("#", "level"))]


@pytest.mark.parametrize("model,energy,first_overflow", [("fibonacci", "0.3", 16), ("q5", "1e200", 1)])
def test_tracemap_marks_overflowed_rows_unreliable(model, energy, first_overflow, capsys):
    # fibonacci at 0.3 escapes at level 2 and overflows from level 16 on; q5
    # at 1e200 overflows in the initial triple. No inf or nan is printed, and
    # an overflowed row claims no escape-set membership either way.
    rows = _tracemap_rows([str(BENCH_MODELS / f"{model}.json"), "--energy", energy], capsys)
    assert len(rows) == 30
    for n, row in enumerate(rows, start=1):
        cells = row[1:4]
        assert not {"inf", "-inf", "nan"} & set(row)
        if n < first_overflow:
            assert all(math.isfinite(float(c)) for c in cells) and row[5] in ("true", "false")
        else:
            assert "unreliable" in cells and row[5] == "unreliable"


def test_tracemap_large_coefficient_is_fast(tmp_path, capsys):
    # a_2 = 10^7: the level step costs O(log a_2) products, and the invariant
    # lambda^2 / 4 = 0.25 survives the U_{a-1}(y) of a 10^7-th power.
    model = dict(FIB_MODEL, cf={"coeffs": [1, 10_000_000], "periodic": [1]},
                 potential={"a": 1.0, "b": 0.0})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(model))
    rows = _tracemap_rows([str(path), "--energy", "0.3"], capsys)
    assert len(rows) == 30
    bounded = [float(r[4]) for r in rows if r[4] != "unreliable"]
    assert len(bounded) >= 9 and max(abs(i - 0.25) for i in bounded) <= 1e-9


def test_large_coefficient_band_grid_fails_with_one_line(tmp_path, capsys):
    # a_2 = 10^7: the O(p^2) band solve of level 2 (and of the default
    # --nrange 3:10) is refused before the level word is built, with one
    # line, not a MemoryError.
    model = dict(FIB_MODEL, cf={"coeffs": [1, 10_000_000], "periodic": [1]},
                 potential={"a": 1.0, "b": 0.0})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(model))
    for argv, p in ((["bands", str(path), "--level", "2"], 10_000_001),
                    (["spectrum", str(path)], 10_000_002)):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err == (f"error: LengthBudgetExceeded: {p} bands: p^2 = {p * p} "
                       f"exceeds budget 50000000\n"), argv


@pytest.mark.parametrize("model", sorted(BENCH_CENTRES))
def test_long_window_lyapunov_emits_no_runtime_warning(model, capsys):
    # the window product over the whole energy window, gaps far off the
    # spectrum included, at 10^6 sites
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["lyapunov", str(BENCH_MODELS / f"{model}.json"),
                              "--length", "1000000", "--shift", "7"], capsys)
    assert code == 0, err
    gammas = [float(line.split(",")[1]) for line in out.splitlines()
              if line and not line.startswith(("#", "E,"))]
    assert len(gammas) == 200 and all(math.isfinite(g) and g >= 0 for g in gammas)


@pytest.mark.parametrize("model", sorted(BENCH_CENTRES))
def test_transport_commands_emit_no_runtime_warning(model, capsys):
    path = str(BENCH_MODELS / f"{model}.json")
    E = repr(BENCH_CENTRES[model])
    argvs = [["lyapunov", path, "--length", "10000"],
             ["lyapunov", path, "--length", "1234", "--shift", "97", "--grid", "1"]]
    argvs += [["alpha", path, "--energy", repr(e), "--lmax", "30000"]
              for e in [BENCH_CENTRES[model]] + ESCAPING[model]]
    argvs += [["gordon", path, "--energy", E, "--nmax", str(n), "--shift", str(shift)]
              for n in GORDON_NMAX[model] for shift in (0, 97)]
    # and every other subcommand, at short lengths
    argvs += [["generate", path, "--length", "500", "--shift", "97"],
              ["generate", path, "--levels", "6"],
              ["complexity", path, "--length", "5000"],
              ["decompose", path, "--length", "5000"],
              ["tracemap", path, "--energy", E],
              ["tracemap", path, "--energy", "3.3"],
              ["bands", path, "--level", "6"],
              ["spectrum", path, "--grid", "400", "--levels", "12", "--nrange", "3:6"]]
    for argv in argvs:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(argv, capsys)
        # fibonacci at E = 50 escapes before four dyadic scales
        assert code == 0 or err.startswith("error: DegenerateFit"), (argv, err)


def test_gordon_marks_overflowed_cells(capsys):
    # Off the spectrum the block matrices overflow at the larger levels; such
    # cells print "unreliable" (they read inf and nan before), and the finite
    # cells print as values.
    cases = {("digits", "8"): {"7": ["unreliable", "1.5928840521929037e+151"],
                               "8": ["unreliable", "unreliable"]},
             ("q5", "12"): {"11": ["unreliable", "7.8652510526118505e+87"],
                            "12": ["unreliable", "1.6569326992531568e+142"]}}
    for (model, nmax), marked in cases.items():
        argv = ["gordon", str(BENCH_MODELS / f"{model}.json"), "--energy", "0.1", "--nmax", nmax]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(argv, capsys)
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()
                if line and not line.startswith(("#", "m,"))]
        assert {r[1]: r[3:] for r in rows if "unreliable" in r} == marked
        finite = [float(c) for r in rows if r[1] not in marked for c in r[3:]]
        assert finite and all(math.isfinite(c) for c in finite)
    assert rows[0] == ["0", "2", "composite", "4.5474735088646412e-13", "70.617594491141801"]


def test_lyapunov_output_grid(free_path, capsys):
    code, out, _ = run(
        ["lyapunov", free_path, "--grid", "5", "--length", "2000"], capsys)
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith(("#", "E,"))]
    assert len(rows) == 5


def test_transfer_commands_record_factors(tmp_path, capsys):
    # lyapunov reports the 2x2 products per energy of its window product, and
    # alpha the pair products of its windows up to each dyadic scale, one for
    # each lane of a call that folds the pieces side by side, with each
    # distinct level power and site run formed once. Each is the same on
    # every run.
    q5 = str(BENCH_MODELS / "q5.json")
    E = repr(BENCH_CENTRES["q5"])
    large = dict(json.loads((BENCH_MODELS / "fibonacci.json").read_text()), potential={"a": 1e7, "b": 0.0})
    (tmp_path / "large.json").write_text(json.dumps(large))
    cases = [
        (["lyapunov", q5, "--length", "16383"], ["# factors=31"]),
        # the products depend on the window, not on the grid
        (["lyapunov", q5, "--length", "16384", "--grid", "1"], ["# factors=32"]),
        (["lyapunov", q5, "--length", "100000"], ["# factors=40"]),
        (["lyapunov", q5, "--length", "100000", "--grid", "3"], ["# factors=40"]),
        (["lyapunov", q5, "--length", "100000", "--shift", "5"], ["# factors=56"]),
        (["alpha", q5, "--energy", E, "--lmax", "16383"], ["# factors=125"]),
        (["alpha", q5, "--energy", E, "--lmax", "100000"], ["# factors=172"]),
        # a potential past 10^7 adds no product: each one is rescaled
        (["lyapunov", str(tmp_path / "large.json"), "--length", "2000", "--grid", "5"], ["# factors=18"]),
    ]
    for argv, tail in cases:
        code, out, err = run(argv, capsys)
        assert code == 0, err
        meta = [line for line in out.splitlines() if line.startswith("#")]
        assert meta[-len(tail):] == tail and not meta[-len(tail) - 1].startswith(
            "# factors"), argv
        assert run(argv, capsys)[1] == out
    code, out, err = run(cases[-2][0] + ["--format", "json"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["factors"] == 172 and "segments" not in doc and "chunk" not in doc


def test_transfer_commands_take_hull_scale_windows(capsys):
    # lyapunov and alpha multiply Ostrowski level factors and build no word,
    # so the length budget of the word-building commands does not bound
    # their length or shift.
    q5, fib = str(BENCH_MODELS / "q5.json"), str(BENCH_MODELS / "fibonacci.json")
    cases = [(["lyapunov", q5, "--length", str(10**12), "--shift", str(10**15 - 1), "--grid", "3"],
              "# factors=104"),
             (["alpha", fib, "--energy", "0.5", "--lmax", str(2**40)], "# factors=854")]
    for argv, factors in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(argv, capsys)
        assert code == 0 and err == "", argv
        assert factors in out.splitlines(), argv
    code, out, err = run(["lyapunov", q5, "--shift", "-1"], capsys)
    assert (code, out, err) == (1, "", "error: ValueError: shift must be >= 0\n")
    # Past 10**300 sites gamma could read inf, or L fail to convert to a float.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["lyapunov", q5, "--length", str(10**309), "--grid", "3"], capsys)
    assert (code, out, err) == (1, "", "error: ValueError: lyapunov requires L <= 10**300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["alpha", fib, "--energy", "0.5", "--lmax", str(10**309)], capsys)
    assert (code, out, err) == (1, "", "error: ValueError: growth_exponents requires L_max <= 10**300\n")


@pytest.mark.parametrize("argv", [
    ["generate", "--length", "50000001"],
    ["generate", "--length", "1", "--shift", "50000000"],
    ["complexity", "--length", "50000001"],
    ["decompose", "--length", "2", "--shift", "49999999"],
], ids=["generate", "generate-shift", "complexity", "decompose"])
def test_word_building_commands_keep_the_length_budget(fib_path, argv, capsys):
    # The budget bounds a window's length: one symbol past it is refused
    # before any word is built, while a window past its end is built.
    code, out, err = run([argv[0], fib_path, *argv[1:]], capsys)
    if "--shift" not in argv:
        assert (code, out) == (1, "")
        assert err == "error: LengthBudgetExceeded: window length 50000001 exceeds budget 50000000\n"
    elif argv[0] == "generate":
        # c_theta[n], n = 5*10^7, from the convergent p/q = F_40/F_41 of the
        # golden mean: a where floor((n + 2) p/q) - floor((n + 1) p/q) is 1
        p, q, n = 102334155, 165580141, 50_000_000
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == ["sequence", "ab"[((n + 1) * p) // q - ((n + 2) * p) // q + 1]]
    else:
        # the two symbols are built and reach the decomposition, which needs more
        assert (code, out) == (1, "")
        assert err == "error: InconclusiveWindow: word of length 2 too short to classify\n"


@pytest.mark.parametrize("command,bound", [("generate", 4), ("decompose", 25)])
@pytest.mark.parametrize("model", ["fibonacci", "q5", "digits", "prefixed"])
def test_word_commands_bytes_per_symbol(command, bound, model, tmp_path):
    # Words take one byte per symbol and to_str gathers bytes: generate peaks
    # at 3.0-3.2 bytes per symbol (20.0 with int32 codes joined through an
    # object array), decompose at its factor-index build, 24.0 (27-32 with
    # int32 codes). A first call at 10^3 loads what the command reads.
    path, out, n = str(BENCH_MODELS / f"{model}.json"), str(tmp_path / "out.csv"), 10**6
    assert main([command, path, "--length", "1000", "--out", out]) in (0, 1)
    tracemalloc.start()
    try:
        code = main([command, path, "--length", str(n), "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= bound * n, peak / n


def test_gordon_rows(fib_path, capsys):
    code, out, _ = run(
        ["gordon", fib_path, "--energy", "0.1", "--nmax", "4"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith(("#", "m,"))]
    assert [r[1] for r in rows] == ["2", "3", "4"]
    for r in rows:
        assert float(r[3]) < 1e-8


def test_alpha_free(free_path, capsys):
    code, out, _ = run(["alpha", free_path, "--energy", "0", "--lmax", "20000"], capsys)
    assert code == 0
    g1, g2, alpha, escaped = out.splitlines()[-1].split(",")
    assert 0.4 < float(g1) <= float(g2) < 0.6
    assert 0.9 <= float(alpha) <= 1.0
    assert escaped == "false"


def test_spectrum_deterministic(fib_path, capsys, tmp_path):
    argv = ["spectrum", fib_path, "--grid", "400", "--levels", "12",
            "--nrange", "3:5"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"# fingerprint=")


def test_json_format(fib_path, capsys):
    code, out, _ = run(["bands", fib_path, "--level", "2", "--format", "json"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "bands"
    assert "fingerprint" in doc["meta"]
    assert doc["columns"] == ["E_lo", "E_hi"]


def test_missing_file_errors(capsys):
    code, out, err = run(["generate", "/nonexistent/model.json"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_parameter_errors(fib_path, capsys):
    code, _, err = run(["bands", fib_path, "--level", "0"], capsys)
    assert code == 1
    assert err.startswith("error: ValueError")


def test_invalid_json_errors(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(["bands", str(p), "--level", "1"], capsys)
    assert code == 1
    assert err.startswith("error: ")


_CF = '"cf": {"coeffs": [], "periodic": [1]}'
_SUBST = '"substitution": {"a": "a", "b": "b"}'
_POT = '"potential": {"a": 1.0, "b": 0.0}'


@pytest.mark.parametrize("body", [
    "{%s, %s}" % (_CF, _SUBST),                  # no potential
    "{%s, %s}" % (_SUBST, _POT),                 # no cf
    '{"cf": {}, %s, %s}' % (_SUBST, _POT),       # cf without coeffs
    "[1, 2]",                                    # not an object
    '{%s, "substitution": {"a": 5, "b": "b"}, %s}' % (_CF, _POT),  # image a number
], ids=["no-potential", "no-cf", "empty-cf", "list", "int-image"])
def test_malformed_model_errors(tmp_path, capsys, body):
    p = tmp_path / "bad.json"
    p.write_text(body)
    code, out, err = run(["bands", str(p), "--level", "3"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ValueError: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["generate"], ["bands", "--level", "3"]])
def test_unencodable_label_is_one_line(tmp_path, command, capsys):
    # Words are written as UTF-8 text. A lone surrogate, which JSON can
    # spell but UTF-8 cannot encode, fails every command at the header's
    # fingerprint.
    p = tmp_path / "surrogate.json"
    p.write_text('{%s, "substitution": {"a": "\\ud800", "b": "b"}, '
                 '"potential": {"\\ud800": 1.0, "b": 0.0}}' % _CF)
    code, out, err = run([command[0], str(p), *command[1:]], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: UnicodeEncodeError: ") and err.count("\n") == 1


def test_memory_error_is_one_line(fib_path, capsys, monkeypatch):
    # A failed allocation (a huge --grid or --level) is reported, not traced.
    def stable_set(*args, **kwargs):
        raise MemoryError("Unable to allocate 1 TiB")

    monkeypatch.setattr("qsturm.spectrum.stable_set", stable_set)
    code, out, err = run(["spectrum", fib_path], capsys)
    assert code == 1 and out == ""
    assert err == "error: MemoryError: Unable to allocate 1 TiB\n"


def _qsturm_env():
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qsturm.__file__)))


# Source defining LAYERS (the seven that perfbench/traced.py times) and
# run_layers(), the qsturm modules whose body has run. A module registered but
# not yet run is a LazyLoader module, whose type only subclasses ModuleType.
RUN_LAYERS = ("import sys, types\n"
              "LAYERS = {'cli', 'contfrac', 'words', 'decompose', 'tracemap', 'transfer', 'spectrum'}\n"
              "def run_layers():\n"
              "    return {m[7:] for m, mod in sys.modules.items()\n"
              "            if m.startswith('qsturm.') and type(mod) is types.ModuleType}\n")


def test_cli_import_leaves_scipy_unloaded():
    # qsturm depends on numpy alone: running every module loads no scipy.
    # from qsturm import * binds window unrun (no command module reads it at
    # import), so one read of it runs its body too.
    code = (RUN_LAYERS + "import qsturm.cli\nfrom qsturm import *\nwindow._dd_mul\n"
            "assert run_layers() >= {'errors', 'window'} | LAYERS, run_layers()\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n")
    subprocess.run([sys.executable, "-c", code], env=_qsturm_env(), check=True)


def test_commands_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call in numpy 2.x (it asks
    # np.ma.is_masked), about 16 ms of start-up that no qsturm array needs:
    # the band and eigenvalue searches sort their trials themselves.
    q5 = str(BENCH_MODELS / "q5.json")
    argvs = [["generate", q5, "--length", "50"],
             ["complexity", q5, "--length", "2000", "--nmax", "10"],
             ["decompose", q5, "--length", "2000"],
             ["tracemap", q5, "--energy", "0.5"],
             ["bands", q5, "--level", "6"],
             ["spectrum", q5, "--grid", "200", "--nrange", "3:5"],
             ["lyapunov", q5, "--grid", "5"],
             ["gordon", q5, "--energy", "0.1", "--nmax", "4"],
             ["alpha", q5, "--energy", "0.5"]]
    assert [a[0] for a in argvs] == list(qsturm.cli._COMMANDS)
    code = ("import json, sys\nfrom qsturm.cli import main\nfrom qsturm import ModelSpec, finite_eigenvalues\n"
            f"for argv in {argvs!r}:\n    assert main(argv) == 0, argv\n"
            f"spec = ModelSpec.from_json(json.load(open({q5!r})))\n"
            "assert len(finite_eigenvalues(spec, 0, 300)) == 300\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
    subprocess.run([sys.executable, "-c", code], env=_qsturm_env(), check=True, stdout=subprocess.DEVNULL)


# An atexit handler registered before qsturm.cli is imported runs after every
# handler the CLI registers (last in, first out) and reports what exit left:
# the calls to gc.freeze so far and the number of frozen objects.
EXIT_PROBE = ("import atexit, gc, os\n"
              "freezes, freeze = [], gc.freeze\n"
              "gc.freeze = lambda: freezes.append(1) or freeze()\n"
              "atexit.register(lambda: os.write(2, f'freezes={len(freezes)} frozen={gc.get_freeze_count()}\\n'.encode()))\n")


def _exit_report(code, *argv):
    """(stdout, exit status, the probe's last stderr line) of code run after EXIT_PROBE."""
    proc = subprocess.run([sys.executable, "-c", EXIT_PROBE + code, *argv], env=_qsturm_env(),
                          capture_output=True, text=True)
    return proc.stdout, proc.returncode, proc.stderr.splitlines()[-1]


def test_cli_run_freezes_its_heap_at_exit(bench_specs):
    # The shutdown collections then have nothing to traverse (12-16 ms of a
    # call that loads numpy). The interpreter flushes stdout after the atexit
    # handlers, so 10^5 symbols still come out whole.
    q5 = str(BENCH_MODELS / "q5.json")
    entry = "import sys; from qsturm.cli import main; sys.exit(main())"
    out, status, report = _exit_report(entry, "generate", q5, "--length", "100000")
    assert status == 0
    assert out.splitlines()[-2:] == ["sequence", qsturm.qs_prefix(bench_specs["q5"], 100000).to_str()]
    assert report.startswith("freezes=1 ") and int(report.split("frozen=")[1]) > 0, report
    # The hook is registered before the arguments are parsed.
    for argv, code in ((["--version"], 0), (["--help"], 0), (["generate"], 2), (["bands", q5], 2)):
        _, status, report = _exit_report(entry, *argv)
        assert status == code and report.startswith("freezes=1 "), (argv, report)


def test_library_calls_leave_the_exit_alone():
    # Only the CLI freezes: a host that imports qsturm keeps its own exit.
    q5 = str(BENCH_MODELS / "q5.json")
    code = ("import json, qsturm\nfrom qsturm import ModelSpec, finite_eigenvalues, periodic_bands\n"
            f"spec = ModelSpec.from_json(json.load(open({q5!r})))\n"
            "assert periodic_bands(spec, 6).band_count > 0\n"
            "assert len(finite_eigenvalues(spec, 0, 300)) == 300\n")
    _, status, report = _exit_report(code)
    assert status == 0 and report == "freezes=0 frozen=0", report


def test_repeated_main_registers_one_freeze():
    # Tests call main() many times in one process; exit freezes once.
    q5 = str(BENCH_MODELS / "q5.json")
    code = ("from qsturm.cli import main\n"
            f"for argv in [['generate', {q5!r}, '--length', '5']] * 5 + [['tracemap', {q5!r}, '--energy', '0.5']]:\n"
            "    assert main(argv) == 0\n")
    out, status, report = _exit_report(code)
    assert status == 0 and out.count("# command=generate") == 5
    assert report.startswith("freezes=1 "), report


def _generate_q5(before="", after="", argv=None):
    """stdout of `qsturm generate` on q5 (or of argv) in a fresh interpreter,
    with Python statements run before the call and after it."""
    code = (f"{before}import sys; from qsturm.cli import main\n"
            f"try:\n    status = main(sys.argv[1:])\nexcept SystemExit as e:\n    status = e.code\n"
            f"{after}sys.exit(status)")
    argv = argv or ["generate", str(BENCH_MODELS / "q5.json"), "--length", "20"]
    return subprocess.run([sys.executable, "-c", code, *argv], env=_qsturm_env(), check=True,
                          capture_output=True, text=True).stdout


def test_generate_leaves_openssl_unloaded():
    # The fingerprint in every header is SHA-256 from the interpreter's own
    # module, so no CLI call maps OpenSSL's libcrypto through hashlib.
    _generate_q5(after="assert '_hashlib' not in sys.modules, '_hashlib imported'; ")


def test_fingerprint_falls_back_to_hashlib():
    # An interpreter without _sha2 (3.12+) or _sha256 (3.10, 3.11) takes
    # hashlib's SHA-256, and prints the same header.
    fallback = _generate_q5("import hashlib, sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
                            "import qsturm.words; assert qsturm.words.sha256 is hashlib.sha256; ")
    assert fallback.startswith("# fingerprint=")
    assert fallback == _generate_q5()


def test_cli_import_constructs_no_dataclass():
    # Every CLI call imports qsturm.cli, which registers every layer in
    # sys.modules (perfbench/traced.py reads them there) and runs none of them.
    # The records are NamedTuples, far cheaper to build than frozen dataclasses.
    code = (RUN_LAYERS + "import qsturm.cli\n"
            "missing = LAYERS - {m[7:] for m in sys.modules if m.startswith('qsturm.')}\n"
            "assert not missing, missing\n"
            "assert run_layers() == {'cli'}, run_layers()\n"
            "from qsturm import *\n"
            "assert 'dataclasses' not in sys.modules, 'dataclasses imported'\n")
    subprocess.run([sys.executable, "-c", code], env=_qsturm_env(), check=True)
    # --version loads no numpy and runs no layer.
    _generate_q5(RUN_LAYERS, "assert 'numpy' not in sys.modules and run_layers() == {'cli'}, run_layers(); ",
                 argv=["--version"])
    # generate runs words, contfrac and errors only.
    assert _generate_q5(RUN_LAYERS, "assert run_layers() == {'cli', 'contfrac', 'errors', 'words'}, run_layers(); ")


def test_spectral_commands_run_only_the_modules_they_call():
    # bands reads neither tracemap (the classifier of stable_set) nor window
    # (the double-double fallback of a half trace that overflows, which q5 at
    # level 8 never does); gordon and tracemap multiply in double alone, and
    # finite_eigenvalues needs the Sturm counts of transfer only.
    q5 = str(BENCH_MODELS / "q5.json")
    base = {"cli", "contfrac", "errors", "words", "transfer"}
    for argv, layers in [(["bands", q5, "--level", "8"], base | {"spectrum"}),
                         (["tracemap", q5, "--energy", "0.5"], base | {"tracemap"}),
                         (["gordon", q5, "--energy", "0.1", "--nmax", "4"], base)]:
        _generate_q5(RUN_LAYERS, f"assert run_layers() == {layers!r}, run_layers(); ", argv=argv)
    code = (RUN_LAYERS + "import json\nfrom qsturm import ModelSpec, finite_eigenvalues\n"
            f"spec = ModelSpec.from_json(json.load(open({q5!r})))\n"
            "assert len(finite_eigenvalues(spec, 0, 300)) == 300\n"
            "assert run_layers() == {'contfrac', 'errors', 'words', 'transfer', 'spectrum'}, run_layers()\n")
    subprocess.run([sys.executable, "-c", code], env=_qsturm_env(), check=True)


def test_nonfinite_potential_is_one_line(tmp_path, capsys):
    # json reads Infinity and NaN; unchecked, bands fails in the Sturm
    # chunking after a RuntimeWarning and lyapunov runs on with warnings.
    for value in ("Infinity", "NaN", "1e308"):
        path = tmp_path / f"{value}.json"
        path.write_text(json.dumps(FIB_MODEL).replace('"a": 2.0', f'"a": {value}'))
        for argv in (["bands", str(path), "--level", "5"], ["lyapunov", str(path), "--grid", "3"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, out, err = run(argv, capsys)
            assert code == 1 and out == "", argv
            assert len(err.splitlines()) == 1 and err.startswith("error: ValueError: potential value "
                                                                  "for symbol 'a' must be finite"), err


PUBLIC_NAMES = """
    BandList ContinuedFraction Decomposition GrowthExponents ModelSpec OrbitVerdict RauzyGraph
    SolutionSegment Substitution TraceTriple Word approximants cassaigne_decompose
    characteristic_prefix chebyshev classify_orbit complexity contfrac decompose density_score
    detect_qs errors expand find_squares finite_eigenvalues generators gordon_residual
    growth_exponents in_escape initial_triple invariant level_matrices level_words_prime
    local_matrix local_norm lyapunov measure_report orbit_trace palindrome_split periodic_bands
    qs_prefix rauzy_graph reflect reflect_subst rotation_number solve special_factors spectrum
    stable_set step sturmian_levels substitute tracemap transfer value window word_matrix words
"""


def test_package_keeps_its_public_names():
    # The public names resolve lazily through __getattr__; __all__ and
    # __dir__ list the same names that the package's eager imports once gave.
    names = sorted(PUBLIC_NAMES.split())
    assert qsturm.__all__ == names
    assert [n for n in dir(qsturm) if not n.startswith("_")] == names
    star = {}
    exec("from qsturm import *", star)
    assert sorted(k for k in star if k != "__builtins__") == names
    with pytest.raises(AttributeError):
        qsturm.no_such_name


# ---------------------------------------------------------------- the parser

COMMAND_FLAGS = {
    "generate": ["--length", "--shift", "--levels"],
    "complexity": ["--nmax", "--length", "--shift"],
    "decompose": ["--refine", "--length", "--shift"],
    "tracemap": ["--energy", "--levels"],
    "bands": ["--level", "--tol"],
    "spectrum": ["--grid", "--levels", "--nrange"],
    "lyapunov": ["--grid", "--length", "--shift"],
    "gordon": ["--energy", "--nmax", "--shift"],
    "alpha": ["--energy", "--lmax", "--shift"],
}
REQUIRED_FLAG = {"tracemap": "--energy", "bands": "--level", "gordon": "--energy", "alpha": "--energy"}
CHOICES = "{" + ",".join(COMMAND_FLAGS) + "}"


def exit_code(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out = capsys.readouterr()
    return info.value.code, out.out, out.err


def test_help_lists_every_command(capsys):
    code, out, _ = exit_code(["--help"], capsys)
    assert code == 0
    assert out.startswith("usage: qsturm [-h] [--version]")
    assert CHOICES in out


@pytest.mark.parametrize("argv", [[], ["nosuch"], ["nosuch", "model.json"]])
def test_no_or_unknown_command_lists_every_choice(argv, capsys):
    code, out, err = exit_code(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage: qsturm [-h] [--version]") and CHOICES in err
    if argv:
        assert "invalid choice: 'nosuch' (choose from " in err
        assert all(f"'{c}'" in err for c in COMMAND_FLAGS)
    else:
        assert "the following arguments are required: command" in err


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_command_help_names_its_flags(command, capsys):
    code, out, _ = exit_code([command, "--help"], capsys)
    assert code == 0
    assert out.startswith(f"usage: qsturm {command} [-h]")
    for flag in COMMAND_FLAGS[command] + ["spec_path", "--out", "--format"]:
        assert flag in out, flag


@pytest.mark.parametrize("command", sorted(REQUIRED_FLAG))
def test_missing_required_flag_is_a_usage_error(command, fib_path, capsys):
    code, out, err = exit_code([command, fib_path], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: qsturm {command} ")
    assert err.endswith(f"error: the following arguments are required: {REQUIRED_FLAG[command]}\n")


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_one_subparser_reads_like_all_of_them(command, capsys):
    # argv naming a command builds that subparser alone; usage and help read
    # as they do with all nine built.
    alone, full = build_parser([command]), build_parser()
    assert alone.format_usage() == full.format_usage()
    assert CHOICES in alone.format_usage()
    texts = []
    for parser in (alone, full):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    other = "bands" if command != "bands" else "alpha"
    with pytest.raises(SystemExit):
        alone.parse_args([other, "model.json"])
    assert f"(choose from '{command}')" in capsys.readouterr().err


def test_unrecognized_argument_after_command_shows_full_usage(fib_path, capsys):
    code, _, err = exit_code(["bands", fib_path, "--level", "3", "--bogus"], capsys)
    assert code == 2
    assert err.startswith("usage: qsturm [-h] [--version]") and CHOICES in err
    assert err.endswith("qsturm: error: unrecognized arguments: --bogus\n")


# Inputs a command cannot give a meaningful answer for: each fails with
# exit 1 and one line on stderr, before any numpy arithmetic runs.
INVALID = [
    (["tracemap", "--energy", "nan"], "--energy must be finite, got nan"),
    (["tracemap", "--energy", "inf"], "--energy must be finite, got inf"),
    (["tracemap", "--energy", "1", "--levels", "0"], "--levels must be at least 2, got 0"),
    (["tracemap", "--energy", "1", "--levels", "1"], "--levels must be at least 2, got 1"),
    (["gordon", "--energy", "inf"], "--energy must be finite, got inf"),
    (["alpha", "--energy=-inf"], "--energy must be finite, got -inf"),
    (["bands", "--level", "3", "--tol", "nan"], "--tol must be finite, got nan"),
    (["bands", "--level", "3", "--tol", "inf"], "--tol must be finite, got inf"),
    (["lyapunov", "--grid", "0"], "--grid must be at least 1, got 0"),
    (["lyapunov", "--grid", "-3"], "--grid must be at least 1, got -3"),
    (["complexity", "--nmax", "0"], "--nmax must be at least 1, got 0"),
    (["complexity", "--nmax", "-5"], "--nmax must be at least 1, got -5"),
    (["spectrum", "--nrange", "3"], "--nrange must have the form LO:HI, got '3'"),
    (["spectrum", "--nrange", "3:x"], "--nrange must have the form LO:HI, got '3:x'"),
    (["spectrum", "--nrange", ":5"], "--nrange must have the form LO:HI, got ':5'"),
]


@pytest.mark.parametrize("argv, message", INVALID, ids=[" ".join(a) for a, _ in INVALID])
def test_invalid_inputs_are_rejected(argv, message, fib_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run([argv[0], fib_path] + argv[1:], capsys)
    assert code == 1 and out == ""
    assert err == f"error: ValueError: {message}\n"
