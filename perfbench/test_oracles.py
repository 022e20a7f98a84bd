"""Tests of the benchmark's oracles against closed forms and hand results,
and of the checks against deliberately corrupted outputs.

Run with: python3 -m pytest perfbench/test_oracles.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import oracle
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def model(name):
    return oracle.Model.load(HERE / "models" / f"{name}.json")


def recursive_level_word(m, n):
    """s_n by its defining recursion, independent of the mechanical formula."""
    levels = ["a", "b", "b" * (m.coefficient(1) - 1) + "a"]
    for k in range(2, n + 1):
        levels.append(levels[-1] * m.coefficient(k) + levels[-2])
    return levels[n + 1]


@pytest.mark.parametrize("p", [1, 2, 5, 13])
def test_free_bands_fill_minus_two_two(p):
    bands = oracle.floquet_bands(np.zeros(p))
    assert len(bands) == p
    assert bands[0, 0] == pytest.approx(-2.0, abs=1e-12)
    assert bands[-1, 1] == pytest.approx(2.0, abs=1e-12)
    # V = 0 has no gaps: consecutive bands touch.
    assert np.allclose(bands[1:, 0], bands[:-1, 1], atol=1e-12)


@pytest.mark.parametrize("E", [-3.5, 2.2, 3.0, 6.0])
def test_free_lyapunov_is_arccosh(E):
    gamma = oracle.lyapunov(np.zeros(20_000), E)
    assert gamma == pytest.approx(math.acosh(abs(E) / 2.0), abs=5e-4)


def test_fibonacci_sigma_1_and_2_by_hand():
    fib = model("fibonacci")
    # s_1 = a: period 1, V = 2, so |E - 2| <= 2.
    assert np.allclose(oracle.level_bands(fib, 1), [[0.0, 4.0]], atol=1e-12)
    # s_2 = ab: tr M = E (E - 2) - 2, so 0 <= E (E - 2) <= 4.
    r5 = math.sqrt(5.0)
    assert oracle.level_word(fib, 2) == "ab"
    assert np.allclose(oracle.level_bands(fib, 2), [[1 - r5, 0.0], [2.0, 1 + r5]], atol=1e-12)


def test_floquet_edges_have_discriminant_two():
    q5 = model("q5")
    v = oracle.potential(q5, oracle.substitute(q5, oracle.level_word(q5, 3)))
    for E in oracle.floquet_edges(v):
        assert abs(np.trace(oracle.word_matrix(v, E))) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("name", sorted(workloads.MODELS))
def test_mechanical_word_matches_recursion(name):
    m = model(name)
    for n in range(1, 9):
        word = oracle.level_word(m, n)
        assert word == recursive_level_word(m, n)
        assert len(oracle.substitute(m, word)) == oracle.level_length(m, n)
    assert oracle.level_length(m, -1) == len(m.subst["a"])
    assert oracle.level_length(m, 0) == len(m.subst["b"])


def test_sturmian_complexity_and_balance():
    word = oracle.characteristic(model("digits"), 5000)
    assert [oracle.distinct_factors(word, n) for n in range(1, 31)] == list(range(2, 32))
    assert oracle.is_balanced(word, 50)
    assert not oracle.is_balanced("ab" * 50 + "aa" + "ab" * 50 + "bb", 4)


def test_sequence_window_and_prefix():
    m = model("prefixed")
    u = oracle.sequence(m, 300)
    assert u.startswith(m.prefix + m.subst["a"])
    assert oracle.sequence(m, 100, shift=57) == u[57:157]


def test_free_chain_eigenvalues():
    n = 40
    want = 2.0 * np.cos(np.pi * np.arange(n, 0, -1) / (n + 1))
    assert np.allclose(oracle.tridiagonal_eigenvalues(np.zeros(n)), want, atol=1e-12)


def _generate_text(word):
    return f"# fingerprint=0123456789abcdef\n# command=generate\nsequence\n{word}\n"


def test_checks_reject_corrupted_outputs():
    models = {m: model(m) for m in workloads.MODELS}
    checker = checks.Checker(models, seed=0)
    op = workloads._cli("generate", "q5", length=500)
    word = oracle.sequence(models["q5"], 500)
    assert checker.check(op, _generate_text(word)).ok
    flipped = word[:99] + ("1" if word[99] == "0" else "0") + word[100:]
    assert not checker.check(op, _generate_text(flipped)).ok
    assert not checker.check(op, _generate_text(word).replace("fingerprint", "fp")).ok

    bands = workloads._cli("bands", "fibonacci", level=5)
    fb = oracle.level_bands(models["fibonacci"], 5)

    def bands_text(rows):
        head = [f"# fingerprint={'0' * 16}", "# command=bands",
                f"# band_count={len(rows)}",
                f"# total_measure={sum(hi - lo for lo, hi in rows)!r}", "E_lo,E_hi"]
        return "\n".join(head + [f"{lo!r},{hi!r}" for lo, hi in rows]) + "\n"

    good = checker.check(bands, bands_text(fb.tolist()))
    assert good.ok and good.info["found"] == good.info["expected"] == len(fb)
    missing = checker.check(bands, bands_text(fb.tolist()[1:]))
    assert missing.ok and missing.info["found"] == len(fb) - 1
    moved = fb.copy()
    moved[2, 1] += 1e-6
    assert not checker.check(bands, bands_text(moved.tolist())).ok


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
