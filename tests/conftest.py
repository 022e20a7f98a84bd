"""Shared fixtures and the acceptance-summary reporter."""

import json
from pathlib import Path

import pytest

from qsturm import ModelSpec, Substitution, Word
from qsturm.contfrac import ContinuedFraction


# One (number, title, passed, detail) entry per acceptance criterion,
# printed as a single line each at the end of the run.
ACCEPTANCE_RESULTS = []


def record_acceptance(num, title, passed, detail=""):
    ACCEPTANCE_RESULTS.append((num, title, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, title, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {num:2d} [{status}] {title}"
        if detail:
            line += f" — {detail}"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fib_cf():
    return ContinuedFraction((), (1,))


@pytest.fixture(scope="session")
def cf2():
    return ContinuedFraction((), (2,))


@pytest.fixture(scope="session")
def fib_spec(fib_cf):
    """Golden-mean Sturmian potential with values {0, 2}."""
    return ModelSpec(fib_cf, Substitution.identity(),
                     Word.from_str("", ("a", "b")), {"a": 2.0, "b": 0.0})


@pytest.fixture(scope="session")
def free_spec(fib_cf):
    """Zero potential (both symbols map to 0)."""
    return ModelSpec(fib_cf, Substitution.identity(),
                     Word.from_str("", ("a", "b")), {"a": 0.0, "b": 0.0},
                     allow_non_injective=True)


@pytest.fixture(scope="session")
def q5_spec(fib_cf):
    """Quasi-Sturmian model from the constant-length-6 substitution."""
    subst = Substitution.from_strings({"a": "011001", "b": "001011"})
    return ModelSpec(fib_cf, subst, Word.from_str("", ("0", "1")),
                     {"0": 0.0, "1": 2.0})


@pytest.fixture(scope="session")
def cf2_spec(cf2):
    return ModelSpec(cf2, Substitution.identity(),
                     Word.from_str("", ("a", "b")), {"a": 2.0, "b": 0.0})


@pytest.fixture(scope="session")
def prefix_spec(fib_cf):
    """Golden-mean model with a transient head that no tail factor matches."""
    return ModelSpec(fib_cf, Substitution.identity(),
                     Word.from_str("bb", ("a", "b")), {"a": 2.0, "b": 0.0})


@pytest.fixture(scope="session")
def digits_spec():
    """Sturmian potential with coefficients (3, 1, 4, 1, 5, 9, 1, 1, ...): the
    level recursion needs odd and even powers M(n-1)^{a_n} as well as a_n = 1."""
    return ModelSpec(ContinuedFraction((3, 1, 4, 1, 5, 9), (1,)), Substitution.identity(),
                     Word.from_str("", ("a", "b")), {"a": 1.5, "b": 0.0})


BENCH_MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"


@pytest.fixture(scope="session")
def bench_specs():
    """The four benchmark models of perfbench/models, by name."""
    return {p.stem: ModelSpec.from_json(json.loads(p.read_text()))
            for p in sorted(BENCH_MODELS.glob("*.json"))}
