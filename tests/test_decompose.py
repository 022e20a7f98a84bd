"""Rauzy graphs, classification, and the Cassaigne decomposition."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qsturm.decompose
import qsturm.words
from qsturm.decompose import (
    _recurrent_bispecial,
    _regenerates,
    _return_structure,
    cassaigne_decompose,
    detect_qs,
    rauzy_graph,
    rotation_number,
    special_factors,
)
from qsturm.errors import InconclusiveWindow, NoBispecialFound, RegenerationMismatch, WindowTooLarge
from qsturm.words import ModelSpec, Substitution, Word, complexity, qs_prefix, substitute

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MODEL_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "models"
MODELS = ("fibonacci", "q5", "digits", "prefixed")


def _model_word(name, length, shift=0):
    spec = ModelSpec.from_json(json.loads((MODEL_DIR / f"{name}.json").read_text()))
    return qs_prefix(spec, length, shift=shift)


# Reference implementations: plain loops over byte windows.

def _distinct_windows_loop(w, n):
    if n == 0:
        return [w[:0]]
    wb = w.to_bytes()
    seen = {}
    for i in range(len(w) - n + 1):
        seen.setdefault(wb[i:i + n], i)
    return [w[i:i + n] for i in sorted(seen.values())]


def _recurrent_bispecial_dict(wb, n):
    counts = {}
    for i in range(len(wb) - n):
        key = wb[i:i + n + 1]
        counts[key] = counts.get(key, 0) + 1
    out_deg, in_deg = {}, {}
    for key, c in counts.items():
        if c >= 2:
            out_deg[key[:-1]] = out_deg.get(key[:-1], 0) + 1
            in_deg[key[1:]] = in_deg.get(key[1:], 0) + 1
    right = [v for v, d in out_deg.items() if d >= 2]
    left = [v for v, d in in_deg.items() if d >= 2]
    if len(right) != 1 or len(left) != 1 or right[0] != left[0]:
        return None
    return right[0]


def _occurrences(wb, needle):
    out, i = [], wb.find(needle)
    while i >= 0:
        out.append(i)
        i = wb.find(needle, i + 1)
    return out


def _return_structure_loop(w, n):
    """Walk the passages backwards, keeping the longest two-path tail."""
    wb = w.to_bytes()
    if n == 0:
        occ = list(range(len(w))) if len(w.alphabet) >= 2 else []
    else:
        bis = _recurrent_bispecial_dict(wb, n)
        occ = [] if bis is None else _occurrences(wb, bis)
    if len(occ) < 8:
        return None
    pairs = [(wb[occ[j] + n], wb[occ[j]:occ[j + 1]]) for j in range(len(occ) - 1)]
    returns, j0 = {}, 0
    for j in range(len(pairs) - 1, -1, -1):
        ext, r = pairs[j]
        if (ext in returns and returns[ext] != r) or (ext not in returns and len(returns) == 2):
            j0 = j + 1
            break
        returns[ext] = r
    if len(returns) != 2 or len(pairs) - j0 < 8:
        return None
    lo, hi = sorted(returns)
    return occ[j0:], (returns[lo], returns[hi]), [int(e == hi) for e, _ in pairs[j0:]]


# --------------------------------------------------------------- Rauzy graphs

def test_rauzy_graph_counts_match_complexity(q5_spec):
    w = qs_prefix(q5_spec, 4000)
    p = complexity(w, 12)
    for n in (4, 8, 11):
        g = rauzy_graph(w, n)
        assert len(g.vertices) == p[n - 1]
        assert len(g.edges) == p[n]


@pytest.mark.parametrize("model", MODELS)
def test_rauzy_graph_matches_window_loop(model):
    for w in (_model_word(model, 3000), _model_word(model, 2000, shift=77),
              Word.from_str("abaababaabaab" * 3 + "ccab")):
        for n in range(0, min(13, len(w) // 4 + 1)):
            g = rauzy_graph(w, n)
            assert list(g.vertices) == _distinct_windows_loop(w, n)
            assert list(g.edges) == _distinct_windows_loop(w, n + 1)


def test_rauzy_edge_endpoints(fib_spec):
    w = qs_prefix(fib_spec, 500)
    g = rauzy_graph(w, 3)
    vset = set(g.vertices)
    for e in g.edges:
        head, tail = g.edge_endpoints(e)
        assert head in vset and tail in vset
        assert len(head) == 3 and len(tail) == 3


def test_rauzy_degree_sums(fib_spec):
    w = qs_prefix(fib_spec, 500)
    g = rauzy_graph(w, 4)
    assert sum(g.out_degrees().values()) == len(g.edges)
    assert sum(g.in_degrees().values()) == len(g.edges)


def test_rauzy_window_guard(fib_spec):
    w = qs_prefix(fib_spec, 100)
    with pytest.raises(WindowTooLarge):
        rauzy_graph(w, 60)


def test_special_factors_sturmian(fib_spec):
    # a Sturmian word has exactly one right-special and one left-special
    # factor at each length
    w = qs_prefix(fib_spec, 2000)
    for n in (2, 5, 9):
        sp = special_factors(rauzy_graph(w, n))
        assert len(sp["right_special"]) == 1
        assert len(sp["left_special"]) == 1


# ------------------------------------------------------------- classification

def test_detect_sturmian(fib_spec):
    cls = detect_qs(qs_prefix(fib_spec, 20_000))
    assert cls.kind == "sturmian" and cls.k == 1


def test_detect_quasi_sturmian(q5_spec):
    cls = detect_qs(qs_prefix(q5_spec, 20_000))
    assert cls.kind == "quasi_sturmian"
    assert cls.k == 9


def test_detect_periodic():
    cls = detect_qs(Word.from_str("ab" * 200))
    assert cls.kind == "periodic"


def test_detect_too_short():
    with pytest.raises(InconclusiveWindow):
        detect_qs(Word.from_str("ab" * 10))


# -------------------------------------------------------------- decomposition

@pytest.mark.parametrize("model", MODELS)
def test_recurrent_bispecial_matches_dict_scan(model):
    for w in (_model_word(model, 10_000), _model_word(model, 4000, shift=611)):
        wb = w.to_bytes()
        n0 = detect_qs(w).n0
        found = 0
        for n in range(max(1, n0), n0 + 31):
            bis = _recurrent_bispecial_dict(wb, n)
            occ = _recurrent_bispecial(w, n)
            if bis is None:
                assert occ is None
                continue
            found += 1
            assert occ.tolist() == _occurrences(wb, bis)
        assert found > 0


def _check_return_structure(w, n):
    expected = _return_structure_loop(w, n)
    got = _return_structure(w, n)
    assert (got is None) == (expected is None)
    if got is not None:
        occ, images, base = got
        assert occ.tolist() == expected[0]
        assert tuple(img.to_bytes() for img in images) == expected[1]
        assert base.tolist() == expected[2]
    return got


@pytest.mark.parametrize("model", MODELS)
def test_return_structure_matches_passage_loop(model):
    for w in (_model_word(model, 10_000), _model_word(model, 4000, shift=611)):
        n0 = detect_qs(w).n0
        for n in range(max(0, n0 - 1), n0 + 31):
            _check_return_structure(w, n)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("chunk", [None, 977])
def test_return_structure_matches_passage_loop_over_chunks(model, chunk, monkeypatch):
    # 40,000 symbols hold three chunks of 16,384 passages at n = 0; a chunk
    # of 977 passages splits the few thousand passages of q5's n = 20 too.
    if chunk is not None:
        monkeypatch.setattr(qsturm.decompose, "_CHUNK", chunk)
    w = _model_word(model, 40_000, shift=5)
    n = cassaigne_decompose(w).bispecial_length
    for k in sorted({0, n}):
        assert _check_return_structure(w, k) is not None, k


def test_return_structure_bytes_per_symbol():
    # At n = 0 every symbol is a passage. The check holds int32 occurrences
    # and extensions and one flag per passage over the window, and the rest
    # one chunk of passages at a time: about 13.5 bytes per symbol (35 with
    # window-long lengths, offsets and gather index).
    w = _model_word("fibonacci", 10**5)
    tracemalloc.start()
    try:
        assert _return_structure(w, 0) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * len(w), peak / len(w)


@pytest.mark.parametrize("model", ["fibonacci", "digits", "prefixed"])
def test_decompose_builds_one_factor_index(model, monkeypatch):
    # The bispecial factor has length 0 on these windows, so the Sturmian
    # check reads its base's counts from the window's own index.
    builds = []
    build = qsturm.words._build_index
    monkeypatch.setattr(qsturm.words, "_build_index",
                        lambda codes, length: builds.append(length) or build(codes, length))
    assert cassaigne_decompose(_model_word(model, 10**5)).bispecial_length == 0
    assert len(builds) == 1, builds


@pytest.mark.parametrize("model", MODELS)
def test_decompose_bytes_per_symbol(model):
    # The factor index build is the peak, about 23.6 bytes per symbol: the
    # return structure and the regeneration check run over chunks next to
    # the held index (43 bytes per symbol with window-long ones, 32 on q5
    # with int64 run numbers).
    w = _model_word(model, 10**5)
    tracemalloc.start()
    try:
        cassaigne_decompose(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26 * len(w), peak / len(w)


@pytest.mark.parametrize("model", MODELS)
def test_decompose_peaks_in_detect_qs(model, monkeypatch):
    # detect_qs builds the factor index; no later phase of the decomposition
    # may hold more than that build did.
    peaks = []
    detect = qsturm.decompose.detect_qs

    def traced_detect(w):
        cls = detect(w)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return cls

    monkeypatch.setattr(qsturm.decompose, "detect_qs", traced_detect)
    w = _model_word(model, 10**5)
    tracemalloc.start()
    try:
        cassaigne_decompose(w)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[0], [p / len(w) for p in peaks]


def test_regeneration_check_spans_chunks():
    # S(base) is compared with the window one chunk of base symbols at a
    # time: a flip in a later chunk, or a base one symbol short or long,
    # breaks the regeneration.
    w = _model_word("fibonacci", 10**5)
    d = cassaigne_decompose(w)
    codes = d.base_prefix.codes
    start, stop = len(d.prefix_w), d.window_length
    assert len(codes) > 2 * qsturm.decompose._CHUNK
    assert _regenerates(w, d.subst, d.base_prefix, start, stop)
    flipped = codes.copy()
    flipped[qsturm.decompose._CHUNK + 5] ^= 1
    for base in (flipped, codes[:-1], np.append(codes, codes[-1])):
        assert not _regenerates(w, d.subst, Word(base, ("a", "b")), start, stop)


def test_decompose_reports_a_base_that_does_not_regenerate(monkeypatch):
    # A return structure whose choice codes are wrong past the first chunk
    # passes the Sturmian check, which reads the window's own counts at
    # n = 0, and is caught by the regeneration check.
    structure = qsturm.decompose._return_structure

    def corrupted(w, n):
        found = structure(w, n)
        if found is not None:
            found[2][-1] ^= 1
        return found

    monkeypatch.setattr(qsturm.decompose, "_return_structure", corrupted)
    with pytest.raises(RegenerationMismatch):
        cassaigne_decompose(_model_word("fibonacci", 10**5))


def _headed_word(kind):
    """A word whose head breaks the two-path regime of some bispecial factor."""
    if kind == "long-return":
        # A copy of a return word longer than n + 1 with its last symbol
        # changed: same extension and length as the real one, other content.
        s = Substitution.from_strings({"a": "0010", "b": "011"})
        body = substitute(s, _model_word("fibonacci", 1000)).recode(("0", "1", "2"))
        r = max(_return_structure_loop(body, 5)[1], key=len)
        return Word(list(r[:-1]) + [2], body.alphabet) + body
    # A head over a, b and a foreign c: a third extension, or a return word
    # of another length.
    body = _model_word("fibonacci", 3000).recode(("a", "b", "c"))
    return Word.from_str(kind, body.alphabet) + body


@pytest.mark.parametrize("kind", ["c", "acb", "babbab", "abaabcabaab", "long-return"])
def test_return_structure_drops_transient_passages(kind):
    w = _headed_word(kind)
    wb = w.to_bytes()
    trimmed = False
    for n in range(0, 31):
        got = _check_return_structure(w, n)
        if got is not None:
            start = got[0][0]  # first passage kept, after the first occurrence?
            trimmed |= start > wb.find(wb[start:start + n])
    assert trimmed


def _check_roundtrip(spec, length=100_000, theta=GOLDEN, tol=1e-3):
    w = qs_prefix(spec, length)
    d = cassaigne_decompose(w)
    regenerated = d.prefix_w + substitute(d.subst, d.base_prefix)
    assert regenerated == w[:d.window_length]
    theta_hat = rotation_number(d)
    assert min(abs(theta_hat - theta), abs((1.0 - theta_hat) - theta)) < tol
    return d


def test_decompose_identity_fibonacci(fib_spec):
    d = _check_roundtrip(fib_spec)
    assert d.prefix_w.to_str() == ""


def test_decompose_q5(q5_spec):
    _check_roundtrip(q5_spec)


def test_decompose_with_transient_head(prefix_spec):
    d = _check_roundtrip(prefix_spec)
    assert len(d.prefix_w) >= 1  # the head cannot be absorbed into the tiling


def test_decompose_cf2(cf2_spec):
    _check_roundtrip(cf2_spec, theta=math.sqrt(2.0) - 1.0)


def test_rotation_number_ignores_noisy_tail(q5_spec):
    # The frequency's expansion ends in a huge coefficient (float noise);
    # truncation must stop before forming that convergent.
    d = cassaigne_decompose(qs_prefix(q5_spec, 10_000, shift=9))
    theta_hat = rotation_number(d)
    assert min(abs(theta_hat - GOLDEN), abs((1.0 - theta_hat) - GOLDEN)) < 1e-3


@pytest.mark.parametrize("refine", [0, -3])
def test_rotation_number_rejects_refine_below_one(fib_spec, refine):
    d = cassaigne_decompose(qs_prefix(fib_spec, 2000))
    with pytest.raises(ValueError, match=rf"^refine must be >= 1, got {refine}$"):
        rotation_number(d, refine=refine)


def test_decompose_rejects_periodic():
    with pytest.raises(NoBispecialFound):
        cassaigne_decompose(Word.from_str("ab" * 200))
