"""Tests of the benchmark itself: generator, references, metric names."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import detschemes  # noqa: E402
import detschemes.cli  # noqa: E402,F401

from perfbench import gen, refs, run  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name):
    wl = WORKLOADS[name](detschemes)
    n = 2 * len(wl.block)
    a, b = wl.stream(7), wl.stream(7)
    # b is extended in a different order: texts depend only on seed and index
    b[n - 1]
    assert [a[i].text for i in range(n)] == [b[i].text for i in range(n)]
    other = wl.stream(8)
    assert [a[i].text for i in range(n)] != [other[i].text for i in range(n)]
    for i in range(n):
        spec = detschemes.cli.parse_problem_text(a[i].text)
        assert (spec.presentation.t, spec.presentation.r) == (a[i].t, a[i].r)


def test_classify_stream_mix_is_fixed():
    wl = WORKLOADS["classify-stream"](detschemes)
    stream = wl.stream(3)
    kinds = Counter(stream[i].kind for i in range(4 * len(wl.block)))
    assert kinds["repeat"] == len(wl.block)  # one in four
    assert kinds["fixture"] * 2 == kinds["generic"]  # a third of fresh problems
    seen = set()
    for i in range(4 * len(wl.block)):
        p = stream[i]
        assert (p.text in seen) == (p.kind == "repeat")
        seen.add(p.text)


def test_reference_formulas_against_golden_files():
    fixtures = gen.load_fixtures()
    for name, (nvars, entries, golden) in fixtures.items():
        t, f = len(entries), len(entries[0])
        r = f - t
        a, b = (0,) * t, (1,) * f
        assert golden["cm_type"] == refs.cm_type(t, r)
        # EN is a minimal resolution: its first term lists the minimal generators
        assert golden["minimal_generators"] == {
            str(d): c for d, c in sorted(Counter(refs.en_twists(a, b)[1]).items())
        }
        assert golden["is_standard"] and golden["actual_height"] == r + 1
        good = t == 1 or golden["submaximal_height"] >= r + 2
        assert golden["is_good"] == good
    assert fixtures["cubic_curve"][2]["cm_type"] == 2
    double = fixtures["double_point"][2]
    assert double["is_standard"] and not double["is_good"]
    # the generic fixture and the cubic curve have the generic heights
    for name in ("generic_2x4", "cubic_curve"):
        g = fixtures[name][2]
        assert refs.generic_heights(g["t"], g["r"], 4) == (g["actual_height"], g["submaximal_height"])


def test_reference_ranks_and_hilbert_functions():
    for t in (1, 2, 3):
        for r in (1, 2, 3):
            a, b = (0,) * t, (1,) * (t + r)
            assert refs.en_ranks(t, r) == [len(x) for x in refs.en_twists(a, b)]
            assert refs.br_ranks(t, r) == [len(x) for x in refs.br_twists(a, b)]
            assert refs.en_ranks(t, r)[-1] == comb(r + t - 1, r)
    # twisted cubic: HF(R/I, d) = 3d + 1; its cokernel has HF 2, 5, 8, ...
    assert [refs.hf_quotient((0, 0), (1, 1, 1), 4, d) for d in range(6)] == [1, 4, 7, 10, 13, 16]
    assert [refs.hf_coker((0, 0), (1, 1, 1), 4, d) for d in range(4)] == [2, 5, 8, 11]
    assert refs.expected_ranks([1, 3, 2]) == [1, 2]


def test_counts_repeat_exactly():
    wl = WORKLOADS["classify-stream"](detschemes)
    stream = wl.stream(5)
    passes = []
    for _ in range(2):  # the second pass reads the package's caches
        tr = Tracer()
        with wl.instrumented(tr):
            for i in range(len(wl.block)):
                tr.problem = i
                wl.run(stream[i], tr)
                tr.flush()
        passes.append(tr.counts)
    assert passes[0] == passes[1]
    totals = tr.totals(range(len(wl.block)))
    assert totals["determinantal.witness_searches"] > 0
    assert totals["groebner.gb_size"] > 0


def test_instrumentation_counts_pieces_and_is_removed():
    wl = WORKLOADS["row-surgery"](detschemes)
    piece_rank = detschemes.grading.piece_rank
    find = detschemes.cli.find_generalized_row
    tr = Tracer()
    with wl.instrumented(tr):
        tr.problem = 0
        wl.run(wl.stream(4)[0], tr)
        tr.flush()
    counts = tr.counts[0]
    assert counts["grading.pieces"] > 0 and counts["grading.piece_size_max"] > 0
    assert detschemes.grading.piece_rank is piece_rank
    with WORKLOADS["classify-stream"](detschemes).instrumented(Tracer()):
        assert detschemes.cli.find_generalized_row is not find
    assert detschemes.cli.find_generalized_row is find


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_block_is_correct_and_reports_every_metric(name):
    wl = WORKLOADS[name](detschemes)
    stream = wl.stream(9)
    tracer = Tracer()
    with wl.instrumented(tracer):
        latencies, scales, failed, errors, _ = run.measure(wl, stream, 0.0, tracer,
                                                           min_problems=1)
    assert failed == 0 and not errors
    assert len(latencies) == len(scales) == len(wl.block)
    e2e = run.end_to_end(latencies, failed, 0.5)
    layer, _ = run.per_layer(tracer, scales, errors)
    for names, metrics in (("end_to_end", e2e), ("per_layer", layer)):
        assert {m["name"]: m["unit"] for m in SPEC[names]} == {k: u for k, (_, u) in metrics.items()}


def test_command_prints_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-stream", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
