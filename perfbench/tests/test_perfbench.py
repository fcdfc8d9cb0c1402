"""Tests of the repository benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Each workload gets a toy-size run through the real command, traced and
untraced, and the printed metric names must be exactly those of
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_prints_every_metric_of_benchmark_json(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        for name in ("setup_s", "work_per_s", "result_p50_ms", "scored_per_s"):
            assert result["metrics"][name]["value"] > 0, name


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    per_layer = list(layers.layer_metrics(layers.Tracer("t"))) + [
        "bench.trace_overhead_ratio"]
    assert [m["name"] for m in SPEC["per_layer"]] == per_layer
    assert SPEC["paths"] == ["perfbench"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("ga_loop", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_spans():
    tracer = layers.Tracer("t")
    tracer.spans = [
        (1, 0, "outer", 0.0, 10.0, False),
        (2, 1, "inner", 1.0, 3.0, False),
        (3, 1, "inner", 2.0, 5.0, False),  # overlaps span 2: counted once
        (4, 1, "leaf", 8.0, 9.0, True),
        (5, 4, "leaf", 8.2, 8.4, False),  # nested same name: not busy twice
    ]
    stats = layers._busy_and_self(tracer.spans)
    assert stats["outer"] == [1, 10.0, 5.0, 0]
    assert stats["inner"][1] == pytest.approx(5.0)
    assert stats["leaf"][0] == 2 and stats["leaf"][3] == 1
    assert stats["leaf"][1] == pytest.approx(1.0)


def test_ga_check_catches_a_worsening_best(tmp_path):
    loop = workloads.GaLoop(5, workloads.SIZES["toy"], tmp_path, 1)
    loop.setup()
    loop.unit(0)
    assert loop.check()[1] == 0
    loop.runs[0]["min_scores"][-1] += 1.0
    attempted, failed, problems = loop.check()
    assert failed == attempted > 0 and problems
