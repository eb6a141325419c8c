"""Smoke test of the benchmark at a tiny size, so that it cannot rot.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from lucidnet import training
from reference import SpeedReference

BENCH = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {"majority8-cli": {"size": 2}, "election1024": {"size": 1},
        "compare16": {"size": 1}}


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert all(m["unit"] == run.per_layer_unit(m["name"])
               for m in BENCHMARK["per_layer"])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_pass_repeats_the_untraced_one(name, tmp_path):
    original = training.train_epoch
    workload = workloads.WORKLOADS[name](7, tmp_path / "inputs", **TINY[name])
    workload.setup()
    passes, tracer = run.run_passes(workload, tmp_path, trace=True, seconds=0,
                                    speed=SpeedReference())
    untraced, traced = passes
    assert training.train_epoch is original
    assert [f"{op.name}: {op.error}" for p in passes for op in p.ops if op.error] == []
    # the appended trace.epoch-count op asserts span count == epoch counters
    assert traced.ops[-1].name == "trace.epoch-count"
    assert traced.digests == untraced.digests
    assert traced.counters == untraced.counters
    if name != "compare16":
        assert tracer.get("training.train_epoch").calls > 0
    metrics = run.per_layer(tracer, traced, untraced)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_command_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "compare16",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compare16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
