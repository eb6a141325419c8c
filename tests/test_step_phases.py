"""``tools/step_phases.py`` splits a bench pass's pruning-stage time into
phases that add up, and counts the pass's epochs as its work counters do."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_phases.py"
_spec = importlib.util.spec_from_file_location("step_phases", TOOL)
step_phases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_phases)


def test_one_election_unit(tmp_path):
    workload = step_phases.workloads.Election1024(1, tmp_path / "inputs", size=1)
    result = step_phases.measure(workload, tmp_path / "out")
    assert result["failed_ops"] == 0 and result["steps"] > 0
    phases = result["phases"]
    assert set(phases) == set(step_phases.PHASES)
    total = sum(phase["s"] for phase in phases.values()) + result["rest_s"]
    assert 0.0 < result["stages_s"] <= result["pass_s"]
    assert abs(total - result["stages_s"]) <= 1e-9 * max(1.0, result["stages_s"])
    assert all(phase["s"] >= 0.0 for phase in phases.values())
    epochs = result["epochs"]
    assert epochs["train_epoch_calls"] == epochs["counted"] > 0
    # every step rates its pool and logs one record
    assert phases["select_candidates"]["calls"] >= result["steps"]
    assert phases["log_and_digest"]["calls"] >= result["steps"]
    assert phases["epochs"]["calls"] > 0 and phases["reset"]["calls"] > 0
    # the wrappers are gone afterwards
    assert step_phases.pruning._prune is step_phases._original(*step_phases.SCOPE)
