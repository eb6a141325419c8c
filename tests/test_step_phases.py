"""``tools/step_phases.py`` splits a bench pass's pruning-stage time into
phases that add up, counts the pass's epochs as its work counters do, and
fits step latency against the epochs each step ran."""

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
    # one ledger, and so one sample plan, per rating
    assert phases["ledger_plan"]["calls"] == phases["finalize"]["calls"] > 0
    assert phases["ledger_sampling"]["calls"] == phases["add_epoch"]["calls"] > 0
    # the second pass does the same steps, each with a ledger or a retrain
    fit = result["median_step"]
    assert fit["steps"] == result["steps"]
    assert 0.0 <= fit["share_at_accumulation_epochs"] <= 1.0
    assert fit["median_epochs"] >= 1 and fit["median_ms"] > 0.0
    # the wrappers are gone afterwards
    for module, name in [step_phases.SCOPE, (step_phases.training, "train_epoch"),
                         (step_phases.pruning, "_emit")]:
        assert getattr(module, name) is step_phases._original(module, name)
    assert step_phases.sensitivity.train_epoch is step_phases.training.train_epoch


def test_the_step_fit():
    # 0.25 ms a step and 0.05 ms an epoch, 2 of 4 steps at their stage's 3
    steps = [(0.25 + 0.05 * epochs, epochs, 3) for epochs in (3, 3, 5, 9)]
    fit = step_phases.fit_steps(steps)
    assert abs(fit["intercept_ms"] - 0.25) < 1e-12 and abs(fit["ms_per_epoch"] - 0.05) < 1e-12
    assert fit == dict(fit, steps=4, median_epochs=4.0, share_at_accumulation_epochs=0.5)
    assert abs(fit["median_ms"] - 0.45) < 1e-12
    assert step_phases.fit_steps([]) == {"steps": 0}
