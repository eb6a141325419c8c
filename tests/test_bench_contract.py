"""What the benchmark assumes of lucidnet, checked in the suite so that a
change breaking it fails here and not only in the benchmark's own runs.

The tracer patches lucidnet functions by name, so every name it lists must
resolve.  The workloads count training epochs from the pruning log alone
(``workloads.record_stage``), so the epochs that a stage really trains must
equal that count.
"""

import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

from lucidnet import (  # noqa: E402
    LossKind,
    PruneConfig,
    PruningProblem,
    TrainConfig,
    run_pipeline,
)
from lucidnet import pruning, training  # noqa: E402

from conftest import fresh_trained_xor  # noqa: E402


@pytest.mark.parametrize(
    "module, qualname",
    [(module, qualname) for module, qualname, _ in tracer.TRACED],
    ids=[tracer.span_name(module, qualname) for module, qualname, _ in tracer.TRACED],
)
def test_traced_name_resolves(module, qualname):
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        assert callable(owner.__dict__[attr])  # the tracer patches the class
    else:
        assert callable(getattr(module, qualname))


# (id, pruning problem options, stop reason, check on the log records)
EPOCH_CASES = [
    ("pool-exhausted", dict(kind="uniform-simplification", target_fan_in=3),
     "basic", "pool-exhausted", lambda records: len(records) > 0),
    ("failed-at-m1", dict(kind="synapse-removal"), "basic", "failed-at-m1",
     lambda records: len(records) > 1),
    ("accelerated-retries", dict(kind="synapse-removal"), "accelerated",
     "failed-at-m1", lambda records: any(r["staleness"] > 0 for r in records)),
    ("zero-records", dict(kind="uniform-simplification", target_fan_in=6),
     "basic", "pool-exhausted", lambda records: records == []),
]


@pytest.mark.parametrize(
    "problem, loop, stop_reason, shape",
    [case[1:] for case in EPOCH_CASES],
    ids=[case[0] for case in EPOCH_CASES],
)
def test_logged_epochs_equal_trained_epochs(problem, loop, stop_reason, shape):
    """train_epoch calls in a stage = accumulation epochs x ledgers (one
    per staleness-0 record, plus one when the stage ends after an accepted
    step or has no records) + the retrain epochs the records report."""
    check_stage_epochs(PruningProblem(**problem), loop, stop_reason, shape)


def test_diverged_retrain_logs_its_epochs(monkeypatch):
    """A retrain that diverges in its second epoch logs both epochs."""
    state = {"armed": False, "calls": 0}
    real_until, real_backward = training.train_until, training.backward_batch

    def retrain(*args):
        state["armed"] = True
        try:
            return real_until(*args)
        finally:
            state["armed"] = False

    def backward(net, trace, d_out):
        grads = real_backward(net, trace, d_out)
        if state["armed"]:
            state["calls"] += 1
            if state["calls"] == 2:  # once per test: later steps run clean
                grads.bias_grads[1][:] = float("nan")
        return grads

    monkeypatch.setattr(pruning, "train_until", retrain)
    monkeypatch.setattr(training, "backward_batch", backward)
    check_stage_epochs(
        PruningProblem("synapse-removal"), "basic", "failed-at-m1",
        lambda records: [(r["reason"], r["epochs_used"]) for r in records
                         if "reason" in r] == [("diverged", 2)])


def check_stage_epochs(problem, loop, stop_reason, shape):
    net, data, _, outcome = fresh_trained_xor(1)
    assert outcome.converged
    sink = io.StringIO()
    acc = 2
    config = PruneConfig(
        problem, TrainConfig(learning_rate=0.3, momentum=0.9, max_epochs=200),
        accumulation_epochs=acc, loop=loop, log_sink=sink,
    )
    spans = tracer.Tracer()
    spans.install()
    try:
        (result,), _ = run_pipeline(net, data, [config])
    finally:
        spans.uninstall()
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert result.stop_reason == stop_reason and shape(records)

    p = workloads.Pass(speed=None)
    op = workloads.Op("prune", 0.0)
    workloads.record_stage(p, op, 0, records, [[0.0] * len(records)], acc)
    assert op.error is None
    logged = p.counters["epochs.ledger"] + p.counters["epochs.retrain"]
    assert spans.get("training.train_epoch").calls == logged


def test_entry_check_costs_one_forward_pass():
    """Every forward pass of a stage feeds a ledger or retrain step, ends a
    ``train_until`` or is ``criterion_met``'s one evaluation."""
    net, data, _, _ = fresh_trained_xor(1)
    config = PruneConfig(
        PruningProblem("synapse-removal"),
        TrainConfig(learning_rate=0.3, momentum=0.9, max_epochs=200),
        accumulation_epochs=2, loop="basic",
    )
    spans = tracer.Tracer()
    spans.install()
    try:
        result = pruning.prune_basic(net, data, config)
    finally:
        spans.uninstall()
    calls = {name: spans.get(f"training.{name}").calls
             for name in ("train_epoch", "train_until", "criterion_met")}
    assert result.steps and calls["criterion_met"] == 1
    assert spans.get("network.forward_batch").calls == sum(calls.values())


@pytest.mark.parametrize("max_epochs, converged", [(5000, True), (3, False)],
                         ids=["converges", "exhausts-budget"])
def test_train_until_counts_one_train_epoch_per_epoch(max_epochs, converged):
    """The traced gate counts ``training.train_epoch`` calls against the
    epochs that runs report, so ``train_until`` calls it once per epoch."""
    net, data, config, _ = fresh_trained_xor(1, max_epochs=0)
    config.max_epochs = max_epochs
    spans = tracer.Tracer()
    spans.install()
    try:
        outcome = training.train_until(net, data, LossKind("mse"), config)
    finally:
        spans.uninstall()
    assert outcome.converged == converged and outcome.epochs_used > 0
    assert spans.get("training.train_epoch").calls == outcome.epochs_used
    assert spans.get("training.train_until").calls == 1
