"""Where the time of a bench workload's pruning steps goes.

    python3 tools/step_phases.py WORKLOAD SEED

Runs one pass of a workload of ``bench/workloads.py`` (``majority8-cli``,
``election1024`` or ``compare16``) in this process, with ``perf_counter``
wrappers around the phases of a pruning step, and prints one JSON object:

- ``pass_s``: the pass's operation time, as the bench sums it;
- ``stages_s``: the time inside pruning stages (``pruning._prune``), and
  ``steps``, the pruning steps they logged;
- ``phases``: per phase, its calls and its self time inside the stages, in
  seconds.  Time spent in a phase nested in another is counted once, in
  the inner one, so the phases and ``rest_s`` (the stages' own time)
  add up to ``stages_s``;
- ``epochs``: ``train_epoch`` calls in the whole pass and the epochs that
  the pass's work counters account for, which must be equal;
- ``median_step``: from a second pass of the same workload, wrapped only
  to cut it into steps, a least-squares fit of each pruning step's latency
  against the training epochs it ran: ``intercept_ms``, the fixed cost of
  a step, and ``ms_per_epoch``, with the steps' ``median_ms`` and
  ``median_epochs`` and ``share_at_accumulation_epochs``, the share of
  steps that ran exactly their stage's ``accumulation_epochs``.  A step
  runs from its stage's entry, or from the previous step's record, to its
  own record, so its epochs are those of its ledger, if it has one, and of
  its retrain.  Latencies are this machine's milliseconds, not put on the
  bench's nominal speed.

Nothing under ``bench/`` or ``src/`` is changed; the wrappers are removed
at the end.  A phase whose function a tree does not have reads 0 calls.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (puts the tree's src/ on sys.path)
import numpy as np  # noqa: E402
from reference import SpeedReference  # noqa: E402
from tracer import StepClock  # noqa: E402

from lucidnet import network, pruning, sensitivity, training  # noqa: E402

# phase -> (module, function or "Class.method") of what it times
PHASES = {
    "epochs": [(training, "EpochWorkspace.evaluate"), (training, "EpochWorkspace.judge"),
               (training, "train_epoch")],
    "reset": [(network, "BatchTrace.reset")],
    "plan": [(network, "_LayerPlan.__init__"), (network, "_LayerPlan.patch")],
    "group": [(training, "EpochWorkspace._group")],
    "ledger_sampling": [(sensitivity, "SensitivityLedger.sample")],
    "add_epoch": [(sensitivity, "SensitivityLedger.add_epoch")],
    "ledger_plan": [(sensitivity, "SensitivityLedger.__init__")],
    "finalize": [(sensitivity, "SensitivityLedger.finalize")],
    "candidate_pool": [(pruning, "candidate_pool")],
    "select_candidates": [(pruning, "select_candidates")],
    "apply_modification": [(pruning, "apply_modification")],
    "snapshot_restore": [(network, "Network.snapshot"), (network, "Network.restore")],
    "log_and_digest": [(network, "Network.digest"), (pruning, "_emit")],
}
SCOPE = (pruning, "_prune")


class Phases:
    """Self times of the wrapped functions, kept per phase while a pruning
    stage runs, and ``train_epoch`` calls over the whole pass."""

    def __init__(self):
        self.calls = dict.fromkeys(PHASES, 0)
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self.stages_s = self.rest_s = 0.0
        self.epoch_calls = 0
        self._stack = []  # per open wrapper, the time of its wrapped children
        self._stages = 0  # open pruning stages
        self._undo = []

    def _wrap(self, phase, fn):
        stack, scope = self._stack, phase is None
        epoch = fn is _original(training, "train_epoch")

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            self._stages += scope
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self._stages -= scope
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - children[0]
                self.epoch_calls += epoch
                if scope:
                    self.stages_s += elapsed
                    self.rest_s += own
                elif self._stages:
                    self.calls[phase] += 1
                    self.seconds[phase] += own

        return wrapper

    def install(self):
        targets = [(phase, *target) for phase, names in PHASES.items() for target in names]
        for phase, module, name in targets + [(None, *SCOPE)]:
            original = _original(module, name)
            if original is not None:
                _install(module, name, self._wrap(phase, original), self._undo)

    def uninstall(self):
        _uninstall(self._undo)


class StepEpochs:
    """Per pruning step, (latency in ms, ``train_epoch`` calls, its stage's
    ``accumulation_epochs``), a step running from its stage's entry or the
    previous step's record to its own record."""

    def __init__(self):
        self.steps = []
        self._epochs = 0
        self._cut = None  # (time, epochs, accumulation epochs) where the step began
        self._undo = []

    def install(self):
        train_epoch, prune, emit = (_original(module, name) for module, name in (
            (training, "train_epoch"), SCOPE, (pruning, "_emit")))

        def counted(*args, **kwargs):
            self._epochs += 1
            return train_epoch(*args, **kwargs)

        def stage(*args, **kwargs):
            self._cut = (time.perf_counter(), self._epochs, args[2].accumulation_epochs)
            return prune(*args, **kwargs)

        def record(*args, **kwargs):
            emit(*args, **kwargs)
            now, (start, epochs, accumulation) = time.perf_counter(), self._cut
            self.steps.append((1000.0 * (now - start), self._epochs - epochs, accumulation))
            self._cut = (now, self._epochs, accumulation)

        for (module, name), wrapper in (((training, "train_epoch"), counted),
                                        (SCOPE, stage), ((pruning, "_emit"), record)):
            _install(module, name, wrapper, self._undo)

    def uninstall(self):
        _uninstall(self._undo)


def fit_steps(steps):
    """The ``median_step`` block of (ms, epochs, accumulation epochs) steps:
    a least-squares line of latency against epochs, and the medians; just
    the count when a pass prunes nothing, as compare16 does."""
    if not steps:
        return {"steps": 0}
    ms, epochs, accumulation = (np.array(column, dtype=float) for column in zip(*steps))
    (intercept, per_epoch), *_ = np.linalg.lstsq(
        np.column_stack([np.ones_like(epochs), epochs]), ms, rcond=None)
    return {"steps": len(ms), "intercept_ms": float(intercept),
            "ms_per_epoch": float(per_epoch), "median_ms": float(np.median(ms)),
            "median_epochs": float(np.median(epochs)),
            "share_at_accumulation_epochs": float(np.mean(epochs == accumulation))}


def _install(module, name, wrapper, undo):
    """Put ``wrapper`` in place of ``name`` of ``module``: on its class for
    "Class.method", else in every lucidnet module that imported it."""
    original = _original(module, name)
    if "." in name:
        owners = [(getattr(module, name.split(".")[0]), name.split(".")[1])]
    else:
        owners = [(mod, attr) for mod in list(sys.modules.values())
                  if getattr(mod, "__name__", "").startswith("lucidnet")
                  for attr, value in list(vars(mod).items()) if value is original]
    for owner, attr in owners:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)


def _uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


_ORIGINALS = {}


def _original(module, name):
    """The unwrapped function ``name`` of ``module``, or None if absent."""
    key = (module.__name__, name)
    if key not in _ORIGINALS:
        owner, attr = module, name
        if "." in name:
            owner, attr = getattr(module, name.split(".")[0], None), name.split(".")[1]
        _ORIGINALS[key] = (None if owner is None else
                           vars(owner).get(attr) if isinstance(owner, type)
                           else getattr(owner, attr, None))
    return _ORIGINALS[key]


def measure(workload, out):
    """Set ``workload`` up, run one pass of it into ``out`` with the phase
    wrappers and one more with the step cuts only, and return the phase
    split and the step fit as a dict."""
    workload.setup()
    phases, cuts, clock = Phases(), StepEpochs(), StepClock()
    clock.install()
    try:
        phases.install()
        try:
            p = workload.run_pass(Path(out) / "phases", clock, SpeedReference())
        finally:
            phases.uninstall()
        cuts.install()
        try:
            cut = workload.run_pass(Path(out) / "steps", clock, SpeedReference())
        finally:
            cuts.uninstall()
    finally:
        clock.uninstall()
    return {
        "workload": workload.name,
        "pass_s": p.wall_s,
        "failed_ops": sum(op.error is not None for op in p.ops + cut.ops),
        "stages_s": phases.stages_s,
        "steps": p.counters["steps"],
        "phases": {name: {"calls": phases.calls[name], "s": phases.seconds[name]}
                   for name in PHASES},
        "rest_s": phases.rest_s,
        "epochs": {"train_epoch_calls": phases.epoch_calls,
                   "counted": workloads.epochs(p.counters)},
        "median_step": fit_steps(cuts.steps),
    }


def main(argv):
    if len(argv) != 2 or argv[0] not in workloads.WORKLOADS:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 1
    name, seed = argv[0], int(argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        result = measure(workloads.WORKLOADS[name](seed, Path(tmp) / "inputs"),
                         Path(tmp) / "out")
    print(json.dumps(dict(result, seed=seed), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
