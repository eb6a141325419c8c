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
  the pass's work counters account for, which must be equal.

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
    "ledger_sampling": [(sensitivity, "_fill_samples")],
    "add_epoch": [(sensitivity, "SensitivityLedger.add_epoch")],
    "sample_plan": [(sensitivity, "_sample_plan")],
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
            if original is None:
                continue
            wrapper = self._wrap(phase, original)
            if "." in name:
                self._patch(getattr(module, name.split(".")[0]), name.split(".")[1], wrapper)
                continue
            for mod in list(sys.modules.values()):  # every module that imported it
                if getattr(mod, "__name__", "").startswith("lucidnet"):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


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
    """Set ``workload`` up, run one pass of it into ``out`` and return the
    phase split as a dict."""
    workload.setup()
    phases, clock = Phases(), StepClock()
    clock.install()
    phases.install()
    try:
        p = workload.run_pass(out, clock, SpeedReference())
    finally:
        phases.uninstall()
        clock.uninstall()
    return {
        "workload": workload.name,
        "pass_s": p.wall_s,
        "failed_ops": sum(op.error is not None for op in p.ops),
        "stages_s": phases.stages_s,
        "steps": p.counters["steps"],
        "phases": {name: {"calls": phases.calls[name], "s": phases.seconds[name]}
                   for name in PHASES},
        "rest_s": phases.rest_s,
        "epochs": {"train_epoch_calls": phases.epoch_calls,
                   "counted": workloads.epochs(p.counters)},
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
