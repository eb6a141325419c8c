"""Spans around lucidnet's layer boundaries, recorded from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every lucidnet module that binds it (modules import names with
``from .x import y``, so patching the defining module alone would miss
their calls), and each traced method on its class.  Spans are aggregated in
memory per function: call count, total time, and self time, which is a
span's duration minus the time its child spans cover.

``StepClock`` is the one hook that also runs untraced: it timestamps each
pruning-log record as it is written, which is where a pruning step ends,
so step latency is measured without tracing the program.
"""

from __future__ import annotations

import functools
import sys
import time

from lucidnet import cli, data, network, pruning, sensitivity, training, transparency

# (module, function or "Class.method", extra count taken from args/result)
TRACED = [
    (network, "forward_batch", lambda args, result: len(args[1])),
    (network, "backward_batch", None),
    (network, "Network.snapshot", None),
    (network, "Network.restore", None),
    (network, "Network.remove_element", lambda args, result: len(result)),
    (training, "train_epoch", None),
    (training, "train_until", None),
    (training, "criterion_met", None),
    (sensitivity, "collect_ledger", None),
    (sensitivity, "SensitivityLedger.add_epoch", None),
    (sensitivity, "SensitivityLedger.finalize", None),
    (pruning, "prune_basic", None),
    (pruning, "prune_accelerated", None),
    (pruning, "select_candidates", None),
    (pruning, "candidate_pool", None),
    (pruning, "apply_modification", None),
    (transparency, "verbalize", None),
    (transparency, "substitute_step", None),
    (transparency, "is_logically_transparent", None),
    (transparency, "compare_rulesets", None),
    (transparency, "evaluate_rules", None),
    (data, "load_dataset", lambda args, result: len(result)),
    (cli, "main", None),
]


class SpanStats:
    __slots__ = ("calls", "s", "self_s", "count")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.count = 0


def span_name(module, qualname):
    """``network.snapshot`` for ``Network.snapshot`` in lucidnet.network."""
    return f"{module.__name__.rsplit('.', 1)[-1]}.{qualname.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.s += elapsed
                stats.self_s += elapsed - children[0]
            if count is not None:
                stats.count += count(args, result)
            return result

        return wrapper

    def install(self):
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "lucidnet" or key.startswith("lucidnet."))
        ]
        for module, qualname, count in TRACED:
            name = span_name(module, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, count))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def get(self, name):
        return self.stats.get(name) or SpanStats()


class _TimedSink:
    """Pass-through log sink that timestamps every record written."""

    def __init__(self, sink, times):
        self._sink = sink
        self._times = times
        times.append(time.perf_counter())

    def write(self, text):
        self._sink.write(text)
        self._times.append(time.perf_counter())


class StepClock:
    """Timestamps pruning steps through ``PruneConfig.log_sink``.

    Every PruneConfig built while installed gets its sink wrapped; the
    first timestamp is taken when the config is built, right before its
    stage runs, and one more each time the loop writes a step record.
    """

    def __init__(self):
        self._stages = []
        self._original = None

    def install(self):
        cls = pruning.PruneConfig
        original = cls.__post_init__
        stages = self._stages

        def post_init(config):
            original(config)
            if config.log_sink is not None:
                times = []
                stages.append(times)
                config.log_sink = _TimedSink(config.log_sink, times)

        self._original = original
        cls.__post_init__ = post_init

    def uninstall(self):
        if self._original is not None:
            pruning.PruneConfig.__post_init__ = self._original
            self._original = None

    def take(self):
        """Per-stage lists of step latencies in ms since the last take."""
        stages = [
            [1000.0 * (b - a) for a, b in zip(times, times[1:])]
            for times in self._stages
        ]
        self._stages.clear()
        return stages
