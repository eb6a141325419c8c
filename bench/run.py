"""lucidnet benchmark: one closed-loop, single-process run of one workload.

    python3 bench/run.py --workload majority8-cli --seed 1 --seconds 36 --trace 0

Operations run back to back, each starting when the previous one ends.
The run sets up the workload's inputs from ``--seed``, then repeats passes
over the same inputs until ``--seconds`` is used up (at least one pass),
checking every output.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs one untraced and one traced pass and
prints the per-module metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# pinned before numpy loads (the workloads import it): the BLAS would
# otherwise start a thread per core
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
WORKLOADS = ("majority8-cli", "election1024", "compare16")

# (name, unit); BENCHMARK.json lists the same names
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
]

# per-module metrics: (metric, span, statistic) read from the tracer
SPAN_METRICS = [
    ("network.forward_batch.calls", "network.forward_batch", "calls"),
    ("network.forward_batch.self_s", "network.forward_batch", "self_s"),
    ("network.forward_batch.rows", "network.forward_batch", "count"),
    ("network.backward_batch.calls", "network.backward_batch", "calls"),
    ("network.backward_batch.self_s", "network.backward_batch", "self_s"),
    ("network.snapshot.self_s", "network.snapshot", "self_s"),
    ("network.restore.self_s", "network.restore", "self_s"),
    ("network.remove_element.calls", "network.remove_element", "calls"),
    ("network.remove_element.self_s", "network.remove_element", "self_s"),
    ("network.cascade_removed", "network.remove_element", "count"),
    ("training.train_epoch.calls", "training.train_epoch", "calls"),
    ("training.train_epoch.self_s", "training.train_epoch", "self_s"),
    ("training.criterion_met.calls", "training.criterion_met", "calls"),
    ("training.criterion_met.s", "training.criterion_met", "s"),
    ("training.train_until.calls", "training.train_until", "calls"),
    ("training.train_until.s", "training.train_until", "s"),
    ("sensitivity.collect_ledger.self_s", "sensitivity.collect_ledger", "self_s"),
    ("sensitivity.add_epoch.s", "sensitivity.add_epoch", "s"),
    ("sensitivity.finalize.s", "sensitivity.finalize", "s"),
    ("pruning.select_candidates.s", "pruning.select_candidates", "s"),
    ("pruning.candidate_pool.s", "pruning.candidate_pool", "s"),
    ("pruning.apply_modification.s", "pruning.apply_modification", "s"),
    ("transparency.verbalize.s", "transparency.verbalize", "s"),
    ("transparency.substitute_step.s", "transparency.substitute_step", "s"),
    ("transparency.is_logically_transparent.s",
     "transparency.is_logically_transparent", "s"),
    ("transparency.compare_rulesets.s", "transparency.compare_rulesets", "s"),
    ("transparency.evaluate_rules.calls", "transparency.evaluate_rules", "calls"),
    ("transparency.evaluate_rules.self_s", "transparency.evaluate_rules", "self_s"),
    ("data.load_dataset.s", "data.load_dataset", "s"),
    ("data.load_dataset.rows", "data.load_dataset", "count"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_s", "cli.main", "self_s"),
]


def per_layer_unit(name):
    if name.rsplit(".", 1)[-1] in ("s", "self_s", "overhead_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)  # internal: set up and exit
    return parser.parse_args(argv)


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def time_setup(args, base, repeats, speed):
    """(wall time, speed scale) of fresh interpreters that import lucidnet,
    make the workload's inputs and exit."""
    times = []
    for _ in range(repeats):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-probe", tempfile.mkdtemp(dir=base),
        ]
        scale = speed.scale()
        start = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - start, scale))
    return times


def mark_repeats(passes):
    """Fail every operation whose outputs differ from the first pass."""
    first = passes[0].digests
    for p in passes[1:]:
        by_name = {op.name: op for op in p.ops}
        for key, value in p.digests.items():
            op = by_name[key.split(":")[0]]
            if first.get(key) != value and op.error is None:
                op.error = f"{key} differs from the first pass"


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_wall_s(passes, scaled=True):
    """One pass's operation time, each operation taken at its median over
    the passes, so a slow spell on a shared machine that hits one pass
    does not move it."""
    durations = {}
    for p in passes:
        for op in p.ops:
            durations.setdefault(op.name, []).append(
                op.seconds * (op.scale if scaled else 1.0))
    return sum(statistics.median(d) for d in durations.values())


def end_to_end(passes, setup_times):
    """End-to-end metrics, every time put on the nominal machine speed."""
    samples = [ms * scale for p in passes for ms, scale in p.latencies_ms]
    wall_s = median_wall_s(passes)
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(t * scale for t, scale in setup_times),
        "work_per_s": passes[0].work_units / wall_s,
        "op_ms.p50": statistics.median(samples) if samples else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced):
    values = {
        name: getattr(tracer.get(span), stat) for name, span, stat in SPAN_METRICS
    }
    c = traced.counters
    retrain = c["epochs.retrain"]
    values.update({
        "training.epochs.initial": c["epochs.initial"],
        "training.epochs.ledger": c["epochs.ledger"],
        "training.epochs.retrain": retrain,
        "pruning.steps": c["steps"],
        "pruning.steps_accepted": c["steps_accepted"],
        "pruning.accept_ratio": c["steps_accepted"] / c["steps"] if c["steps"] else 0.0,
        "pruning.retrain_epochs_kept_ratio":
            c["epochs.retrain_kept"] / retrain if retrain else 0.0,
        "pruning.loop.self_s": tracer.get("pruning.prune_basic").self_s
            + tracer.get("pruning.prune_accelerated").self_s,
        "pruning.transparent_runs": c["transparent_runs"],
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s - 1.0,
    })
    return values


def run_passes(workload, work, trace, seconds, speed):
    """Untraced passes until ``seconds`` is used up, or with ``trace`` one
    untraced and one traced pass.  Returns (passes, tracer or None)."""
    from tracer import StepClock, Tracer
    from workloads import Op, epochs

    clock = StepClock()
    clock.install()
    tracer = None
    try:
        start = time.perf_counter()
        passes = [workload.run_pass(work / "pass0", clock, speed)]
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                passes.append(workload.run_pass(work / "pass1", clock, speed))
            finally:
                tracer.uninstall()
        else:
            while True:
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(passes) > seconds:
                    break
                passes.append(workload.run_pass(work / f"pass{len(passes)}", clock, speed))
    finally:
        clock.uninstall()
    mark_repeats(passes)
    if tracer is not None:
        # a call site the tracer missed would make these differ
        spans = tracer.get("training.train_epoch").calls
        counted = epochs(passes[-1].counters)
        error = None if spans == counted else (
            f"{spans} train_epoch spans but the outputs account for {counted} epochs")
        passes[-1].ops.append(Op("trace.epoch-count", 0.0, error))
    return passes, tracer


def run(args, work):
    import workloads
    from reference import SpeedReference

    workload = workloads.WORKLOADS[args.workload](args.seed, work / "inputs")
    speed = SpeedReference()
    # set-up is timed both before and after the passes, so that it samples
    # the same stretch of machine time as they do
    setup_times = [] if args.trace else time_setup(
        args, work, SETUP_REPEATS // 2 + 1, speed)
    workload.setup()
    passes, tracer = run_passes(workload, work, args.trace, args.seconds, speed)
    if args.trace:
        metrics = per_layer(tracer, passes[-1], passes[0])
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        setup_times += time_setup(args, work, SETUP_REPEATS // 2, speed)
        metrics = end_to_end(passes, setup_times)
        units = dict(END_TO_END)

    ops = [op for p in passes for op in p.ops]
    failures = [f"{op.name}: {op.error}" for op in ops if op.error]
    samples = [ms * scale for p in passes for ms, scale in p.latencies_ms]
    first = passes[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "measured": {
            "wall_s": median_wall_s(passes, scaled=False),
            "setup_s": statistics.median(t for t, _ in setup_times) if setup_times else None,
            "op_ms.p50": statistics.median(
                ms for p in passes for ms, _ in p.latencies_ms) if samples else None,
        },
        "work_unit": workload.work_unit,
        "work_units_per_pass": first.work_units,
        "op_ms": {
            "samples": len(samples),
            "p50": statistics.median(samples) if samples else None,
            "p90": percentile(samples, 90) if len(samples) >= 100 else None,
        },
        "failed_ratio": len(failures) / len(ops),
        "failures": failures[:20],
        "counters": dict(sorted(first.counters.items())),
        "digest": hashlib.sha256(
            json.dumps(first.digests, sort_keys=True).encode()).hexdigest(),
        "digests": first.digests,
    }
    print("report " + json.dumps(report, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"failed_ratio = {report['failed_ratio']} ({len(failures)}/{len(ops)} operations)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "lucidnet" / "__init__.py").is_file():
        print(f"error: no lucidnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, Path(args.setup_probe)).setup()
        return 0
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=ROOT / ".bench_work"))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
