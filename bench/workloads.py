"""The benchmark's workloads: inputs made from a seed, one pass of
operations through lucidnet's public API, and a check on every output.

An operation is one CLI command, one library pipeline call or one rule-set
comparison.  Only the operations are timed; the checks between them are
not.  Each operation fails on an exception, an unexpected exit code or a
failed output check, and a failure ends the unit (network seed or rule-set
pair) it belongs to without stopping the pass.

A pass does the same work every time for one seed, so its work counters
and output digests must repeat exactly: they are the behaviour gate that
lets a faster program prove it did the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import re
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import lucidnet as L  # noqa: E402
from lucidnet import cli  # noqa: E402

import checks  # noqa: E402

FIXTURES = ROOT / "src" / "lucidnet" / "fixtures"


class OpFailed(Exception):
    """An operation failed and the rest of its unit depends on it."""


@dataclass
class Op:
    name: str
    seconds: float
    error: str | None = None
    scale: float = 1.0  # to the nominal machine speed, see reference.py


class Pass:
    """Operations, work counters, output digests and unit-operation
    latencies of one pass over a workload.  ``speed`` (reference.py) is
    timed right before each operation, outside its timing."""

    def __init__(self, speed):
        self.speed = speed
        self.ops = []
        self.counters = Counter()
        self.digests = {}
        self.latencies_ms = []  # (measured ms, scale)
        self.work_units = 0

    @property
    def wall_s(self):
        return sum(op.seconds for op in self.ops)

    def run(self, name, fn, *args):
        """Time one operation; an exception fails it and raises OpFailed."""
        scale = self.speed.scale()
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any exception is a failed operation
            self.ops.append(Op(name, time.perf_counter() - start,
                               f"{type(exc).__name__}: {exc}", scale))
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(name) from exc
        op = Op(name, time.perf_counter() - start, scale=scale)
        self.ops.append(op)
        return op, result

    @staticmethod
    def check(op, ok, message):
        if not ok and op.error is None:
            op.error = message
        return ok

    def require(self, op, ok, message):
        if not self.check(op, ok, message):
            raise OpFailed(op.name)

    def digest(self, op, label, payload):
        if isinstance(payload, str):
            payload = payload.encode()
        self.digests[f"{op.name}:{label}"] = hashlib.sha256(payload).hexdigest()


def call_cli(argv):
    """``lucidnet.cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _field(text, key):
    match = re.search(rf"\b{re.escape(key)}=(\S+)", text)
    return match.group(1) if match else None


def record_stage(p, op, stage, records, step_times, accumulation_epochs):
    """Check one pruning stage's log and add its work to the counters.

    The loop computes fresh indicators before every step of staleness 0,
    and once more when the pool runs dry, which is how a stage ends unless
    its last step was rejected.
    """
    p.check(op, all(r["save_hash"] == r["net_hash_after"]
                    for r in records if not r["accepted"]),
            "a rejected step did not restore its snapshot")
    p.check(op, [len(t) for t in step_times] == [len(records)],
            "the step clock missed a pruning step")
    p.latencies_ms.extend((ms, op.scale) for ms in itertools.chain.from_iterable(step_times))
    accepted = [r for r in records if r["accepted"]]
    ledgers = sum(r["staleness"] == 0 for r in records)
    ledgers += not records or records[-1]["accepted"]
    c = p.counters
    c["steps"] += len(records)
    c["steps_accepted"] += len(accepted)
    c[f"stage{stage}.steps"] += len(records)
    c[f"stage{stage}.steps_accepted"] += len(accepted)
    c["epochs.ledger"] += ledgers * accumulation_epochs
    c["epochs.retrain"] += sum(r["epochs_used"] for r in records)
    c["epochs.retrain_kept"] += sum(r["epochs_used"] for r in accepted)


def epochs(counters):
    """All training epochs: initial, ledger and retrain."""
    return counters["epochs.initial"] + counters["epochs.ledger"] + counters["epochs.retrain"]


class Majority8Cli:
    """All 256 rows of 8 ±1 features labelled by the majority of features
    {0, 2, 4, 5, 7}; per network seed: train 8-6-1, prune in four stages,
    verbalize and evaluate the rules, all through ``lucidnet.cli.main``.

    At N = 256 an epoch is cheap, so per-call overhead, JSON snapshots and
    the CLI's own file handling carry a large share of the time.  This is
    the only workload through the CLI's prune loop, ``data`` and JSON I/O.
    """

    name = "majority8-cli"
    work_unit = "epochs"
    RELEVANT = (0, 2, 4, 5, 7)
    ACCUMULATION_EPOCHS = 3
    STAGES = [
        {"problem": "feature-selection", "loop": "basic"},
        {"problem": "uniform-simplification", "target_fan_in": 3,
         "loop": "accelerated"},
        {"problem": "synapse-removal", "loop": "basic"},
        {"problem": "precision-reduction", "valid_set": [-1, 0, 1],
         "loop": "basic"},
    ]

    def __init__(self, seed, inputs, size=24):
        rng = np.random.default_rng(seed)
        self.net_seeds = [int(s) for s in rng.integers(0, 2**31, size)]
        self.inputs = Path(inputs)
        self.csv = str(self.inputs / "majority8.csv")

    def setup(self):
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.X = np.array(list(itertools.product((-1.0, 1.0), repeat=8)))
        votes = self.X[:, list(self.RELEVANT)].sum(axis=1)
        self.labels = np.where(votes > 0, "pos", "neg")
        self.columns = {f"x{k}": self.X[:, k] for k in range(8)}
        with open(self.csv, "w") as fh:
            fh.write(",".join(self.columns) + ",class\n")
            for row, label in zip(self.X, self.labels):
                fh.write(",".join(str(int(v)) for v in row) + f",{label}\n")
        for k, stage in enumerate(self.STAGES):
            stage = dict(stage, mode="avg",
                         accumulation_epochs=self.ACCUMULATION_EPOCHS)
            config = {
                "stages": [stage],
                "retrain": {"learning_rate": 0.005, "momentum": 0.0,
                            "max_epochs": 200},
            }
            (self.inputs / f"stage{k}.json").write_text(json.dumps(config))

    def run_pass(self, out, clock, speed):
        p = Pass(speed)
        for i, seed in enumerate(self.net_seeds):
            clock.take()
            with contextlib.suppress(OpFailed):
                self._unit(p, f"net{i}", seed, Path(out) / f"net{i}", clock)
        p.work_units = epochs(p.counters)
        return p

    def _network(self, p, op, path):
        text = path.read_text()
        p.digest(op, "network.json", text)
        doc = json.loads(text)
        predicted = checks.network_predictions(doc, self.X)
        p.check(op, np.array_equal(predicted, self.labels),
                "network accuracy is below 1.0")
        return doc

    def _unit(self, p, tag, seed, out, clock):
        p.counters["runs"] += 1
        net_path = out / "train" / "network.json"
        op, (code, stdout, _) = p.run(f"{tag}.train", call_cli, [
            "train", "--dataset", self.csv, "--arch", "8,6,1",
            "--labels", "pos,neg", "--lr", "0.005", "--epochs", "3000",
            "--seed", str(seed), "--out", str(out / "train"),
        ])
        p.require(op, code == 0, f"train exited with {code}")
        p.counters["epochs.initial"] += int(_field(stdout, "epochs"))
        doc = self._network(p, op, net_path)
        for k in range(len(self.STAGES)):
            stage_dir = out / f"stage{k}"
            op, (code, _, _) = p.run(f"{tag}.prune{k}", call_cli, [
                "prune", "--network", str(net_path), "--dataset", self.csv,
                "--config", str(self.inputs / f"stage{k}.json"),
                "--out", str(stage_dir),
            ])
            p.require(op, code == 0, f"prune exited with {code}")
            log = (stage_dir / "prune_log.jsonl").read_text()
            p.digest(op, "prune_log.jsonl", log)
            records = [json.loads(line) for line in log.splitlines()]
            record_stage(p, op, k, records, clock.take(), self.ACCUMULATION_EPOCHS)
            net_path = stage_dir / "network.json"
            doc = self._network(p, op, net_path)

        # verbalize refuses (exit 2) a network that is not ternary-frozen:
        # a counted non-transparent outcome, not a failure
        frozen = checks.frozen_ternary(doc)
        rules_dir = out / "rules"
        op, (code, stdout, _) = p.run(f"{tag}.verbalize", call_cli, [
            "verbalize", "--network", str(net_path), "--dataset", self.csv,
            "--out", str(rules_dir),
        ])
        p.require(op, code == (0 if frozen else 2),
                  f"verbalize exited with {code} (ternary-frozen: {frozen})")
        if not frozen:
            return
        transparent = _field(stdout, "transparent") == "true"
        p.check(op, transparent == checks.transparent(doc),
                "verbalize's transparent flag disagrees with the network")
        p.counters["transparent_runs"] += transparent
        rules_text = (rules_dir / "rules.json").read_text()
        p.digest(op, "rules.json", rules_text)
        rules = checks.rule_predictions(json.loads(rules_text), self.columns)
        step = checks.network_predictions(doc, self.X, step=True)
        p.check(op, np.array_equal(rules, step),
                "verbalized rules differ from the step network")

        op, (code, stdout, _) = p.run(f"{tag}.eval", call_cli, [
            "eval", "--rules", str(rules_dir / "rules.json"),
            "--dataset", self.csv,
        ])
        p.require(op, code == 0, f"eval exited with {code}")
        p.digest(op, "stdout", stdout)
        p.check(op, re.findall(r"predicted=(\S+)", stdout) == list(rules),
                "eval --rules disagrees with the rules")


class Election1024:
    """1,024 of the 4,096 assignments of 12 ±1 features, sampled by seed
    and labelled by the shipped A1 rule set; per sample: train 12-10-10-2,
    run the four-stage basic pipeline through ``run_pipeline``, then
    ``substitute_step`` and ``verbalize``.

    At this N the batch arithmetic of ``forward_batch``/``backward_batch``
    dominates, and the wider net multiplies per-element ledger work.  This
    is the library path, not the CLI's own prune loop.
    """

    name = "election1024"
    work_unit = "epochs"
    FEATURES = [f"q{k}" for k in range(1, 13)]
    ACCUMULATION_EPOCHS = 3
    STAGES = [
        ("feature-selection", {}),
        ("uniform-simplification", {"target_fan_in": 3}),
        ("neuron-removal", {}),
        ("precision-reduction", {"valid_set": L.ValidSet.ternary()}),
    ]
    TRAIN = L.TrainConfig(learning_rate=0.002, momentum=0.5, max_epochs=1000)
    RETRAIN = L.TrainConfig(learning_rate=0.002, momentum=0.5, max_epochs=200)

    def __init__(self, seed, inputs, size=2):
        rng = np.random.default_rng(seed)
        self.samples = [
            (np.sort(rng.choice(4096, size=1024, replace=False)),
             int(rng.integers(0, 2**31)))
            for _ in range(size)
        ]

    def setup(self):
        a1 = json.loads((FIXTURES / "a1.json").read_text())
        grid = np.array(list(itertools.product((-1.0, 1.0), repeat=12)))
        labels = checks.rule_predictions(
            a1, {name: grid[:, k] for k, name in enumerate(self.FEATURES)}
        )
        self.units = [
            (L.Dataset(self.FEATURES, grid[rows], [str(v) for v in labels[rows]],
                       ["P", "O"]),
             net_seed)
            for rows, net_seed in self.samples
        ]

    def run_pass(self, out, clock, speed):
        p = Pass(speed)
        for i, (data, net_seed) in enumerate(self.units):
            clock.take()
            with contextlib.suppress(OpFailed):
                self._unit(p, f"run{i}", data, net_seed, clock)
        p.work_units = epochs(p.counters)
        return p

    @staticmethod
    def _network(p, op, net, data):
        text = net.to_json()
        p.digest(op, "network.json", text)
        doc = json.loads(text)
        predicted = checks.network_predictions(doc, data.features)
        p.check(op, np.array_equal(predicted, data.labels),
                "network accuracy is below 1.0")
        return doc

    def _unit(self, p, tag, data, net_seed, clock):
        p.counters["runs"] += 1
        loss = L.LossKind("mse")

        def train():
            net = L.build_network((12, 10, 10, 2), output_labels=["P", "O"],
                                  seed=net_seed)
            return net, L.train_until(net, data, loss, self.TRAIN)

        op, (net, outcome) = p.run(f"{tag}.train", train)
        p.require(op, outcome.converged, "initial training did not converge")
        p.counters["epochs.initial"] += outcome.epochs_used
        doc = self._network(p, op, net, data)
        for k, (problem, options) in enumerate(self.STAGES):
            log = io.StringIO()
            config = L.PruneConfig(
                problem=L.PruningProblem(problem, **options),
                retrain=self.RETRAIN,
                loss_kind=loss,
                indicator_mode="avg",
                accumulation_epochs=self.ACCUMULATION_EPOCHS,
                loop="basic",
                log_sink=log,
            )
            op, (_, net) = p.run(f"{tag}.prune{k}", L.run_pipeline, net, data, [config])
            p.digest(op, "prune_log.jsonl", log.getvalue())
            records = [json.loads(line) for line in log.getvalue().splitlines()]
            record_stage(p, op, k, records, clock.take(), self.ACCUMULATION_EPOCHS)
            doc = self._network(p, op, net, data)

        op, (transparent, _) = p.run(f"{tag}.transparency",
                                     L.is_logically_transparent, net)
        p.check(op, transparent == checks.transparent(doc),
                "is_logically_transparent disagrees with the network")
        p.counters["transparent_runs"] += transparent
        if not checks.frozen_ternary(doc):
            return

        def extract():
            L.substitute_step(net)
            return L.verbalize(net, feature_names=data.feature_names)

        op, ruleset = p.run(f"{tag}.verbalize", extract)
        rules_text = ruleset.to_json()
        p.digest(op, "rules.json", rules_text)
        columns = {name: data.features[:, k] for k, name in enumerate(self.FEATURES)}
        rules = checks.rule_predictions(json.loads(rules_text), columns)
        step = checks.network_predictions(doc, data.features, step=True)
        p.check(op, np.array_equal(rules, step),
                "verbalized rules differ from the step network")


class Compare16:
    """``compare_rulesets`` on seeded pairs of generated rule sets of the A1
    shape: two "at least 2 of 4" syndromes and an "at least 1 of 2" output
    rule each, the two sets splitting a 16-attribute universe (65,536
    assignments per comparison); plus the CLI ``compare`` on the shipped
    A1/A2 pair as a known answer.

    The seed picks each set's attributes and signs.  With A1's thresholds
    fixed, every pair has the same agreement counts by symmetry, so every
    seed does the same work and keeps the same disagreement list in memory.

    No training happens here, so training or network changes must leave
    this workload unchanged, and rule-evaluation changes show only here.
    """

    name = "compare16"
    work_unit = "assignments"
    ATTRIBUTES = [f"a{k:02d}" for k in range(1, 17)]
    A1_A2_SUMMARY = "agree=98 r1P_r2O=19 r1O_r2P=11"

    def __init__(self, seed, inputs, size=4):
        self.seed = seed
        self.size = size
        self.inputs = Path(inputs)
        self._expected = {}

    @staticmethod
    def _ruleset(rng, attributes):
        rules = [
            {
                "name": f"syndrome-{j}",
                "title": None,
                "k": 2,
                "statements": [
                    {"feature": str(a), "affirmed": bool(rng.integers(2))}
                    for a in attributes[4 * j: 4 * j + 4]
                ],
            }
            for j in range(2)
        ]
        rules.append({
            "name": "outcome",
            "title": None,
            "k": 1,
            "statements": [{"rule": "syndrome-0", "affirmed": True},
                           {"rule": "syndrome-1", "affirmed": True}],
        })
        return {"class_labels": ["P", "O"], "feature_texts": {}, "rules": rules,
                "output_rules": [{"label": "O", "rule": "outcome"}]}

    def setup(self):
        self.inputs.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.pairs = []
        for j in range(self.size):
            order = rng.permutation(self.ATTRIBUTES)
            paths = []
            for half in (order[:8], order[8:]):
                path = self.inputs / f"pair{j}-r{len(paths) + 1}.json"
                path.write_text(json.dumps(self._ruleset(rng, half)))
                paths.append(path)
            self.pairs.append(tuple(paths))

    def _expected_counts(self, path1, path2):
        key = (path1, path2)
        if key not in self._expected:
            self._expected[key] = checks.compare_counts(
                json.loads(Path(path1).read_text()), json.loads(Path(path2).read_text())
            )
        return self._expected[key]

    def run_pass(self, out, clock, speed):
        p = Pass(speed)
        for j, (path1, path2) in enumerate(self.pairs):
            with contextlib.suppress(OpFailed):
                self._pair(p, f"pair{j}", path1, path2)
        with contextlib.suppress(OpFailed):
            self._known_answer(p, Path(out) / "a1a2")
        p.work_units = p.counters["assignments"]
        return p

    def _pair(self, p, tag, path1, path2):
        def compare():
            return L.compare_rulesets(L.RuleSet.load(path1), L.RuleSet.load(path2))

        op, result = p.run(f"{tag}.compare", compare)
        counts = (result.both_first, result.both_second,
                  result.first_second, result.second_first)
        p.check(op, counts == self._expected_counts(path1, path2),
                "comparison counts differ from the brute force")
        p.check(op, len(result.disagreements) == counts[2] + counts[3],
                "disagreement list does not match the counts")
        p.digest(op, "counts", json.dumps(counts))
        p.latencies_ms.append((1000.0 * op.seconds, op.scale))
        p.counters["comparisons"] += 1
        p.counters["assignments"] += result.total

    def _known_answer(self, p, out):
        a1, a2 = FIXTURES / "a1.json", FIXTURES / "a2.json"
        op, (code, stdout, _) = p.run("a1a2.cli-compare", call_cli, [
            "compare", "--rules1", str(a1), "--rules2", str(a2), "--out", str(out),
        ])
        p.require(op, code == 0, f"compare exited with {code}")
        p.check(op, stdout.splitlines()[:1] == [self.A1_A2_SUMMARY],
                f"compare printed {stdout.splitlines()[:1]}")
        both_first, both_second, first_second, second_first = self._expected_counts(a1, a2)
        p.check(op, (both_first + both_second, first_second, second_first) == (98, 19, 11),
                "brute force disagrees with the known A1/A2 answer")
        p.digest(op, "disagreements.csv", (out / "disagreements.csv").read_bytes())
        p.counters["comparisons"] += 1
        p.counters["assignments"] += int(_field(stdout, "total"))


WORKLOADS = {w.name: w for w in (Majority8Cli, Election1024, Compare16)}
