"""Command-line entry points.

Exit codes: 0 success, 1 usage problem, 2 data or content error,
3 convergence failure.  Every failure prints a single ``error: ...`` line
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys

from . import data as data_mod
from .errors import (
    DatasetError,
    DivergenceError,
    LucidnetError,
    NotTrainedError,
    PipelineAbort,
    UsageError,
)
from .network import Network, build_network
from .pruning import PruneConfig, PruningProblem, candidate_pool, rate_pool, run_pipeline
from .sensitivity import ValidSet, export_csv
from .training import (
    LossKind,
    TrainConfig,
    evaluate_classification,
    total_loss,
    train_until,
)
from .transparency import (
    RuleSet,
    classify_rules,
    compare_rulesets,
    fixtures_A1_A2,
    is_logically_transparent,
    substitute_step,
    verbalize,
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1,0,1 is not an option (argparse's rule since 3.13)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return config


def _pick(flag_value, config, *keys, default=None):
    if flag_value is not None:
        return flag_value
    node = config
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def _typed(value, key, integer=False):
    """``value`` if it is a JSON integer (``integer``) or number, not a
    bool or a string; else TypeError.  Flags arrive typed by argparse."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise TypeError(f"{key!r} must be {'an integer' if integer else 'a number'}, "
                        f"not {value!r}")
    return value


def _loss_kind(args, config):
    kind = _pick(getattr(args, "loss", None), config, "loss", "kind", default="mse")
    width = _pick(
        getattr(args, "margin_width", None), config, "loss", "margin_width",
        default=1.0,
    )
    try:
        return LossKind(kind=kind, margin_width=float(_typed(width, "margin_width")))
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(f"invalid loss: {exc}") from None


def _train_config(args, config, section="train"):
    def pick(flag_value, key, default, integer=False):
        return _typed(_pick(flag_value, config, section, key, default=default), key, integer)

    try:
        return TrainConfig(
            learning_rate=float(pick(args.lr, "learning_rate", 0.1)),
            momentum=float(pick(args.momentum, "momentum", 0.0)),
            max_epochs=pick(args.epochs, "max_epochs", 1000, integer=True),
            loss_threshold=float(pick(args.threshold, "loss_threshold", 0.0)),
            success_criterion=_pick(args.criterion, config, section, "success_criterion",
                                    default="zero-classification-error"),
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(f"invalid {section} options: {exc}") from None


def _out_dir(args, config):
    out = _pick(args.out, config, "output_dir", default=".")
    os.makedirs(out, exist_ok=True)
    return out


def _load_dataset_arg(args, config):
    path = _pick(args.dataset, config, "dataset")
    if path is None:
        raise UsageError("a dataset is required (--dataset or config)")
    return data_mod.load_dataset(path)


# -- commands ----------------------------------------------------------------


def cmd_train(args):
    config = _load_config(args.config)
    dataset = _load_dataset_arg(args, config)
    arch = _pick(args.arch, config, "network", "arch")
    if arch is None:
        raise UsageError("a network architecture is required (--arch or config)")
    if isinstance(arch, str):
        try:
            arch = [int(v) for v in arch.replace("-", ",").split(",")]
        except ValueError:
            raise UsageError(f"--arch {arch!r} is not a list of layer sizes") from None
    if not (isinstance(arch, list) and arch and all(
            isinstance(v, int) and not isinstance(v, bool) for v in arch)):
        raise UsageError(f"network arch {arch!r} is not a list of layer sizes")
    if arch[0] != len(dataset.feature_names):
        raise UsageError(
            f"architecture input width {arch[0]} does not match dataset width "
            f"{len(dataset.feature_names)}"
        )
    activation = _pick(args.activation, config, "network", "activation",
                       default="tanh")
    labels = _pick(args.labels, config, "network", "labels")
    if labels is None:
        labels = dataset.class_labels
    elif isinstance(labels, str):
        labels = labels.split(",")
    try:
        seed = int(_pick(args.seed, config, "seed", default=0))
        net = build_network(arch, activation=activation, output_labels=labels, seed=seed)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid network options: {exc}") from None
    tcfg = _train_config(args, config)
    loss_kind = _loss_kind(args, config)
    try:
        outcome = train_until(net, dataset, loss_kind, tcfg)
    except DatasetError as exc:  # a row label the network cannot output
        raise UsageError(f"invalid network options: {exc}") from None
    out = _out_dir(args, config)
    net_path = os.path.join(out, "network.json")
    net.save(net_path)
    print(
        f"converged={str(outcome.converged).lower()} "
        f"epochs={outcome.epochs_used} "
        f"loss={outcome.final_total_loss!r} "
        f"accuracy={outcome.final_accuracy!r} "
        f"network={net_path}"
    )
    if not outcome.converged:
        raise NotTrainedError(
            f"training did not converge within {tcfg.max_epochs} epochs "
            f"(loss={outcome.final_total_loss!r})"
        )
    return 0


def _stage_config(stage, retrain, loss_kind, log_sink):
    """PruneConfig of one stage object; a key left out takes the
    PruningProblem or PruneConfig default."""
    if not isinstance(stage, dict) or "problem" not in stage:
        raise UsageError("a pruning stage must be an object with a 'problem'")
    problem, options = {"kind": stage["problem"]}, {}

    def count(key):
        return _typed(stage[key], key, integer=True)

    try:
        if stage.get("valid_set"):
            problem["valid_set"] = ValidSet(tuple(stage["valid_set"]))
        if "target_fan_in" in stage:
            problem["target_fan_in"] = count("target_fan_in")
        if "mode" in stage:
            options["indicator_mode"] = stage["mode"]
        if "accumulation_epochs" in stage:
            options["accumulation_epochs"] = count("accumulation_epochs")
        if "initial_m" in stage:
            m = stage["initial_m"]
            options["initial_m"] = m if m == "half-of-pool" else count("initial_m")
        if "loop" in stage:
            options["loop"] = stage["loop"]
        return PruneConfig(problem=PruningProblem(**problem), retrain=retrain,
                           loss_kind=loss_kind, log_sink=log_sink, **options)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid pruning options: {exc}") from None


def _given(**options):
    """The options whose flags were given."""
    return {key: value for key, value in options.items() if value is not None}


def cmd_prune(args):
    config = _load_config(args.config)
    dataset = _load_dataset_arg(args, config)
    net_path = _pick(args.network, config, "network", "file")
    if net_path is None:
        raise UsageError("a trained network file is required (--network)")
    net = Network.load(net_path)
    retrain = _train_config(args, config, section="retrain")
    loss_kind = _loss_kind(args, config)
    stages = config.get("stages")
    if args.problem is not None or not stages:
        if args.problem is None:
            raise UsageError("either --problem or config stages are required")
        m = args.initial_m  # a string flag: a count or 'half-of-pool'
        try:
            m = int(m)
        except (TypeError, ValueError):
            pass  # None, or text that _stage_config accepts only as 'half-of-pool'
        stages = [_given(
            problem=args.problem, mode=args.mode, accumulation_epochs=args.acc_epochs,
            initial_m=m, loop=args.loop, target_fan_in=args.target_fan_in,
            valid_set=args.valid_set and args.valid_set.split(","),
        )]
    elif not isinstance(stages, list):
        raise UsageError("config 'stages' must be a list")
    out = _out_dir(args, config)
    log_path = os.path.join(out, "prune_log.jsonl")
    for stage in stages:  # refuse a bad stage before the log exists
        _stage_config(stage, retrain, loss_kind, None)
    with open(log_path, "w") as log:
        configs = [_stage_config(stage, retrain, loss_kind, log) for stage in stages]
        results, net = run_pipeline(net, dataset, configs)
    net_path = os.path.join(out, "network.json")
    net.save(net_path)
    for i, (config, result) in enumerate(zip(configs, results)):
        print(f"stage={i} problem={config.problem.kind} steps={len(result.steps)} "
              f"accepted={len(result.accepted_steps)} stop={result.stop_reason}")
    final_loss = total_loss(net, dataset, loss_kind)
    accuracy, _ = evaluate_classification(net, dataset)
    print(
        f"final loss={final_loss!r} accuracy={accuracy!r} "
        f"network={net_path} log={log_path}"
    )
    return 0


def cmd_indicators(args):
    config = _load_config(args.config)
    dataset = _load_dataset_arg(args, config)
    net = Network.load(args.network)
    tcfg = _train_config(args, config)
    loss_kind = _loss_kind(args, config)
    # rate the candidate pool that the class's pruning problem takes
    stage = _stage_config(_given(
        problem={"input": "feature-selection", "weight": "precision-reduction",
                 "neuron": "neuron-removal"}[args.element_class],
        mode=args.mode, accumulation_epochs=args.acc_epochs,
        valid_set=(args.valid_set or "0").split(",")
        if args.element_class == "weight" else None,
    ), tcfg, loss_kind, None)
    # the ledger trains the loaded network in memory; the file is untouched
    final_map = rate_pool(net, dataset, stage, candidate_pool(net, stage.problem))
    out = _out_dir(args, config)
    csv_path = os.path.join(out, "indicators.csv")
    export_csv(final_map, args.element_class, stage.indicator_mode, csv_path)
    print(f"elements={len(final_map)} csv={csv_path}")
    return 0


def cmd_verbalize(args):
    net = Network.load(args.network)
    transparent, violations = is_logically_transparent(net)
    hard = [v for v in violations if v[1] in ("trainable", "non-ternary")]
    if hard:
        for ref, reason in hard:
            print(f"violation: {ref} {reason}", file=sys.stderr)
        raise DatasetError(
            f"network is not ternary-frozen ({len(hard)} violations)"
        )
    feature_names = None
    dataset = None
    if args.dataset:
        dataset = data_mod.load_dataset(args.dataset)
        feature_names = dataset.feature_names
    elif args.feature_names:
        feature_names = args.feature_names.split(",")
    texts = {}
    if args.texts:
        with open(args.texts) as fh:
            texts = json.load(fh)
        if not (isinstance(texts, dict) and all(
                isinstance(v, list) and len(v) == 2
                and all(isinstance(line, str) for line in v)
                for v in texts.values())):
            raise DatasetError(f"--texts {args.texts} must map each feature "
                               "to a pair of sentences")
        texts = {k: tuple(v) for k, v in texts.items()}
    smooth_preds = None
    if dataset is not None and all(
        net.activation(r) != "step" for r in net.iter_neurons()
    ):
        _, smooth_preds = evaluate_classification(net, dataset)
    substitute_step(net)
    if smooth_preds is not None:
        _, step_preds = evaluate_classification(net, dataset)
        changed = sum(a != b for a, b in zip(smooth_preds, step_preds))
        if changed:
            print(
                f"note: the step substitution changes {changed}/{len(dataset)} "
                "training decisions (summators too close to the threshold)"
            )
    ruleset = verbalize(net, feature_names=feature_names, feature_texts=texts)
    out = _out_dir(args, {})
    rules_json = os.path.join(out, "rules.json")
    rules_txt = os.path.join(out, "rules.txt")
    ruleset.save(rules_json)
    with open(rules_txt, "w") as fh:
        fh.write(ruleset.render_text())
    for ref, _ in violations:  # only fan-in notes survive to this point
        print(f"note: {ref} exceeds the readable fan-in")
    print(
        f"rules={len(ruleset.rules)} transparent={str(transparent).lower()} "
        f"text={rules_txt} json={rules_json}"
    )
    return 0


def cmd_compare(args):
    r1 = RuleSet.load(args.rules1)
    r2 = RuleSet.load(args.rules2)
    comparison = compare_rulesets(r1, r2)
    out = _out_dir(args, {})
    csv_path = os.path.join(out, "disagreements.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(comparison.universe + ["r1_class", "r2_class"])
        for assignment, c1, c2 in comparison.disagreements:
            writer.writerow(
                [str(int(assignment[a])) for a in comparison.universe] + [c1, c2]
            )
    print(comparison.summary_line())
    print(
        f"total={comparison.total} "
        f"both{comparison.labels[0]}={comparison.both_first} "
        f"both{comparison.labels[1]}={comparison.both_second} "
        f"disagreements={csv_path}"
    )
    return 0


def cmd_eval(args):
    if (args.network is None) == (args.rules is None):
        raise UsageError("exactly one of --network or --rules is required")
    dataset = data_mod.load_dataset(args.dataset)
    if args.network:
        net = Network.load(args.network)
        accuracy, preds = evaluate_classification(net, dataset)
    else:
        ruleset = RuleSet.load(args.rules)
        columns = dict(zip(dataset.feature_names, dataset.features.T))
        preds = classify_rules(ruleset, columns).tolist()
        correct = sum(p == a for p, a in zip(preds, dataset.labels))
        accuracy = correct / len(dataset)
    print(f"accuracy={accuracy!r}")
    for j, (pred, actual) in enumerate(zip(preds, dataset.labels)):
        print(f"sample={j} predicted={pred} actual={actual}")
    return 0


def cmd_export_fixtures(args):
    out = _out_dir(args, {})
    a1, a2 = fixtures_A1_A2()
    a1_path = os.path.join(out, "a1.json")
    a2_path = os.path.join(out, "a2.json")
    a1.save(a1_path)
    a2.save(a2_path)
    template = os.path.join(out, "election_template.csv")
    with open(template, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data_mod.ELECTION_FEATURE_NAMES + ["class"])
    print(f"a1={a1_path} a2={a2_path} template={template}")
    return 0


def _add_train_flags(p):
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--criterion", choices=(
        "loss-below-threshold", "zero-classification-error"), default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--loss", choices=("mse", "margin"), default=None)
    p.add_argument("--margin-width", type=float, default=None, dest="margin_width")
    p.add_argument("--seed", type=int, default=None)


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared after that:
    nothing changes it once built, and each parse makes a fresh Namespace."""
    parser = _Parser(prog="lucidnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a fresh network on a dataset")
    p.add_argument("--dataset")
    p.add_argument("--arch", help="layer sizes, e.g. 12,10,10,2")
    p.add_argument("--activation", choices=("tanh", "sigmoid"))
    p.add_argument("--labels", help="output class labels, e.g. P,O")
    p.add_argument("--config")
    p.add_argument("--out")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="run pruning stages on a trained network")
    p.add_argument("--network")
    p.add_argument("--dataset")
    p.add_argument("--config")
    p.add_argument("--problem", choices=(
        "feature-selection", "neuron-removal", "synapse-removal",
        "precision-reduction", "uniform-simplification"))
    p.add_argument("--mode", choices=("max", "avg"))
    p.add_argument("--valid-set", dest="valid_set",
                   help="comma-separated values, e.g. -1,0,1")
    p.add_argument("--target-fan-in", type=int, dest="target_fan_in")
    p.add_argument("--acc-epochs", type=int, dest="acc_epochs")
    p.add_argument("--initial-m", dest="initial_m")
    p.add_argument("--loop", choices=("basic", "accelerated"))
    p.add_argument("--out")
    _add_train_flags(p)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("indicators", help="export a sensitivity indicator table")
    p.add_argument("--network", required=True)
    p.add_argument("--dataset")
    p.add_argument("--element-class", dest="element_class", required=True,
                   choices=("input", "weight", "neuron"))
    p.add_argument("--mode", choices=("max", "avg"))
    p.add_argument("--valid-set", dest="valid_set")
    p.add_argument("--acc-epochs", type=int, dest="acc_epochs")
    p.add_argument("--config")
    p.add_argument("--out")
    _add_train_flags(p)
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("verbalize", help="extract threshold rules from a "
                                         "frozen ternary network")
    p.add_argument("--network", required=True)
    p.add_argument("--dataset", help="dataset whose header names the features")
    p.add_argument("--feature-names", dest="feature_names")
    p.add_argument("--texts", help="JSON file of feature sentence pairs")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verbalize)

    p = sub.add_parser("compare", help="exhaustively compare two rule sets")
    p.add_argument("--rules1", required=True)
    p.add_argument("--rules2", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("eval", help="accuracy of a network or rule set on a dataset")
    p.add_argument("--network")
    p.add_argument("--rules")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-fixtures", help="write the shipped election "
                                               "rule sets and CSV template")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotTrainedError, PipelineAbort, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LucidnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: cannot decode input file: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
