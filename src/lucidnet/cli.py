"""Command-line entry points.

Exit codes: 0 success, 1 usage problem, 2 data or content error,
3 convergence failure.  Every failure prints a single ``error: ...`` line
on stderr.
"""

from __future__ import annotations

import argparse
import collections
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
from .pruning import (
    PruneConfig,
    PruningProblem,
    candidate_pool,
    rate_pool,
    require_trained,
    run_pipeline,
)
from .sensitivity import ValidSet, export_csv
from .training import (
    EpochWorkspace,
    LossKind,
    TrainConfig,
    evaluate_classification,
    train_until,
)
from .transparency import (
    RuleSet,
    classify_rules,
    compare_rulesets,
    feature_texts_from,
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


# a JSON type: the name an error message gives it, and its test
JsonType = collections.namedtuple("JsonType", "name test")
STRING = JsonType("a string", lambda value: isinstance(value, str))
INTEGER = JsonType("an integer",
                   lambda value: isinstance(value, int) and not isinstance(value, bool))
NUMBER = JsonType("a number", lambda value: INTEGER.test(value) or isinstance(value, float))
OBJECT = JsonType("an object", lambda value: isinstance(value, dict))


def _list_of(name, test, min_len=0):
    return JsonType(name, lambda value: isinstance(value, list) and len(value) >= min_len
                    and all(map(test, value)))


REQUIRED = object()  # the default of an option that a command cannot run without
_TRAIN = {
    "learning_rate": (NUMBER, 0.1),
    "momentum": (NUMBER, 0.0),
    "max_epochs": (INTEGER, 1000),
    "loss_threshold": (NUMBER, 0.0),
    "success_criterion": (STRING, "zero-classification-error"),
}
# Every key a config file may hold: (section, key) -> (JSON type, default).
# Section None is the top level, and "stages" each object in that list.
# Each flag's dest is its key.  A stage key left out takes the library's
# default, which None stands for; a section has no default of its own.
OPTIONS = {
    (None, "dataset"): (STRING, REQUIRED),
    (None, "output_dir"): (STRING, "."),
    (None, "seed"): (INTEGER, 0),
    **{(None, key): (OBJECT, None) for key in ("network", "train", "retrain", "loss")},
    (None, "stages"): (_list_of("a list of pruning stages, each an object with a 'problem'",
                                lambda item: OBJECT.test(item) and "problem" in item), None),
    ("network", "file"): (STRING, REQUIRED),
    ("network", "arch"): (_list_of("a list of layer sizes", INTEGER.test, min_len=1),
                          REQUIRED),
    ("network", "activation"): (STRING, "tanh"),
    ("network", "labels"): (_list_of("a list of strings", STRING.test), None),
    **{(s, key): spec for s in ("train", "retrain") for key, spec in _TRAIN.items()},
    ("loss", "kind"): (STRING, "mse"),
    ("loss", "margin_width"): (NUMBER, 1.0),
    ("stages", "problem"): (STRING, REQUIRED),
    ("stages", "mode"): (STRING, None),
    ("stages", "accumulation_epochs"): (INTEGER, None),
    ("stages", "initial_m"): (JsonType("an integer or 'half-of-pool'", lambda value: (
        value == "half-of-pool" or INTEGER.test(value))), None),
    ("stages", "loop"): (STRING, None),
    ("stages", "target_fan_in"): (INTEGER, None),
    ("stages", "valid_set"): (_list_of("a nonempty list of numbers", NUMBER.test, min_len=1),
                              None),
}


def _checked(section, node):
    """Refuse a key of ``node`` (the config object, one of its sections or
    one stage) that OPTIONS lacks, or a value of the wrong JSON type."""
    where = f" in {section!r}" if section else ""
    for key, value in node.items():
        if (section, key) not in OPTIONS:
            raise UsageError(f"unknown config key {key!r}{where}")
        json_type, _ = OPTIONS[section, key]
        if not json_type.test(value):
            raise UsageError(f"{key!r}{where} must be {json_type.name}, not {value!r}")
        if json_type is OBJECT:
            _checked(key, value)
        elif key == "stages":
            for stage in value:
                _checked(key, stage)


def _flag_type(section, key, parse):
    """argparse type: the JSON value that ``parse`` reads from a flag's
    text, refused in the words of a config value of the wrong type."""
    def convert(text):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{key!r} must be {OPTIONS[section, key][0].name}, not {text!r}") from None
    return convert


def _options(args):
    """``option(section, key)`` of one command: the key's flag if given,
    else its value in the ``--config`` file, else its default in OPTIONS;
    a number is a float, and a required option left out is refused."""
    path = vars(args).get("config")
    config = {}
    if path is not None:
        with open(path) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        _checked(None, config)

    def option(section, key):
        json_type, default = OPTIONS[section, key]
        value = vars(args).get(key)
        if value is None:
            value = (config.get(section, {}) if section else config).get(key, default)
        if value is REQUIRED:
            where = f" in {section!r}" if section else ""
            raise UsageError(f"{key!r}{where} is required: give its flag or its config key")
        return float(value) if json_type is NUMBER else value
    return option


def _flag_stage(args):
    """The stage object that the given stage flags make."""
    return {key: value for key, value in vars(args).items()
            if ("stages", key) in OPTIONS and value is not None}


def _training(option, section):
    """The TrainConfig of ``section`` and the LossKind."""
    try:
        return (TrainConfig(**{key: option(section, key) for key in _TRAIN}),
                LossKind(option("loss", "kind"), option("loss", "margin_width")))
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"invalid training options: {exc}") from None


def _out_dir(option):
    out = option(None, "output_dir")
    os.makedirs(out, exist_ok=True)
    return out


# -- commands ----------------------------------------------------------------


def cmd_train(args, option):
    dataset = data_mod.load_dataset(option(None, "dataset"))
    arch = option("network", "arch")
    if arch[0] != len(dataset.feature_names):
        raise UsageError(
            f"architecture input width {arch[0]} does not match dataset width "
            f"{len(dataset.feature_names)}"
        )
    labels = option("network", "labels")
    try:
        net = build_network(arch, activation=option("network", "activation"),
                            output_labels=dataset.class_labels if labels is None else labels,
                            seed=option(None, "seed"))
    except ValueError as exc:
        raise UsageError(f"invalid network options: {exc}") from None
    except MemoryError:
        raise UsageError(f"invalid network options: no memory for layer sizes {arch}") from None
    tcfg, loss_kind = _training(option, "train")
    try:
        outcome = train_until(net, dataset, loss_kind, tcfg)
    except DatasetError as exc:  # a row label the network cannot output
        raise UsageError(f"invalid network options: {exc}") from None
    out = _out_dir(option)
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
    """PruneConfig of one stage object, from flags or the config file; a
    key left out takes the PruningProblem or PruneConfig default."""
    options = {{"mode": "indicator_mode"}.get(k, k): v for k, v in stage.items()}
    problem = {k: options.pop(k) for k in ("valid_set", "target_fan_in") if k in options}
    try:
        if "valid_set" in problem:
            problem["valid_set"] = ValidSet(tuple(problem["valid_set"]))
        return PruneConfig(PruningProblem(options.pop("problem"), **problem), retrain,
                           loss_kind=loss_kind, log_sink=log_sink, **options)
    except ValueError as exc:
        raise UsageError(f"invalid pruning options: {exc}") from None


def cmd_prune(args, option):
    dataset = data_mod.load_dataset(option(None, "dataset"))
    net = Network.load(option("network", "file"))
    retrain, loss_kind = _training(option, "retrain")
    stages = [_flag_stage(args)] if args.problem is not None else option(None, "stages")
    if not stages:
        raise UsageError("either --problem or config stages are required")
    out = _out_dir(option)
    log_path = os.path.join(out, "prune_log.jsonl")
    # refuse a bad stage, and a network that the first stage refuses at its
    # entry (exit 2 or 3), before the log exists
    checked = [_stage_config(stage, retrain, loss_kind, None) for stage in stages]
    require_trained(net, dataset, checked[0])
    with open(log_path, "w") as log:
        configs = [_stage_config(stage, retrain, loss_kind, log) for stage in stages]
        results, net = run_pipeline(net, dataset, configs)
    net_path = os.path.join(out, "network.json")
    net.save(net_path)
    for i, (config, result) in enumerate(zip(configs, results)):
        print(f"stage={i} problem={config.problem.kind} steps={len(result.steps)} "
              f"accepted={len(result.accepted_steps)} stop={result.stop_reason}")
    # one evaluation gives both; the entry check refused labels the net lacks
    work = EpochWorkspace(net, dataset, loss_kind)
    final_loss = work.evaluate()[0]
    accuracy = work.judge(retrain, final_loss)[1]
    print(
        f"final loss={final_loss!r} accuracy={accuracy!r} "
        f"network={net_path} log={log_path}"
    )
    return 0


def cmd_indicators(args, option):
    dataset = data_mod.load_dataset(option(None, "dataset"))
    net = Network.load(option("network", "file"))
    tcfg, loss_kind = _training(option, "train")
    # rate the candidate pool that the class's pruning problem takes
    stage = _flag_stage(args)
    stage["problem"] = {"input": "feature-selection", "weight": "precision-reduction",
                        "neuron": "neuron-removal"}[args.element_class]
    if stage["problem"] != "precision-reduction":
        del stage["valid_set"]  # only the weight class reads a valid set
    stage = _stage_config(stage, tcfg, loss_kind, None)
    # the ledger trains the loaded network in memory; the file is untouched
    final_map = rate_pool(net, dataset, stage, candidate_pool(net, stage.problem))
    out = _out_dir(option)
    csv_path = os.path.join(out, "indicators.csv")
    export_csv(final_map, args.element_class, stage.indicator_mode, csv_path)
    print(f"elements={len(final_map)} csv={csv_path}")
    return 0


def cmd_verbalize(args, option):
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
    if feature_names is not None and len(feature_names) != net.input_dim:
        raise UsageError(f"{len(feature_names)} feature names for a network "
                         f"of {net.input_dim} inputs")
    texts = {}
    if args.texts:
        with open(args.texts) as fh:
            texts = feature_texts_from(json.load(fh), f"--texts {args.texts}")
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
    out = _out_dir(option)
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


def cmd_compare(args, option):
    r1 = RuleSet.load(args.rules1)
    r2 = RuleSet.load(args.rules2)
    comparison = compare_rulesets(r1, r2)
    out = _out_dir(option)
    csv_path = os.path.join(out, "disagreements.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(comparison.universe + ["r1_class", "r2_class"])
        for index, c1, c2 in comparison.disagreements:
            writer.writerow([*comparison.assignment(index).values(), c1, c2])
    print(comparison.summary_line())
    print(
        f"total={comparison.total} "
        f"both{comparison.labels[0]}={comparison.both_first} "
        f"both{comparison.labels[1]}={comparison.both_second} "
        f"disagreements={csv_path}"
    )
    return 0


def cmd_eval(args, option):
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


def cmd_export_fixtures(args, option):
    out = _out_dir(option)
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


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared after that:
    nothing changes it once built, and each parse makes a fresh Namespace."""
    parser = _Parser(prog="lucidnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags of the commands that read a config file
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--dataset")
    configured.add_argument("--config")
    configured.add_argument("--out", dest="output_dir")
    configured.add_argument("--lr", type=float, dest="learning_rate")
    configured.add_argument("--momentum", type=float)
    configured.add_argument("--epochs", type=int, dest="max_epochs")
    configured.add_argument("--criterion", choices=(
        "loss-below-threshold", "zero-classification-error"), dest="success_criterion")
    configured.add_argument("--threshold", type=float, dest="loss_threshold")
    configured.add_argument("--loss", choices=("mse", "margin"), dest="kind")
    configured.add_argument("--margin-width", type=float)
    configured.add_argument("--seed", type=int)
    valid_set = _flag_type("stages", "valid_set",
                           lambda text: [float(v) for v in text.split(",")])

    p = sub.add_parser("train", parents=[configured],
                       help="train a fresh network on a dataset")
    p.add_argument("--arch", help="layer sizes, e.g. 12,10,10,2", type=_flag_type(
        "network", "arch", lambda text: [int(v) for v in text.replace("-", ",").split(",")]))
    p.add_argument("--activation", choices=("tanh", "sigmoid"))
    p.add_argument("--labels", help="output class labels, e.g. P,O",
                   type=lambda text: text.split(","))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", parents=[configured],
                       help="run pruning stages on a trained network")
    p.add_argument("--network", dest="file")
    p.add_argument("--problem", choices=(
        "feature-selection", "neuron-removal", "synapse-removal",
        "precision-reduction", "uniform-simplification"))
    p.add_argument("--mode", choices=("max", "avg"))
    p.add_argument("--valid-set", type=valid_set,
                   help="comma-separated values, e.g. -1,0,1")
    p.add_argument("--target-fan-in", type=int)
    p.add_argument("--acc-epochs", type=int, dest="accumulation_epochs")
    p.add_argument("--initial-m", type=_flag_type(
        "stages", "initial_m", lambda text: text if text == "half-of-pool" else int(text)))
    p.add_argument("--loop", choices=("basic", "accelerated"))
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("indicators", parents=[configured],
                       help="export a sensitivity indicator table")
    p.add_argument("--network", dest="file", required=True)
    p.add_argument("--element-class", required=True,
                   choices=("input", "weight", "neuron"))
    p.add_argument("--mode", choices=("max", "avg"))
    p.add_argument("--valid-set", type=valid_set, default=[0])
    p.add_argument("--acc-epochs", type=int, dest="accumulation_epochs")
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("verbalize", help="extract threshold rules from a "
                                         "frozen ternary network")
    p.add_argument("--network", required=True)
    p.add_argument("--dataset", help="dataset whose header names the features")
    p.add_argument("--feature-names")
    p.add_argument("--texts", help="JSON file of feature sentence pairs")
    p.add_argument("--out", dest="output_dir")
    p.set_defaults(func=cmd_verbalize)

    p = sub.add_parser("compare", help="exhaustively compare two rule sets")
    p.add_argument("--rules1", required=True)
    p.add_argument("--rules2", required=True)
    p.add_argument("--out", dest="output_dir")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("eval", help="accuracy of a network or rule set on a dataset")
    p.add_argument("--network")
    p.add_argument("--rules")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-fixtures", help="write the shipped election "
                                               "rule sets and CSV template")
    p.add_argument("--out", dest="output_dir")
    p.set_defaults(func=cmd_export_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, _options(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotTrainedError, PipelineAbort, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LucidnetError, OSError) as exc:  # OSError: missing, a directory, no permission
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
