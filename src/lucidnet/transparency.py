"""Rule extraction from frozen ternary networks.

A network whose live weights are all frozen at -1, 0, or +1 can have its
smooth activations replaced by a hard threshold without changing the sign
structure of its decisions; each neuron then IS a verbal statement: "at
least k of the following hold".  With ±1 inputs, t satisfied statements out
of m give a weighted sum of 2t - m, so a neuron with bias w0 fires exactly
when t >= ceil((m - w0) / 2).  Hidden neurons become named syndromes that
later rules may cite, affirmed or negated; output neurons become the class
rules.

Fan-in at most three is what makes the result pleasant to read, not what
makes it correct: verbalization is exact for any ternary frozen step
network.

Rule sets run through one interpreter, ``classify_rules``, which takes a
whole block of assignments as ±1 feature columns: ``evaluate_rules`` is its
one-row call, ``compare_rulesets`` enumerates a universe in blocks of 4,096
assignments, and ``lucidnet eval --rules`` passes the dataset's columns.
``RuleSet.from_doc`` rejects a malformed rule-set document with a
``DatasetError``, which the CLI reports with exit code 2.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, LucidnetError, TransparencyError
from .network import Network, Neuron, Synapse

TERNARY = (-1.0, 0.0, 1.0)


@dataclass(frozen=True)
class Statement:
    """One condition: a feature or an earlier rule, affirmed or negated."""

    affirmed: bool
    feature: str | None = None
    rule: str | None = None

    def __post_init__(self):
        if (self.feature is None) == (self.rule is None):
            raise ValueError("statement needs exactly one of feature or rule")

    def render(self, feature_texts=None):
        if self.feature is not None:
            texts = (feature_texts or {}).get(self.feature)
            if texts:
                return texts[0] if self.affirmed else texts[1]
            return f"{self.feature} is {'yes' if self.affirmed else 'no'}"
        state = "present" if self.affirmed else "absent"
        return f"{self.rule} is {state}"


@dataclass
class ThresholdRule:
    """'At least k of the following statements hold.'

    k may fall outside [1, len(statements)] for degenerate neurons: k <= 0
    is a rule that always holds, k > len(statements) one that never does.
    """

    name: str
    k: int
    statements: list
    title: str | None = None


def _require(ok, message):
    if not ok:
        raise DatasetError(f"rule set: {message}")


@dataclass
class RuleSet:
    rules: list
    output_rules: list  # ordered (class label, rule name) pairs
    class_labels: list
    feature_texts: dict = field(default_factory=dict)

    @property
    def attribute_universe(self):
        names = set()
        for rule in self.rules:
            for st in rule.statements:
                if st.feature is not None:
                    names.add(st.feature)
        return sorted(names)

    # -- persistence -----------------------------------------------------

    def to_doc(self):
        return {
            "class_labels": list(self.class_labels),
            "attribute_universe": self.attribute_universe,
            "feature_texts": {k: list(v) for k, v in self.feature_texts.items()},
            "rules": [
                {
                    "name": r.name,
                    "title": r.title,
                    "k": r.k,
                    "statements": [
                        {"feature": s.feature, "affirmed": s.affirmed}
                        if s.feature is not None
                        else {"rule": s.rule, "affirmed": s.affirmed}
                        for s in r.statements
                    ],
                }
                for r in self.rules
            ],
            "output_rules": [
                {"label": label, "rule": name} for label, name in self.output_rules
            ],
        }

    def to_json(self):
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)

    @staticmethod
    def from_doc(doc):
        """Rule set from its JSON document.  Raises DatasetError for a
        missing or mistyped field, a duplicate rule name, a statement that
        cites a rule not defined before it, or an output rule naming an
        unknown rule or class."""
        _require(isinstance(doc, dict), "the document is not a JSON object")
        for key in ("rules", "output_rules", "class_labels"):
            _require(isinstance(doc.get(key), list), f"{key!r} must be a list")
        rules = []
        defined = set()
        for r in doc["rules"]:
            _require(isinstance(r, dict) and isinstance(r.get("name"), str),
                     "every rule needs a string 'name'")
            name, k = r["name"], r.get("k")
            _require(name not in defined, f"rule {name!r} is defined twice")
            _require(isinstance(k, int) and not isinstance(k, bool),
                     f"rule {name!r}: 'k' must be an integer")
            _require(isinstance(r.get("statements"), list),
                     f"rule {name!r}: 'statements' must be a list")
            statements = []
            for st in r["statements"]:
                _require(isinstance(st, dict),
                         f"rule {name!r}: a statement is not a JSON object")
                feature, cited = st.get("feature"), st.get("rule")
                _require((feature is None) != (cited is None),
                         f"rule {name!r}: a statement needs exactly one of "
                         "'feature' or 'rule'")
                _require(isinstance(st.get("affirmed"), bool),
                         f"rule {name!r}: 'affirmed' must be true or false")
                if feature is None:
                    _require(isinstance(cited, str) and cited in defined,
                             f"rule {name!r} cites {cited!r}, which is not "
                             "a rule defined before it")
                else:
                    _require(isinstance(feature, str),
                             f"rule {name!r}: a feature name must be a string")
                statements.append(
                    Statement(affirmed=st["affirmed"], feature=feature, rule=cited)
                )
            rules.append(ThresholdRule(name=name, k=k, statements=statements,
                                       title=r.get("title")))
            defined.add(name)
        output_rules = []
        for out in doc["output_rules"]:
            _require(isinstance(out, dict), "an output rule is not a JSON object")
            label, rule = out.get("label"), out.get("rule")
            _require(isinstance(rule, str) and rule in defined,
                     f"output rule names unknown rule {rule!r}")
            _require(isinstance(label, str) and label in doc["class_labels"],
                     f"output label {label!r} is not a class label")
            output_rules.append((label, rule))
        _require(output_rules, "'output_rules' is empty")
        texts = doc.get("feature_texts", {})
        _require(isinstance(texts, dict) and all(
            isinstance(v, list) and len(v) == 2 for v in texts.values()
        ), "'feature_texts' must map each feature to a pair of sentences")
        return RuleSet(
            rules=rules,
            output_rules=output_rules,
            class_labels=list(doc["class_labels"]),
            feature_texts={k: tuple(v) for k, v in texts.items()},
        )

    @staticmethod
    def from_json(text):
        return RuleSet.from_doc(json.loads(text))

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @staticmethod
    def load(path):
        with open(path) as fh:
            return RuleSet.from_json(fh.read())

    # -- rendering ---------------------------------------------------------

    def render_text(self):
        lines = []
        output_names = {name for _, name in self.output_rules}
        counter = 0
        for rule in self.rules:
            if rule.name in output_names:
                continue
            counter += 1
            shown = f"{rule.name} ({rule.title})" if rule.title else rule.name
            lines.append(
                f"{counter}. {shown} appears if at least {rule.k} of the "
                f"following {len(rule.statements)} statements hold:"
            )
            for st in rule.statements:
                lines.append(f"   - {st.render(self.feature_texts)}")
        by_name = {r.name: r for r in self.rules}
        for label, name in self.output_rules:
            rule = by_name[name]
            lines.append(
                f"Class {label} if at least {rule.k} of the following "
                f"{len(rule.statements)} statements hold:"
            )
            for st in rule.statements:
                lines.append(f"   - {st.render(self.feature_texts)}")
        if len(self.output_rules) == 1 and len(self.class_labels) == 2:
            label = self.output_rules[0][0]
            other = next(c for c in self.class_labels if c != label)
            lines.append(f"Otherwise class {other}.")
        elif len(self.output_rules) > 1:
            lines.append(
                "Predict the class whose rule holds; if several or none do, "
                f"the first of {', '.join(l for l, _ in self.output_rules)} wins."
            )
        return "\n".join(lines) + "\n"


# -- transparency checks -------------------------------------------------


def is_logically_transparent(net: Network):
    """(flag, violations): fan-in at most 3 everywhere and every live
    weight frozen at a ternary value."""
    violations = []
    for nref, _ in net.iter_neurons():
        fan = net.fan_in(nref)
        if fan > 3:
            violations.append((str(nref), "fan-in"))
    for wref, syn in net.iter_weights():
        if syn.trainable:
            violations.append((str(wref), "trainable"))
        elif syn.weight not in TERNARY:
            violations.append((str(wref), "non-ternary"))
    return (not violations), violations


def _require_frozen_ternary(net: Network):
    problems = [
        f"{ref} is {reason}"
        for ref, reason in is_logically_transparent(net)[1]
        if reason != "fan-in"
    ]
    if problems:
        raise TransparencyError("; ".join(problems))


def substitute_step(net: Network) -> Network:
    """Swap every activation for the hard threshold on a fully frozen
    ternary network.  Idempotent; mutates and returns the network."""
    _require_frozen_ternary(net)
    for _, neuron in net.iter_neurons():
        neuron.activation = "step"
    net._touch()
    return net


# -- verbalization ---------------------------------------------------------


def _threshold_count(m, bias):
    # sum over ±1 statements is 2t - m; fires when bias + 2t - m >= 0
    return (m - int(round(bias)) + 1) // 2


def verbalize(net: Network, feature_names=None, rule_names=None,
              feature_texts=None) -> RuleSet:
    """Turn a frozen ternary step network into a hierarchy of threshold
    rules.  Zero-weight synapses contribute no statement."""
    _require_frozen_ternary(net)
    for _, neuron in net.iter_neurons():
        if neuron.activation != "step":
            raise TransparencyError(
                "verbalization needs step activations; run substitute_step first"
            )
    if feature_names is None:
        feature_names = [f"x{k}" for k in range(net.input_dim)]
    if len(feature_names) != net.input_dim:
        raise ValueError("feature name table does not match input dimension")
    rule_names = rule_names or {}

    names = {}
    rules = []
    n_out = len(net.layers[-1])
    for nref, neuron in net.iter_neurons():
        if net.is_output_layer(nref.layer):
            if n_out == 1:
                default = net.output_labels[0]
            else:
                default = net.output_labels[nref.neuron]
        else:
            default = f"syndrome-{nref.layer}-{nref.neuron}"
        name = rule_names.get(str(nref), default)
        names[(nref.layer, nref.neuron)] = name
        statements = []
        for syn in neuron.synapses:
            if not syn.alive or syn.weight == 0.0:
                continue
            affirmed = syn.weight > 0
            sl, si = syn.src
            if sl == 0:
                statements.append(
                    Statement(affirmed=affirmed, feature=feature_names[si])
                )
            else:
                statements.append(
                    Statement(affirmed=affirmed, rule=names[(sl, si)])
                )
        k = _threshold_count(len(statements), neuron.bias.weight)
        rules.append(ThresholdRule(name=name, k=k, statements=statements))

    if n_out == 1:
        last = net.n_layers
        out_idx = next(
            i for i, nr in enumerate(net.layers[last - 1]) if nr.alive
        )
        output_rules = [(net.output_labels[0], names[(last, out_idx)])]
    else:
        output_rules = [
            (net.output_labels[i], names[(net.n_layers, i)])
            for i, nr in enumerate(net.layers[-1])
            if nr.alive
        ]
    return RuleSet(
        rules=rules,
        output_rules=output_rules,
        class_labels=list(net.output_labels),
        feature_texts=dict(feature_texts or {}),
    )


# -- evaluation -------------------------------------------------------------


def _positive(columns, name, n):
    """Where feature column ``name``, checked to be (n,) and all ±1, is +1."""
    if name not in columns:
        raise DatasetError(f"assignment is missing attribute {name}")
    values = np.asarray(columns[name])
    if values.shape != (n,):
        raise DatasetError(f"attribute {name} has shape {values.shape}, not ({n},)")
    # numbers only: a float conversion would let the string "1" through
    valid = values.dtype.kind in "biuf" and np.abs(values) == 1
    if not np.all(valid):
        first = int(np.argmin(valid))
        bad = values[first:first + 1].tolist()[0]
        raise DatasetError(f"attribute value {bad!r} is not ±1")
    return values > 0


def classify_rules(ruleset: RuleSet, columns) -> np.ndarray:
    """Class label per row of ±1 feature columns.

    ``columns`` maps each feature name to an (N,) array of -1/+1 values; an
    empty mapping is the one assignment of an empty universe.  Each rule
    counts its satisfied statements per row and holds where the count
    reaches k.  A single output rule gives its label where it holds and the
    other class elsewhere; with several, the first that holds wins, and the
    first when none does, as ``classify_outputs`` breaks ties.  Returns an
    object array of the rule set's own label strings.
    """
    n = len(next(iter(columns.values()))) if columns else 1
    positive = {}
    holds = {}
    for rule in ruleset.rules:
        count = np.zeros(n, dtype=np.intp)
        for st in rule.statements:
            if st.feature is None:
                value = holds[st.rule]
            else:
                if st.feature not in positive:
                    positive[st.feature] = _positive(columns, st.feature, n)
                value = positive[st.feature]
            count += value if st.affirmed else ~value
        holds[rule.name] = count >= rule.k
    if len(ruleset.output_rules) == 1:
        label, name = ruleset.output_rules[0]
        if len(ruleset.class_labels) != 2:
            raise LucidnetError("single output rule needs exactly two classes")
        other = next(c for c in ruleset.class_labels if c != label)
        choices = [label, other]
        picked = (~holds[name]).astype(np.intp)
    else:
        choices = [label for label, _ in ruleset.output_rules]
        stacked = np.stack([holds[name] for _, name in ruleset.output_rules], axis=1)
        picked = np.argmax(stacked, axis=1)  # the first that holds, else 0
    return np.array(choices, dtype=object)[picked]


def evaluate_rules(ruleset: RuleSet, assignment) -> str:
    """Class label for one ±1 assignment over the attribute universe."""
    columns = {name: [value] for name, value in assignment.items()}
    return classify_rules(ruleset, columns)[0]


@dataclass
class RuleComparison:
    labels: tuple
    both_first: int
    both_second: int
    first_second: int  # r1 says labels[0], r2 says labels[1]
    second_first: int
    disagreements: list  # (assignment, r1 class, r2 class)
    universe: list

    @property
    def agree(self):
        return self.both_first + self.both_second

    @property
    def total(self):
        return self.agree + self.first_second + self.second_first

    def summary_line(self):
        l1, l2 = self.labels
        return (
            f"agree={self.agree} "
            f"r1{l1}_r2{l2}={self.first_second} "
            f"r1{l2}_r2{l1}={self.second_first}"
        )


_SIGNS = (-1.0, 1.0)  # every enumerated assignment shares these two objects
_BLOCK_BITS = 12  # 4,096 assignments per block


def compare_rulesets(r1: RuleSet, r2: RuleSet) -> RuleComparison:
    """Exhaustive agreement table over all ±1 assignments of the union
    attribute universe (at most 20 attributes), in ``itertools.product``
    order with the first attribute varying slowest.

    The universe runs through ``classify_rules`` in blocks of 4,096
    assignments: the last twelve attributes take every combination within
    each block and the others are constant in it.  Only disagreements
    become assignment dicts.
    """
    if set(r1.class_labels) != set(r2.class_labels):
        raise LucidnetError("rulesets classify into different label sets")
    universe = sorted(set(r1.attribute_universe) | set(r2.attribute_universe))
    if len(universe) > 20:
        raise LucidnetError(
            f"universe of {len(universe)} attributes is too large to enumerate"
        )
    labels = tuple(r1.class_labels[:2])
    n_high = max(len(universe) - _BLOCK_BITS, 0)
    high_names, low_names = universe[:n_high], universe[n_high:]
    low = list(itertools.product(_SIGNS, repeat=len(low_names)))
    rows = np.arange(len(low))
    low_columns = {
        name: np.where(rows >> (len(low_names) - 1 - i) & 1, 1.0, -1.0)
        for i, name in enumerate(low_names)
    }
    # RuleComparison's order: both first, both second, first/second, second/first
    counts = np.zeros(4, dtype=np.int64)
    disagreements = []
    for high in itertools.product(_SIGNS, repeat=n_high):
        columns = dict(low_columns)
        for name, value in zip(high_names, high):
            columns[name] = np.full(len(low), value)
        c1 = classify_rules(r1, columns)
        c2 = classify_rules(r2, columns)
        differ = c1 != c2
        counts += np.bincount(2 * differ + (c1 != labels[0]), minlength=4)
        where = np.flatnonzero(differ)
        disagreements.extend(
            (dict(zip(universe, high + low[j])), a, b)
            for j, a, b in zip(where.tolist(), c1[where].tolist(), c2[where].tolist())
        )
    return RuleComparison(labels, *counts.tolist(), disagreements=disagreements,
                          universe=universe)


# -- shipped fixtures --------------------------------------------------------


def fixtures_A1_A2():
    """The two shipped election-forecast algorithms, read from the
    packaged ``fixtures/a1.json`` and ``fixtures/a2.json``.

    Both predict victory of the opposition (class O) when at least one of
    two syndromes is present; they differ in which symptoms define the
    syndromes and together touch 7 of the 12 questionnaire attributes.
    """
    import importlib.resources  # ~25 ms to import; only this function needs it

    folder = importlib.resources.files(__package__) / "fixtures"
    return tuple(
        RuleSet.from_json((folder / f"{name}.json").read_text(encoding="utf-8"))
        for name in ("a1", "a2")
    )


def single_question_rule_network() -> Network:
    """One frozen step neuron encoding the five-question election rule:
    the power party wins on at least two yes answers among questions 3, 4,
    6, and 9, or on one such yes combined with a no on question 8."""
    weights = {2: 1.0, 3: 1.0, 5: 1.0, 7: -1.0, 8: 1.0}  # 0-based features
    synapses = [
        Synapse(w, trainable=False, src=(0, k)) for k, w in sorted(weights.items())
    ]
    neuron = Neuron(Synapse(1.0, trainable=False, src=None), synapses, "step")
    active = [k in weights for k in range(12)]
    return Network(12, [[neuron]], ["P", "O"], active_inputs=active)
