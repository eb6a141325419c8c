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

Rule sets run through one interpreter, ``_picks``, which takes a whole
block of assignments as boolean "+1" columns and picks a class index per
row; label strings are made only at the edges.  ``classify_rules`` feeds it
checked ±1 feature columns and looks the labels up: ``evaluate_rules`` is its
one-row call and ``lucidnet eval --rules`` passes the dataset's columns.
``compare_rulesets`` runs a universe 4,096 assignment indices at a time.
The attributes on the block's low index bits have the same columns in every
block and are built once; a slower attribute is one bool per block.  It
compares the picks as indices into the first rule set's classes, and keeps
each disagreement as its index with the two labels, which
``RuleComparison.assignment`` decodes.
``RuleSet.from_doc`` rejects a malformed rule-set document with a
``DatasetError``, which the CLI reports with exit code 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, LucidnetError, TransparencyError
from .network import Network

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


def feature_texts_from(texts, source):
    """Feature texts from a JSON value that maps each feature to a list of
    two strings, the affirmed sentence first; a DatasetError naming
    ``source`` for any other value."""
    if not isinstance(texts, dict) or not all(
            isinstance(v, list) and len(v) == 2 and all(isinstance(t, str) for t in v)
            for v in texts.values()):
        raise DatasetError(f"{source} must map each feature to a pair of sentences")
    return {k: tuple(v) for k, v in texts.items()}


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
        missing or mistyped field, a duplicate rule name or class label, one
        class label, a statement citing a rule not defined before it, an
        output rule naming an unknown rule or class, or two for one class."""
        _require(isinstance(doc, dict), "the document is not a JSON object")
        for key in ("rules", "output_rules", "class_labels"):
            _require(isinstance(doc.get(key), list), f"{key!r} must be a list")
        labels = doc["class_labels"]
        _require(all(isinstance(c, str) for c in labels)
                 and len(set(labels)) == len(labels),
                 "'class_labels' must be distinct strings")
        _require(len(labels) >= 2, "'class_labels' needs at least two classes")
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
            _require(all(label != seen for seen, _ in output_rules),
                     f"class {label!r} has two output rules")
            output_rules.append((label, rule))
        _require(output_rules, "'output_rules' is empty")
        return RuleSet(
            rules=rules,
            output_rules=output_rules,
            class_labels=list(doc["class_labels"]),
            feature_texts=feature_texts_from(doc.get("feature_texts", {}),
                                             "rule set: 'feature_texts'"),
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
        """The rules in words: the hidden rules numbered in order, then one
        class rule per output, each head followed by its statements."""
        output_names = {name for _, name in self.output_rules}
        by_name = {r.name: r for r in self.rules}
        hidden = [r for r in self.rules if r.name not in output_names]
        heads = [(f"{n}. {r.name}{f' ({r.title})' if r.title else ''} appears", r)
                 for n, r in enumerate(hidden, start=1)]
        heads += [(f"Class {label}", by_name[name]) for label, name in self.output_rules]
        lines = []
        for head, rule in heads:
            lines.append(f"{head} if at least {rule.k} of the following "
                         f"{len(rule.statements)} statements hold:")
            lines += [f"   - {st.render(self.feature_texts)}" for st in rule.statements]
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
    """(flag, violations): every live neuron's ``fan_ins`` entry at most 3,
    then every live weight frozen at a ternary value, read as masks over
    ``net.weight_table`` in the order of its rows."""
    fan = net.fan_ins()
    violations = [(str(ref), "fan-in") for ref in net.iter_neurons()
                  if fan[net.offsets[ref.layer] + ref.neuron] > 3]
    table = net.weight_table
    trainable = net.trainable[table.pos]
    bad = net.alive[table.pos] & (trainable | ~np.isin(net.params[table.pos], TERNARY))
    violations += [(str(table.refs[row]), "trainable" if trainable[row] else "non-ternary")
                   for row in np.flatnonzero(bad).tolist()]
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
    for nref in list(net.iter_neurons()):
        net.set_activation(nref, "step")
    return net


# -- verbalization ---------------------------------------------------------


def _threshold_count(m, bias):
    # sum over ±1 statements is 2t - m; fires when bias + 2t - m >= 0
    return (m - int(round(bias)) + 1) // 2


def verbalize(net: Network, feature_names=None, feature_texts=None) -> RuleSet:
    """Turn a frozen ternary step network into a hierarchy of threshold
    rules.  Zero-weight synapses contribute no statement.

    Rules are read from the compact document (``net.to_doc()``), so the
    syndrome names number the neurons as the saved ``network.json`` does.
    """
    _require_frozen_ternary(net)
    doc = net.to_doc()
    if any(n["activation"] != "step" for layer in doc["layers"] for n in layer):
        raise TransparencyError(
            "verbalization needs step activations; run substitute_step first"
        )
    if feature_names is None:
        feature_names = [f"x{k}" for k in range(net.input_dim)]
    if len(feature_names) != net.input_dim:
        raise ValueError("feature name table does not match input dimension")

    names = {}
    rules = []
    last = len(doc["layers"])
    n_out = len(doc["layers"][-1])
    for l, layer in enumerate(doc["layers"], start=1):
        for i, neuron in enumerate(layer):
            name = f"syndrome-{l}-{i}" if l < last else net.output_labels[i]
            names[(l, i)] = name
            statements = []
            for syn in neuron["synapses"]:
                if syn["w"] == 0.0:
                    continue
                sl, si = syn["src_layer"], syn["src_index"]
                source = ({"feature": feature_names[si]} if sl == 0
                          else {"rule": names[(sl, si)]})
                statements.append(Statement(affirmed=syn["w"] > 0, **source))
            k = _threshold_count(len(statements), neuron["bias"]["w"])
            rules.append(ThresholdRule(name=name, k=k, statements=statements))

    # output neurons are never removed, so the last layer is complete; a
    # single output is the rule for the first label
    output_rules = [(net.output_labels[i], names[(last, i)]) for i in range(n_out)]
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
    # numbers only: a float conversion would let the string "1" through, and
    # abs(True) == 1 would let a bool through
    valid = values.dtype.kind in "iuf" and np.abs(values) == 1
    if not np.all(valid):
        first = int(np.argmin(valid))
        bad = values[first:first + 1].tolist()[0]
        raise DatasetError(f"attribute value {bad!r} is not ±1")
    return values > 0


def _choices(ruleset: RuleSet):
    """Object array of the rule set's own labels in the order ``_picks``
    picks them: a single output rule's label, then the other class; with
    several output rules, their labels in order."""
    if len(ruleset.output_rules) == 1:
        label = ruleset.output_rules[0][0]
        if len(ruleset.class_labels) != 2:
            raise LucidnetError("single output rule needs exactly two classes")
        other = next(c for c in ruleset.class_labels if c != label)
        return np.array([label, other], dtype=object)
    return np.array([label for label, _ in ruleset.output_rules], dtype=object)


def _picks(ruleset: RuleSet, column, n):
    """(n,) intp pick per row, an index into ``_choices(ruleset)``.

    ``column(name)`` is where feature ``name`` is +1, an (n,) bool mask or
    one ``np.bool_`` for all n rows; it is read once per feature.  Each rule
    counts its satisfied statements per row and holds where the count
    reaches k.  A negated statement counts as 1 - value, so the count starts
    at the number of negated statements.  A single output rule picks its
    label where it holds and the other class elsewhere; with several, the
    first that holds wins, and the first when none does, as a network's
    argmax breaks ties.
    """
    positive = {}
    holds = {}
    for rule in ruleset.rules:
        count = np.full(n, sum(not st.affirmed for st in rule.statements),
                        dtype=np.intp)
        for st in rule.statements:
            if st.feature is None:
                value = holds[st.rule]
            else:
                if st.feature not in positive:
                    positive[st.feature] = column(st.feature)
                value = positive[st.feature]
            if st.affirmed:
                count += value
            else:
                count -= value
        holds[rule.name] = count >= rule.k
    if len(ruleset.output_rules) == 1:
        return (~holds[ruleset.output_rules[0][1]]).astype(np.intp)
    stacked = np.stack([holds[name] for _, name in ruleset.output_rules], axis=1)
    return np.argmax(stacked, axis=1)


def classify_rules(ruleset: RuleSet, columns) -> np.ndarray:
    """Class label per row of ±1 feature columns, picked as ``_picks``
    describes: a rule holds where it has at least k satisfied statements.

    ``columns`` maps each feature name to an (N,) array of -1/+1 numbers; an
    empty mapping is the one assignment of an empty universe.  Returns an
    object array of the rule set's own label strings.
    """
    n = len(next(iter(columns.values()))) if columns else 1
    pick = _picks(ruleset, lambda name: _positive(columns, name, n), n)
    return _choices(ruleset)[pick]


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
    disagreements: list  # (assignment index, r1 class, r2 class)
    universe: list

    def assignment(self, index):
        """The ±1 assignment over ``universe`` that ``index`` names, in
        ``itertools.product`` order: ``universe[i]`` is +1 where bit
        ``len(universe) - 1 - i`` of the index is set."""
        n = len(self.universe)
        return {name: 1 if index >> (n - 1 - i) & 1 else -1
                for i, name in enumerate(self.universe)}

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


def compare_rulesets(r1: RuleSet, r2: RuleSet) -> RuleComparison:
    """Exhaustive agreement table of two rule sets over the same two classes
    on all ±1 assignments of the union attribute universe (at most 20
    attributes), run through ``_picks`` 4,096 assignment indices at a time
    and decoded as ``RuleComparison.assignment`` decodes one.  The picks are
    compared as indices into ``r1.class_labels``; a disagreement is kept as
    (index, r1 class, r2 class), with each rule set's own label objects.
    """
    if set(r1.class_labels) != set(r2.class_labels):
        raise LucidnetError("rulesets classify into different label sets")
    if len(r1.class_labels) != 2:  # the four counters are two-class
        raise LucidnetError(f"can only compare two classes, not {r1.class_labels}")
    universe = sorted(set(r1.attribute_universe) | set(r2.attribute_universe))
    n = len(universe)
    if n > 20:
        raise LucidnetError(f"universe of {n} attributes is too large to enumerate")
    labels = tuple(r1.class_labels)
    block = min(4096, 2 ** n)
    offset = np.arange(block)
    bit = {name: n - 1 - i for i, name in enumerate(universe)}
    # blocks start at multiples of their size: the low bits repeat per block
    low = {name: (offset >> b & 1).astype(bool) for name, b in bit.items()
           if 1 << b < block}
    own1, own2 = _choices(r1), _choices(r2)
    # each rule set's pick as an index into labels
    to1, to2 = (np.array([labels.index(c) for c in own]) for own in (own1, own2))
    # RuleComparison's order: both first, both second, first/second, second/first
    counts = np.zeros(4, dtype=np.int64)
    disagreements = []
    for start in range(0, 2 ** n, block):
        column = (low | {name: np.bool_(start >> b & 1) for name, b in bit.items()
                         if name not in low}).__getitem__
        pick1 = _picks(r1, column, block)
        pick2 = _picks(r2, column, block)
        k1, k2 = to1[pick1], to2[pick2]
        differ = k1 != k2
        counts += np.bincount(2 * differ + k1, minlength=4)
        where = np.flatnonzero(differ)
        disagreements.extend(zip((start + where).tolist(), own1[pick1[where]].tolist(),
                                 own2[pick2[where]].tolist()))
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
