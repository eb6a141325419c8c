import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucidnet import (
    DatasetError,
    LucidnetError,
    Network,
    TransparencyError,
    build_network,
    classify_rules,
    compare_rulesets,
    evaluate_rules,
    fixtures_A1_A2,
    forward_batch,
    is_logically_transparent,
    neuron_ref,
    step_function,
    substitute_step,
    synapse_ref,
    verbalize,
)
from lucidnet.transparency import RuleSet, Statement, ThresholdRule

from conftest import (
    apply_edits,
    classify_outputs,
    edit_lists,
    network_from_layers,
    neuron_doc,
    random_ternary_layers,
    random_ternary_step_net,
    single_neuron_net,
    single_question_rule_network,
)
from sample_reference import forward


def ternary_neuron_net(weights, bias, n_inputs=None):
    return single_neuron_net(list(map(float, weights)), float(bias),
                             activation="step", trainable=False,
                             input_dim=n_inputs)


def all_assignments(names):
    for bits in itertools.product((-1.0, 1.0), repeat=len(names)):
        yield dict(zip(names, bits))


class TestStepFunction:
    def test_branch_values(self):
        assert step_function(-2.0) == -1.0
        assert step_function(0.0) == 1.0
        assert step_function(3.7) == 1.0

    def test_vectorized(self):
        out = step_function(np.array([-0.5, 0.0, 0.5]))
        assert out.tolist() == [-1.0, 1.0, 1.0]


class TestIsLogicallyTransparent:
    def test_small_ternary_net_passes(self):
        rng = np.random.default_rng(3)
        net = random_ternary_step_net(rng, 3, [3], n_out=1)
        ok, violations = is_logically_transparent(net)
        assert ok and violations == []

    def test_five_input_neuron_fails_on_fan_in(self):
        net = ternary_neuron_net([1, 1, 1, -1, 1], 1.0)
        ok, violations = is_logically_transparent(net)
        assert not ok
        assert violations == [("neuron:1:0", "fan-in")]

    def test_non_ternary_weight_flagged(self):
        net = ternary_neuron_net([1, -1], 0.0)
        net.set_weight(synapse_ref(1, 0, 1), 0.7, freeze=True)
        ok, violations = is_logically_transparent(net)
        assert not ok
        assert ("synapse:1:0:1", "non-ternary") in violations

    def test_trainable_weight_flagged(self):
        net = ternary_neuron_net([1, -1], 0.0)
        net.set_weight(synapse_ref(1, 0, 2), -1.0, freeze=False)
        ok, violations = is_logically_transparent(net)
        assert not ok
        assert ("synapse:1:0:2", "trainable") in violations

    def test_zero_frozen_synapses_relax_fan_in(self):
        net = ternary_neuron_net([1, 1, 1, 0, 0], 0.0)
        ok, violations = is_logically_transparent(net)
        assert ok, violations


class TestSubstituteStep:
    def test_replaces_activations(self):
        net = ternary_neuron_net([1, -1], 0.0)
        net.set_activation(neuron_ref(1, 0), "tanh")
        substitute_step(net)
        assert net.activation(neuron_ref(1, 0)) == "step"
        assert forward(net, [1.0, -1.0]).y[0][0] == 1.0

    def test_idempotent(self):
        net = ternary_neuron_net([1, -1], 0.0)
        once = substitute_step(net).to_json()
        twice = substitute_step(net).to_json()
        assert once == twice

    def test_trainable_weights_rejected(self):
        net = build_network((2, 2, 1), seed=0)
        with pytest.raises(TransparencyError):
            substitute_step(net)

    def test_non_ternary_rejected(self):
        net = ternary_neuron_net([1, -1], 0.0)
        net.set_weight(synapse_ref(1, 0, 1), 0.4, freeze=True)
        with pytest.raises(TransparencyError):
            substitute_step(net)

    def test_decisions_preserved_above_margin(self):
        # smooth and step versions may only disagree on samples whose
        # summator comes close to the threshold
        rng = np.random.default_rng(5)
        delta = 0.5
        disagreement_margins = []
        for trial in range(6):
            layers = random_ternary_layers(rng, [4, 3, 1], "tanh")
            net = network_from_layers(4, layers, ["P", "O"])
            X = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
            bt = forward_batch(net, X)
            smooth = classify_outputs(bt.outputs, net.output_labels)
            margins = np.min(
                [np.min(np.abs(s), axis=1) for s in bt.sigma[1:]], axis=0
            )
            stepnet = substitute_step(Network.from_json(net.to_json()))
            hard = classify_outputs(
                forward_batch(stepnet, X).outputs, stepnet.output_labels
            )
            for m, a, b in zip(margins, smooth, hard):
                if m >= delta:
                    assert a == b
                elif a != b:
                    disagreement_margins.append(float(m))
        if disagreement_margins:
            assert max(disagreement_margins) < delta


class TestVerbalize:
    def check_rule_equals_neuron(self, weights, bias):
        net = ternary_neuron_net(weights, bias)
        names = [f"x{k}" for k in range(len(weights))]
        ruleset = verbalize(net)
        for assignment in all_assignments(names):
            x = np.array([assignment[n] for n in names])
            netclass = classify_outputs(
                forward(net, x).outputs[None, :], net.output_labels
            )[0]
            assert evaluate_rules(ruleset, assignment) == netclass
        return ruleset

    def test_three_affirmed_statements(self):
        ruleset = self.check_rule_equals_neuron([1, 1, 1], 0.0)
        rule = ruleset.rules[0]
        assert rule.k == 2 and len(rule.statements) == 3
        assert all(s.affirmed for s in rule.statements)

    def test_passthrough_statement(self):
        ruleset = self.check_rule_equals_neuron([1], 0.0)
        assert ruleset.rules[0].k == 1

    def test_mixed_polarity_with_negative_bias(self):
        ruleset = self.check_rule_equals_neuron([1, -1], -1.0)
        rule = ruleset.rules[0]
        assert rule.k == 2
        assert [s.affirmed for s in rule.statements] == [True, False]

    def test_threshold_formula_exhaustive(self):
        # every fan-in up to 5, every bias, every sign pattern
        for m in range(0, 6):
            for signs in itertools.product((1.0, -1.0), repeat=m):
                for bias in (-1.0, 0.0, 1.0):
                    self.check_rule_equals_neuron(list(signs), bias)

    def test_zero_weight_contributes_no_statement(self):
        net = ternary_neuron_net([1, 0, -1], 0.0)
        ruleset = verbalize(net)
        assert len(ruleset.rules[0].statements) == 2
        assert ruleset.attribute_universe == ["x0", "x2"]

    def test_requires_frozen_ternary_step(self):
        with pytest.raises(TransparencyError):
            verbalize(build_network((2, 2, 1), seed=0))
        smooth = ternary_neuron_net([1, -1], 0.0)
        smooth.set_activation(neuron_ref(1, 0), "tanh")
        with pytest.raises(TransparencyError):
            verbalize(smooth)

    def test_transparent_networks_verbalize_readably(self):
        rng = np.random.default_rng(40)
        for trial in range(10):
            net = random_ternary_step_net(rng, 4, [3, 3], n_out=2)
            ok, _ = is_logically_transparent(net)
            if not ok:
                continue
            ruleset = verbalize(net)
            assert all(len(r.statements) <= 3 for r in ruleset.rules)

    def test_soundness_on_random_ternary_nets(self):
        rng = np.random.default_rng(99)
        for trial in range(30):
            d = int(rng.integers(2, 7))
            hidden = [int(rng.integers(1, 5))
                      for _ in range(int(rng.integers(0, 3)))]
            n_out = int(rng.integers(1, 3))
            net = random_ternary_step_net(rng, d, hidden, n_out=n_out)
            ruleset = verbalize(net)
            names = [f"x{k}" for k in range(d)]
            X = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
            netclasses = classify_outputs(
                forward_batch(net, X).outputs, net.output_labels
            )
            for row, expected in zip(X, netclasses):
                assignment = dict(zip(names, row))
                assert evaluate_rules(ruleset, assignment) == expected


class TestEvaluateRules:
    def test_a1_syndrome_fires(self):
        a1, _ = fixtures_A1_A2()
        assignment = {n: -1 for n in a1.attribute_universe}
        assignment["q4"] = 1
        assignment["q6"] = 1
        assert evaluate_rules(a1, assignment) == "O"

    def test_a1_quiet_case_is_power(self):
        a1, _ = fixtures_A1_A2()
        assignment = {n: -1 for n in a1.attribute_universe}
        assignment["q8"] = 1
        assert evaluate_rules(a1, assignment) == "P"

    def test_deterministic(self):
        a1, _ = fixtures_A1_A2()
        assignment = {n: 1 for n in a1.attribute_universe}
        assert evaluate_rules(a1, assignment) == evaluate_rules(a1, assignment)

    def test_missing_attribute_rejected(self):
        a1, _ = fixtures_A1_A2()
        with pytest.raises(DatasetError):
            evaluate_rules(a1, {"q4": 1})

    def test_non_sign_values_rejected(self):
        a1, _ = fixtures_A1_A2()
        for bad in ("1", 0, 0.5, float("nan"), None, False, True):
            assignment = {n: 1.0 for n in a1.attribute_universe}
            assignment["q4"] = bad
            with pytest.raises(DatasetError, match="is not ±1"):
                evaluate_rules(a1, assignment)


def reference_label(ruleset, assignment):
    """The per-assignment interpreter the batch one replaced, kept as the
    reference it must equal."""
    values = {}
    for rule in ruleset.rules:
        satisfied = 0
        for st_ in rule.statements:
            if st_.feature is not None:
                val = assignment[st_.feature]
            else:
                val = values[st_.rule]
            if (val > 0) == st_.affirmed:
                satisfied += 1
        values[rule.name] = 1.0 if satisfied >= rule.k else -1.0
    if len(ruleset.output_rules) == 1:
        label, name = ruleset.output_rules[0]
        if values[name] > 0:
            return label
        return next(c for c in ruleset.class_labels if c != label)
    outputs = [[values[name] for _, name in ruleset.output_rules]]
    labels = [label for label, _ in ruleset.output_rules]
    return classify_outputs(outputs, labels)[0]


def reference_compare(r1, r2):
    """Counts and disagreements from a loop over ``itertools.product``; a
    disagreement is (index in that order, assignment, r1 class, r2 class)."""
    universe = sorted(set(r1.attribute_universe) | set(r2.attribute_universe))
    first = r1.class_labels[0]
    counts = [0, 0, 0, 0]
    disagreements = []
    for index, bits in enumerate(
            itertools.product((-1.0, 1.0), repeat=len(universe))):
        assignment = dict(zip(universe, bits))
        c1 = reference_label(r1, assignment)
        c2 = reference_label(r2, assignment)
        counts[2 * (c1 != c2) + (c1 != first)] += 1
        if c1 != c2:
            disagreements.append((index, assignment, c1, c2))
    return universe, counts, disagreements


@st.composite
def rule_sets(draw, n_attributes, n_outputs):
    """Rules over features a00.. citing earlier rules, affirmed or negated,
    with k from -1 to m + 1 and one or several output rules."""
    features = [f"a{k:02d}" for k in range(n_attributes)]
    rules = []
    for i in range(draw(st.integers(max(1, n_outputs), 5))):
        statements = []
        for _ in range(draw(st.integers(0, 4))):
            affirmed = draw(st.booleans())
            if rules and draw(st.booleans()):
                cited = draw(st.sampled_from(rules)).name
                statements.append(Statement(affirmed=affirmed, rule=cited))
            else:
                feature = draw(st.sampled_from(features))
                statements.append(Statement(affirmed=affirmed, feature=feature))
        k = draw(st.integers(-1, len(statements) + 1))
        rules.append(ThresholdRule(f"r{i}", k, statements))
    names = draw(st.lists(st.sampled_from([r.name for r in rules]),
                          min_size=n_outputs, max_size=n_outputs, unique=True))
    if n_outputs == 1:
        class_labels = draw(st.permutations(["P", "O"]))
        labels = [draw(st.sampled_from(class_labels))]
    else:
        class_labels = draw(st.permutations([f"c{i}" for i in range(n_outputs)]))
        labels = class_labels
    return RuleSet(rules=rules, output_rules=list(zip(labels, names)),
                   class_labels=list(class_labels))


@st.composite
def rule_set_pairs(draw):
    n_attributes = draw(st.integers(1, 14))
    n_outputs = draw(st.integers(1, 3))
    return (draw(rule_sets(n_attributes, n_outputs)),
            draw(rule_sets(n_attributes, n_outputs)))


def assert_same_comparison(r1, r2):
    cmp = compare_rulesets(r1, r2)
    universe, counts, disagreements = reference_compare(r1, r2)
    assert cmp.universe == universe
    assert [cmp.both_first, cmp.both_second, cmp.first_second,
            cmp.second_first] == counts
    assert all(type(c) is int for c in (cmp.both_first, cmp.both_second,
                                         cmp.first_second, cmp.second_first))
    assert cmp.disagreements == [(j, c1, c2) for j, _, c1, c2 in disagreements]
    assert all(cmp.assignment(j) == a for j, a, _, _ in disagreements)
    # labels are the rule sets' own strings
    own1 = {id(c) for c in r1.class_labels} | {id(c) for c, _ in r1.output_rules}
    own2 = {id(c) for c in r2.class_labels} | {id(c) for c, _ in r2.output_rules}
    assert all(id(c1) in own1 and id(c2) in own2
               for _, c1, c2 in cmp.disagreements)
    return cmp


class TestBatchInterpreter:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 14).flatmap(
        lambda n: st.tuples(st.just(n), rule_sets(n, 1) | rule_sets(n, 3),
                            st.integers(0, 2**32 - 1))))
    def test_classify_rules_matches_reference(self, case):
        n_attributes, ruleset, seed = case
        rows = np.random.default_rng(seed).choice(
            [-1.0, 1.0], size=(int(seed % 64) + 1, n_attributes))
        names = [f"a{k:02d}" for k in range(n_attributes)]
        got = classify_rules(ruleset, dict(zip(names, rows.T)))
        assert got.tolist() == [
            reference_label(ruleset, dict(zip(names, row))) for row in rows
        ]

    @settings(max_examples=60, deadline=None)
    @given(rule_set_pairs())
    def test_compare_matches_reference(self, pair):
        r1, r2 = pair
        if len(r1.class_labels) == 2:
            assert_same_comparison(r1, r2)
        else:  # the agreement counters are two-class
            with pytest.raises(LucidnetError, match=re.escape(str(r1.class_labels))):
                compare_rulesets(r1, r2)

    def test_compare_partly_shared_universes(self):
        # 14 attributes: each set reads 9, 4 of them shared, so neither own
        # truth table covers the union and both are gathered
        def ruleset(features, signs):
            return RuleSet(
                rules=[
                    ThresholdRule("s0", 2, [Statement(bool(sg), feature=f)
                                            for f, sg in zip(features[:4], signs)]),
                    ThresholdRule("s1", 3, [Statement(bool(sg), feature=f)
                                            for f, sg in zip(features[4:], signs)]),
                    ThresholdRule("out", 1, [Statement(True, rule="s0"),
                                             Statement(False, rule="s1")]),
                ],
                output_rules=[("O", "out")],
                class_labels=["P", "O"],
            )

        names = [f"a{k:02d}" for k in range(14)]
        r1 = ruleset(names[:2] + names[10:12] + names[2:7], [1, 0, 1, 1, 0])
        r2 = ruleset(names[7:10] + names[0:1] + names[12:14] + names[3:6],
                     [0, 1, 1, 0, 1])
        cmp = assert_same_comparison(r1, r2)
        assert cmp.total == 2 ** 14 and len(cmp.universe) == 14
        assert 0 < len(cmp.disagreements) < cmp.total

    def test_empty_universe(self):
        def constant(k):
            return RuleSet(rules=[ThresholdRule("c", k, [])],
                           output_rules=[("O", "c")], class_labels=["P", "O"])

        cmp = assert_same_comparison(constant(0), constant(1))
        assert cmp.total == 1 and cmp.disagreements == [(0, "O", "P")]
        assert classify_rules(constant(0), {}).tolist() == ["O"]


@st.composite
def ternary_step_networks(draw):
    """Frozen ternary step networks whose neurons read any subset of the
    units of all earlier layers, skip connections included, in random slot
    order."""
    widths = [draw(st.integers(1, 7))]
    widths += [draw(st.integers(1, 4)) for _ in range(draw(st.integers(0, 2)))]
    widths.append(draw(st.integers(1, 3)))
    ternary = st.sampled_from([-1.0, 0.0, 1.0])
    layers = []
    for l in range(1, len(widths)):
        sources = [(sl, si) for sl in range(l) for si in range(widths[sl])]
        layers.append([
            neuron_doc(draw(ternary), [
                (sl, si, draw(ternary))
                for sl, si in draw(st.lists(st.sampled_from(sources), unique=True))
            ])
            for _ in range(widths[l])
        ])
    n_out = widths[-1]
    labels = ["P", "O"] if n_out == 1 else [f"c{i}" for i in range(n_out)]
    return network_from_layers(widths[0], layers, labels)


class TestVerbalizeProperty:
    @settings(max_examples=200, deadline=None)
    @given(net=ternary_step_networks(), edits=edit_lists)
    def test_rules_equal_step_network_on_full_grid(self, net, edits):
        # tombstoned inputs, neurons and synapses; freezes stay ternary
        net.audit_structure()  # a loaded document need not be audited yet
        apply_edits(net, edits)
        names = [f"x{k}" for k in range(net.input_dim)]
        X = np.array(list(itertools.product((-1.0, 1.0), repeat=net.input_dim)))
        expected = classify_outputs(forward_batch(net, X).outputs,
                                    net.output_labels)
        got = classify_rules(verbalize(net), dict(zip(names, X.T)))
        assert got.tolist() == expected


def one_output(rules, label="O", class_labels=("P", "O")):
    """A rule set whose last rule is its one output rule."""
    return RuleSet(rules=rules, output_rules=[(label, rules[-1].name)],
                   class_labels=list(class_labels))


def feature_rule(name, k, signs, features):
    return ThresholdRule(name, k, [Statement(bool(sg), feature=f)
                                   for f, sg in zip(features, signs)])


class TestCompareEdgeCases:
    """``compare_rulesets`` against ``reference_compare`` on the cases a
    random pair rarely draws."""

    names = [f"a{k:02d}" for k in range(14)]

    def test_rule_reading_only_block_constant_attributes(self):
        # a00 and a01 are bits 13 and 12 of r1's own index: one value per
        # 4,096-index block of its truth table
        idle = feature_rule("idle", 3, [1] * 12, self.names[2:])
        r1 = one_output([idle, feature_rule("out", 1, [1, 0], self.names[:2])])
        r2 = one_output([idle, feature_rule("out", 2, [1, 1], self.names[:2])])
        cmp = assert_same_comparison(r1, r2)
        assert len(cmp.universe) == 14
        assert len(cmp.disagreements) == 2 ** 13  # wherever a01 is -1

    def test_rule_with_no_feature_statements(self):
        base = feature_rule("base", 2, [1, 0, 1], self.names[:3])
        r1 = one_output([base, ThresholdRule("always", 0, []),
                         ThresholdRule("out", 2, [Statement(True, rule="base"),
                                                  Statement(True, rule="always")])])
        r2 = one_output([feature_rule("out", 1, [0, 1], self.names[1:3])])
        cmp = assert_same_comparison(r1, r2)
        assert 0 < len(cmp.disagreements) < cmp.total

    @pytest.mark.parametrize("k", [-2, 0, 4, 9])
    def test_k_outside_the_statement_count(self, k):
        r1 = one_output([feature_rule("out", k, [1, 0, 1], self.names[:3])])
        r2 = one_output([feature_rule("out", 2, [1, 0, 1], self.names[:3])])
        cmp = assert_same_comparison(r1, r2)
        holds = k <= 0  # and never when k > 3
        assert cmp.both_second + cmp.second_first == (8 if holds else 0)

    def test_negated_rule_citations(self):
        s0 = feature_rule("s0", 2, [1, 1, 0], self.names[:3])
        s1 = feature_rule("s1", 1, [0, 1], self.names[3:5])
        r1 = one_output([s0, s1, ThresholdRule("out", 1, [
            Statement(False, rule="s0"), Statement(False, rule="s1")])])
        r2 = one_output([s0, s1, ThresholdRule("out", 2, [
            Statement(True, rule="s0"), Statement(False, rule="s1")])])
        cmp = assert_same_comparison(r1, r2)
        assert 0 < len(cmp.disagreements) < cmp.total

    @pytest.mark.parametrize("outputs", [1, 2])
    def test_second_rule_set_lists_the_classes_reversed(self, outputs):
        rules = [feature_rule("yes", 2, [1, 0, 1], self.names[:3]),
                 feature_rule("no", 2, [0, 1, 1], self.names[:3])]
        r1 = one_output(rules[:1], "O", ["P", "O"])
        if outputs == 1:
            r2 = one_output(rules[1:], "P", ["O", "P"])
        else:
            r2 = RuleSet(rules=rules, output_rules=[("O", "yes"), ("P", "no")],
                         class_labels=["O", "P"])
        cmp = assert_same_comparison(r1, r2)
        assert cmp.labels == ("P", "O")
        assert 0 < len(cmp.disagreements) < cmp.total


def grid_comparison(r1, r2):
    """Counts and (index, r1 class, r2 class) disagreements from
    ``classify_rules`` on the explicit ±1 grid of the union, in
    ``itertools.product`` order: for unions too large for
    ``reference_compare``."""
    universe = sorted(set(r1.attribute_universe) | set(r2.attribute_universe))
    n = len(universe)
    index = np.arange(2 ** n)
    columns = {name: np.where(index >> (n - 1 - i) & 1, 1, -1).astype(np.int8)
               for i, name in enumerate(universe)}
    c1, c2 = classify_rules(r1, columns), classify_rules(r2, columns)
    second1, second2 = c1 != r1.class_labels[0], c2 != r1.class_labels[0]
    counts = [int(np.count_nonzero(~second1 & ~second2)),
              int(np.count_nonzero(second1 & second2)),
              int(np.count_nonzero(~second1 & second2)),
              int(np.count_nonzero(second1 & ~second2))]
    where = np.flatnonzero(c1 != c2)
    return universe, counts, list(zip(where.tolist(), c1[where].tolist(),
                                      c2[where].tolist()))


def a1_shaped(features, signs, label="O", class_labels=("P", "O")):
    """An "at least 2 of 4" syndrome over the first four ``features``, one
    "at least 2 of" the rest and an "at least 1 of 2" output rule: the shape
    of the shipped A1."""
    return one_output([
        feature_rule("s0", 2, signs[:4], features[:4]),
        feature_rule("s1", 2, signs[4:], features[4:]),
        ThresholdRule("out", 1, [Statement(True, rule="s0"), Statement(True, rule="s1")]),
    ], label, class_labels)


class TestUnionGather:
    """Each rule set's own truth table read over the union universe, on the
    shapes of universe the gather treats apart."""

    names = [f"a{k:02d}" for k in range(18)]

    def test_disjoint_universes_interleaved_in_the_union(self):
        # the compare16 shape: r1 reads the even names and r2 the odd ones,
        # so each set's attributes sit on every other union bit
        r1 = a1_shaped(self.names[0:12:2], [1, 0, 1, 1, 0, 1])
        r2 = a1_shaped(self.names[1:12:2], [0, 1, 1, 0, 1, 1])
        assert set(r1.attribute_universe).isdisjoint(r2.attribute_universe)
        cmp = assert_same_comparison(r1, r2)
        assert len(cmp.universe) == 12 and 0 < len(cmp.disagreements) < cmp.total

    @pytest.mark.parametrize("empty_first", [True, False])
    def test_an_empty_universe_against_a_non_empty_one(self, empty_first):
        constant = one_output([ThresholdRule("out", 0, [])])  # always O
        other = a1_shaped(self.names[3:11], [1, 0, 0, 1, 1, 1, 0, 1])
        pair = (constant, other) if empty_first else (other, constant)
        cmp = assert_same_comparison(*pair)
        assert cmp.universe == self.names[3:11]
        assert 0 < len(cmp.disagreements) < cmp.total

    @pytest.mark.parametrize("subset_first", [True, False])
    def test_a_universe_strictly_inside_the_other(self, subset_first):
        inner = a1_shaped(self.names[2:10:2] + self.names[3:10:2],
                          [1, 1, 0, 1, 0, 1, 1, 0], "P", ["O", "P"])
        outer = a1_shaped(self.names[:12], [0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0])
        assert set(inner.attribute_universe) < set(outer.attribute_universe)
        pair = (inner, outer) if subset_first else (outer, inner)
        cmp = assert_same_comparison(*pair)
        assert 0 < len(cmp.disagreements) < cmp.total

    def test_a_union_of_18_attributes_in_four_gather_blocks(self):
        # union bits 17 and 16 (a00, a01) change once per 2**16 indices; r1
        # reads a00 and r2 a01, next to attributes on both halves of a block
        r1 = a1_shaped([self.names[k] for k in (0, 3, 5, 8, 10, 13, 16, 17, 7)],
                       [1, 0, 1, 1, 0, 1, 0, 1, 1])
        r2 = a1_shaped([self.names[k] for k in (1, 2, 6, 9, 11, 12, 15, 4, 14)],
                       [0, 1, 1, 0, 1, 1, 1, 0, 0])
        cmp = compare_rulesets(r1, r2)
        universe, counts, disagreements = grid_comparison(r1, r2)
        assert cmp.universe == universe and len(universe) == 18
        assert [cmp.both_first, cmp.both_second, cmp.first_second,
                cmp.second_first] == counts
        assert cmp.disagreements == disagreements
        # every block holds disagreements
        assert len({j >> 16 for j, _, _ in disagreements}) == 4


class TestCompareAtTheCap:
    """20 attributes, the largest union ``compare_rulesets`` enumerates:
    exact counts from the binomial sums, and memory bounded past the result
    it returns."""

    names = [f"a{k:02d}" for k in range(20)]

    @staticmethod
    def at_least(k, features, signs):
        return one_output([feature_rule("out", k, signs, features)])

    @staticmethod
    def holding(k, m):  # own assignments where "at least k of m" holds
        return sum(math.comb(m, t) for t in range(k, m + 1))

    def held_and_peak(self, r1, r2):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cmp = compare_rulesets(r1, r2)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return cmp, held - before, peak - held

    def test_disjoint_pair(self):
        r1 = self.at_least(5, self.names[0::2], [1, 0] * 5)
        r2 = self.at_least(6, self.names[1::2], [0, 1] * 5)
        cmp, held, above = self.held_and_peak(r1, r2)
        h1, h2 = self.holding(5, 10), self.holding(6, 10)
        says1, says2, both = h1 * 2 ** 10, h2 * 2 ** 10, h1 * h2
        assert [cmp.both_first, cmp.both_second, cmp.first_second, cmp.second_first] == [
            2 ** 20 - says1 - says2 + both, both, says2 - both, says1 - both]
        assert len(cmp.disagreements) == cmp.first_second + cmp.second_first
        assert above <= 8 * 2 ** 20, (held, above)

    def test_full_overlap_pair(self):
        r1 = self.at_least(10, self.names, [1, 0] * 10)
        r2 = self.at_least(11, self.names, [1, 0] * 10)
        cmp, held, above = self.held_and_peak(r1, r2)
        # r2 holds only where r1 does; they differ where exactly 10 hold
        assert cmp.second_first == len(cmp.disagreements) == math.comb(20, 10)
        assert cmp.first_second == 0 and cmp.both_second == self.holding(11, 20)
        # all -1: exactly the 10 negated statements hold
        assert cmp.disagreements[0] == (0, "O", "P")
        assert above <= 8 * 2 ** 20, (held, above)


class TestCompareRulesets:
    def test_self_comparison_has_no_disagreements(self):
        a1, _ = fixtures_A1_A2()
        cmp = compare_rulesets(a1, a1)
        # the union universe of a self-comparison is A1's own 5 attributes
        assert cmp.total == 32 and cmp.agree == 32
        assert cmp.disagreements == []

    def test_a1_vs_a2_counts(self):
        a1, a2 = fixtures_A1_A2()
        cmp = compare_rulesets(a1, a2)
        assert cmp.total == 128
        assert cmp.agree == 98
        assert cmp.first_second == 19  # A1 power, A2 opposition
        assert cmp.second_first == 11
        assert len(cmp.disagreements) == 30
        assert cmp.summary_line() == "agree=98 r1P_r2O=19 r1O_r2P=11"

    def test_constant_rulesets_agree_everywhere(self):
        def constant_p(attr):
            return RuleSet(
                rules=[ThresholdRule("never", 2,
                                     [Statement(affirmed=True, feature=attr)])],
                output_rules=[("O", "never")],
                class_labels=["P", "O"],
            )

        cmp = compare_rulesets(constant_p("a"), constant_p("b"))
        assert cmp.total == 4 and cmp.agree == 4 and cmp.both_first == 4

    def test_totals_sum_to_universe_size(self):
        a1, a2 = fixtures_A1_A2()
        cmp = compare_rulesets(a1, a2)
        assert cmp.total == 2 ** len(cmp.universe)

    def test_disagreements_are_held_as_indices(self):
        # 16 attributes; a00 decides r1 and a15 decides r2, so they disagree
        # on half of the 65,536 assignments.  One dict per disagreement held
        # 17.0 MiB; (index, class, class) triples hold 3.3 MiB.
        def decided_by(feature, idle):
            return RuleSet(
                rules=[ThresholdRule("idle", 1, [Statement(True, feature=f)
                                                 for f in idle]),
                       ThresholdRule("out", 1, [Statement(True, feature=feature)])],
                output_rules=[("O", "out")], class_labels=["P", "O"])

        r1 = decided_by("a00", [f"a{k:02d}" for k in range(1, 15)])
        r2 = decided_by("a15", [])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cmp = compare_rulesets(r1, r2)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cmp.universe) == 16 and len(cmp.disagreements) == 2 ** 15
        assert held < 6 * 2 ** 20

    def test_more_than_two_classes_refused(self):
        # the four counters are two-class: an X/P disagreement has no place
        def says(when_a, otherwise):
            return RuleSet(
                rules=[ThresholdRule("yes", 1, [Statement(True, feature="a")]),
                       ThresholdRule("no", 1, [Statement(False, feature="a")])],
                output_rules=[(when_a, "yes"), (otherwise, "no")],
                class_labels=["P", "O", "X"])

        with pytest.raises(LucidnetError, match=re.escape("['P', 'O', 'X']")):
            compare_rulesets(says("X", "P"), says("P", "X"))

    def test_oversize_universe_rejected(self):
        big1 = RuleSet(
            rules=[ThresholdRule("r", 1, [
                Statement(affirmed=True, feature=f"a{k}") for k in range(21)
            ])],
            output_rules=[("O", "r")],
            class_labels=["P", "O"],
        )
        with pytest.raises(LucidnetError):
            compare_rulesets(big1, big1)


class TestFixtures:
    def test_universes(self):
        a1, a2 = fixtures_A1_A2()
        assert a1.attribute_universe == ["q3", "q4", "q6", "q8", "q9"]
        assert a2.attribute_universe == ["q3", "q4", "q5", "q7", "q8", "q9"]
        union = sorted(set(a1.attribute_universe) | set(a2.attribute_universe))
        assert len(union) == 7

    def test_no_syndrome_means_power_wins(self):
        a1, _ = fixtures_A1_A2()
        assignment = {n: -1 for n in a1.attribute_universe}
        assignment["q9"] = 1  # one symptom is not enough for any syndrome
        assert evaluate_rules(a1, assignment) == "P"

    def test_round_trip_json(self):
        a1, a2 = fixtures_A1_A2()
        for rs in (a1, a2):
            again = RuleSet.from_json(rs.to_json())
            assert again.to_json() == rs.to_json()
            for assignment in all_assignments(rs.attribute_universe):
                assert evaluate_rules(again, assignment) == (
                    evaluate_rules(rs, assignment)
                )


class TestSingleNeuronElectionRule:
    def prose_rule(self, q):
        positives = sum(q[name] == 1 for name in ("q3", "q4", "q6", "q9"))
        if positives >= 2:
            return "P"
        if positives >= 1 and q["q8"] == -1:
            return "P"
        return "O"

    def test_matches_prose_on_all_32_assignments(self):
        net = single_question_rule_network()
        names = [f"q{k}" for k in range(1, 13)]
        for assignment in all_assignments(["q3", "q4", "q6", "q8", "q9"]):
            x = np.zeros(12)
            for name, value in assignment.items():
                x[names.index(name)] = value
            netclass = classify_outputs(
                forward(net, x).outputs[None, :], net.output_labels
            )[0]
            assert netclass == self.prose_rule(assignment)

    def test_verbalizes_to_five_statements_needing_two(self):
        net = single_question_rule_network()
        names = [f"q{k}" for k in range(1, 13)]
        ruleset = verbalize(net, feature_names=names)
        rule = ruleset.rules[0]
        assert rule.k == 2 and len(rule.statements) == 5
        negated = [s.feature for s in rule.statements if not s.affirmed]
        assert negated == ["q8"]

    def test_not_logically_transparent(self):
        ok, violations = is_logically_transparent(single_question_rule_network())
        assert not ok
        assert violations == [("neuron:1:0", "fan-in")]
