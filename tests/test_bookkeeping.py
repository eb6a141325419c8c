"""A pruning step's array bookkeeping against per-element references.

``Network.to_json`` must write the bytes that ``json.dumps`` writes for the
doc-building reference, ``candidate_pool`` must take the pools that the
per-neuron walk took, and ``SensitivityLedger.finalize`` must rate weights
as the per-ref ``nearest_valid`` product did, bit for bit.  Pools and
ratings are named by ref through ``ref_pools``.  Random
networks are loaded through ``from_doc``, so they have skip connections and
slots out of column order, then edited.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucidnet import (
    LossKind,
    Network,
    PruneConfig,
    PruningProblem,
    StaleReferenceError,
    TrainConfig,
    ValidSet,
    bias_ref,
    input_ref,
    nearest_valid,
    neuron_ref,
    prune_accelerated,
    prune_basic,
    select_candidates,
    synapse_ref,
)
from lucidnet.pruning import PROBLEM_KINDS
from lucidnet.training import EpochWorkspace

from bookkeeping_reference import (
    reference_doc,
    reference_nearest,
    reference_pool,
    reference_ratings,
)
from conftest import apply_edits, edit_lists, fresh_trained_xor
from ref_pools import by_class, ledger_of, ledger_refs, pool_refs, rated, rating_map

LABELS = st.text(st.sampled_from('ab"\\/é∑\U0001f600\n'), min_size=1, max_size=4)
SPECIAL = (-0.0, 0.0, 0.5, -0.5, math.nan, math.inf, -math.inf)


@st.composite
def network_docs(draw):
    """Documents with skip connections, slots in random order, mixed
    activations and trainable flags, and labels that JSON escapes."""
    widths = [draw(st.integers(1, 4))]
    widths += [draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 3)))]
    weight = st.floats(-2.0, 2.0, allow_nan=False)
    layers = []
    for l in range(1, len(widths)):
        sources = [(sl, si) for sl in range(l) for si in range(widths[sl])]
        layers.append([{
            "bias": {"w": draw(weight), "trainable": draw(st.booleans())},
            "synapses": [
                {"src_layer": sl, "src_index": si, "w": draw(weight),
                 "trainable": draw(st.booleans())}
                for sl, si in draw(st.lists(st.sampled_from(sources), unique=True))
            ],
            "activation": draw(st.sampled_from(["tanh", "sigmoid", "step"])),
        } for _ in range(widths[l])])
    n_labels = max(2, widths[-1])
    return {
        "input_dim": widths[0],
        "active_inputs": [True] * widths[0],
        "layers": layers,
        "output_labels": draw(st.lists(LABELS, min_size=n_labels, max_size=n_labels,
                                       unique=True)),
    }


def edited(doc, edits):
    net = Network.from_doc(doc)
    net.audit_structure()  # a loaded document need not be audited yet
    apply_edits(net, edits)
    return net


def set_specials(net, picks):
    """Set live weights picked by index to values of SPECIAL, frozen or not."""
    refs = [ref for ref, _, _ in net.iter_weights()]
    for pick, value, freeze in picks:
        net.set_weight(refs[pick % len(refs)], value, freeze=freeze)


special_picks = st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(SPECIAL),
                                   st.booleans()), max_size=5)


class TestSerializer:
    @settings(max_examples=200, deadline=None)
    @given(doc=network_docs(), edits=edit_lists, picks=special_picks)
    def test_to_json_is_json_dumps_of_the_reference(self, doc, edits, picks):
        net = edited(doc, edits)
        set_specials(net, picks)
        want = json.dumps(reference_doc(net), separators=(",", ":"), sort_keys=True)
        assert net.to_json() == want

    @settings(max_examples=50, deadline=None)
    @given(doc=network_docs(), edits=edit_lists)
    def test_to_doc_is_the_reference(self, doc, edits):
        net = edited(doc, edits)
        assert net.to_doc() == reference_doc(net)

    def test_escapes_and_non_finite_weights(self):
        net = Network.from_doc({
            "input_dim": 1, "active_inputs": [True],
            "layers": [[{"bias": {"w": 0.0, "trainable": True},
                         "synapses": [{"src_layer": 0, "src_index": 0, "w": 1.0,
                                       "trainable": True}],
                         "activation": "step"}]],
            "output_labels": ['say "yes"', "\\é"],
        })
        net.set_weight(bias_ref(1, 0), -0.0)
        net.set_weight(synapse_ref(1, 0, 1), math.nan, freeze=True)
        text = net.to_json()
        assert '"w":-0.0' in text and '"w":NaN' in text
        assert '"output_labels":["say \\"yes\\"","\\\\\\u00e9"]' in text


def problems(valid_set):
    return [PruningProblem(kind, valid_set=valid_set if kind == "precision-reduction"
                           else None, target_fan_in=fan)
            for kind in PROBLEM_KINDS for fan in (1, 2, 3)]


class TestPools:
    @settings(max_examples=200, deadline=None)
    @given(doc=network_docs(), edits=edit_lists, picks=special_picks)
    def test_every_problem_kind_takes_the_reference_pool(self, doc, edits, picks):
        net = edited(doc, edits)
        set_specials(net, picks)
        for problem in problems(ValidSet.ternary()):
            assert pool_refs(net, problem) == reference_pool(net, problem), problem

    def test_fan_in_ties_across_layers_and_slot_order(self):
        # neurons 1:0 and 2:0 both have the top fan-in of 3, and their slots
        # read columns out of order; 1:1 has 2
        def synapse(sl, si, w=0.5, trainable=True):
            return {"src_layer": sl, "src_index": si, "w": w, "trainable": trainable}

        net = Network.from_doc({
            "input_dim": 3, "active_inputs": [True] * 3,
            "layers": [
                [{"bias": {"w": 0.1, "trainable": True}, "activation": "tanh",
                  "synapses": [synapse(0, 2), synapse(0, 0), synapse(0, 1)]},
                 {"bias": {"w": 0.1, "trainable": True}, "activation": "tanh",
                  "synapses": [synapse(0, 1), synapse(0, 0, 0.0, False)]}],
                [{"bias": {"w": 0.1, "trainable": True}, "activation": "tanh",
                  "synapses": [synapse(1, 1), synapse(0, 2, -1.0, False), synapse(1, 0)]}],
            ],
            "output_labels": ["pos", "neg"],
        })
        problem = PruningProblem("uniform-simplification", target_fan_in=2)
        pool = pool_refs(net, problem)
        assert pool == reference_pool(net, problem)
        assert pool == [synapse_ref(1, 0, 1), synapse_ref(1, 0, 2), synapse_ref(1, 0, 3),
                        synapse_ref(2, 0, 1), synapse_ref(2, 0, 3)]
        assert pool_refs(net, PruningProblem("uniform-simplification",
                                             target_fan_in=3)) == []


VALID_SETS = st.one_of(
    st.sampled_from([ValidSet.ternary(), ValidSet((-1.0, 1.0)), ValidSet.removal()]),
    st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=4,
             unique=True).map(lambda vs: ValidSet(tuple(sorted(set(vs))))),
)


class TestRatings:
    @settings(max_examples=200, deadline=None)
    @given(doc=network_docs(), edits=edit_lists, valid=VALID_SETS,
           ties=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(
               [0.5, -0.5, 0.0, -0.0, 1.5, -1.5])), max_size=6),
           seed=st.integers(0, 2**31))
    def test_finalize_equals_the_per_ref_product(self, doc, edits, valid, ties, seed):
        net = edited(doc, edits)
        refs = [ref for ref, _, _ in net.iter_weights()]
        for pick, value in ties:  # midpoints of the valid sets among the weights
            net.set_weight(refs[pick % len(refs)], value)
        refs = ([input_ref(k) for k in net.active_feature_indices()]
                + list(net.iter_neurons()) + refs)
        rng = np.random.default_rng(seed)
        for _, pool in by_class(refs):
            ledger = ledger_of(net, pool, np.ones(1), "max")
            # one epoch of one sample: each max indicator is its sample
            samples = rng.uniform(0.0, 3.0, size=(len(pool), 1))
            ledger.add_epoch(samples)
            want = reference_ratings(samples[:, 0].tolist(), net, ledger_refs(net, ledger),
                                     valid)
            got = rating_map(net, ledger, valid)
            assert list(got) == sorted(pool, key=lambda ref: ref.key)
            assert got == want

    @pytest.mark.parametrize("weight, values, nearest", [
        (0.5, (-1.0, 0.0, 1.0), 0.0), (-0.5, (-1.0, 0.0, 1.0), 0.0),
        (0.0, (-1.0, 1.0), -1.0), (-0.0, (-1.0, 1.0), -1.0),
        (0.75, (0.5, 1.0), 0.5), (-2.0, (-1.0, 0.0, 1.0), -1.0),
        (math.inf, (-1.0, 0.0, 1.0), 0.0), (-math.inf, (-1.0, 1.0), -1.0),
    ])
    def test_midpoint_ties(self, weight, values, nearest):
        valid = ValidSet(values)
        assert nearest_valid(weight, valid) == reference_nearest(weight, valid) == nearest
        assert nearest_valid(np.array([weight, weight]), valid).tolist() == [nearest] * 2

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from(
               [0.5, -0.5, 0.0, -0.0, 1.0, -1.0])), max_size=8), valid=VALID_SETS)
    def test_nearest_valid_of_an_array_is_the_per_weight_rule(self, weights, valid):
        got = nearest_valid(np.array(weights, dtype=float), valid)
        assert got.tolist() == [reference_nearest(w, valid) for w in weights]

    def test_a_valid_set_orders_its_ties_once(self):
        valid = ValidSet((-1.0, -0.5, 0.0, 0.5, 1.0))
        order = valid._by_magnitude
        assert order.tolist() == sorted(valid.values, key=lambda v: (abs(v), v))
        assert order.tolist() == [0.0, -0.5, 0.5, -1.0, 1.0] and not order.flags.writeable
        assert valid == ValidSet(valid.values) and hash(valid) == hash(ValidSet(valid.values))

    def test_stale_and_out_of_range_refs_raise(self):
        net, _, _, _ = fresh_trained_xor(1, max_epochs=0)
        net.remove_element(neuron_ref(1, 2))
        for ref in (synapse_ref(1, 2, 1), bias_ref(1, 2), synapse_ref(1, 0, 9),
                    bias_ref(1, 6), bias_ref(3, 0), synapse_ref(2, 0, 3)):
            # a pool's refs resolve to rows before a ledger is built
            with pytest.raises(StaleReferenceError):
                ledger_of(net, [bias_ref(1, 0), ref], np.ones(1), "avg")

    def test_a_slot_0_synapse_ref_rates_its_bias(self):
        net, _, _, _ = fresh_trained_xor(1, max_epochs=0)
        ledger = ledger_of(net, [synapse_ref(1, 0, 0)], np.ones(1), "max")
        ledger.add_epoch(np.ones((1, 1)))
        w = net.weight(bias_ref(1, 0))
        got = rating_map(net, ledger, ValidSet.ternary())
        assert got == {bias_ref(1, 0): abs(reference_nearest(w, ValidSet.ternary()) - w)}

    def test_select_candidates_targets(self):
        net, _, _, _ = fresh_trained_xor(1, max_epochs=0)
        valid = ValidSet.ternary()
        pool = pool_refs(net, PruningProblem("precision-reduction", valid_set=valid))
        final_map = {ref: 1.0 for ref in pool}
        picked = select_candidates(*rated(net, final_map), net, PruningProblem(
            "precision-reduction", valid_set=valid), len(pool))
        assert picked == [(ref, reference_nearest(net.weight(ref), valid)) for ref in pool]


class TestFinalReport:
    @pytest.mark.parametrize("runner, problem", [
        (prune_basic, PruningProblem("synapse-removal")),
        (prune_accelerated, PruningProblem("precision-reduction",
                                           valid_set=ValidSet.ternary())),
        (prune_basic, PruningProblem("uniform-simplification", target_fan_in=9)),
    ], ids=["basic", "accelerated", "no-step"])
    def test_final_loss_and_accuracy_are_the_returned_networks(self, runner, problem):
        net, data, cfg, _ = fresh_trained_xor(1)
        cfg.max_epochs = 200
        result = runner(net, data, PruneConfig(problem, cfg, accumulation_epochs=2))
        work = EpochWorkspace(result.network, data, LossKind("mse"))
        loss = work.evaluate()[0]
        assert (result.final_loss, result.final_accuracy) == (
            loss, work.judge(TrainConfig(0.1), loss)[1])
        accepted = result.accepted_steps
        if accepted:
            assert result.final_loss == accepted[-1].total_loss
        else:
            assert not result.steps
