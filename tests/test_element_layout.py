"""Every walk and edit of a network through its weight table, against the
per-layer code it replaced.

Each test loads the same random document into two networks, runs the table
code on one and the per-layer reference of ``bookkeeping_reference`` on the
other, and compares what they return and the networks they leave, bit for
bit.  The documents have skip connections and slots out of column order;
removals leave dead neurons and masked inputs, and frozen weights take
-0.0, NaN and the ternary values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucidnet import (
    IllegalModificationError,
    Network,
    StaleReferenceError,
    bias_ref,
    input_ref,
    is_logically_transparent,
    neuron_ref,
    synapse_ref,
)
from lucidnet.errors import DatasetError

from bookkeeping_reference import (
    kill_neuron,
    layer_arrays,
    reference_audit,
    reference_check_layered,
    reference_fan_in,
    reference_iter_weights,
    reference_remove_element,
    reference_transparency,
    reference_weight,
)
from conftest import apply_edits, edit_lists, network_from_layers, neuron_doc
from ref_pools import pool_of
from test_bookkeeping import network_docs

VALUES = (-0.0, 0.0, 1.0, -1.0, 0.5, math.nan, math.inf)

weight_picks = st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(VALUES),
                                  st.booleans()), max_size=8)
# (whether to pick among the live inputs, hidden neurons and synapses, or
# among refs of every kind, stale and out of range too; pick)
edits = st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=8)


def twins(doc):
    """Two networks of one document, each audited, the first by its own
    code and the second by the reference; both must remove the same."""
    net, ref_net = Network.from_doc(doc), Network.from_doc(doc)
    assert net.audit_structure() == reference_audit(ref_net)
    assert_same(net, ref_net)
    return net, ref_net


def assert_same(net, other):
    assert net.active_inputs.tolist() == other.active_inputs.tolist()
    for name in ("params", "trainable", "alive", "codes"):
        assert getattr(net, name).tobytes() == getattr(other, name).tobytes(), name


def set_weights(nets, picks, freeze_all):
    """The same weight edits on each network: with ``freeze_all``, every
    live weight frozen at one of -1, 0 and 1 first; then the picks."""
    for net in nets:
        refs = [ref for ref, _, _ in net.iter_weights()]
        if freeze_all:
            for k, ref in enumerate(refs):
                net.set_weight(ref, float(k % 3 - 1), freeze=True)
        for pick, value, freeze in picks:
            net.set_weight(refs[pick % len(refs)], value, freeze=freeze)


def all_refs(net):
    """Refs of every element of every kind, in range or just past it."""
    refs = [input_ref(k) for k in range(-1, net.input_dim + 1)]
    for l in range(0, net.n_layers + 2):
        width = net.layers[l - 1].width if 1 <= l <= net.n_layers else 1
        for i in range(-1, width + 1):
            n_slots = (len(net.layers[l - 1].slots[i])
                       if 1 <= l <= net.n_layers and 0 <= i < width else 1)
            refs += [neuron_ref(l, i), bias_ref(l, i)]
            refs += [synapse_ref(l, i, s) for s in range(-1, n_slots + 2)]
    return refs


def removable(net):
    """The live inputs, hidden neurons and synapses."""
    return ([input_ref(k) for k in net.active_feature_indices()]
            + list(net.iter_neurons(hidden_only=True))
            + [ref for ref, _, _ in net.iter_weights(with_bias=False)])


def outcome(call, *args):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return "ok", call(*args)
    except (StaleReferenceError, IllegalModificationError, ValueError) as exc:
        return type(exc), str(exc)


def live_weights(weights):
    return [(ref, repr(w), trainable) for ref, w, trainable in weights]


class TestRemoveElement:
    @settings(max_examples=200, deadline=None)
    @given(doc=network_docs(), picks=weight_picks, freeze_all=st.booleans(),
           edits=edits)
    def test_cascades_and_networks_equal_the_reference(self, doc, picks, freeze_all,
                                                       edits):
        net, ref_net = twins(doc)
        set_weights((net, ref_net), picks, freeze_all)
        refs = all_refs(net)
        for live, pick in edits:
            pool = removable(net) if live else refs
            if not pool:
                continue
            ref = pool[pick % len(pool)]
            assert (outcome(net.remove_element, ref)
                    == outcome(reference_remove_element, ref_net, ref)), ref
            assert_same(net, ref_net)
            assert net.to_json() == ref_net.to_json()

    def test_a_hidden_neuron_lists_itself_its_synapses_then_its_bias(self):
        # 1:0 reads input 1, then input 0; only 2:0 reads 1:1, and only 2:1
        # reads 1:0; the sweep lists doomed neurons in (layer, index) order
        net = network_from_layers(2, [
            [neuron_doc(0.1, [(0, 1, 0.5), (0, 0, 0.5)]), neuron_doc(0.2, [(0, 0, 0.5)])],
            [neuron_doc(0.3, [(1, 1, 0.5)]), neuron_doc(0.4, [(1, 0, 0.5), (0, 1, 0.5)])],
            [neuron_doc(0.5, [(2, 0, 0.5), (2, 1, 0.5)])],
        ], ["pos", "neg"])
        assert net.remove_element(synapse_ref(3, 0, 1)) == [
            neuron_ref(1, 1), synapse_ref(1, 1, 1), bias_ref(1, 1),
            neuron_ref(2, 0), synapse_ref(2, 0, 1), bias_ref(2, 0),
        ]
        assert net.remove_element(synapse_ref(2, 1, 1)) == [
            neuron_ref(1, 0), synapse_ref(1, 0, 1), synapse_ref(1, 0, 2), bias_ref(1, 0),
            input_ref(0),
        ]


class TestWalks:
    @settings(max_examples=200, deadline=None)
    @given(doc=network_docs(), picks=weight_picks, freeze_all=st.booleans(),
           edits=edit_lists)
    def test_fan_in_weights_and_violations_equal_the_reference(self, doc, picks,
                                                              freeze_all, edits):
        net, ref_net = twins(doc)
        set_weights((net, ref_net), picks, freeze_all)
        apply_edits(net, edits)
        for ref in all_refs(net):
            if ref.kind == "neuron":
                assert outcome(net.fan_in, ref) == outcome(reference_fan_in, net, ref), ref
        for with_bias in (True, False):
            assert (live_weights(net.iter_weights(with_bias))
                    == live_weights(reference_iter_weights(net, with_bias)))
        assert is_logically_transparent(net) == reference_transparency(net)

    def test_a_frozen_zero_does_not_count_toward_fan_in_and_nan_does(self):
        net = network_from_layers(
            3, [[neuron_doc(0.0, [(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)])]], ["pos", "neg"])
        net.set_weight(synapse_ref(1, 0, 1), -0.0, freeze=True)
        net.set_weight(synapse_ref(1, 0, 2), math.nan, freeze=True)
        assert net.fan_in(neuron_ref(1, 0)) == reference_fan_in(net, neuron_ref(1, 0)) == 2
        assert net.fan_ins().tolist() == [0, 0, 0, 2]


class TestWeightRefs:
    @settings(max_examples=100, deadline=None)
    @given(doc=network_docs(), edits=edit_lists)
    def test_lookups_raise_the_reference_errors(self, doc, edits):
        net, _ = twins(doc)
        apply_edits(net, edits)
        refs = all_refs(net)

        def reference_value(ref):
            layer, i, col = reference_weight(net, ref)
            return repr(float(layer.bias[i] if col is None else layer.weights[i, col]))

        for ref in refs:
            want = outcome(reference_value, ref)
            assert outcome(lambda ref: repr(net.weight(ref)), ref) == want, ref
            if want[0] != "ok":
                assert outcome(net.is_trainable, ref) == want
                assert outcome(net.set_weight, ref, 1.0) == want
                if ref.kind in ("synapse", "bias"):
                    assert outcome(pool_of, net, [ref]) == want
                    assert not net.is_alive(ref)

    def test_a_slot_0_synapse_ref_names_the_bias(self):
        net = network_from_layers(
            1, [[neuron_doc(0.25, [(0, 0, 0.5)], trainable=True)]], ["pos", "neg"])
        alias = synapse_ref(1, 0, 0)
        assert net.weight(alias) == net.weight(bias_ref(1, 0)) == 0.25
        assert pool_of(net, [alias])[1].tolist() == pool_of(net, [bias_ref(1, 0)])[1].tolist()
        net.set_weight(alias, -1.0, freeze=True)
        assert (net.weight(bias_ref(1, 0)), net.is_trainable(bias_ref(1, 0))) == (-1.0, False)
        assert outcome(net.remove_element, alias) == (
            IllegalModificationError, "bias slots cannot be structurally removed")

    def test_error_texts(self):
        net = network_from_layers(2, [
            [neuron_doc(0.0, [(0, 1, 0.5), (0, 0, 0.5)]), neuron_doc(0.0, [(0, 0, 0.5)])],
            [neuron_doc(0.0, [(1, 0, 0.5), (1, 1, 0.5)])],
        ], ["pos", "neg"])
        net.remove_element(synapse_ref(1, 0, 2))
        net.remove_element(neuron_ref(1, 1))
        for ref, text in [
            (synapse_ref(1, 0, 2), "synapse:1:0:2 is tombstoned"),
            (synapse_ref(1, 0, 3), "synapse:1:0:3 out of range"),
            (synapse_ref(1, 0, -1), "synapse:1:0:-1 out of range"),
            (bias_ref(1, 1), "bias:1:1 is tombstoned"),
            (synapse_ref(1, 1, 1), "synapse:1:1:1 is tombstoned"),
            (bias_ref(1, 2), "bias:1:2 out of range"),
            (bias_ref(3, 0), "no neuron layer 3"),
            (neuron_ref(1, 0), "neuron:1:0 is not a weight ref"),
            (input_ref(0), "input:0 is not a weight ref"),
        ]:
            assert outcome(net.weight, ref) == (StaleReferenceError, text)
            if ref.kind in ("synapse", "bias"):
                assert outcome(pool_of, net, [bias_ref(1, 0), ref]) == (
                    StaleReferenceError, text)


class TestOrphans:
    @settings(max_examples=200, deadline=None)
    @given(doc=network_docs(), masked=st.lists(st.integers(0, 10**6), max_size=3),
           dead=st.lists(st.integers(0, 10**6), max_size=3))
    def test_check_layered_and_audit_equal_the_reference(self, doc, masked, dead):
        """Inputs masked and hidden neurons killed behind the audit's back,
        as a foreign snapshot could leave them, give the same layering
        message and the same sweep."""
        net, ref_net = Network.from_doc(doc), Network.from_doc(doc)
        for other in (net, ref_net):
            for k in masked:
                other.active_inputs[k % other.input_dim] = False
            hidden = list(other.iter_neurons(hidden_only=True))
            for k in dead:
                if hidden:
                    ref = hidden[k % len(hidden)]
                    kill_neuron(layer_arrays(other)[ref.layer - 1], ref.neuron)
        assert outcome(net.check_layered) == outcome(reference_check_layered, ref_net)
        assert net.audit_structure() == reference_audit(ref_net)
        assert_same(net, ref_net)
        assert net.check_layered() and net.audit_structure() == []

    def test_the_message_names_the_lowest_column_not_the_lowest_slot(self):
        layers = [[neuron_doc(0.0, [(0, 0, 0.5), (0, 2, 0.5), (0, 1, 0.5)])]]
        text = "a synapse of neuron:1:0 (from 0:1) sources a masked feature"
        net = network_from_layers(3, layers, ["pos", "neg"])
        net.active_inputs[1:] = [False, False]
        assert outcome(net.check_layered) == (ValueError, text)
        assert outcome(reference_check_layered, net) == (ValueError, text)
        with pytest.raises(DatasetError) as info:
            network_from_layers(3, layers, ["pos", "neg"], [True, False, False])
        assert str(info.value) == f"network: {text}"


def test_iter_weights_reads_the_rows_in_key_order():
    net = network_from_layers(
        2, [[neuron_doc(0.5, [(0, 1, -0.0), (0, 0, 0.0)])]], ["pos", "neg"])
    net.set_weight(synapse_ref(1, 0, 2), math.nan, freeze=True)
    got = live_weights(net.iter_weights())
    assert got == [(bias_ref(1, 0), "0.5", False), (synapse_ref(1, 0, 1), "-0.0", False),
                   (synapse_ref(1, 0, 2), "nan", False)]
    assert live_weights(net.iter_weights(with_bias=False)) == got[1:]
    assert np.array_equal(pool_of(net, [r for r, _, _ in got])[1], [0, 1, 2])
