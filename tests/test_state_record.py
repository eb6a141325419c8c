"""The state record: a network's whole mutable state is the byte buffer
``Network.state``, so ``snapshot`` copies it, ``restore`` copies it back and
``digest`` hashes it with the topology.

The digest must see every field of the record, a restore must give back
the snapshot's digest and bytes after any edits, equal digests of one
topology must mean equal ``network.json`` bytes, and those bytes must be
the compact dump of ``to_doc``, non-finite weights included: ``to_json``
dumps without sorting, because ``to_doc`` builds every object with its keys
in sorted order.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucidnet import Network, bias_ref, build_network, input_ref, synapse_ref
from lucidnet.network import ACTIVATIONS

from conftest import EDIT_KINDS, apply_edits, edit_lists
from test_bookkeeping import SPECIAL, edited, network_docs, set_specials, special_picks


def flip(field, pick):
    """A change of one entry of one field of the record, picked by index."""
    def change(net):
        array = getattr(net, field)
        k = pick % len(array)
        if field == "params":
            array[k] += 1.0
        elif field == "codes":
            array[k] = (array[k] + 1) % len(ACTIVATIONS)
        else:
            array[k] = not array[k]
    return change


FIELDS = ("params", "trainable", "alive", "active_inputs", "codes")


class TestDigest:
    @settings(max_examples=200, deadline=None)
    @given(doc=network_docs(), edits=edit_lists, field=st.sampled_from(FIELDS),
           pick=st.integers(0, 10**6))
    def test_one_changed_entry_changes_it(self, doc, edits, field, pick):
        net = edited(doc, edits)
        before, snap = net.digest(), net.snapshot()
        flip(field, pick)(net)
        assert net.digest() != before
        net.restore(snap)
        assert net.digest() == before

    @settings(max_examples=100, deadline=None)
    @given(doc=network_docs(), edits=edit_lists, pick=st.integers(0, 10**6))
    def test_a_signed_zero_changes_it(self, doc, edits, pick):
        net = edited(doc, edits)
        k = pick % len(net.params)
        net.params[k] = 0.0
        positive = net.digest()
        net.params[k] = -0.0
        assert net.digest() != positive

    def test_it_covers_the_topology(self):
        doc = {"input_dim": 1, "active_inputs": [True],
               "layers": [[{"bias": {"w": 0.5, "trainable": True}, "synapses": [
                   {"src_layer": 0, "src_index": 0, "w": 1.0, "trainable": True}],
                   "activation": "tanh"}]],
               "output_labels": ["a", "b"]}
        net = Network.from_doc(doc)
        swapped = Network.from_doc(dict(doc, output_labels=["b", "a"]))
        assert net.state.tobytes() == swapped.state.tobytes()
        assert net.digest() != swapped.digest()
        assert len(net.digest()) == 16 and set(net.digest()) <= set("0123456789abcdef")

    @settings(max_examples=200, deadline=None)
    @given(doc=network_docs(),
           a=st.lists(st.tuples(st.sampled_from(EDIT_KINDS), st.integers(0, 2)), max_size=2),
           b=st.none() | st.lists(st.tuples(st.sampled_from(EDIT_KINDS), st.integers(0, 2)),
                                  max_size=2))
    def test_equal_digests_mean_equal_bytes(self, doc, a, b):
        one, two = edited(doc, a), edited(doc, a if b is None else b)
        if one.digest() == two.digest():
            assert one.to_json() == two.to_json()
        else:
            assert one.state.tobytes() != two.state.tobytes()


changes = st.lists(st.tuples(st.sampled_from(["remove", "set_weight", "set_activation"]),
                             st.integers(0, 10**6), st.sampled_from(SPECIAL + (1.0,)),
                             st.booleans(), st.sampled_from(ACTIVATIONS)), max_size=8)


def apply_changes(net, changes):
    """Removals with their cascades, weight assignments (non-finite ones
    too) and activation changes, on live elements picked by index."""
    for kind, pick, value, freeze, activation in changes:
        if kind == "remove":
            pool = ([input_ref(k) for k in net.active_feature_indices()]
                    + list(net.iter_neurons(hidden_only=True))
                    + [ref for ref, _, _ in net.iter_weights(with_bias=False)])
        elif kind == "set_weight":
            pool = [ref for ref, _, _ in net.iter_weights()]
        else:
            pool = list(net.iter_neurons())
        if not pool:
            continue
        ref = pool[pick % len(pool)]
        if kind == "remove":
            net.remove_element(ref)
        elif kind == "set_weight":
            net.set_weight(ref, value, freeze=freeze)
        else:
            net.set_activation(ref, activation)


class TestSnapshot:
    @settings(max_examples=200, deadline=None)
    @given(doc=network_docs(), edits=edit_lists, changes=changes)
    def test_restore_gives_back_the_digest_and_the_bytes(self, doc, edits, changes):
        net = edited(doc, edits)
        snap, digest, text = net.snapshot(), net.digest(), net.to_json()
        apply_changes(net, changes)
        assert not np.shares_memory(snap, net.state)
        net.restore(snap)
        assert net.digest() == digest
        assert net.to_json() == text
        assert net.state.tobytes() == snap.tobytes()

    def test_an_activation_change_is_restored(self):
        net = Network.from_doc({
            "input_dim": 1, "active_inputs": [True],
            "layers": [[{"bias": {"w": 0.0, "trainable": True}, "synapses": [],
                         "activation": "sigmoid"}]],
            "output_labels": ["a", "b"]})
        snap, digest = net.snapshot(), net.digest()
        net.set_activation(bias_ref(1, 0), "step")
        assert net.digest() != digest and net.to_doc()["layers"][0][0]["activation"] == "step"
        net.restore(snap)
        assert net.digest() == digest and net.to_doc()["layers"][0][0]["activation"] == "sigmoid"


class TestSerializer:
    @settings(max_examples=200, deadline=None)
    @given(doc=network_docs(), edits=edit_lists, picks=special_picks)
    def test_to_json_is_the_dump_of_to_doc(self, doc, edits, picks):
        net = edited(doc, edits)
        set_specials(net, picks)
        assert net.to_json() == json.dumps(net.to_doc(), separators=(",", ":"),
                                           sort_keys=True)

    @settings(max_examples=100, deadline=None)
    @given(doc=network_docs(), edits=edit_lists)
    def test_to_doc_builds_every_object_with_sorted_keys(self, doc, edits):
        def objects(value):
            if isinstance(value, dict):
                yield value
                value = list(value.values())
            for item in value if isinstance(value, list) else ():
                yield from objects(item)

        seen = list(objects(edited(doc, edits).to_doc()))
        assert seen and all(list(obj) == sorted(obj) for obj in seen)

    @pytest.mark.parametrize("sizes, labels", [((8, 6, 1), None),
                                               ((12, 10, 10, 2), ["P", "O"])],
                             ids=["majority8", "election1024"])
    @pytest.mark.parametrize("edits", [[], [("neuron", 3), ("synapse", 7), ("input", 2),
                                            ("freeze", 11), ("freeze", 40)]],
                             ids=["built", "edited"])
    def test_the_bench_nets(self, sizes, labels, edits):
        net = build_network(sizes, output_labels=labels, seed=1)
        apply_edits(net, edits)
        assert net.to_json() == json.dumps(net.to_doc(), separators=(",", ":"),
                                           sort_keys=True)

    def test_non_finite_weights(self):
        net = Network.from_doc({
            "input_dim": 2, "active_inputs": [True, True],
            "layers": [[{"bias": {"w": 0.0, "trainable": True}, "synapses": [
                {"src_layer": 0, "src_index": k, "w": 1.0, "trainable": True}
                for k in (1, 0)], "activation": "tanh"}]],
            "output_labels": ["a", "b"]})
        for ref, value in ((bias_ref(1, 0), math.nan), (synapse_ref(1, 0, 1), math.inf),
                           (synapse_ref(1, 0, 2), -math.inf)):
            net.set_weight(ref, value, freeze=True)
        text = net.to_json()
        assert text == json.dumps(net.to_doc(), separators=(",", ":"), sort_keys=True)
        assert ('"bias":{"trainable":false,"w":NaN}' in text and '"w":Infinity' in text
                and '"w":-Infinity' in text)
