"""Array evaluation against a per-synapse reference over ``to_doc()``.

The reference below walks the compact document one synapse at a time in
plain Python floats, so it shares no code with the matrix layout it checks.
Random topologies have skip connections, random slot orders, tombstoned
inputs, neurons and synapses, and frozen weights.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lucidnet import (
    Dataset,
    LossKind,
    Network,
    TrainConfig,
    bias_ref,
    forward_batch,
    synapse_ref,
)
from lucidnet.network import backward_batch
from lucidnet.training import EpochWorkspace

from bookkeeping_reference import synapses
from conftest import apply_edits, edit_lists, step

def _act(kind, sigma):
    return math.tanh(sigma) if kind == "tanh" else math.tanh(0.5 * sigma)


def _prime(kind, y):
    return 1.0 - y * y if kind == "tanh" else 0.5 * (1.0 - y * y)


def reference_forward(doc, x):
    values = [list(x)]
    for layer in doc["layers"]:
        ys = []
        for n in layer:
            s = n["bias"]["w"]
            for syn in n["synapses"]:
                s += syn["w"] * values[syn["src_layer"]][syn["src_index"]]
            ys.append(_act(n["activation"], s))
        values.append(ys)
    return values


def reference_backward(doc, values, d_out):
    """Per-sample gradients: {(l, i, slot): dL/dw} with slot 0 the bias,
    and dL/dy for every unit, inputs included."""
    n_layers = len(doc["layers"])
    y_grad = [[0.0] * len(v) for v in values]
    y_grad[n_layers] = list(d_out)
    w_grad = {}
    for l in range(n_layers, 0, -1):
        for i, n in enumerate(doc["layers"][l - 1]):
            d_sigma = y_grad[l][i] * _prime(n["activation"], values[l][i])
            w_grad[(l, i, 0)] = d_sigma
            for slot, syn in enumerate(n["synapses"], start=1):
                src = values[syn["src_layer"]][syn["src_index"]]
                w_grad[(l, i, slot)] = d_sigma * src
                y_grad[syn["src_layer"]][syn["src_index"]] += d_sigma * syn["w"]
    return w_grad, y_grad


@st.composite
def network_docs(draw):
    widths = [draw(st.integers(1, 4))]
    widths += [draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 3)))]
    weight = st.floats(-2.0, 2.0, allow_nan=False)
    layers = []
    for l in range(1, len(widths)):
        sources = [(sl, si) for sl in range(l) for si in range(widths[sl])]
        layer = []
        for _ in range(widths[l]):
            chosen = draw(st.lists(st.sampled_from(sources), unique=True))
            layer.append({
                "bias": {"w": draw(weight), "trainable": draw(st.booleans())},
                "synapses": [
                    {"src_layer": sl, "src_index": si, "w": draw(weight),
                     "trainable": draw(st.booleans())}
                    for sl, si in chosen
                ],
                "activation": draw(st.sampled_from(["tanh", "sigmoid"])),
            })
        layers.append(layer)
    n_out = widths[-1]
    return {
        "input_dim": widths[0],
        "active_inputs": [True] * widths[0],
        "layers": layers,
        "output_labels": ["pos", "neg"] if n_out == 1 else [f"c{i}" for i in range(n_out)],
    }


def loaded(doc, edits):
    net = Network.from_doc(doc)
    net.audit_structure()  # a loaded document need not be audited yet
    apply_edits(net, edits)
    return net


def compact_keys(net):
    """Compact (layer, index, slot) of every live weight ref of the
    network, slot 0 for the bias, as ``to_doc`` numbers them."""
    keys = {}
    position = {}
    for nref in net.iter_neurons():
        i = position.setdefault(nref.layer, 0)
        position[nref.layer] = i + 1
        keys[bias_ref(nref.layer, nref.neuron)] = (nref.layer, i, 0)
        for rank, (slot, _, _, _) in enumerate(synapses(net, nref), start=1):
            keys[synapse_ref(nref.layer, nref.neuron, slot)] = (nref.layer, i, rank)
    return keys


def column(net, ref):
    """Column of a synapse ref in its layer's weight matrix, by the slot table."""
    return net.layers[ref.layer - 1].slots[ref.neuron][ref.slot - 1]


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(doc=network_docs(), edits=edit_lists, seed=st.integers(0, 2**32 - 1))
    def test_forward_and_backward_match(self, doc, edits, seed):
        net = loaded(doc, edits)
        compact = net.to_doc()
        rng = np.random.default_rng(seed)
        n = 3
        X = rng.uniform(-1.0, 1.0, size=(n, net.input_dim))
        masked = [k for k in range(net.input_dim) if not net.active_inputs[k]]
        X[:, masked] = rng.choice([np.nan, np.inf, -np.inf], size=(n, len(masked)))
        width = net.layers[-1].width
        d_out = rng.uniform(-1.0, 1.0, size=(n, width))

        trace = forward_batch(net, X)
        grads = backward_batch(net, trace, d_out)

        w_sum = {}
        for j in range(n):
            x = [0.0 if k in masked else X[j, k] for k in range(net.input_dim)]
            values = reference_forward(compact, x)
            assert_close(trace.outputs[j], values[-1])
            w_grad, y_grad = reference_backward(compact, values, d_out[j])
            for key, value in w_grad.items():
                w_sum[key] = w_sum.get(key, 0.0) + value
            for l in range(1, net.n_layers + 1):
                live = [r.neuron for r in net.iter_neurons() if r.layer == l]
                assert_close(grads.y_grads[l][j, live], y_grad[l])
                dead = sorted(set(range(net.layers[l - 1].width)) - set(live))
                assert (trace.values[l][j, dead] == 0.0).all()
            active = net.active_feature_indices()
            assert_close(grads.y_grads[0][j, active],
                         [y_grad[0][k] for k in active])
            assert (grads.y_grads[0][j, masked] == 0.0).all()

        keys = compact_keys(net)
        got = [grads.bias_grads[r.layer][r.neuron] if r.kind == "bias" else
               grads.weight_grads[r.layer][r.neuron, column(net, r)] for r in keys]
        assert_close(got, [w_sum[key] for key in keys.values()])
        assert len(keys) == len(w_sum)

    @settings(max_examples=60, deadline=None)
    @given(doc=network_docs(), edits=edit_lists, more=edit_lists)
    def test_restore_and_json_round_trip_are_exact(self, doc, edits, more):
        net = loaded(doc, edits)
        text = net.to_json()
        assert Network.from_json(text).to_json() == text
        X = np.array([[1.0 if (j >> k) & 1 else -1.0 for k in range(net.input_dim)]
                      for j in range(4)])
        before = forward_batch(net, X).outputs.copy()
        frozen = {ref: w for ref, w, trainable in net.iter_weights() if not trainable}

        snap = net.snapshot()
        labels = net.output_labels
        data = Dataset([f"x{k}" for k in range(net.input_dim)], X,
                       [labels[j % len(labels)] for j in range(len(X))], labels)
        with np.errstate(all="ignore"):
            step(EpochWorkspace(net, data, LossKind("mse")), TrainConfig(0.1, momentum=0.5))
        assert {ref: w for ref, w, t in net.iter_weights() if not t} == frozen
        apply_edits(net, more)
        net.restore(snap)
        assert net.to_json() == text
        assert np.array_equal(forward_batch(net, X).outputs, before)
        assert net.audit_structure() == []
        net.restore(snap)  # a snapshot can be restored again
        assert net.to_json() == text
