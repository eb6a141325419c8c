"""Per-element references for a pruning step's bookkeeping, for the tests.

Each walks the network's layer arrays one element at a time, as the array
code they check once did: the compact document that ``Network.to_json``
serializes, the live synapses of a neuron, the candidate pools of
``pruning.candidate_pool`` and the weight ratings of
``SensitivityLedger.finalize``.
"""

import numpy as np

from lucidnet.network import input_ref, synapse_ref
from lucidnet.sensitivity import ValidSet


def reference_doc(net):
    """Compact JSON document; tombstoned elements are dropped and neuron
    indices remapped."""
    # compact (layer, index) of every column of the value vector
    sources = [(0, k) for k in range(net.input_dim)]
    for l, layer in enumerate(net.layers, start=1):
        new = (np.cumsum(layer.neuron_alive) - 1).tolist()
        sources.extend((l, new[i]) for i in range(layer.width))
    layers_doc = []
    for layer in net.layers:
        weights = layer.weights.tolist()
        alive = layer.alive.tolist()
        trainable = layer.trainable.tolist()
        bias = layer.bias.tolist()
        bias_trainable = layer.bias_trainable.tolist()
        layer_doc = []
        for i in np.flatnonzero(layer.neuron_alive).tolist():
            synapses = [
                {
                    "src_layer": sources[col][0],
                    "src_index": sources[col][1],
                    "w": weights[i][col],
                    "trainable": trainable[i][col],
                }
                for col in layer.slots[i]
                if alive[i][col]
            ]
            layer_doc.append(
                {
                    "bias": {"w": bias[i], "trainable": bias_trainable[i]},
                    "synapses": synapses,
                    "activation": layer.activation[i],
                }
            )
        layers_doc.append(layer_doc)
    return {
        "input_dim": net.input_dim,
        "active_inputs": list(net.active_inputs),
        "layers": layers_doc,
        "output_labels": list(net.output_labels),
    }


def synapses(net, ref):
    """Live synapses of a live neuron in slot order, as
    (slot, (source layer, source index), weight, trainable)."""
    layer, i = net._neuron(ref)
    weights = layer.weights[i].tolist()
    trainable = layer.trainable[i].tolist()
    return [(slot, net._source(col), weights[col], trainable[col])
            for slot, col in layer.live_slots(i)]


def reference_pool(net, problem):
    """Live, trainable elements of the problem's class, one at a time."""
    if problem.kind == "feature-selection":
        return [input_ref(k) for k in net.active_feature_indices()]
    if problem.kind == "neuron-removal":
        return list(net.iter_neurons(hidden_only=True))
    if problem.kind == "uniform-simplification":
        fan = {ref: net.fan_in(ref) for ref in net.iter_neurons()}
        top = max(fan.values(), default=0)
        if top <= problem.target_fan_in:
            return []
        return [
            synapse_ref(ref.layer, ref.neuron, slot)
            for ref, f in fan.items() if f == top
            for slot, _, _, trainable in synapses(net, ref) if trainable
        ]
    return [ref for ref, _, trainable in net.iter_weights() if trainable]


def reference_nearest(weight, valid_set: ValidSet):
    """Member of the set closest to the weight; ties go to the value of
    smaller magnitude."""
    w = float(weight)
    return min(valid_set.values, key=lambda v: (abs(v - w), abs(v), v))


def reference_ratings(indicators, net, refs, valid_set):
    """{ref: indicator}, each weight's indicator times the displacement
    |nearest - weight| of its current value, one ref at a time."""
    out = dict(zip(refs, indicators))
    for ref in refs:
        if ref.kind in ("synapse", "bias"):
            weight = net.weight(ref)
            out[ref] *= abs(reference_nearest(weight, valid_set) - weight)
    return out
