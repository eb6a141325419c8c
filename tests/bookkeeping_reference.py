"""Per-element references for a pruning step's bookkeeping, for the tests.

Each walks the network's layer arrays one element at a time, as the array
code they check once did: the compact document that ``Network.to_json``
serializes, the live synapses of a neuron, the candidate pools of
``pruning.candidate_pool`` and the weight ratings of
``SensitivityLedger.finalize``.  The per-layer walks and edits below are
those that the network ran before every walk and edit went through its
weight table: weight lookup, fan-in, the live weights, the cascade audit,
the layering check and the transparency check.  They edit the per-layer
arrays of ``layer_arrays``, which are views of the network's state record.
"""

from types import SimpleNamespace

import numpy as np

from lucidnet.errors import IllegalModificationError, StaleReferenceError
from lucidnet.network import ACTIVATIONS, bias_ref, input_ref, neuron_ref, synapse_ref
from lucidnet.sensitivity import ValidSet
from lucidnet.transparency import TERNARY


def layer_arrays(net):
    """Per layer, its ``weights``, ``bias``, ``trainable``, ``bias_trainable``,
    ``alive`` and ``neuron_alive`` views of the network's record, with its
    ``slots``, ``width`` and ``activation`` names."""
    names = [ACTIVATIONS[code] for code in net.codes.tolist()]
    return [SimpleNamespace(weights=w, bias=b, trainable=t, bias_trainable=bt, alive=a,
                            neuron_alive=na, slots=layer.slots, width=layer.width,
                            activation=names[off - net.input_dim: off - net.input_dim
                                             + layer.width])
            for layer, off, (w, b), (t, bt), (a, na) in zip(
                net.layers, net.offsets[1:], net.views(net.params),
                net.views(net.trainable), net.views(net.alive))]


def neuron(net, ref):
    """(layer arrays, index) of the live neuron that a neuron, synapse or
    bias ref belongs to; raises StaleReferenceError."""
    net._neuron(ref)
    return layer_arrays(net)[ref.layer - 1], ref.neuron


def reference_doc(net):
    """Compact JSON document; tombstoned elements are dropped and neuron
    indices remapped."""
    # compact (layer, index) of every column of the value vector
    sources = [(0, k) for k in range(net.input_dim)]
    layers = layer_arrays(net)
    for l, layer in enumerate(layers, start=1):
        new = (np.cumsum(layer.neuron_alive) - 1).tolist()
        sources.extend((l, new[i]) for i in range(layer.width))
    layers_doc = []
    for layer in layers:
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
        "active_inputs": net.active_inputs.tolist(),
        "layers": layers_doc,
        "output_labels": list(net.output_labels),
    }


def synapses(net, ref):
    """Live synapses of a live neuron in slot order, as
    (slot, (source layer, source index), weight, trainable)."""
    layer, i = neuron(net, ref)
    weights = layer.weights[i].tolist()
    trainable = layer.trainable[i].tolist()
    return [(slot, net._source(col), weights[col], trainable[col])
            for slot, col in live_slots(layer, i)]


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


def live_slots(layer, i, mask=None):
    """(slot, column) of neuron i's synapses set in ``mask`` (by default
    the live ones), in slot order."""
    row = (layer.alive if mask is None else mask)[i].tolist()
    return [(s, col) for s, col in enumerate(layer.slots[i], start=1) if row[col]]


def kill_synapses(layer, mask):
    layer.alive[mask] = False
    layer.trainable[mask] = False
    layer.weights[mask] = 0.0


def kill_neuron(layer, i):
    layer.neuron_alive[i] = layer.bias_trainable[i] = False
    layer.bias[i] = 0.0
    kill_synapses(layer, i)


def reference_weight(net, ref):
    """(Layer, neuron index, column) of a live weight ref; the column is
    None for a bias.  Raises StaleReferenceError."""
    if ref.kind not in ("synapse", "bias"):
        raise StaleReferenceError(f"{ref} is not a weight ref")
    layer, i = neuron(net, ref)
    if ref.kind == "bias" or ref.slot == 0:
        return layer, i, None
    if not 1 <= ref.slot <= len(layer.slots[i]):
        raise StaleReferenceError(f"{ref} out of range")
    col = layer.slots[i][ref.slot - 1]
    if not layer.alive[i, col]:
        raise StaleReferenceError(f"{ref} is tombstoned")
    return layer, i, col


def reference_fan_in(net, ref):
    """Live non-bias synapses that still matter: trainable or nonzero."""
    layer, i = neuron(net, ref)
    return int(np.count_nonzero(
        layer.alive[i] & (layer.trainable[i] | (layer.weights[i] != 0.0))
    ))


def reference_iter_weights(net, with_bias=True):
    """(ref, weight, trainable) of every live weight: per live neuron, its
    bias, then its synapses in slot order."""
    for l, layer in enumerate(layer_arrays(net), start=1):
        weights, trainable = layer.weights.tolist(), layer.trainable.tolist()
        bias, bias_trainable = layer.bias.tolist(), layer.bias_trainable.tolist()
        for i in np.flatnonzero(layer.neuron_alive).tolist():
            if with_bias:
                yield bias_ref(l, i), bias[i], bias_trainable[i]
            for slot, col in live_slots(layer, i):
                yield synapse_ref(l, i, slot), weights[i][col], trainable[i][col]


def reference_remove_element(net, ref):
    """``Network.remove_element`` through the per-layer kills and audit."""
    if ref.kind == "input":
        if not net.is_alive(ref):
            raise StaleReferenceError(f"{ref} is not an active feature")
        net.active_inputs[ref.neuron] = False
    elif ref.kind == "neuron":
        if net.is_output_layer(ref.layer):
            raise IllegalModificationError("output neurons are protected")
        kill_neuron(*neuron(net, ref))
    elif ref.kind == "synapse" and ref.slot > 0:
        layer, i, col = reference_weight(net, ref)
        kill_synapses(layer, (i, col))
    else:
        raise IllegalModificationError("bias slots cannot be structurally removed")
    cascade = reference_audit(net)
    net._touch()
    return cascade


def source_alive(net):
    return np.concatenate([net.active_inputs]
                          + [layer.neuron_alive for layer in layer_arrays(net)])


def reference_audit(net):
    """Sweep to a fixpoint of the cascade rules; returns removed refs.  The
    loop checks that ``Network._audit``'s single sweep reaches the fixpoint,
    on foreign states too."""
    removed = []
    layers = layer_arrays(net)
    changed = True
    while changed:
        changed = False
        # (a) synapses whose source is gone
        src_alive = source_alive(net)
        for l, layer in enumerate(layers, start=1):
            doomed = layer.alive & ~src_alive[None, : net.offsets[l]]
            if not doomed.any():
                continue
            for i in np.flatnonzero(doomed.any(axis=1)).tolist():
                removed.extend(synapse_ref(l, i, slot)
                               for slot, _ in live_slots(layer, i, doomed))
            kill_synapses(layer, doomed)
            changed = True
        # (b) non-output neurons with no live path to an output
        reachable = reaching_output(net)
        for l, layer in enumerate(layers[:-1], start=1):
            doomed = layer.neuron_alive & ~reachable[l]
            for i in np.flatnonzero(doomed).tolist():
                removed.append(neuron_ref(l, i))
                removed.extend(synapse_ref(l, i, slot)
                               for slot, _ in live_slots(layer, i))
                removed.append(bias_ref(l, i))
                kill_neuron(layer, i)
                changed = True
        # (c) features with no remaining outgoing synapse
        used = np.any([layer.alive[:, : net.input_dim].any(axis=0)
                       for layer in layers], axis=0)
        for k in range(net.input_dim):
            if net.active_inputs[k] and not used[k]:
                net.active_inputs[k] = False
                removed.append(input_ref(k))
                changed = True
    return removed


def reaching_output(net):
    """Per layer, which live neurons have a live path to an output."""
    layers = layer_arrays(net)
    reach = ([None] + [np.zeros(layer.width, dtype=bool) for layer in layers[:-1]]
             + [layers[-1].neuron_alive.copy()])
    for l in range(net.n_layers, 1, -1):
        used = layers[l - 1].alive[reach[l]].any(axis=0)
        for sl in range(1, l):
            block = used[net.offsets[sl]: net.offsets[sl + 1]]
            reach[sl] |= block & layers[sl - 1].neuron_alive
    return reach


def reference_check_layered(net):
    """Every live synapse must read a live source."""
    src_alive = source_alive(net)
    for l, layer in enumerate(layer_arrays(net), start=1):
        for i, col in zip(*np.nonzero(layer.alive & ~src_alive[: net.offsets[l]])):
            sl, si = net._source(int(col))
            what = "a masked feature" if sl == 0 else "a dead neuron"
            raise ValueError(f"a synapse of {neuron_ref(l, int(i))} "
                             f"(from {sl}:{si}) sources {what}")
    return True


def reference_transparency(net):
    """(flag, violations): fan-in at most 3 everywhere and every live
    weight frozen at a ternary value."""
    violations = []
    for nref in net.iter_neurons():
        if reference_fan_in(net, nref) > 3:
            violations.append((str(nref), "fan-in"))
    for wref, weight, trainable in reference_iter_weights(net):
        if trainable:
            violations.append((str(wref), "trainable"))
        elif weight not in TERNARY:
            violations.append((str(wref), "non-ternary"))
    return (not violations), violations
