"""Feed-forward networks at individual-element granularity, stored as arrays.

A network is a strictly layered DAG of neurons.  Every weight, including the
bias, is an addressable element with its own trainable flag, so pruning and
quantization treat biases and ordinary synapses uniformly.

Neuron layer l holds one weight matrix over the concatenated outputs of all
earlier layers (inputs first, then layers 1..l-1), so skip connections need
no second code path.  Same-shape ``alive``/``trainable`` masks, a bias
vector with its own trainable mask, per-neuron alive flags and activations
sit beside it, and a per-neuron slot table maps synapse ``s`` of a neuron to
its column, which keeps ``synapse:l:i:s`` refs and the JSON synapse order.

Every weight and bias lives in one flat vector, ``Network.params``, laid
out [weights 1, bias 1, weights 2, ...], every trainable flag in the bool
vector ``Network.trainable`` of that layout, and the layers' arrays are
views of them, never rebound.  Edits never change array shapes: removing
an input, neuron or synapse clears its mask entries and zeroes its weights
in place, so ElementRefs stay valid for a whole pruning session and masked
or dead units contribute exactly 0.  ``to_doc`` compacts the survivors;
``snapshot``/``restore`` copy arrays.
``Network.from_doc`` rejects a malformed document with a ``DatasetError``
(CLI exit code 2).  ``forward_batch``/``backward_batch`` run one masked
matmul per layer in the buffers of a ``BatchTrace`` and return it; its
flat gradient has the layout of ``params``.  A training run makes one trace
and passes it back to every epoch's ``forward_batch``, so the masked inputs
and matrices are built once per run.  ``BatchTrace.reset`` rebinds a trace
after a structural edit, so a pruning stage allocates its buffers once, and
builds the epoch plan that passes run from once per structure.  Every
layer, whatever its mix of tanh, sigmoid, step and dead neurons, runs
through the same loop body; a sigmoid is tanh at half the summator, scaled
per column.  The plan changes no BLAS call, so every result equals a plain
loop that activates each kind on its own columns, bit for bit.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DatasetError,
    IllegalModificationError,
    InputShapeError,
    NonDifferentiableError,
    StaleReferenceError,
)

SMOOTH_ACTIVATIONS = ("tanh", "sigmoid")
ACTIVATIONS = ("tanh", "sigmoid", "step")


def step_function(x):
    """Hard threshold used on frozen networks: -1 below zero, +1 otherwise."""
    return np.where(np.asarray(x, dtype=float) < 0.0, -1.0, 1.0)


_KIND_ORDER = {"input": 0, "neuron": 1, "synapse": 2, "bias": 3}


@dataclass(frozen=True)
class ElementRef:
    """Address of one structural element.

    kind: "input", "neuron", "synapse", or "bias".
    layer: 0 for input features, 1..L for neuron layers.
    neuron: feature index for inputs, neuron index within layer otherwise.
    slot: synapse position within the neuron, 1-based; 0 is the bias.
    """

    kind: str
    layer: int
    neuron: int
    slot: int = 0

    @property
    def key(self):
        return (self.layer, self.neuron, self.slot, _KIND_ORDER[self.kind])

    def __str__(self):
        if self.kind == "input":
            return f"input:{self.neuron}"
        if self.kind == "neuron":
            return f"neuron:{self.layer}:{self.neuron}"
        if self.kind == "bias":
            return f"bias:{self.layer}:{self.neuron}"
        return f"synapse:{self.layer}:{self.neuron}:{self.slot}"

    @staticmethod
    def parse(text: str) -> "ElementRef":
        parts = text.split(":")
        kind = parts[0]
        if kind == "input":
            return ElementRef("input", 0, int(parts[1]))
        if kind == "neuron":
            return ElementRef("neuron", int(parts[1]), int(parts[2]))
        if kind == "bias":
            return ElementRef("bias", int(parts[1]), int(parts[2]))
        if kind == "synapse":
            return ElementRef("synapse", int(parts[1]), int(parts[2]), int(parts[3]))
        raise ValueError(f"unparseable element ref {text!r}")


def input_ref(k):
    return ElementRef("input", 0, k)


def neuron_ref(layer, idx):
    return ElementRef("neuron", layer, idx)


def synapse_ref(layer, idx, slot):
    return ElementRef("synapse", layer, idx, slot)


def bias_ref(layer, idx):
    return ElementRef("bias", layer, idx)


class Layer:
    """One neuron layer: ``weights`` is (width, columns of all earlier
    layers); ``alive``/``trainable`` share its shape, and a dead entry holds
    weight 0 and is never trainable.  ``slots[i]`` lists neuron i's synapse
    columns in slot order.
    """

    __slots__ = ("weights", "alive", "trainable", "bias", "bias_trainable",
                 "neuron_alive", "activation", "slots")

    def __init__(self, weights, trainable, bias, bias_trainable, activation,
                 slots):
        width, n_src = weights.shape
        self.weights = weights
        self.alive = np.zeros((width, n_src), dtype=bool)
        for i, cols in enumerate(slots):
            self.alive[i, list(cols)] = True
        self.trainable = trainable & self.alive
        self.bias = bias
        self.bias_trainable = bias_trainable
        self.neuron_alive = np.ones(width, dtype=bool)
        self.activation = list(activation)
        self.slots = tuple(tuple(cols) for cols in slots)

    @property
    def width(self):
        return len(self.bias)

    def live_slots(self, i, mask=None):
        """(slot, column) of neuron i's synapses set in ``mask`` (by
        default the live ones), in slot order."""
        row = (self.alive if mask is None else mask)[i].tolist()
        return [(s, col) for s, col in enumerate(self.slots[i], start=1) if row[col]]

    def kill_neuron(self, i):
        self.neuron_alive[i] = self.bias_trainable[i] = False
        self.bias[i] = 0.0
        self.kill_synapses(i)

    def kill_synapses(self, mask):
        self.alive[mask] = False
        self.trainable[mask] = False
        self.weights[mask] = 0.0


class Network:
    """Layered feed-forward network with tombstoning structural edits."""

    def __init__(self, input_dim, layers, output_labels, active_inputs=None):
        self.input_dim = int(input_dim)
        self.layers = layers
        self.output_labels = list(output_labels)
        self.active_inputs = ([True] * self.input_dim if active_inputs is None
                              else [bool(a) for a in active_inputs])
        # offsets[l] is the first column of layer l's outputs in the
        # concatenated value vector; offsets[-1] is its total width
        self.offsets = [0, self.input_dim]
        for layer in layers:
            self.offsets.append(self.offsets[-1] + layer.width)
        self._version = 0
        self.params = np.concatenate(
            [a.ravel() for layer in layers for a in (layer.weights, layer.bias)])
        self.trainable = np.concatenate(
            [a.ravel() for layer in layers for a in (layer.trainable, layer.bias_trainable)])
        for layer, (w, b), (t, bt) in zip(layers, self.views(self.params),
                                          self.views(self.trainable)):
            layer.weights, layer.bias, layer.trainable, layer.bias_trainable = w, b, t, bt
        width = self.layers[-1].width
        if width == 1:
            if len(self.output_labels) != 2:
                raise ValueError("single-output network needs exactly two class labels")
        elif len(self.output_labels) != width:
            raise ValueError("output labels must match output layer width")
        if len(set(self.output_labels)) != len(self.output_labels):
            raise ValueError(f"output labels {self.output_labels} repeat a label")

    # -- addressing ----------------------------------------------------

    @property
    def n_layers(self):
        return len(self.layers)

    def views(self, flat):
        """Per layer, (weights, bias) views of a vector in the layout of ``params``."""
        sizes = [n for layer in self.layers for n in (layer.weights.size, layer.width)]
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        return [(w.reshape(layer.weights.shape), b)
                for layer, w, b in zip(self.layers, parts[::2], parts[1::2])]

    def is_output_layer(self, layer):
        return layer == self.n_layers

    def _source(self, col):
        """(layer, index) of a column of the concatenated value vector."""
        sl = bisect.bisect_right(self.offsets, col) - 1
        return sl, col - self.offsets[sl]

    def _neuron(self, ref):
        """(Layer, index) of the live neuron that a neuron, synapse or bias
        ref belongs to; raises StaleReferenceError."""
        if not 1 <= ref.layer <= self.n_layers:
            raise StaleReferenceError(f"no neuron layer {ref.layer}")
        layer = self.layers[ref.layer - 1]
        if not 0 <= ref.neuron < layer.width:
            raise StaleReferenceError(f"{ref} out of range")
        if not layer.neuron_alive[ref.neuron]:
            raise StaleReferenceError(f"{ref} is tombstoned")
        return layer, ref.neuron

    def _weight(self, ref):
        """(Layer, neuron index, column) of a live weight ref; the column is
        None for a bias.  Raises StaleReferenceError."""
        if ref.kind not in ("synapse", "bias"):
            raise StaleReferenceError(f"{ref} is not a weight ref")
        layer, i = self._neuron(ref)
        if ref.kind == "bias" or ref.slot == 0:
            return layer, i, None
        if not 1 <= ref.slot <= len(layer.slots[i]):
            raise StaleReferenceError(f"{ref} out of range")
        col = layer.slots[i][ref.slot - 1]
        if not layer.alive[i, col]:
            raise StaleReferenceError(f"{ref} is tombstoned")
        return layer, i, col

    def weight(self, ref):
        """Current value of a live weight or bias."""
        layer, i, col = self._weight(ref)
        return float(layer.bias[i] if col is None else layer.weights[i, col])

    def is_trainable(self, ref):
        layer, i, col = self._weight(ref)
        return bool(layer.bias_trainable[i] if col is None
                    else layer.trainable[i, col])

    def activation(self, ref):
        layer, i = self._neuron(ref)
        return layer.activation[i]

    def is_alive(self, ref):
        """Whether a ref names a live element (False when out of range)."""
        if ref.kind == "input":
            return 0 <= ref.neuron < self.input_dim and self.active_inputs[ref.neuron]
        try:
            (self._neuron if ref.kind == "neuron" else self._weight)(ref)
        except StaleReferenceError:
            return False
        return True

    # -- iteration helpers ---------------------------------------------

    def iter_neurons(self, hidden_only=False):
        """Refs of the live neurons in (layer, index) order."""
        for l, layer in enumerate(self.layers[:-1] if hidden_only else self.layers,
                                  start=1):
            for i in np.flatnonzero(layer.neuron_alive).tolist():
                yield neuron_ref(l, i)

    def synapses(self, ref):
        """Live synapses of a live neuron in slot order, as
        (slot, (source layer, source index), weight, trainable)."""
        layer, i = self._neuron(ref)
        weights = layer.weights[i].tolist()
        trainable = layer.trainable[i].tolist()
        return [(slot, self._source(col), weights[col], trainable[col])
                for slot, col in layer.live_slots(i)]

    def iter_weights(self, with_bias=True):
        """(ref, weight, trainable) of every live weight: per live neuron,
        its bias, then its synapses in slot order."""
        for l, layer in enumerate(self.layers, start=1):
            weights, trainable = layer.weights.tolist(), layer.trainable.tolist()
            bias, bias_trainable = layer.bias.tolist(), layer.bias_trainable.tolist()
            for i in np.flatnonzero(layer.neuron_alive).tolist():
                if with_bias:
                    yield bias_ref(l, i), bias[i], bias_trainable[i]
                for slot, col in layer.live_slots(i):
                    yield synapse_ref(l, i, slot), weights[i][col], trainable[i][col]

    def active_feature_indices(self):
        return [k for k in range(self.input_dim) if self.active_inputs[k]]

    def fan_in(self, ref):
        """Live non-bias synapses that still matter: trainable or nonzero."""
        layer, i = self._neuron(ref)
        return int(np.count_nonzero(
            layer.alive[i] & (layer.trainable[i] | (layer.weights[i] != 0.0))
        ))

    # -- structural edits ----------------------------------------------

    def _touch(self):
        self._version += 1

    def set_weight(self, ref, value, freeze=False):
        """Assign a weight; freezing removes it from the trainable pool."""
        layer, i, col = self._weight(ref)
        if col is None:
            layer.bias[i], layer.bias_trainable[i] = float(value), not freeze
        else:
            layer.weights[i, col], layer.trainable[i, col] = float(value), not freeze
        self._touch()

    def set_activation(self, ref, kind):
        """Change one live neuron's activation."""
        if kind not in ACTIVATIONS:
            raise ValueError(f"unknown activation kind {kind!r}")
        layer, i = self._neuron(ref)
        layer.activation[i] = kind
        self._touch()

    def remove_element(self, ref):
        """Tombstone an input feature, hidden neuron, or synapse.

        Returns the list of cascade-removed refs: synapses whose source
        died, neurons left with no path to an output, and input features
        with no remaining outgoing synapse.
        """
        if ref.kind == "input":
            if not self.is_alive(ref):
                raise StaleReferenceError(f"{ref} is not an active feature")
            self.active_inputs[ref.neuron] = False
        elif ref.kind == "neuron":
            if self.is_output_layer(ref.layer):
                raise IllegalModificationError("output neurons are protected")
            layer, i = self._neuron(ref)
            layer.kill_neuron(i)
        elif ref.kind == "synapse" and ref.slot > 0:
            layer, i, col = self._weight(ref)
            layer.kill_synapses((i, col))
        else:
            raise IllegalModificationError("bias slots cannot be structurally removed")
        cascade = self._audit()
        self._touch()
        return cascade

    def _source_alive(self):
        return np.concatenate(
            [np.array(self.active_inputs, dtype=bool)]
            + [layer.neuron_alive for layer in self.layers]
        )

    def _audit(self):
        """Sweep to a fixpoint of the cascade rules; returns removed refs."""
        removed = []
        changed = True
        while changed:
            changed = False
            # (a) synapses whose source is gone
            src_alive = self._source_alive()
            for l, layer in enumerate(self.layers, start=1):
                doomed = layer.alive & ~src_alive[None, : self.offsets[l]]
                if not doomed.any():
                    continue
                for i in np.flatnonzero(doomed.any(axis=1)).tolist():
                    removed.extend(synapse_ref(l, i, slot)
                                   for slot, _ in layer.live_slots(i, doomed))
                layer.kill_synapses(doomed)
                changed = True
            # (b) non-output neurons with no live path to an output
            reachable = self._reaching_output()
            for l, layer in enumerate(self.layers[:-1], start=1):
                doomed = layer.neuron_alive & ~reachable[l]
                for i in np.flatnonzero(doomed).tolist():
                    removed.append(neuron_ref(l, i))
                    removed.extend(synapse_ref(l, i, slot)
                                   for slot, _ in layer.live_slots(i))
                    removed.append(bias_ref(l, i))
                    layer.kill_neuron(i)
                    changed = True
            # (c) features with no remaining outgoing synapse
            used = np.any([layer.alive[:, : self.input_dim].any(axis=0)
                           for layer in self.layers], axis=0)
            for k in range(self.input_dim):
                if self.active_inputs[k] and not used[k]:
                    self.active_inputs[k] = False
                    removed.append(input_ref(k))
                    changed = True
        return removed

    def _reaching_output(self):
        """Per layer, which live neurons have a live path to an output."""
        reach = ([None] + [np.zeros(layer.width, dtype=bool) for layer in self.layers[:-1]]
                 + [self.layers[-1].neuron_alive.copy()])
        for l in range(self.n_layers, 1, -1):
            used = self.layers[l - 1].alive[reach[l]].any(axis=0)
            for sl in range(1, l):
                block = used[self.offsets[sl]: self.offsets[sl + 1]]
                reach[sl] |= block & self.layers[sl - 1].neuron_alive
        return reach

    def audit_structure(self):
        """Re-run the cascade sweep; a consistent network removes nothing."""
        extra = self._audit()
        if extra:
            self._touch()
        return extra

    def check_layered(self):
        """Every live synapse must read a live source.  Sources lie in
        strictly earlier layers by construction: a layer's matrix has no
        columns for itself or later layers."""
        src_alive = self._source_alive()
        for l, layer in enumerate(self.layers, start=1):
            for i, col in zip(*np.nonzero(layer.alive & ~src_alive[: self.offsets[l]])):
                sl, si = self._source(int(col))
                what = "a masked feature" if sl == 0 else "a dead neuron"
                raise ValueError(f"a synapse of {neuron_ref(l, int(i))} "
                                 f"(from {sl}:{si}) sources {what}")
        return True

    # -- serialization ---------------------------------------------------

    def to_doc(self):
        """Compact JSON document; tombstoned elements are dropped and
        neuron indices remapped."""
        # compact (layer, index) of every column of the value vector
        sources = [(0, k) for k in range(self.input_dim)]
        for l, layer in enumerate(self.layers, start=1):
            new = (np.cumsum(layer.neuron_alive) - 1).tolist()
            sources.extend((l, new[i]) for i in range(layer.width))
        layers_doc = []
        for layer in self.layers:
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
            "input_dim": self.input_dim,
            "active_inputs": list(self.active_inputs),
            "layers": layers_doc,
            "output_labels": list(self.output_labels),
        }

    def to_json(self):
        return json.dumps(self.to_doc(), separators=(",", ":"), sort_keys=True)

    @staticmethod
    def from_doc(doc):
        """Network from its JSON document.  Raises DatasetError for a missing
        or mistyped field, a synapse that does not read a live unit of a
        strictly earlier layer or repeats a source of its neuron, an unknown
        activation, a non-finite weight, or a wrong or repeated label."""
        _check(isinstance(doc, dict), "the document is not a JSON object")
        input_dim = doc.get("input_dim")
        _check(_is_int(input_dim) and input_dim >= 0,
               "'input_dim' must be a nonnegative integer")
        active = doc.get("active_inputs")
        _check(isinstance(active, list) and len(active) == input_dim
               and all(isinstance(a, bool) for a in active),
               f"'active_inputs' must be a list of {input_dim} booleans")
        layer_docs = doc.get("layers")
        _check(isinstance(layer_docs, list) and layer_docs,
               "'layers' must be a nonempty list")
        labels = doc.get("output_labels")
        _check(isinstance(labels, list)
               and all(isinstance(lab, str) for lab in labels),
               "'output_labels' must be a list of strings")
        widths = [input_dim]
        layers = []
        for l, layer_doc in enumerate(layer_docs, start=1):
            _check(isinstance(layer_doc, list), f"layer {l} must be a list of neurons")
            offsets = np.cumsum([0] + widths).tolist()
            width = len(layer_doc)
            weights = np.zeros((width, offsets[-1]))
            trainable = np.zeros((width, offsets[-1]), dtype=bool)
            bias = np.zeros(width)
            bias_trainable = np.zeros(width, dtype=bool)
            activation, slots = [], []
            for i, n in enumerate(layer_doc):
                where = f"neuron {l}:{i}"
                _check(isinstance(n, dict), f"{where} is not a JSON object")
                _check(n.get("activation") in ACTIVATIONS,
                       f"{where}: unknown activation {n.get('activation')!r}")
                activation.append(n["activation"])
                bias[i], bias_trainable[i] = _weight_entry(n.get("bias"),
                                                           f"{where} bias")
                _check(isinstance(n.get("synapses"), list),
                       f"{where}: 'synapses' must be a list")
                cols = []
                for s in n["synapses"]:
                    _check(isinstance(s, dict), f"{where}: a synapse is not a JSON object")
                    sl, si = s.get("src_layer"), s.get("src_index")
                    _check(_is_int(sl) and 0 <= sl < l,
                           f"{where}: source layer {sl!r} is not an earlier layer")
                    _check(_is_int(si) and 0 <= si < widths[sl],
                           f"{where}: source index {si!r} is out of range "
                           f"for layer {sl}")
                    col = offsets[sl] + si
                    _check(col not in cols,
                           f"{where}: two synapses read source {sl}:{si}")
                    cols.append(col)
                    weights[i, col], trainable[i, col] = _weight_entry(
                        s, f"{where} synapse {len(cols)}")
                slots.append(cols)
            layers.append(Layer(weights, trainable, bias, bias_trainable,
                                activation, slots))
            widths.append(width)
        _check(widths[-1] > 0, "the output layer has no neurons")
        try:
            net = Network(input_dim, layers, labels, active)
            net.check_layered()
        except ValueError as exc:
            raise DatasetError(f"network: {exc}") from exc
        return net

    @staticmethod
    def from_json(text):
        return Network.from_doc(json.loads(text))

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @staticmethod
    def load(path):
        with open(path) as fh:
            return Network.from_json(fh.read())

    def snapshot(self):
        """Copy of the mutable state, for ``restore``."""
        return (list(self.active_inputs), self.params.copy(), self.trainable.copy(),
                [(layer.alive.copy(), layer.neuron_alive.copy(), list(layer.activation))
                 for layer in self.layers])

    def restore(self, snap):
        """Return to the state of a ``snapshot`` of this network; the same
        snapshot can be restored any number of times."""
        active, params, trainable, layer_states = snap
        self.active_inputs = list(active)
        np.copyto(self.params, params)
        np.copyto(self.trainable, trainable)
        for layer, (alive, neuron_alive, activation) in zip(self.layers, layer_states):
            np.copyto(layer.alive, alive)
            np.copyto(layer.neuron_alive, neuron_alive)
            layer.activation = list(activation)
        self._touch()


def _check(ok, message):
    if not ok:
        raise DatasetError(f"network: {message}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _weight_entry(entry, where):
    """(w, trainable) of a bias or synapse document, validated."""
    _check(isinstance(entry, dict), f"{where} is not a JSON object")
    w, trainable = entry.get("w"), entry.get("trainable")
    _check(isinstance(w, (int, float)) and not isinstance(w, bool)
           and math.isfinite(w), f"{where}: weight {w!r} is not a finite number")
    _check(isinstance(trainable, bool), f"{where}: 'trainable' must be true or false")
    return float(w), trainable


class BatchTrace:
    """Vectorized forward pass over N samples, in buffers that later passes
    over the same inputs reuse.

    ``activations`` is the (N, columns) concatenated value matrix: the
    inputs with masked features zeroed, then every layer's outputs.
    ``values[l]`` is layer l's block of it and ``sigma[l]`` its summator
    outputs.  ``backward_batch`` fills ``y_grads[l]``, layer l's block of
    the gradient matrix ``G`` (``y_grads[0]``: the inputs'), ``d_sigma[l]``,
    the per-sample dL/dsigma and bias gradients, and ``grad``, the sum over
    the samples in the layout of ``Network.params``, whose per-layer views
    are ``weight_grads`` and ``bias_grads``.  With ``input_grads`` false it
    leaves ``y_grads[0]`` at zero.  ``smooth`` says whether no live neuron
    is a step, as ``backward_batch`` requires.  All of these are buffers
    that the next pass overwrites, ``sigma[l]`` too.  ``G`` is column-major:
    it never enters a matrix product, so its blocks, and the column of each
    unit, are contiguous instead.

    A trace serves one structure of one network.  ``reset`` rebinds it to
    the network's current structure and, when that changed, builds the
    epoch ``plan`` that every pass runs from: one ``_LayerPlan`` per layer,
    the only place where the layers' activation kinds are read.
    """

    __slots__ = ("source", "activations", "values", "sigma", "G", "y_grads",
                 "d_sigma", "grad", "weight_grads", "bias_grads", "version",
                 "smooth", "input_grads", "net", "plan", "g_lo", "_ys", "_product")

    def __init__(self, net: Network, X, input_grads=True):
        self.source = X
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != net.input_dim:
            raise InputShapeError(
                f"expected (N, {net.input_dim}) inputs, got {X.shape}"
            )
        n, off = X.shape[0], net.offsets
        A = self.activations = np.empty((n, off[-1]))
        self.G = np.zeros_like(A, order="F")
        blocks = [slice(off[l], off[l + 1]) for l in range(net.n_layers + 1)]
        self.values = [A[:, cols] for cols in blocks]
        self.y_grads = [self.G[:, cols] for cols in blocks]
        self.sigma, self.d_sigma, self._ys = (
            [None] + [np.empty((n, layer.width)) for layer in net.layers]
            for _ in range(3))
        # the layers' d_sigma @ weights products share one buffer
        self._product = np.empty(n * off[-2])
        self.grad = np.zeros_like(net.params)
        # (None, weights 1, ...) and (None, bias 1, ...), made once
        self.weight_grads, self.bias_grads = map(list, zip((None, None),
                                                           *net.views(self.grad)))
        self.net = self.version = self.input_grads = None
        self.reset(net, input_grads)

    def reset(self, net: Network, input_grads=True):
        """Put the buffers that passes read before they write in the state a
        new trace of ``net`` over the same inputs has: every neuron column,
        ``G`` and every dL/dsigma block zero, and masked features zeroed
        explicitly, because a zero weight times nan would still be nan.
        The plan is built again only for another structure or
        ``input_grads``."""
        A = self.activations
        A[:, : net.input_dim] = np.where(net.active_inputs, self.source, 0.0)
        A[:, net.input_dim:] = 0.0
        self.G.fill(0.0)
        for d_sigma in self.d_sigma[1:]:
            d_sigma.fill(0.0)
        if (self.net, self.version, self.input_grads) == (net, net._version, input_grads):
            return
        self.net, self.version, self.input_grads = net, net._version, input_grads
        self.plan = [_LayerPlan(self, net, l) for l in range(1, net.n_layers + 1)]
        self.smooth = all(p.step is None for p in self.plan)
        # the first G column a pass adds into; the columns before it stay 0
        self.g_lo = min([p.lo for p in self.plan if p.writes], default=net.offsets[-2])

    @property
    def outputs(self):
        return self.values[-1]


class _LayerPlan:
    """How the passes over one structure run layer l: views of the trace's
    buffers and the layer's arrays, bound once, and what the structure
    decides about them.

    Every layer runs one way, at full width and in place.  The outputs
    are ``tanh(sigma * scale)`` into the contiguous ``y``: ``scale`` is None
    unless a live neuron is a sigmoid, else 0.5 per live sigmoid column and
    1.0 elsewhere, since the sigmoid, the logistic rescaled to (-1, 1), is
    tanh(sigma / 2) and sigma * 1.0 is sigma.  The ``step`` columns (of the
    live step neurons, or None) are then overwritten by
    ``step_function(sigma)`` and the ``dead`` ones (None when all live) set
    to 0, and ``y`` is copied into the layer's block of ``activations``.
    Backward, dL/dsigma is ``(1 - y * y) * scale * dL/dy`` with the dead
    columns set to 0.  ``lo`` is the first source column with a live
    synapse.  Every weight before it is a masked zero, so dL/d(sources) is
    added into ``G`` from ``lo`` on, and only when the layer ``writes`` it
    (layer 1 only for input gradients).  The d_sigma @ weights product
    still has its full width, in the trace's shared product buffer.
    """

    __slots__ = ("inputs", "weights", "weights_t", "bias", "sigma", "values", "y",
                 "y_grads", "d_sigma", "d_sigma_t", "weight_grads", "bias_grads",
                 "scale", "step", "dead", "lo", "writes", "product", "g_window_t",
                 "product_window_t")

    def __init__(self, trace: BatchTrace, net: Network, l):
        off, n = net.offsets, len(trace.activations)
        layer = net.layers[l - 1]
        self.inputs = trace.activations[:, : off[l]]
        self.weights, self.weights_t, self.bias = layer.weights, layer.weights.T, layer.bias
        self.sigma, self.values = trace.sigma[l], trace.values[l]
        self.y, self.y_grads, self.d_sigma = trace._ys[l], trace.y_grads[l], trace.d_sigma[l]
        self.d_sigma_t = self.d_sigma.T
        self.weight_grads, self.bias_grads = trace.weight_grads[l], trace.bias_grads[l]
        kinds = [kind if alive else "dead"
                 for kind, alive in zip(layer.activation, layer.neuron_alive.tolist())]
        self.scale = (np.array([0.5 if kind == "sigmoid" else 1.0 for kind in kinds])
                      if "sigmoid" in kinds else None)
        self.step, self.dead = (_columns(kinds, kind) for kind in ("step", "dead"))
        sources = np.flatnonzero(layer.alive.any(axis=0))
        self.lo = int(sources[0]) if sources.size else off[l]
        self.writes = l > 1 or trace.input_grads
        self.product = trace._product[: n * off[l]].reshape(n, off[l])
        # transposed, the add into G runs along its contiguous columns
        self.g_window_t = trace.G.T[self.lo: off[l]]
        self.product_window_t = self.product.T[self.lo:]


def _columns(kinds, kind):
    """The columns whose entry of ``kinds`` is ``kind``, or None if none is."""
    return np.flatnonzero([k == kind for k in kinds]) if kind in kinds else None


def forward_batch(net: Network, X, trace: BatchTrace | None = None) -> BatchTrace:
    """Every unit's value on each row of X, written into ``trace`` when
    given (a trace over this X, made or reset at the network's current
    structure), else into a new BatchTrace."""
    if trace is None:
        trace = BatchTrace(net, X)
    elif X is not trace.source or trace.net is not net or trace.version != net._version:
        raise StaleReferenceError("trace was made for other inputs or structure")
    for p in trace.plan:
        sigma = np.matmul(p.inputs, p.weights_t, out=p.sigma)
        np.add(sigma, p.bias, out=sigma)
        y = np.tanh(sigma if p.scale is None else np.multiply(sigma, p.scale, out=p.y),
                    out=p.y)
        if p.step is not None:
            y[:, p.step] = step_function(sigma[:, p.step])
        if p.dead is not None:
            y[:, p.dead] = 0.0
        np.copyto(p.values, y)
    return trace


def backward_batch(net: Network, trace: BatchTrace, d_outputs) -> BatchTrace:
    """Derivatives of a loss whose dL/d(outputs) is ``d_outputs``, written
    into the gradient buffers of ``trace``, which is returned."""
    if trace.net is not net or trace.version != net._version:
        raise StaleReferenceError("trace was produced by a different structure")
    if not trace.smooth:
        raise NonDifferentiableError(
            "backward requires smooth activations on all live neurons"
        )
    off, G = net.offsets, trace.G
    G[:, trace.g_lo: off[-2]] = 0.0
    G[:, off[-2]:] = d_outputs
    for p in reversed(trace.plan):
        # f'(sigma) = (1 - y * y) * scale first, in place
        prime = np.subtract(1.0, np.multiply(p.y, p.y, out=p.d_sigma), out=p.d_sigma)
        if p.scale is not None:
            np.multiply(prime, p.scale, out=prime)
        np.multiply(p.y_grads, prime, out=p.d_sigma)
        if p.dead is not None:
            p.d_sigma[:, p.dead] = 0.0
        if p.writes:
            np.matmul(p.d_sigma, p.weights, out=p.product)
            np.add(p.g_window_t, p.product_window_t, out=p.g_window_t)
        np.matmul(p.d_sigma_t, p.inputs, out=p.weight_grads)
        np.add.reduce(p.d_sigma, axis=0, out=p.bias_grads)
    return trace


def build_network(layer_sizes, activation="tanh", output_labels=None, seed=0):
    """Fully connected layered net; weights uniform in [-0.5, 0.5].

    ``layer_sizes`` includes the input dimension, e.g. (12, 10, 10, 2).
    Generation order is fixed (layer, neuron, bias-then-synapses) so equal
    seeds give identical networks.
    """
    if len(layer_sizes) < 2 or any(s <= 0 for s in layer_sizes):
        raise ValueError("layer sizes must be positive with at least one layer")
    if activation not in SMOOTH_ACTIVATIONS:
        raise ValueError("fresh networks must use a smooth activation")
    rng = np.random.default_rng(seed)
    if output_labels is None:
        n_out = layer_sizes[-1]
        output_labels = (
            ["pos", "neg"] if n_out == 1 else [f"class{i}" for i in range(n_out)]
        )
    layers = []
    start = 0  # first column of the previous layer's outputs
    for l in range(1, len(layer_sizes)):
        width, fan = layer_sizes[l], layer_sizes[l - 1]
        n_src = start + fan
        draws = rng.uniform(-0.5, 0.5, size=(width, 1 + fan))
        weights = np.zeros((width, n_src))
        weights[:, start:] = draws[:, 1:]
        cols = list(range(start, n_src))
        layers.append(Layer(weights, np.ones((width, n_src), dtype=bool),
                            draws[:, 0].copy(), np.ones(width, dtype=bool),
                            [activation] * width, [cols] * width))
        start = n_src
    return Network(layer_sizes[0], layers, output_labels)
