"""Feed-forward networks at individual-element granularity.

A network is a strictly layered DAG of neurons.  Every weight, including the
bias (a synapse whose source is the constant unit signal), is an addressable
element with its own trainable flag, so pruning and quantization treat biases
and ordinary synapses uniformly.  Structural edits tombstone elements instead
of deleting them, which keeps ElementRefs stable for the lifetime of a
pruning session; serialization compacts the survivors.

Evaluation is split in two: the single-sample ``forward``/``backward`` pair
defined here is the reference API, while ``forward_batch``/``backward_batch``
run the same arithmetic vectorized over a whole dataset for the training and
indicator loops.  Both paths share one compiled per-layer plan, so they agree
bit for bit.  A batch trace keeps the weight vectors its forward pass read
from the plan, and the backward pass and the optimizer step reuse them
rather than reading every element object again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
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


def _activate(kind, sigma):
    if kind == "tanh":
        return np.tanh(sigma)
    if kind == "sigmoid":
        # logistic rescaled to (-1, 1) so targets share the tanh range
        return np.tanh(0.5 * sigma)
    if kind == "step":
        return step_function(sigma)
    raise ValueError(f"unknown activation kind {kind!r}")


def _activate_prime(kind, y):
    # derivatives expressed through the output value y = f(sigma)
    if kind == "tanh":
        return 1.0 - y * y
    if kind == "sigmoid":
        return 0.5 * (1.0 - y * y)
    raise NonDifferentiableError("step activation has no derivative")


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


class Synapse:
    """One weighted connection.  ``src`` is (layer, index); None means the
    constant unit signal (i.e. this synapse is a bias)."""

    __slots__ = ("weight", "trainable", "src", "alive")

    def __init__(self, weight, trainable=True, src=None, alive=True):
        self.weight = float(weight)
        self.trainable = bool(trainable)
        self.src = src
        self.alive = alive


class Neuron:
    __slots__ = ("bias", "synapses", "activation", "alive")

    def __init__(self, bias, synapses, activation, alive=True):
        self.bias = bias
        self.synapses = synapses
        self.activation = activation
        self.alive = alive


class Network:
    """Layered feed-forward network with tombstoning structural edits."""

    def __init__(self, input_dim, layers, output_labels, active_inputs=None):
        self.input_dim = int(input_dim)
        self.layers = layers
        self.output_labels = list(output_labels)
        if active_inputs is None:
            active_inputs = [True] * self.input_dim
        self.active_inputs = list(active_inputs)
        self._version = 0
        self._plan = None
        self._check_labels()

    def _check_labels(self):
        width = len(self.layers[-1])
        if width == 1:
            if len(self.output_labels) != 2:
                raise ValueError("single-output network needs exactly two class labels")
        elif len(self.output_labels) != width:
            raise ValueError("output labels must match output layer width")

    # -- addressing ----------------------------------------------------

    @property
    def n_layers(self):
        return len(self.layers)

    def _layer(self, index):
        if not 1 <= index <= self.n_layers:
            raise StaleReferenceError(f"no neuron layer {index}")
        return self.layers[index - 1]

    def neuron_at(self, ref, allow_dead=False):
        if ref.kind != "neuron":
            raise StaleReferenceError(f"{ref} is not a neuron ref")
        layer = self._layer(ref.layer)
        if ref.neuron >= len(layer):
            raise StaleReferenceError(f"{ref} out of range")
        neuron = layer[ref.neuron]
        if not neuron.alive and not allow_dead:
            raise StaleReferenceError(f"{ref} is tombstoned")
        return neuron

    def synapse_at(self, ref, allow_dead=False):
        if ref.kind not in ("synapse", "bias"):
            raise StaleReferenceError(f"{ref} is not a weight ref")
        neuron = self.neuron_at(neuron_ref(ref.layer, ref.neuron), allow_dead=True)
        if ref.kind == "bias" or ref.slot == 0:
            syn = neuron.bias
        else:
            if ref.slot > len(neuron.synapses):
                raise StaleReferenceError(f"{ref} out of range")
            syn = neuron.synapses[ref.slot - 1]
        if (not syn.alive or not neuron.alive) and not allow_dead:
            raise StaleReferenceError(f"{ref} is tombstoned")
        return syn

    def is_output_layer(self, layer):
        return layer == self.n_layers

    # -- iteration helpers ---------------------------------------------

    def iter_neurons(self, live_only=True, hidden_only=False):
        last = self.n_layers - 1 if hidden_only else self.n_layers
        for l in range(1, last + 1):
            for i, neuron in enumerate(self.layers[l - 1]):
                if live_only and not neuron.alive:
                    continue
                yield neuron_ref(l, i), neuron

    def iter_weights(self, live_only=True, with_bias=True):
        for nref, neuron in self.iter_neurons(live_only=live_only):
            if with_bias:
                syn = neuron.bias
                if not live_only or syn.alive:
                    yield bias_ref(nref.layer, nref.neuron), syn
            for slot, syn in enumerate(neuron.synapses, start=1):
                if live_only and not syn.alive:
                    continue
                yield synapse_ref(nref.layer, nref.neuron, slot), syn

    def active_feature_indices(self):
        return [k for k in range(self.input_dim) if self.active_inputs[k]]

    def fan_in(self, ref):
        """Live non-bias synapses that still matter: trainable or nonzero."""
        neuron = self.neuron_at(ref)
        return sum(
            1
            for s in neuron.synapses
            if s.alive and (s.trainable or s.weight != 0.0)
        )

    def max_fan_in(self):
        return max(
            (self.fan_in(ref) for ref, _ in self.iter_neurons()), default=0
        )

    # -- structural edits ----------------------------------------------

    def _touch(self):
        self._version += 1
        self._plan = None

    def set_weight(self, ref, value, freeze=False):
        """Assign a weight; freezing removes it from the trainable pool."""
        syn = self.synapse_at(ref)
        syn.weight = float(value)
        syn.trainable = not freeze
        self._touch()

    def remove_element(self, ref):
        """Tombstone an input feature, hidden neuron, or synapse.

        Returns the list of cascade-removed refs: synapses whose source
        died, neurons left with no path to an output, and input features
        with no remaining outgoing synapse.
        """
        if ref.kind == "input":
            if ref.neuron >= self.input_dim or not self.active_inputs[ref.neuron]:
                raise StaleReferenceError(f"{ref} is not an active feature")
            self.active_inputs[ref.neuron] = False
        elif ref.kind == "neuron":
            if self.is_output_layer(ref.layer):
                raise IllegalModificationError("output neurons are protected")
            neuron = self.neuron_at(ref)
            neuron.alive = False
        elif ref.kind == "synapse" and ref.slot > 0:
            syn = self.synapse_at(ref)
            syn.alive = False
        else:
            raise IllegalModificationError("bias slots cannot be structurally removed")
        cascade = self._audit()
        self._touch()
        return cascade

    def _audit(self):
        """Sweep to a fixpoint of the cascade rules; returns removed refs."""
        removed = []
        changed = True
        while changed:
            changed = False
            # (a) synapses whose source is gone
            for wref, syn in list(self.iter_weights(with_bias=False)):
                sl, si = syn.src
                if sl == 0:
                    src_alive = self.active_inputs[si]
                else:
                    src_alive = self.layers[sl - 1][si].alive
                if not src_alive:
                    syn.alive = False
                    removed.append(wref)
                    changed = True
            # (b) non-output neurons with no live path to an output
            reachable = self._reaching_output()
            for nref, neuron in self.iter_neurons(hidden_only=True):
                if not reachable[(nref.layer, nref.neuron)]:
                    neuron.alive = False
                    removed.append(nref)
                    for slot, syn in enumerate(neuron.synapses, start=1):
                        if syn.alive:
                            syn.alive = False
                            removed.append(synapse_ref(nref.layer, nref.neuron, slot))
                    if neuron.bias.alive:
                        neuron.bias.alive = False
                        removed.append(bias_ref(nref.layer, nref.neuron))
                    changed = True
            # (c) features with no remaining outgoing synapse
            used = set()
            for _, syn in self.iter_weights(with_bias=False):
                if syn.src[0] == 0:
                    used.add(syn.src[1])
            for k in range(self.input_dim):
                if self.active_inputs[k] and k not in used:
                    self.active_inputs[k] = False
                    removed.append(input_ref(k))
                    changed = True
        return removed

    def _reaching_output(self):
        reach = {}
        for l in range(self.n_layers, 0, -1):
            for i, neuron in enumerate(self.layers[l - 1]):
                reach[(l, i)] = bool(neuron.alive) and self.is_output_layer(l)
        for l in range(self.n_layers, 0, -1):
            for i, neuron in enumerate(self.layers[l - 1]):
                if not neuron.alive or not reach[(l, i)]:
                    continue
                for syn in neuron.synapses:
                    if syn.alive and syn.src[0] > 0:
                        sl, si = syn.src
                        if self.layers[sl - 1][si].alive:
                            reach[(sl, si)] = True
        return reach

    def audit_structure(self):
        """Re-run the cascade sweep; a consistent network removes nothing."""
        extra = self._audit()
        if extra:
            self._touch()
        return extra

    def check_layered(self):
        """Every live synapse must point to a strictly earlier layer."""
        for wref, syn in self.iter_weights(with_bias=False):
            sl, si = syn.src
            if sl >= wref.layer:
                raise ValueError(f"{wref} sources layer {sl}, not strictly earlier")
            if sl == 0:
                if not self.active_inputs[si]:
                    raise ValueError(f"{wref} sources a masked feature")
            elif not self.layers[sl - 1][si].alive:
                raise ValueError(f"{wref} sources a dead neuron")
        return True

    # -- serialization ---------------------------------------------------

    def to_doc(self):
        """Compact JSON document; tombstoned elements are dropped and
        neuron indices remapped."""
        index_map = {}
        for l in range(1, self.n_layers + 1):
            alive = [i for i, n in enumerate(self.layers[l - 1]) if n.alive]
            index_map[l] = {old: new for new, old in enumerate(alive)}
        layers_doc = []
        for l in range(1, self.n_layers + 1):
            layer_doc = []
            for i, neuron in enumerate(self.layers[l - 1]):
                if not neuron.alive:
                    continue
                synapses = []
                for syn in neuron.synapses:
                    if not syn.alive:
                        continue
                    sl, si = syn.src
                    si_out = si if sl == 0 else index_map[sl][si]
                    synapses.append(
                        {
                            "src_layer": sl,
                            "src_index": si_out,
                            "w": syn.weight,
                            "trainable": syn.trainable,
                        }
                    )
                layer_doc.append(
                    {
                        "bias": {
                            "w": neuron.bias.weight,
                            "trainable": neuron.bias.trainable,
                        },
                        "synapses": synapses,
                        "activation": neuron.activation,
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
        layers = []
        for layer_doc in doc["layers"]:
            layer = []
            for n in layer_doc:
                bias = Synapse(n["bias"]["w"], n["bias"]["trainable"], src=None)
                synapses = [
                    Synapse(s["w"], s["trainable"], src=(s["src_layer"], s["src_index"]))
                    for s in n["synapses"]
                ]
                layer.append(Neuron(bias, synapses, n["activation"]))
            layers.append(layer)
        return Network(
            doc["input_dim"], layers, doc["output_labels"], doc["active_inputs"]
        )

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
        return self.to_json()

    def restore(self, snap):
        other = Network.from_json(snap)
        self.input_dim = other.input_dim
        self.layers = other.layers
        self.output_labels = other.output_labels
        self.active_inputs = other.active_inputs
        self._touch()

    # -- compiled evaluation plan ----------------------------------------

    def _get_plan(self):
        if self._plan is None or self._plan.version != self._version:
            self._plan = _Plan(self)
        return self._plan


class _LayerPlan:
    __slots__ = (
        "width",
        "alive_mask",
        "alive_cols",
        "act_groups",
        "bias_objs",
        "bias_cols",
        "syn_objs",
        "syn_owner",
        "syn_refs",
        "bias_refs",
        "weight_refs",
        "neuron_refs",
        "owner_scatter",
        "groups",
        "trainable_syn",
        "trainable_bias",
        "bias_mask",
    )


class _Plan:
    """Per-layer flattened view of the live structure, rebuilt on edits."""

    def __init__(self, net: Network):
        self.version = net._version
        self.layers = []
        widths = [net.input_dim] + [len(layer) for layer in net.layers]
        for l in range(1, net.n_layers + 1):
            lp = _LayerPlan()
            layer = net.layers[l - 1]
            lp.width = len(layer)
            lp.alive_mask = np.array([n.alive for n in layer], dtype=float)
            lp.alive_cols = np.nonzero(lp.alive_mask)[0]
            groups = {}
            lp.bias_objs = []
            lp.bias_cols = []
            lp.bias_refs = []
            lp.syn_objs = []
            lp.syn_owner = []
            lp.syn_refs = []
            for i, neuron in enumerate(layer):
                if not neuron.alive:
                    continue
                lp.bias_objs.append(neuron.bias)
                lp.bias_cols.append(i)
                lp.bias_refs.append(bias_ref(l, i))
                groups.setdefault(neuron.activation, []).append(i)
                for slot, syn in enumerate(neuron.synapses, start=1):
                    if not syn.alive:
                        continue
                    lp.syn_objs.append(syn)
                    lp.syn_owner.append(i)
                    lp.syn_refs.append(synapse_ref(l, i, slot))
            lp.act_groups = {
                kind: np.array(cols, dtype=int) for kind, cols in groups.items()
            }
            lp.syn_owner = np.array(lp.syn_owner, dtype=int)
            lp.bias_cols = np.array(lp.bias_cols, dtype=int)
            n_syn = len(lp.syn_objs)
            lp.owner_scatter = np.zeros((n_syn, lp.width))
            for pos, owner in enumerate(lp.syn_owner):
                lp.owner_scatter[pos, owner] = 1.0
            by_src = {}
            for pos, syn in enumerate(lp.syn_objs):
                by_src.setdefault(syn.src[0], []).append(pos)
            lp.groups = []
            for sl, positions in sorted(by_src.items()):
                positions = np.array(positions, dtype=int)
                cols = np.array([lp.syn_objs[p].src[1] for p in positions], dtype=int)
                scatter = np.zeros((len(positions), widths[sl]))
                for row, col in enumerate(cols):
                    scatter[row, col] = 1.0
                lp.groups.append((sl, positions, cols, scatter))
            lp.trainable_syn = np.array(
                [s.trainable for s in lp.syn_objs], dtype=bool
            )
            lp.trainable_bias = np.array(
                [s.trainable for s in lp.bias_objs], dtype=bool
            )
            lp.bias_mask = np.zeros(lp.width, dtype=bool)
            lp.bias_mask[lp.bias_cols[lp.trainable_bias]] = True
            # statistic rows in plan order: synapses then biases, live neurons
            lp.weight_refs = tuple(lp.syn_refs + lp.bias_refs)
            lp.neuron_refs = tuple(neuron_ref(l, i) for i in lp.alive_cols)
            self.layers.append(lp)
        self.input_keys = tuple(net.active_feature_indices())

    def pull_weights(self, l):
        lp = self.layers[l - 1]
        w = np.array([s.weight for s in lp.syn_objs], dtype=float)
        b = np.zeros(lp.width)
        b[lp.bias_cols] = [s.weight for s in lp.bias_objs]
        return w, b


@dataclass
class ForwardTrace:
    """Single-sample evaluation record: summator outputs, activations, and
    the network output vector in output-label order."""

    input: np.ndarray
    sigma: list
    y: list
    outputs: np.ndarray


@dataclass
class GradientBundle:
    """Single-sample reverse-mode derivatives keyed by element."""

    weights: dict = field(default_factory=dict)
    neurons: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)


class BatchTrace:
    """Vectorized forward pass over N samples.

    weights[l] is the (synapse, bias) vector pair layer l was evaluated with.
    """

    __slots__ = ("values", "sigma", "src_vals", "outputs", "plan_version",
                 "weights")

    def __init__(self, values, sigma, src_vals, outputs, plan_version, weights):
        self.values = values
        self.sigma = sigma
        self.src_vals = src_vals
        self.outputs = outputs
        self.plan_version = plan_version
        self.weights = weights


class BatchGradients:
    """Per-sample reverse-mode derivatives in plan layout.

    syn_grads[l] is (N, n_syn) of dL^j/dw for layer l's live synapses;
    bias_grads[l] is (N, width); y_grads[l] is (N, width); input_grads is
    (N, d).
    """

    __slots__ = ("syn_grads", "bias_grads", "y_grads", "input_grads")

    def __init__(self, syn_grads, bias_grads, y_grads, input_grads):
        self.syn_grads = syn_grads
        self.bias_grads = bias_grads
        self.y_grads = y_grads
        self.input_grads = input_grads


def forward_batch(net: Network, X) -> BatchTrace:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise InputShapeError(
            f"expected (N, {net.input_dim}) inputs, got {X.shape}"
        )
    plan = net._get_plan()
    n = X.shape[0]
    values = [X]
    sigmas = [None]
    src_vals = [None]
    weights = [None]
    for l in range(1, net.n_layers + 1):
        lp = plan.layers[l - 1]
        w, b = plan.pull_weights(l)
        weights.append((w, b))
        vals = np.empty((n, len(lp.syn_objs)))
        for sl, positions, cols, _ in lp.groups:
            vals[:, positions] = values[sl][:, cols]
        sigma = b[None, :] + (w[None, :] * vals) @ lp.owner_scatter
        sigma *= lp.alive_mask[None, :]
        y = np.zeros_like(sigma)
        for kind, cols in lp.act_groups.items():
            y[:, cols] = _activate(kind, sigma[:, cols])
        values.append(y)
        sigmas.append(sigma)
        src_vals.append(vals)
    return BatchTrace(values, sigmas, src_vals, values[-1], plan.version, weights)


def backward_batch(net: Network, trace: BatchTrace, d_outputs) -> BatchGradients:
    plan = net._get_plan()
    if trace.plan_version != plan.version:
        raise StaleReferenceError("trace was produced by a different structure")
    if any(kind not in SMOOTH_ACTIVATIONS
           for lp in plan.layers for kind in lp.act_groups):
        raise NonDifferentiableError(
            "backward requires smooth activations on all live neurons"
        )
    d_outputs = np.asarray(d_outputs, dtype=float)
    n = trace.values[0].shape[0]
    y_grads = [np.zeros_like(v) for v in trace.values]
    y_grads[-1] = d_outputs.copy()
    syn_grads = [None] * (net.n_layers + 1)
    bias_grads = [None] * (net.n_layers + 1)
    for l in range(net.n_layers, 0, -1):
        lp = plan.layers[l - 1]
        w = trace.weights[l][0]
        y = trace.values[l]
        d_sigma = np.zeros_like(y)
        for kind, cols in lp.act_groups.items():
            d_sigma[:, cols] = y_grads[l][:, cols] * _activate_prime(kind, y[:, cols])
        bias_grads[l] = d_sigma * lp.alive_mask[None, :]
        owned = d_sigma[:, lp.syn_owner] if len(lp.syn_objs) else np.empty((n, 0))
        syn_grads[l] = owned * trace.src_vals[l]
        contrib = owned * w[None, :]
        for sl, positions, _, scatter in lp.groups:
            y_grads[sl] += contrib[:, positions] @ scatter
    return BatchGradients(syn_grads, bias_grads, y_grads, y_grads[0])


def forward(net: Network, x) -> ForwardTrace:
    """Evaluate one input vector, recording sigma and y for every neuron."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise InputShapeError(f"expected ({net.input_dim},) input, got {x.shape}")
    bt = forward_batch(net, x[None, :])
    return ForwardTrace(
        input=x.copy(),
        sigma=[s[0] for s in bt.sigma[1:]],
        y=[v[0] for v in bt.values[1:]],
        outputs=bt.outputs[0].copy(),
    )


def backward(net: Network, trace: ForwardTrace, d_outputs) -> GradientBundle:
    """Reverse-mode derivatives of a scalar loss with respect to every
    weight, live neuron output, and active input feature.

    ``d_outputs`` is dL/d(network outputs).  Frozen weights are still
    reported: freezing gates updates, not derivatives.
    """
    bt = forward_batch(net, trace.input[None, :])
    bg = backward_batch(net, bt, np.asarray(d_outputs, dtype=float)[None, :])
    plan = net._get_plan()
    bundle = GradientBundle()
    for l in range(1, net.n_layers + 1):
        lp = plan.layers[l - 1]
        for pos, ref in enumerate(lp.syn_refs):
            bundle.weights[ref] = float(bg.syn_grads[l][0, pos])
        for col, ref in zip(lp.bias_cols, lp.bias_refs):
            bundle.weights[ref] = float(bg.bias_grads[l][0, col])
        for i, neuron in enumerate(net.layers[l - 1]):
            if neuron.alive:
                bundle.neurons[neuron_ref(l, i)] = float(bg.y_grads[l][0, i])
    for k in net.active_feature_indices():
        bundle.inputs[k] = float(bg.input_grads[0, k])
    return bundle


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
    for l in range(1, len(layer_sizes)):
        layer = []
        src_layer = l - 1
        for _ in range(layer_sizes[l]):
            bias = Synapse(rng.uniform(-0.5, 0.5), True, src=None)
            synapses = [
                Synapse(rng.uniform(-0.5, 0.5), True, src=(src_layer, j))
                for j in range(layer_sizes[l - 1])
            ]
            layer.append(Neuron(bias, synapses, activation))
        layers.append(layer)
    return Network(layer_sizes[0], layers, output_labels)
