"""Feed-forward networks at individual-element granularity, stored as arrays.

A network is a strictly layered DAG of neurons.  Every weight, including the
bias, is an addressable element with its own trainable flag, so pruning and
quantization treat biases and ordinary synapses uniformly.

Neuron layer l reads one weight matrix over the concatenated outputs of all
earlier layers (inputs first, then layers 1..l-1), so skip connections need
no second code path.  A ``Layer`` is topology only: its slot table maps
synapse ``s`` of a neuron to its column, which keeps ``synapse:l:i:s`` refs
and the JSON synapse order, and only the ``weight_table`` is built from it.

A network's whole mutable state is one byte buffer, ``Network.state``, the
state record.  Fixed views of it hold every weight and bias
(``params``, laid out [weights 1, bias 1, weights 2, ...]), every trainable
flag (``trainable``) and live flag (``alive``, a bias's entry being its
neuron's flag) in that layout, the active-input mask (``active_inputs``)
and one activation code per neuron (``codes``, an index into
``ACTIVATIONS``); ``Network.views`` gives the per-layer matrices of a
vector in the ``params`` layout.  So ``snapshot`` is one copy of the
record, ``restore`` one copy back, and ``digest`` one sha256 over the
topology and the record: the record determines ``network.json``, so equal
digests of one topology mean equal bytes.  Edits never change array
shapes: removing an input, neuron or synapse clears its flags and zeroes its
weights in place, so ElementRefs, named tuples that hash in C, stay valid for
a whole pruning session and masked or dead units contribute exactly 0.  The
``weight_table``, built once per network, lists every bias and synapse slot
in ElementRef order with its position in ``params``, and every walk and edit
indexes the record through it: ``_neuron`` alone validates a neuron and
``_weight`` a weight ref, one ``_kill`` tombstones synapses and whole
neurons, ``fan_ins`` alone counts fan-in, the cascade audit runs its three
rules in one sweep over masks of the rows, and pools, ratings,
``iter_weights`` and ``to_doc`` read rows with array operations.
``to_json`` is the compact ``json.dumps`` of ``to_doc``, the survivors
renumbered, whose objects are built with their keys in sorted order.
``Network.from_doc`` rejects a malformed document with a ``DatasetError``
(CLI exit code 2).  ``forward_batch``/``backward_batch`` run one masked
matmul per layer in the buffers of a ``BatchTrace`` and return it; its
flat gradient has the layout of ``params``.  A training run makes one trace
and passes it back to every epoch's ``forward_batch``, so the masked inputs
and matrices are built once per run.  A trace is built whole: it makes
every buffer, the gradient buffers included, and binds the epoch plan that
passes run from, and ``BatchTrace.reset`` patches the plan after a structural
edit, so a pruning stage allocates its buffers and views once.  Every
layer, whatever its mix of tanh, sigmoid, step and dead neurons, runs
through the same loop body; a sigmoid is tanh at half the summator, scaled
per column.  The plan changes no BLAS call, so every result equals a plain
loop that activates each kind on its own columns, bit for bit.  A trace may
hold one row per group of equal rows, each weighted by its ``counts`` entry
in the weight and bias gradients.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
from functools import cached_property
from typing import NamedTuple

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


class ElementRef(NamedTuple):
    """Address of one structural element.

    kind: "input", "neuron", "synapse", or "bias".
    layer: 0 for input features, 1..L for neuron layers.
    neuron: feature index for inputs, neuron index within layer otherwise.
    slot: synapse position within the neuron, 1-based; 0 is the bias.

    A ref is the tuple of its four fields: it equals, and hashes as, the
    plain tuple of them, so pools and ratings hash refs in C.  Refs are
    ordered by ``key``, not as tuples, which would compare the kind first.
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
        """The ref whose ``str`` is ``text``; any other text, a wrong count
        of parts or an unknown kind among them, raises ValueError."""
        kind, *parts = text.split(":")
        if kind == "input":
            parts.insert(0, "0")
        try:
            ref = ElementRef(kind, *map(int, parts))
        except (TypeError, ValueError):
            ref = None
        if ref is None or str(ref) != text:
            raise ValueError(f"unparseable element ref {text!r}")
        return ref


def input_ref(k):
    return ElementRef("input", 0, k)


def neuron_ref(layer, idx):
    return ElementRef("neuron", layer, idx)


def synapse_ref(layer, idx, slot):
    return ElementRef("synapse", layer, idx, slot)


def bias_ref(layer, idx):
    return ElementRef("bias", layer, idx)


class Layer:
    """One neuron layer's topology: ``slots[i]`` lists neuron i's synapse
    columns of the value vector in slot order; only ``WeightTable`` reads
    it.  Its weights and flags are ``Network.views`` of the state record."""

    __slots__ = ("slots",)

    def __init__(self, slots):
        self.slots = tuple(tuple(cols) for cols in slots)

    @property
    def width(self):
        return len(self.slots)


class WeightTable:
    """Every bias and synapse slot of a network, live or not, one row each
    in ``ElementRef.key`` order: per neuron, layer by layer, its bias, then
    its synapses in slot order.  Per row, ``layer`` (1-based), ``neuron``,
    ``slot`` (0 for the bias), ``synapse`` (whether it is one), ``source``
    (a synapse's column of the value vector, else 0), ``unit`` (its
    neuron's column) and ``pos`` (its index in ``Network.params``, and in
    ``trainable`` and ``alive``; ``positions`` is the same as a list, for
    scalar reads).  Per column u of the value vector, the rows
    ``starts[u]:starts[u + 1]`` are its unit's: a neuron's bias, then its
    synapse slots, or none for an input.  ``bias_pos`` is each neuron's
    bias position, the entry of ``alive`` that is its flag, in column
    order, and ``column_layer`` the layer of each column.  ``refs``, the
    ref of each row, is made on first use."""

    def __init__(self, net):
        columns = []
        start = 0  # of the layer's weights in params
        for l, layer in enumerate(net.layers, start=1):
            sizes = np.array([1 + len(cols) for cols in layer.slots], dtype=np.intp)  # bias, synapses
            neuron = np.repeat(np.arange(layer.width), sizes)
            slot = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            source = np.zeros_like(slot)
            source[slot > 0] = list(itertools.chain.from_iterable(layer.slots))
            n_weights = layer.width * net.offsets[l]
            pos = np.where(slot > 0, start + neuron * net.offsets[l] + source,
                           start + n_weights + neuron)
            columns.append((np.full_like(slot, l), neuron, slot, source,
                            net.offsets[l] + neuron, pos, sizes))
            start += n_weights + layer.width
        (self.layer, self.neuron, self.slot, self.source, self.unit,
         self.pos, sizes) = map(np.concatenate, zip(*columns))
        self.synapse = self.slot > 0
        self.positions = self.pos.tolist()
        self.bias_pos = self.pos[~self.synapse]
        self.starts = [0] * net.input_dim + [0] + np.cumsum(sizes).tolist()
        off = net.offsets
        self.column_layer = np.repeat(np.arange(len(off) - 1), np.diff(off)).tolist()

    @cached_property
    def refs(self):
        return [synapse_ref(l, i, s) if s else bias_ref(l, i) for l, i, s in zip(
            self.layer.tolist(), self.neuron.tolist(), self.slot.tolist())]


class Network:
    """Layered feed-forward network with tombstoning structural edits.

    A new network has every slot and bias live and trainable, weight 0,
    every input active and every neuron a tanh; ``build_network`` and
    ``from_doc`` then write its record."""

    def __init__(self, input_dim, layers, output_labels):
        self.input_dim = int(input_dim)
        self.layers = layers
        self.output_labels = list(output_labels)
        # offsets[l] is the first column of layer l's outputs in the
        # concatenated value vector; offsets[-1] is its total width
        self.offsets = [0, self.input_dim]
        for layer in layers:
            self.offsets.append(self.offsets[-1] + layer.width)
        width = self.layers[-1].width
        if width == 1:
            if len(self.output_labels) != 2:
                raise ValueError("single-output network needs exactly two class labels")
        elif len(self.output_labels) != width:
            raise ValueError("output labels must match output layer width")
        if len(set(self.output_labels)) != len(self.output_labels):
            raise ValueError(f"output labels {self.output_labels} repeat a label")
        self._version = 0
        n = sum(layer.width * (off + 1) for layer, off in zip(layers, self.offsets[1:]))
        # the state record: params first, so its float64 view is aligned
        sizes = [8 * n, n, n, self.input_dim, self.offsets[-1] - self.input_dim]
        self.state = np.zeros(sum(sizes), dtype=np.uint8)
        params, trainable, alive, active, self.codes = np.split(
            self.state, np.cumsum(sizes)[:-1].tolist())
        self.params = params.view(np.float64)
        self.trainable, self.alive, self.active_inputs = (
            a.view(bool) for a in (trainable, alive, active))
        pos = self.weight_table.pos
        self.alive[pos] = self.trainable[pos] = True
        self.active_inputs.fill(True)

    # -- addressing ----------------------------------------------------

    @property
    def n_layers(self):
        return len(self.layers)

    def views(self, flat):
        """Per layer, (weights, bias) views of a vector in the layout of
        ``params``: weights is (width, columns of all earlier layers)."""
        pairs, start = [], 0
        for layer, columns in zip(self.layers, self.offsets[1:]):
            end = start + layer.width * columns
            pairs.append((flat[start:end].reshape(layer.width, columns),
                          flat[end: end + layer.width]))
            start = end + layer.width
        return pairs

    def is_output_layer(self, layer):
        return layer == self.n_layers

    def _source(self, col):
        """(layer, index) of a column of the concatenated value vector."""
        sl = bisect.bisect_right(self.offsets, col) - 1
        return sl, col - self.offsets[sl]

    def _neuron(self, ref):
        """Column of the value vector of the live neuron that a neuron,
        synapse or bias ref belongs to; raises StaleReferenceError."""
        if not 1 <= ref.layer <= self.n_layers:
            raise StaleReferenceError(f"no neuron layer {ref.layer}")
        first = self.offsets[ref.layer]
        if not 0 <= ref.neuron < self.offsets[ref.layer + 1] - first:
            raise StaleReferenceError(f"{ref} out of range")
        table = self.weight_table
        if not self.alive[table.positions[table.starts[first + ref.neuron]]]:
            raise StaleReferenceError(f"{ref} is tombstoned")
        return first + ref.neuron

    def _weight(self, ref):
        """Row in ``weight_table`` of a live weight ref; a synapse ref of
        slot 0 names its neuron's bias.  Raises StaleReferenceError."""
        if ref.kind not in ("synapse", "bias"):
            raise StaleReferenceError(f"{ref} is not a weight ref")
        unit = self._neuron(ref)
        table = self.weight_table
        first = table.starts[unit]
        if ref.kind == "bias" or ref.slot == 0:
            return first
        if not 1 <= ref.slot < table.starts[unit + 1] - first:
            raise StaleReferenceError(f"{ref} out of range")
        if not self.alive[table.positions[first + ref.slot]]:
            raise StaleReferenceError(f"{ref} is tombstoned")
        return first + ref.slot

    def weight(self, ref):
        """Current value of a live weight or bias."""
        return float(self.params[self.weight_table.positions[self._weight(ref)]])

    def is_trainable(self, ref):
        return bool(self.trainable[self.weight_table.positions[self._weight(ref)]])

    def activation(self, ref):
        return ACTIVATIONS[self.codes[self._neuron(ref) - self.input_dim]]

    def is_alive(self, ref):
        """Whether a ref names a live element (False when out of range)."""
        if ref.kind == "input":
            return 0 <= ref.neuron < self.input_dim and bool(self.active_inputs[ref.neuron])
        try:
            (self._neuron if ref.kind == "neuron" else self._weight)(ref)
        except StaleReferenceError:
            return False
        return True

    # -- iteration helpers ---------------------------------------------

    def neuron_columns(self, hidden_only=False):
        """Value-vector columns of the live neurons, ascending, so in
        (layer, index) order."""
        live = self.alive[self.weight_table.bias_pos]
        if hidden_only:
            live[self.offsets[-2] - self.input_dim:] = False
        return np.flatnonzero(live) + self.input_dim

    def iter_neurons(self, hidden_only=False):
        """Refs of the live neurons in (layer, index) order."""
        for col in self.neuron_columns(hidden_only).tolist():
            yield neuron_ref(*self._source(col))

    @cached_property
    def weight_table(self):
        """The network's WeightTable; slots and layout never change."""
        return WeightTable(self)

    def iter_weights(self, with_bias=True):
        """(ref, weight, trainable) of every live weight in the rows' order:
        per live neuron, its bias, then its synapses in slot order."""
        table = self.weight_table
        live = self.alive[table.pos] & (with_bias | table.synapse)
        pos = table.pos[live]
        return zip(itertools.compress(table.refs, live.tolist()),
                   self.params[pos].tolist(), self.trainable[pos].tolist())

    def active_feature_indices(self):
        return np.flatnonzero(self.active_inputs).tolist()

    def fan_ins(self):
        """Per column of the value vector, the live synapses of its neuron
        that still matter, being trainable or nonzero; 0 for an input."""
        table = self.weight_table
        pos = table.pos
        counted = table.synapse & self.alive[pos] & (self.trainable[pos]
                                                      | (self.params[pos] != 0.0))
        return np.bincount(table.unit[counted], minlength=self.offsets[-1])

    def fan_in(self, ref):
        """A live neuron's entry of ``fan_ins``."""
        return int(self.fan_ins()[self._neuron(ref)])

    # -- structural edits ----------------------------------------------

    def _touch(self):
        self._version += 1

    def _kill(self, pos):
        """Tombstone the weights at ``pos``, positions in ``params``; a
        bias's entry of ``alive`` is its neuron's flag, so killing it kills
        the neuron."""
        self.alive[pos] = self.trainable[pos] = False
        self.params[pos] = 0.0

    def set_weight(self, ref, value, freeze=False):
        """Assign a weight; freezing removes it from the trainable pool."""
        pos = self.weight_table.positions[self._weight(ref)]
        self.params[pos], self.trainable[pos] = float(value), not freeze
        self._touch()

    def set_activation(self, ref, kind):
        """Change one live neuron's activation."""
        if kind not in ACTIVATIONS:
            raise ValueError(f"unknown activation kind {kind!r}")
        self.codes[self._neuron(ref) - self.input_dim] = ACTIVATIONS.index(kind)
        self._touch()

    def remove_element(self, ref):
        """Tombstone an input feature, hidden neuron, or synapse.

        Returns the list of cascade-removed refs: synapses whose source
        died, neurons left with no path to an output, and input features
        with no remaining outgoing synapse.
        """
        table = self.weight_table
        if ref.kind == "input":
            if not self.is_alive(ref):
                raise StaleReferenceError(f"{ref} is not an active feature")
            self.active_inputs[ref.neuron] = False
        elif ref.kind == "neuron":
            if self.is_output_layer(ref.layer):
                raise IllegalModificationError("output neurons are protected")
            unit = self._neuron(ref)
            self._kill(table.pos[table.starts[unit]: table.starts[unit + 1]])
        elif ref.kind == "synapse" and ref.slot > 0:
            self._kill(table.pos[self._weight(ref)])
        else:
            raise IllegalModificationError("bias slots cannot be structurally removed")
        cascade = self._audit()
        self._touch()
        return cascade

    def _source_alive(self):
        """Per column of the value vector, whether its input is active or
        its neuron live."""
        return np.concatenate([self.active_inputs, self.alive[self.weight_table.bias_pos]])

    def _live_synapses(self):
        """Mask over the rows of ``weight_table``: the live synapses."""
        table = self.weight_table
        return table.synapse & self.alive[table.pos]

    def _audit(self):
        """One sweep of the cascade rules, in order; returns removed refs.

        (a) kills the live synapses of dead sources, (b) every non-output
        neuron with no live path to an output, (c) masks every feature that
        no live synapse reads.  One sweep is a fixpoint: (a) moves no live
        neuron's path to an output; a live synapse leaving a neuron that (b)
        kills belongs to a neuron that (b) kills too, or the first would
        reach an output; and (c) masks only unread features.  The live
        synapse and source masks are read once and kept current through the
        sweep's own kills."""
        table = self.weight_table
        live, kept = self._live_synapses(), self._source_alive()
        removed = []
        # (a) synapses whose source is gone
        doomed = live & ~kept[table.source]
        if doomed.any():
            removed.extend(itertools.compress(table.refs, doomed.tolist()))
            self._kill(table.pos[doomed])
            live &= ~doomed
        # (b) non-output neurons with no live path to an output, each
        # listed as itself, its live synapses, then its bias
        doomed = kept & ~self._reaching_output(kept, live)
        doomed[: self.input_dim] = False
        if doomed.any():
            rows_alive = self.alive[table.pos].tolist()
            for unit in doomed.nonzero()[0].tolist():
                rows = slice(table.starts[unit], table.starts[unit + 1])
                bias, *synapses = itertools.compress(table.refs[rows], rows_alive[rows])
                removed += [neuron_ref(bias.layer, bias.neuron), *synapses, bias]
            doomed = doomed[table.unit]
            self._kill(table.pos[doomed])
            live &= ~doomed
        # (c) features with no remaining outgoing synapse
        read = np.bincount(table.source[live], minlength=self.offsets[-1])[: self.input_dim]
        unused = (self.active_inputs & (read == 0)).nonzero()[0].tolist()
        if unused:
            self.active_inputs[unused] = False
            removed.extend(map(input_ref, unused))
        return removed

    def _reaching_output(self, kept, live):
        """Per column of the value vector, whether a live path leads from it
        to an output, given the ``_source_alive`` and ``_live_synapses``
        masks; exact for the live neurons."""
        table, off = self.weight_table, self.offsets
        reach = kept.copy()
        reach[: off[-2]] = False
        for l in range(self.n_layers, 1, -1):  # a layer's rows, then its sources
            rows = slice(table.starts[off[l]], table.starts[off[l + 1]])
            reach[table.source[rows][live[rows] & reach[table.unit[rows]]]] = True
        return reach

    def audit_structure(self):
        """Re-run the cascade sweep; a consistent network removes nothing."""
        extra = self._audit()
        if extra:
            self._touch()
        return extra

    def check_layered(self):
        """Every live synapse must read a live source; the message names the
        first neuron with one that does not, and its lowest such source
        column.  Sources lie in strictly earlier layers by construction: a
        layer's matrix has no columns for itself or later layers."""
        table = self.weight_table
        orphans = self._live_synapses() & ~self._source_alive()[table.source]
        if orphans.any():
            unit = table.unit[orphans.argmax()]
            sl, si = self._source(int(table.source[orphans & (table.unit == unit)].min()))
            what = "a masked feature" if sl == 0 else "a dead neuron"
            raise ValueError(f"a synapse of {neuron_ref(*self._source(int(unit)))} "
                             f"(from {sl}:{si}) sources {what}")
        return True

    # -- serialization ---------------------------------------------------

    def to_doc(self):
        """The compact JSON document of the survivors: tombstoned elements
        are dropped and neurons renumbered within their layer.  The live
        rows of ``weight_table`` give it in order: each bias opens its
        neuron, and each synapse joins the neuron opened last.  Every
        object's keys are built in sorted order, which ``to_json`` relies
        on."""
        table, off = self.weight_table, self.offsets
        live = self.alive[table.pos]
        pos = table.pos[live]
        kept = self._source_alive()
        compact = np.concatenate([np.arange(self.input_dim)] + [
            np.cumsum(kept[a:b]) - 1 for a, b in zip(off[1:-1], off[2:])]).tolist()
        kinds = [ACTIVATIONS[code] for code in self.codes.tolist()]
        layers = [[] for _ in self.layers]
        for synapse, layer, unit, source, w, trainable in zip(
                table.synapse[live].tolist(), table.layer[live].tolist(),
                table.unit[live].tolist(), table.source[live].tolist(),
                self.params[pos].tolist(), self.trainable[pos].tolist()):
            if synapse:
                synapses.append({"src_index": compact[source],
                                 "src_layer": table.column_layer[source],
                                 "trainable": trainable, "w": w})
            else:
                synapses = []
                layers[layer - 1].append({"activation": kinds[unit - self.input_dim],
                                          "bias": {"trainable": trainable, "w": w},
                                          "synapses": synapses})
        return {"active_inputs": self.active_inputs.tolist(), "input_dim": self.input_dim,
                "layers": layers, "output_labels": list(self.output_labels)}

    def to_json(self):
        """The bytes of ``network.json``: ``to_doc`` in compact, key-sorted
        JSON.  ``to_doc`` builds every object with its keys in sorted order,
        so the dump needs no sort."""
        return json.dumps(self.to_doc(), separators=(",", ":"))

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
        # the layers' slots, and per neuron its activation code and, in the
        # order of the weight table's rows, its (weight, trainable) entries
        layers, codes, entries = [], [], []
        for l, layer_doc in enumerate(layer_docs, start=1):
            _check(isinstance(layer_doc, list), f"layer {l} must be a list of neurons")
            offsets = np.cumsum([0] + widths).tolist()
            slots = []
            for i, n in enumerate(layer_doc):
                where = f"neuron {l}:{i}"
                _check(isinstance(n, dict), f"{where} is not a JSON object")
                _check(n.get("activation") in ACTIVATIONS,
                       f"{where}: unknown activation {n.get('activation')!r}")
                codes.append(ACTIVATIONS.index(n["activation"]))
                entries.append(_weight_entry(n.get("bias"), f"{where} bias"))
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
                    entries.append(_weight_entry(s, f"{where} synapse {len(cols)}"))
                slots.append(cols)
            layers.append(Layer(slots))
            widths.append(len(layer_doc))
        _check(widths[-1] > 0, "the output layer has no neurons")
        try:
            net = Network(input_dim, layers, labels)
            pos = net.weight_table.pos
            net.params[pos], net.trainable[pos] = zip(*entries)
            net.codes[:] = codes
            net.active_inputs[:] = active
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
        """Copy of the state record, for ``restore``."""
        return self.state.copy()

    def restore(self, snap):
        """Return to the state of a ``snapshot`` of this network; the same
        snapshot can be restored any number of times."""
        np.copyto(self.state, snap)
        self._touch()

    @cached_property
    def _topology(self):
        """sha256 of what the state record does not hold: the input
        dimension, the output labels and every layer's slots."""
        return hashlib.sha256(json.dumps(
            [self.input_dim, self.output_labels, [layer.slots for layer in self.layers]]
        ).encode())

    def digest(self):
        """16 hex digits of the sha256 of the topology and the state record.
        The two determine ``to_json``, so networks of one topology with
        equal digests save equal bytes."""
        state = self._topology.copy()
        state.update(self.state)
        return state.hexdigest()[:16]


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
    are ``weight_grads`` and ``bias_grads``.  With ``input_grads`` false
    ``y_grads[0]`` stays zero.  ``smooth`` says whether no live neuron is a
    step, as ``backward_batch`` requires.  All of these are buffers, made
    with the trace, that the next pass overwrites, ``sigma[l]`` too.
    ``G`` is column-major: it never enters a matrix product, so its blocks,
    and the column of each unit, are contiguous instead.

    A row of X may stand for a group of equal rows.  ``counts`` (all 1 when
    not given) holds each row's group size, every per-sample buffer holds
    one row per group, and ``grad`` is the count-weighted sum, while ``G``
    and ``d_sigma`` stay unweighted.  A trace serves one grouping: an
    ``EpochWorkspace`` builds a new one whenever the active inputs change.

    A trace serves one network.  Every pass runs from its epoch ``plan``,
    one ``_LayerPlan`` per layer, bound to the buffers and the network's
    record once per trace; after an edit, ``reset`` patches the plan of each
    layer whose live flags or activation codes changed.
    """

    __slots__ = ("source", "counts", "activations", "values", "sigma", "G", "y_grads",
                 "d_sigma", "grad", "weight_grads", "bias_grads", "version",
                 "smooth", "input_grads", "net", "plan", "g_lo", "_ys", "_product",
                 "_weighted")

    def __init__(self, net: Network, X, input_grads=True, counts=None):
        self.source = X
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != net.input_dim:
            raise InputShapeError(
                f"expected (N, {net.input_dim}) inputs, got {X.shape}"
            )
        n, off = X.shape[0], net.offsets
        self.counts = np.ones(n) if counts is None else np.asarray(counts, dtype=float)
        if self.counts.shape != (n,):
            raise InputShapeError(f"expected {n} counts, got {self.counts.shape}")
        A = self.activations = np.empty((n, off[-1]))
        self.values = [A[:, off[l]: off[l + 1]] for l in range(net.n_layers + 1)]
        self.G = np.empty_like(A, order="F")
        self.y_grads = [self.G[:, off[l]: off[l + 1]] for l in range(net.n_layers + 1)]
        self.sigma, self._ys, self.d_sigma = (
            [None] + [np.empty((n, layer.width)) for layer in net.layers] for _ in range(3))
        # the layers' d_sigma @ weights products share one buffer, and so
        # do their count-weighted dL/dsigma
        self._product = np.empty(n * off[-2])
        self._weighted = np.empty(n * max(layer.width for layer in net.layers))
        self.grad = np.zeros_like(net.params)
        # (None, weights 1, ...) and (None, bias 1, ...)
        self.weight_grads, self.bias_grads = map(list, zip((None, None),
                                                           *net.views(self.grad)))
        self.net, self.version, self.input_grads = net, None, None
        self.plan = [_LayerPlan(self, net, l, *params, *alive) for l, (params, alive)
                     in enumerate(zip(net.views(net.params), net.views(net.alive)), start=1)]
        self.reset(net, input_grads)

    def reset(self, net: Network, input_grads=True):
        """Put the buffers that passes read before they write in the state a
        new trace of ``net`` over the same inputs has: every neuron column,
        ``G`` and every dL/dsigma block zero, and masked features zeroed
        explicitly, because a zero weight times nan would still be nan.
        After an edit, the plan is patched."""
        A = self.activations
        A[:, : net.input_dim] = np.where(net.active_inputs, self.source, 0.0)
        A[:, net.input_dim:] = 0.0
        for zeroed in [self.G, *self.d_sigma[1:]]:
            zeroed.fill(0.0)
        if self.version != net._version:
            for p in self.plan:
                p.patch(self)
            self.smooth = all(p.step is None for p in self.plan)
        elif self.input_grads == input_grads:
            return
        self.version, self.input_grads = net._version, input_grads
        # the first G column a pass adds into; layer 1 adds only input gradients
        self.g_lo = min([p.lo for p in self.plan[not input_grads:]], default=net.offsets[-2])

    @property
    def outputs(self):
        return self.values[-1]


class _LayerPlan:
    """How the passes of a trace run layer l: views of the trace's buffers
    and of the layer's arrays, bound once per trace, and what the layer's
    live flags and activation codes decide, which ``patch`` keeps current.

    Every layer runs one way, at full width and in place.  The outputs
    are ``tanh(sigma * scale)`` into the contiguous ``y``: ``scale`` is None
    unless a live neuron is a sigmoid, else 0.5 per live sigmoid column and
    1.0 elsewhere, since the sigmoid, the logistic rescaled to (-1, 1), is
    tanh(sigma / 2) and sigma * 1.0 is sigma.  The ``step`` columns (of the
    live step neurons, or None) are then overwritten by
    ``step_function(sigma)`` and the ``dead`` ones (None when all live) set
    to 0, and ``y`` is copied into the layer's block of ``activations``.
    Backward, dL/dsigma is ``(1 - y * y) * scale * dL/dy`` with the dead
    columns set to 0.  Times the trace's ``counts`` it goes into
    ``weighted``, which only the weight and bias gradients read.  ``lo`` is
    the first source column with a live synapse.  Every weight before it is
    a masked zero, so dL/d(sources) is added into ``G`` from ``lo`` on, by
    every layer but the first, and by the first only while the trace
    computes input gradients.  The d_sigma @ weights product still has its
    full width, in the trace's shared product buffer.
    """

    __slots__ = ("l", "inputs", "weights", "weights_t", "bias", "alive", "neuron_alive",
                 "codes", "sigma", "values", "y", "y_grads", "d_sigma", "counts",
                 "weighted", "weighted_t", "weight_grads", "bias_grads", "scale", "step",
                 "dead", "lo", "product", "g_window_t", "product_window_t", "structure")

    def __init__(self, trace: BatchTrace, net: Network, l, weights, bias, alive,
                 neuron_alive):
        off = net.offsets
        self.l, self.inputs = l, trace.activations[:, : off[l]]
        self.weights, self.weights_t, self.bias = weights, weights.T, bias
        self.alive, self.neuron_alive = alive, neuron_alive
        self.codes = net.codes[off[l] - net.input_dim: off[l + 1] - net.input_dim]
        self.sigma, self.values, self.y = trace.sigma[l], trace.values[l], trace._ys[l]
        n, width = self.y.shape
        self.y_grads, self.d_sigma = trace.y_grads[l], trace.d_sigma[l]
        self.counts = trace.counts[:, None]
        self.weighted = trace._weighted[: n * width].reshape(n, width)
        self.weighted_t = self.weighted.T
        self.weight_grads, self.bias_grads = trace.weight_grads[l], trace.bias_grads[l]
        self.product = trace._product[: self.inputs.size].reshape(self.inputs.shape)
        self.lo = self.structure = None

    def patch(self, trace: BatchTrace):
        """If the layer's live flags or codes changed, recompute what they
        decide: the columns of each kind and ``lo``, re-slicing the windows
        into ``G`` when ``lo`` moved (a restore can move it back down)."""
        structure = self.alive.tobytes() + self.neuron_alive.tobytes() + self.codes.tobytes()
        if structure == self.structure:
            return
        self.structure = structure
        kinds = [ACTIVATIONS[code] if live else "dead"
                 for code, live in zip(self.codes.tolist(), self.neuron_alive.tolist())]
        self.scale = (np.array([0.5 if kind == "sigmoid" else 1.0 for kind in kinds])
                      if "sigmoid" in kinds else None)
        self.step, self.dead = (np.array([k == kind for k in kinds]).nonzero()[0]
                                if kind in kinds else None for kind in ("step", "dead"))
        sources = self.alive.any(axis=0).nonzero()[0]
        lo = int(sources[0]) if sources.size else self.inputs.shape[1]
        if lo != self.lo:
            # transposed, the add into G runs along its contiguous columns
            self.g_window_t = trace.G.T[lo: self.inputs.shape[1]]
            self.product_window_t = self.product.T[lo:]
        self.lo = lo


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
        if p.l > 1 or trace.input_grads:
            np.matmul(p.d_sigma, p.weights, out=p.product)
            np.add(p.g_window_t, p.product_window_t, out=p.g_window_t)
        np.multiply(p.d_sigma, p.counts, out=p.weighted)
        np.matmul(p.weighted_t, p.inputs, out=p.weight_grads)
        np.add.reduce(p.weighted, axis=0, out=p.bias_grads)
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
    layers, draws = [], []
    start = 0  # first column of the previous layer's outputs
    for l in range(1, len(layer_sizes)):
        width, fan = layer_sizes[l], layer_sizes[l - 1]
        # per neuron its bias, then its synapses: the weight table's order
        draws.append(rng.uniform(-0.5, 0.5, size=(width, 1 + fan)).ravel())
        layers.append(Layer([range(start, start + fan)] * width))
        start += fan
    net = Network(layer_sizes[0], layers, output_labels)
    net.params[net.weight_table.pos] = np.concatenate(draws)
    net.codes.fill(ACTIVATIONS.index(activation))
    return net
