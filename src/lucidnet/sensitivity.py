"""First-order sensitivity indicators for inputs, weights, and neurons.

Each indicator is a linearized cost |dL/de * delta_e| of moving element e to
its modification target.  Per-sample values are aggregated over the training
set (max or average) and the per-epoch aggregates are averaged over several
live training epochs, which decouples the ranking from the gradient
direction at any single moment.

For weight indicators the displacement factor |v - w| stays outside the
sample statistic and is applied once at finalize time against the current
weight and its current nearest valid value.

``collect_ledger(..., element_class, pool, mode)`` builds a ledger for
exactly the pool it is given, normally the pruning step's candidate pool as
one index array (weight-table rows for weights, value columns for inputs
and neurons), and sums only the statistic that ``mode`` names.  The ledger
sorts the pool once into the order of the gradient blocks it reads; each
epoch then writes the samples in place from the gradients that
``train_epoch`` leaves in the trace, at most ``_CHUNK`` elements (entries
times samples) at a time, so no per-epoch temporary grows past that bound.
``SensitivityLedger.finalize`` rates the ledger's ``index`` as an array
aligned with it; ``element_refs`` names the entries of an index.
A sample is one of the workspace's groups of equal rows, which the avg
statistic weights by its size.
Which elements are candidates is decided by ``pruning.candidate_pool``
alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import StaleReferenceError
from .network import Network, input_ref, neuron_ref
from .training import LossKind, TrainConfig, prepare_workspace, train_epoch

INDICATOR_MODES = ("max", "avg")


@dataclass(frozen=True)
class ValidSet:
    """Finite ascending set of permitted weight values, each finite."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("valid set must be nonempty")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"valid set values must be finite, not {vals}")
        if sorted(set(vals)) != list(vals):
            raise ValueError("valid set must be strictly ascending, no duplicates")
        object.__setattr__(self, "values", vals)
        # the tie-break order of nearest_valid, smaller magnitude first
        order = np.array(sorted(vals, key=lambda v: (abs(v), v)))
        order.flags.writeable = False
        object.__setattr__(self, "_by_magnitude", order)

    @staticmethod
    def removal():
        return ValidSet((0.0,))

    @staticmethod
    def ternary():
        return ValidSet((-1.0, 0.0, 1.0))


def nearest_valid(weights, valid_set: ValidSet):
    """Member of the set closest to each weight: an array of them for an
    array, a float for a number.  Ties go to the value of smaller
    magnitude, then to the smaller value."""
    values = valid_set._by_magnitude
    w = np.asarray(weights, dtype=float)
    # argmin takes the first of equal distances, so the order breaks ties
    nearest = values[np.abs(values - w[..., None]).argmin(axis=-1)]
    return float(nearest) if nearest.ndim == 0 else nearest


# -- cross-epoch ledger ---------------------------------------------------

ELEMENT_CLASSES = ("input", "neuron", "weight")

_CHUNK = 16 * 1024  # sample elements gathered at a time; bounds the temporaries


def element_refs(net: Network, element_class, index):
    """The ElementRefs of a pool's entries: rows of ``net.weight_table``
    for the weight class, else columns of the value vector (an input's or a
    neuron's)."""
    if element_class == "weight":
        refs = net.weight_table.refs
        return [refs[row] for row in np.asarray(index).tolist()]
    return [input_ref(col) if col < net.input_dim else neuron_ref(*net._source(col))
            for col in np.asarray(index).tolist()]


class SensitivityLedger:
    """Accumulates per-epoch aggregates of one per-sample indicator
    statistic for a fixed pool of one element class of ``net``, normally a
    pruning step's candidate pool: rows of ``net.weight_table`` for the
    weight class, value columns for inputs and neurons.

    The ledger sorts its pool once, stably, into the order of the gradient
    block each entry reads, and keeps it as ``index``: row i of every
    samples array, and entry i of ``finalize``, belong to ``index[i]``.
    Block 0 is ``trace.G``, which an input or a neuron reads with its own
    value column; block l is ``trace.d_sigma[l]``, which a bias of layer l
    reads alone and a synapse with its source's value column.  So each of
    the plan's chunks, at most ``_CHUNK`` elements (entries times samples),
    is one contiguous slice of the samples.  The epochs of
    ``collect_ledger`` move weights only, so none of the pool can go stale
    before ``finalize``.

    ``mode`` names the statistic: "max", the largest sample, or "avg", the
    mean over the rows.  Its per-epoch aggregates are summed into one array,
    in epoch order.  A sample may stand for a group of equal rows, as in an
    ``EpochWorkspace``: ``counts`` holds one group size per sample column,
    all 1 when each sample is one row.  Only the avg statistic weights the
    samples by them, as the count-weighted mean over all rows; the max of
    the groups is the max of the rows.  A ledger serves one grouping:
    ``collect_ledger`` builds it after the workspace's reset, which
    regroups whenever the active inputs changed, and no epoch of a ledger
    changes them.
    """

    def __init__(self, net: Network, element_class, pool, counts, mode):
        if mode not in INDICATOR_MODES:
            raise ValueError(f"unknown indicator mode {mode!r}")
        if element_class not in ELEMENT_CLASSES:
            raise ValueError(f"unknown element class {element_class!r}")
        self.element_class, self.mode = element_class, mode
        pool = np.asarray(pool, dtype=np.intp)
        if element_class == "weight":
            table = net.weight_table
            group = 2 * table.layer[pool] + table.synapse[pool]  # 2 * block + scaled
            self.index = pool[group.argsort(kind="stable")]  # a block keeps the pool's order
            cols, sources = table.neuron[self.index], table.source[self.index]
        else:
            self.index, group = pool, np.ones_like(pool)
            cols = sources = pool
        self.counts = np.asarray(counts, dtype=float)
        self.shape = (len(self.index), len(self.counts))  # of each epoch's samples
        size = max(1, _CHUNK // max(1, len(self.counts)))
        self._plan = []  # (block, samples slice, gradient columns, value columns or None)
        end = 0
        for key, run in enumerate(np.bincount(group).tolist()):  # each group's run in index
            start, end = end, end + run
            for a in range(start, end, size):
                b = min(a + size, end)
                self._plan.append((key // 2, slice(a, b), cols[a:b],
                                   sources[a:b] if key % 2 else None))
        self.epochs_accumulated = 0
        self._sums = np.zeros(len(self.index))
        # the count-weighted samples of an avg epoch, and their total weight
        self._weighted = np.empty(self.shape) if mode == "avg" else None
        self._total = self.counts.sum()

    def sample(self, trace, samples):
        """Write one epoch's per-sample magnitudes into ``samples``, row i
        for ``index[i]``: |dL/dy * y| for an input or a neuron,
        |dL/dsigma * source| for a synapse and |dL/dsigma| for a bias.  Each
        chunk gathers whole rows from a transposed view of its block into
        its own slice of ``samples``; every gradient column is in range, so
        the gather needs no bounds check."""
        blocks = [trace.G.T] + [d_sigma.T for d_sigma in trace.d_sigma[1:]]
        values = trace.activations.T
        for block, rows, cols, sources in self._plan:
            out = samples[rows]
            np.take(blocks[block], cols, axis=0, out=out, mode="clip")
            if sources is not None:
                np.multiply(out, values[sources], out=out)
            np.abs(out, out=out)

    def add_epoch(self, samples):
        """Fold in one epoch's C-contiguous samples array of ``shape``, row
        i holding the per-sample magnitudes of ``index[i]``.  Each row is
        reduced alone, as the 1-D reduction of that row would be."""
        if samples.shape != self.shape:
            raise ValueError(f"samples of shape {samples.shape}, not {self.shape}")
        if self.mode == "max":
            self._sums += np.maximum.reduce(samples, axis=1)
        else:
            weighted = np.multiply(samples, self.counts, out=self._weighted)
            self._sums += np.add.reduce(weighted, axis=1) / self._total
        self.epochs_accumulated += 1

    def finalize(self, net: Network, valid_set: ValidSet | None = None):
        """Mean over epochs of the per-epoch aggregates, one float per entry
        of ``index``, as an array aligned with it.

        Weight indicators are multiplied by the current |nearest - weight|
        displacement, so ``valid_set`` is required when a weight is rated.
        A rated weight removed since the ledger was built raises
        StaleReferenceError.
        """
        if self.epochs_accumulated == 0:
            raise ValueError("finalize on an empty ledger")
        indicators = self._sums / self.epochs_accumulated
        if self.element_class == "weight" and len(self.index):
            if valid_set is None:
                raise ValueError("weight indicators need a valid set")
            pos = net.weight_table.pos[self.index]
            if not net.alive[pos].all():
                raise StaleReferenceError("a rated weight was removed after the "
                                          "ledger was built")
            w = net.params[pos]
            indicators *= np.abs(nearest_valid(w, valid_set) - w)
        return indicators


def collect_ledger(net: Network, dataset, loss_kind: LossKind,
                   train_config: TrainConfig, epochs, element_class, pool, mode, work=None):
    """Accumulate a ``mode`` ledger for ``pool``, of ``element_class``,
    over several live training epochs.

    The network keeps training while the statistics accumulate, so the
    indicators reflect a trajectory rather than a single weight state.
    An unknown mode is refused before any epoch runs.  One samples buffer
    and one EpochWorkspace serve every epoch: ``work`` (of this network,
    dataset and loss), reset first, or else one built for the call.  Input
    gradients are computed only when an input is rated.
    """
    if epochs < 1:
        raise ValueError("need at least one accumulation epoch")
    work = prepare_workspace(work, net, dataset, loss_kind,
                             input_grads=element_class == "input" and len(pool) > 0)
    ledger = SensitivityLedger(net, element_class, pool, work.trace.counts, mode)
    samples = np.empty(ledger.shape)
    for _ in range(epochs):
        train_epoch(work, train_config, work.evaluate())
        ledger.sample(work.trace, samples)
        ledger.add_epoch(samples)
    return ledger


def export_csv(final_map, element_class, mode, path):
    """Write finalized indicators as element,class,indicator,mode rows."""
    rows = sorted(final_map.items(), key=lambda item: item[0].key)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "class", "indicator", "mode"])
        for ref, value in rows:
            writer.writerow([str(ref), element_class, repr(float(value)), mode])
