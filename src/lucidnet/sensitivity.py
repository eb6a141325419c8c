"""First-order sensitivity indicators for inputs, weights, and neurons.

Each indicator is a linearized cost |dL/de * delta_e| of moving element e to
its modification target.  Per-sample values are aggregated over the training
set (max or average) and the per-epoch aggregates are averaged over several
live training epochs, which decouples the ranking from the gradient
direction at any single moment.

For weight indicators the displacement factor |v - w| stays outside the
sample statistic and is applied once at finalize time against the current
weight and its current nearest valid value.

``collect_ledger(..., refs, mode)`` builds a ledger for exactly the refs it
is given, normally the pruning step's candidate pool, and sums only the
statistic that ``mode`` names; ``SensitivityLedger.finalize`` rates the
ledger's own refs in order as ``{ref: indicator}``, gathering the rated
weights by their positions in ``Network.params``.  A ledger resolves its
refs to rows of the network's weight table once, when it is built, and the
sample plan groups them by the gradient block they read.  Each epoch
refills one reused samples buffer from the gradients that ``train_epoch``
leaves in the trace, at most ``_CHUNK`` elements (refs times samples) at a
time, so no per-epoch temporary grows past that bound.
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
from .network import Network
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
    values = np.array(sorted(valid_set.values, key=lambda v: (abs(v), v)))
    w = np.asarray(weights, dtype=float)
    # argmin takes the first of equal distances, so the order breaks ties
    nearest = values[np.abs(values - w[..., None]).argmin(axis=-1)]
    return float(nearest) if nearest.ndim == 0 else nearest


# -- cross-epoch ledger ---------------------------------------------------

class SensitivityLedger:
    """Accumulates per-epoch aggregates of one per-sample indicator
    statistic for a fixed list of refs of ``net``, normally a pruning
    step's candidate pool.

    ``mode`` names the statistic: "max", the largest sample, or "avg", the
    mean over the rows.  Its per-epoch aggregates are summed into one array
    in the order of ``refs``, in epoch order.  The refs are resolved to
    their rows of the network's weight table, as ``Network.weight_rows``
    gives them, once, here: the epochs of ``collect_ledger`` move weights
    only, so none of its refs can go stale before ``finalize``.

    A sample may stand for a group of equal rows, as in an
    ``EpochWorkspace``: ``counts`` holds one group size per sample column,
    all 1 when each sample is one row.  Only the avg statistic weights the
    samples by them, as the count-weighted mean over all rows; the max of
    the groups is the max of the rows.  A ledger serves one grouping:
    ``collect_ledger`` builds it after the workspace's reset, which
    regroups whenever the active inputs changed, and no epoch of a ledger
    changes them.
    """

    def __init__(self, net: Network, refs, counts, mode):
        if mode not in INDICATOR_MODES:
            raise ValueError(f"unknown indicator mode {mode!r}")
        self.refs, self.mode = list(refs), mode
        self.rows = net.weight_rows(self.refs)
        self.counts = np.asarray(counts, dtype=float)
        self.shape = (len(self.refs), len(self.counts))  # of each epoch's samples
        self.epochs_accumulated = 0
        self._sums = np.zeros(len(self.refs))
        # the count-weighted samples of an avg epoch, and their total weight
        self._weighted = np.empty(self.shape) if mode == "avg" else None
        self._total = self.counts.sum()

    def add_epoch(self, samples):
        """Fold in one epoch's C-contiguous samples array of ``shape``, row
        i holding the per-sample magnitudes of refs[i].  Each row is reduced
        alone, as the 1-D reduction of that row would be."""
        if samples.shape != self.shape:
            raise ValueError(f"samples of shape {samples.shape}, not {self.shape}")
        if self.mode == "max":
            self._sums += np.maximum.reduce(samples, axis=1)
        else:
            weighted = np.multiply(samples, self.counts, out=self._weighted)
            self._sums += np.add.reduce(weighted, axis=1) / self._total
        self.epochs_accumulated += 1

    def finalize(self, net: Network, valid_set: ValidSet | None = None):
        """Mean over epochs of the per-epoch aggregates of each ref, as
        {ref: indicator} in the order of ``refs``.

        Weight indicators are multiplied by the current |nearest - weight|
        displacement, so ``valid_set`` is required when a weight is rated.
        A rated weight removed since the ledger was built raises
        StaleReferenceError.
        """
        if self.epochs_accumulated == 0:
            raise ValueError("finalize on an empty ledger")
        indicators = self._sums / self.epochs_accumulated
        weight = self.rows >= 0
        if weight.any():
            if valid_set is None:
                raise ValueError("weight indicators need a valid set")
            pos = net.weight_table.pos[self.rows[weight]]
            if not net.alive[pos].all():
                raise StaleReferenceError("a rated weight was removed after the "
                                          "ledger was built")
            w = net.params[pos]
            indicators[weight] *= np.abs(nearest_valid(w, valid_set) - w)
        return dict(zip(self.refs, indicators.tolist()))


_CHUNK = 16 * 1024  # sample elements gathered at a time; bounds the temporaries


def _sample_plan(net: Network, refs, rows, samples):
    """The refs, whose ``weight_rows`` are ``rows``, grouped by the gradient
    block they read and cut into chunks of at most ``_CHUNK`` elements of
    ``samples`` each: (block, positions in ``refs``, gradient columns,
    value columns or None).  Block 0 is ``trace.G``, which an input or a
    neuron reads with its own value column; block l is ``trace.d_sigma[l]``,
    which a synapse reads with its source's value column and a bias with
    none.  A weight's columns are read from its row of ``net.weight_table``;
    an input's or a neuron's row is -1, and its own value column replaces
    what that row reads."""
    table = net.weight_table
    group = 2 * table.layer[rows] + table.synapse[rows]  # 2 * block + scaled
    cols, sources = table.neuron[rows], table.source[rows]
    units = (rows < 0).nonzero()[0].tolist()
    if units:
        group[units] = 1
        cols[units] = sources[units] = [net.offsets[refs[k].layer] + refs[k].neuron
                                        for k in units]
    order = group.argsort(kind="stable")  # each group keeps the order of refs
    group, cols, sources = group[order], cols[order], sources[order]
    ends = [e + 1 for e in (group[1:] != group[:-1]).nonzero()[0].tolist()] + [len(refs)]
    size = max(1, _CHUNK // max(1, samples))
    plan = []
    for start, end in zip([0, *ends[:-1]], ends):
        for s in range(start, end, size):
            block, scaled = divmod(int(group[s]), 2)
            chunk = slice(s, min(s + size, end))
            plan.append((block, order[chunk], cols[chunk], sources[chunk] if scaled else None))
    return plan


def _fill_samples(trace, plan, samples):
    """Write one epoch's per-sample magnitudes into ``samples``, row i for
    refs[i]: |dL/dy * y| for an input or a neuron, |dL/dsigma * source|
    for a synapse and |dL/dsigma| for a bias.  Each chunk gathers whole
    rows from transposed views of the trace's blocks."""
    blocks = [trace.G.T] + [d_sigma.T for d_sigma in trace.d_sigma[1:]]
    values = trace.activations.T
    for block, pos, cols, sources in plan:
        rows = blocks[block][cols]
        if sources is not None:
            rows *= values[sources]
        samples[pos] = np.abs(rows, out=rows)


def collect_ledger(net: Network, dataset, loss_kind: LossKind,
                   train_config: TrainConfig, epochs, refs, mode, work=None):
    """Accumulate a ``mode`` ledger for ``refs`` over several live training
    epochs.

    The network keeps training while the statistics accumulate, so the
    indicators reflect a trajectory rather than a single weight state.
    An unknown mode is refused before any epoch runs.  One samples buffer
    and one EpochWorkspace serve every epoch: ``work`` (of this network,
    dataset and loss), reset first, or else one built for the call.  Input
    gradients are computed only when an input is rated.
    """
    if epochs < 1:
        raise ValueError("need at least one accumulation epoch")
    refs = list(refs)
    work = prepare_workspace(work, net, dataset, loss_kind, input_grads=any(
        ref.kind == "input" for ref in refs))
    ledger = SensitivityLedger(net, refs, work.trace.counts, mode)
    plan = _sample_plan(net, ledger.refs, ledger.rows, len(work.rows))
    samples = np.empty(ledger.shape)
    for _ in range(epochs):
        train_epoch(work, train_config, work.evaluate())
        _fill_samples(work.trace, plan, samples)
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
