"""First-order sensitivity indicators for inputs, weights, and neurons.

Each indicator is a linearized cost |dL/de * delta_e| of moving element e to
its modification target.  Per-sample values are aggregated over the training
set (max or average) and the per-epoch aggregates are averaged over several
live training epochs, which decouples the ranking from the gradient
direction at any single moment.

For weight indicators the displacement factor |v - w| stays outside the
sample statistic and is applied once at finalize time against the current
weight and its current nearest valid value.

``collect_ledger(..., refs)`` builds a ledger for exactly the refs it is
given, normally the pruning step's candidate pool: each epoch it takes the
per-sample magnitudes of those refs from the gradients that ``train_epoch``
returns, and ``SensitivityLedger.finalize`` rates the ledger's own refs in
order as ``{ref: indicator}``.  Which elements are candidates is decided by
``pruning.candidate_pool`` alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .network import Network
from .training import EpochWorkspace, LossKind, TrainConfig, train_epoch

INDICATOR_MODES = ("max", "avg")


@dataclass(frozen=True)
class ValidSet:
    """Finite ascending set of permitted weight values."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("valid set must be nonempty")
        if sorted(set(vals)) != list(vals):
            raise ValueError("valid set must be strictly ascending, no duplicates")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def removal():
        return ValidSet((0.0,))

    @staticmethod
    def ternary():
        return ValidSet((-1.0, 0.0, 1.0))


def nearest_valid(weight, valid_set: ValidSet) -> float:
    """Member of the set closest to the weight; ties go to the value of
    smaller magnitude."""
    w = float(weight)
    return min(valid_set.values, key=lambda v: (abs(v - w), abs(v), v))


# -- cross-epoch ledger ---------------------------------------------------

class SensitivityLedger:
    """Accumulates per-epoch aggregates of per-sample indicator statistics
    for a fixed list of refs, normally a pruning step's candidate pool.

    Both the max and the avg statistic are tracked, so either mode can be
    finalized from one accumulation run.  Each is one array of sums in the
    order of ``refs``, added to in epoch order.
    """

    def __init__(self, refs):
        self.refs = list(refs)
        self.epochs_accumulated = 0
        self._max_sums = np.zeros(len(self.refs))
        self._avg_sums = np.zeros(len(self.refs))

    def add_epoch(self, samples):
        """Fold in one epoch's C-contiguous (len(refs), N) array of
        per-sample magnitudes, row i belonging to refs[i].  Each row is
        reduced alone, as the 1-D reduction of that row would be."""
        if samples.shape[0] != len(self.refs):
            raise ValueError(f"{samples.shape[0]} sample rows for {len(self.refs)} refs")
        self._max_sums += samples.max(axis=1)
        self._avg_sums += samples.mean(axis=1)
        self.epochs_accumulated += 1

    def finalize(self, net: Network, mode, valid_set: ValidSet | None = None):
        """Mean over epochs of the per-epoch aggregates of each ref, as
        {ref: indicator} in the order of ``refs``.

        Weight indicators are multiplied by the current |nearest - weight|
        displacement, so ``valid_set`` is required when a weight is rated.
        """
        if self.epochs_accumulated == 0:
            raise ValueError("finalize on an empty ledger")
        if mode not in INDICATOR_MODES:
            raise ValueError(f"unknown indicator mode {mode!r}")
        sums = self._max_sums if mode == "max" else self._avg_sums
        out = dict(zip(self.refs, (sums / self.epochs_accumulated).tolist()))
        for ref in self.refs:
            if ref.kind in ("synapse", "bias"):
                if valid_set is None:
                    raise ValueError("weight indicators need a valid set")
                weight = net.weight(ref)
                out[ref] *= abs(nearest_valid(weight, valid_set) - weight)
        return out


def _sample_rows(net: Network, refs):
    """Per ref, its row in the gradient table and in the value table of
    ``_sample_magnitudes``: an input or a neuron pairs dL/dy with y, a
    synapse dL/dsigma with its source value, a bias dL/dsigma with 1."""
    off = net.offsets
    grad_rows, value_rows = [], []
    for ref in refs:
        if ref.kind in ("input", "neuron"):
            row = off[ref.layer] + ref.neuron
            grad_rows.append(row)
            value_rows.append(row)
        else:
            grad_rows.append(off[-1] + off[ref.layer] - off[1] + ref.neuron)
            value_rows.append(off[-1] if ref.kind == "bias" else
                              net.layers[ref.layer - 1].slots[ref.neuron][ref.slot - 1])
    return np.array(grad_rows, dtype=int), np.array(value_rows, dtype=int)


def _sample_magnitudes(trace, grads, rows):
    """(len(refs), N) C-contiguous per-sample magnitudes of one epoch.  The
    tables hold one sample vector per row, so each ref gathers whole rows."""
    grad_table = np.vstack([g.T for g in grads.y_grads + grads.d_sigma[1:]])
    value_table = np.vstack((trace.activations.T, np.ones(len(trace.activations))))
    grad_rows, value_rows = rows
    samples = grad_table[grad_rows] * value_table[value_rows]
    return np.abs(samples, out=samples)


def collect_ledger(net: Network, dataset, loss_kind: LossKind,
                   train_config: TrainConfig, epochs, refs):
    """Accumulate a ledger for ``refs`` over several live training epochs.

    The network keeps training while the statistics accumulate, so the
    indicators reflect a trajectory rather than a single weight state.
    Training changes weights only, so the refs are resolved to rows once
    and one EpochWorkspace serves every epoch; it computes input gradients
    only when an input is rated.
    """
    if epochs < 1:
        raise ValueError("need at least one accumulation epoch")
    ledger = SensitivityLedger(refs)
    rows = _sample_rows(net, ledger.refs)
    work = EpochWorkspace(net, dataset, loss_kind,
                          input_grads=any(ref.kind == "input" for ref in ledger.refs))
    for _ in range(epochs):
        trace, terms = work.evaluate()
        grads, _ = train_epoch(net, dataset, loss_kind, train_config,
                               work.velocity, trace=trace, terms=terms)
        ledger.add_epoch(_sample_magnitudes(trace, grads, rows))
    return ledger


def export_csv(final_map, element_class, mode, path):
    """Write finalized indicators as element,class,indicator,mode rows."""
    rows = sorted(final_map.items(), key=lambda item: item[0].key)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "class", "indicator", "mode"])
        for ref, value in rows:
            writer.writerow([str(ref), element_class, repr(float(value)), mode])
