"""First-order sensitivity indicators for inputs, weights, and neurons.

Each indicator is a linearized cost |dL/de * delta_e| of moving element e to
its modification target.  Per-sample values are aggregated over the training
set (max or average) and the per-epoch aggregates are averaged over several
live training epochs, which decouples the ranking from the gradient
direction at any single moment.

For weight indicators the displacement factor |v - w| stays outside the
sample statistic and is applied once at finalize time against the current
weight and its current nearest valid value.

``SensitivityLedger.finalize(net, refs, mode, valid_set)`` rates exactly
the refs it is given, normally the pruning step's candidate pool, and
returns ``{ref: indicator}``; which elements are candidates is decided by
``pruning.candidate_pool`` alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ExcludedElementError, StaleReferenceError
from .network import ElementRef, Network
from .training import (
    ELEMENT_CLASSES,
    LossKind,
    TrainConfig,
    targets_for,
    train_epoch,
)

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


# -- per-sample reference formulas ---------------------------------------

def input_indicator_sample(trace, gradients, k) -> float:
    """Linearized cost of zeroing feature k for one sample."""
    if k not in gradients.inputs:
        raise StaleReferenceError(f"feature {k} is masked off")
    return abs(gradients.inputs[k] * trace.input[k])


def weight_indicator_sample(net: Network, gradients, ref: ElementRef,
                            target) -> float:
    """Linearized cost of moving one weight to its target value."""
    if not net.is_trainable(ref):
        raise ExcludedElementError(f"{ref} is frozen and outside the pool")
    return abs(gradients.weights[ref]) * abs(float(target) - net.weight(ref))


def neuron_indicator_sample(net: Network, trace, gradients,
                            ref: ElementRef) -> float:
    """Linearized cost of zeroing one hidden neuron's output."""
    if net.is_output_layer(ref.layer):
        raise ExcludedElementError("output neurons are protected")
    if not net.is_alive(ref):
        raise StaleReferenceError(f"{ref} is not a live neuron")
    y = trace.y[ref.layer - 1][ref.neuron]
    return abs(gradients.neurons[ref] * y)


def aggregate_samples(values, mode) -> float:
    """Collapse per-sample values to one epoch rating."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot aggregate an empty sample set")
    if mode == "max":
        return float(values.max())
    if mode == "avg":
        return float(values.mean())
    raise ValueError(f"unknown indicator mode {mode!r}")


# -- cross-epoch ledger ---------------------------------------------------

class SensitivityLedger:
    """Accumulates per-epoch aggregates of per-sample indicator statistics.

    Both the max and the avg statistic are tracked, so either mode can be
    finalized from one accumulation run.  Sums are kept as arrays per
    statistic block; a block whose refs equal an earlier block's adds to
    that block's sums, so an element whose block repeats every epoch, as in
    ``collect_ledger``, sums its epoch aggregates in epoch order.
    """

    def __init__(self, element_class):
        if element_class not in ELEMENT_CLASSES:
            raise ValueError(f"unknown element class {element_class!r}")
        self.element_class = element_class
        self.epochs_accumulated = 0
        self._sums = []  # [refs, sum of per-epoch max, sum of per-epoch avg]

    def add_epoch(self, record):
        """Fold one epoch's GradientRecord into the running accumulators."""
        for block in record.blocks[self.element_class]:
            acc = next((a for a in self._sums
                        if a[0] is block.refs or a[0] == block.refs), None)
            if acc is None:
                acc = [block.refs, np.zeros(len(block.refs)),
                       np.zeros(len(block.refs))]
                self._sums.append(acc)
            acc[1] += block.samples.max(axis=1)
            acc[2] += block.samples.mean(axis=1)
        self.epochs_accumulated += 1

    def finalize(self, net: Network, refs, mode,
                 valid_set: ValidSet | None = None):
        """Mean over epochs of the per-epoch aggregates of each ref in
        ``refs``, as {ref: indicator} in the order of ``refs``.

        Weight indicators are multiplied by the current |nearest - weight|
        displacement; ``valid_set`` is required for the weight class.
        """
        if self.epochs_accumulated == 0:
            raise ValueError("finalize on an empty ledger")
        if mode not in INDICATOR_MODES:
            raise ValueError(f"unknown indicator mode {mode!r}")
        if self.element_class == "weight" and valid_set is None:
            raise ValueError("weight indicators need a valid set")
        column = 1 if mode == "max" else 2
        sums = {}
        for acc in self._sums:
            for key, value in zip(acc[0], acc[column].tolist()):
                sums[key] = sums.get(key, 0.0) + value
        e = self.epochs_accumulated
        out = {}
        for ref in refs:
            if ref not in sums:
                raise StaleReferenceError(f"{ref} has no ledger statistics")
            out[ref] = sums[ref] / e
            if self.element_class == "weight":
                weight = net.weight(ref)
                out[ref] *= abs(nearest_valid(weight, valid_set) - weight)
        return out


def collect_ledger(net: Network, dataset, loss_kind: LossKind,
                   train_config: TrainConfig, epochs, element_class):
    """Accumulate a ledger over several live training epochs.

    The network keeps training while the statistics accumulate, so the
    indicators reflect a trajectory rather than a single weight state.
    Each epoch builds statistics for ``element_class`` only.
    """
    if epochs < 1:
        raise ValueError("need at least one accumulation epoch")
    ledger = SensitivityLedger(element_class)
    velocity = None
    targets = targets_for(dataset, net)
    for _ in range(epochs):
        record, velocity = train_epoch(net, dataset, loss_kind, train_config,
                                       velocity, targets=targets,
                                       stats=(element_class,))
        ledger.add_epoch(record)
    return ledger


def export_csv(final_map, element_class, mode, path):
    """Write finalized indicators as element,class,indicator,mode rows."""
    rows = sorted(final_map.items(), key=lambda item: item[0].key)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "class", "indicator", "mode"])
        for ref, value in rows:
            writer.writerow([str(ref), element_class, repr(float(value)), mode])
