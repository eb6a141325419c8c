"""Loss functions and full-batch gradient-descent training.

The optimizer is deliberately plain: one full-batch step per epoch with
optional classical momentum, applied to trainable elements only as one
masked update of the flat ``net.params`` with a velocity of its layout.
Full batch keeps the per-epoch indicator statistics well defined and makes
training a deterministic function of (initial network, config).

An epoch costs one forward pass, one ``loss_terms`` and one backward pass,
whose criterion check, outcome and gradient step all read the same values.
What the runs on one network and dataset share (buffers, targets, label
indices, velocity) is an ``EpochWorkspace``, whose ``evaluate`` is the one
place that turns a forward pass into loss terms.  It runs each epoch once
per group of rows that are equal on the active inputs and have one label,
weighted by the group's size, and regroups when the active inputs change.
A pruning stage builds one and hands it to every ``train_until`` and
``collect_ledger`` call,
each of which resets it first; called without one, they build their own.
``train_epoch`` steps from the terms of ``evaluate`` and leaves the
derivatives in the workspace's trace, where ``collect_ledger`` samples
them.  ``EpochWorkspace.judge`` is the one success check: ``train_until``
calls it every epoch and ``criterion_met`` once, on a fresh evaluation.
Accuracy everywhere compares predicted output index with label index;
``targets_for`` refuses a row label that is not an output label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError, DivergenceError
from .network import BatchTrace, Network, backward_batch, forward_batch

SUCCESS_CRITERIA = ("loss-below-threshold", "zero-classification-error")
LOSS_KINDS = ("mse", "margin")


@dataclass(frozen=True)
class LossKind:
    kind: str = "mse"
    margin_width: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not math.isfinite(self.margin_width):
            raise ValueError("margin width must be finite")


@dataclass
class TrainConfig:
    learning_rate: float
    momentum: float = 0.0
    max_epochs: int = 1000
    loss_threshold: float = 0.0
    success_criterion: str = "zero-classification-error"

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning rate must be finite and nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be nonnegative")
        if math.isnan(self.loss_threshold):  # a negative one forces the whole budget
            raise ValueError("loss threshold must be a number, not nan")
        if self.success_criterion not in SUCCESS_CRITERIA:
            raise ValueError(f"unknown success criterion {self.success_criterion!r}")


@dataclass
class TrainOutcome:
    converged: bool
    epochs_used: int
    final_total_loss: float
    final_accuracy: float


class LossBuffers:
    """A ±1 target matrix with the arrays that ``loss_terms`` writes mse
    terms against it into; each call overwrites them.  It goes in place of
    the targets, so every call of ``loss_terms``, and any function standing
    in for it, keeps the same three arguments."""

    __slots__ = ("targets", "losses", "d_out", "squares")

    def __init__(self, targets):
        self.targets = targets
        self.losses = np.empty(len(targets))
        # column-major: loss_terms then sums each row of squares left to
        # right, an order of magnitude faster than across a C-order row
        self.d_out = np.empty_like(targets, order="F")
        self.squares = np.empty_like(targets, order="F")


def loss_terms(loss_kind: LossKind, targets, outputs):
    """Per-sample loss values and dL/d(outputs).  ``targets`` is the ±1
    target matrix, or LossBuffers of it, whose arrays then hold and are
    the returned mse terms."""
    buffers = targets if isinstance(targets, LossBuffers) else None
    z = np.asarray(targets if buffers is None else buffers.targets, dtype=float)
    zhat = np.asarray(outputs, dtype=float)
    if loss_kind.kind == "mse":
        # plain targets get buffers too, so both forms add each row's
        # outputs in the same order: left to right, in column-major buffers
        if buffers is None:
            buffers = LossBuffers(z)
        diff = np.subtract(zhat, z, out=buffers.d_out)
        losses = np.add.reduce(np.multiply(diff, diff, out=buffers.squares), axis=1,
                               out=buffers.losses)
        return np.multiply(losses, 0.5, out=losses), diff
    margins = loss_kind.margin_width - z * zhat
    active = margins > 0.0  # subgradient 0 exactly at the kink
    losses = np.where(active, margins, 0.0).sum(axis=1)
    grads = np.where(active, -z, 0.0)
    return losses, grads


def targets_for(dataset, net: Network):
    """±1 target matrix matching the network's output convention.  Raises
    DatasetError for a row label that is not one of the output labels."""
    rows = _label_indices(dataset, net.output_labels)
    if (rows < 0).any():
        label = dataset.labels[int(np.argmin(rows))]
        raise DatasetError(f"label {label!r} is not one of the network's "
                           f"output labels {net.output_labels}")
    width = net.layers[-1].width
    if width == 1:
        return np.where(rows == 0, 1.0, -1.0)[:, None]
    z = -np.ones((len(rows), width))
    z[np.arange(len(rows)), rows] = 1.0
    return z


def _label_indices(dataset, labels):
    """Index of each row's label in ``labels``, or -1 when absent."""
    index = {lab: i for i, lab in enumerate(labels)}
    return np.array([index.get(lab, -1) for lab in dataset.class_labels],
                    dtype=int)[dataset.label_codes]


def distinct_rows(dataset, active_inputs):
    """(rows, counts) of the groups of the dataset's rows that are equal on
    the active inputs and have one label: each group's first row, in order
    of first occurrence, and its size.  Rows are compared byte for byte as
    one key of any width."""
    keys = np.ascontiguousarray(np.column_stack(
        [dataset.features[:, np.flatnonzero(active_inputs)], dataset.label_codes]))
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], counts[order].astype(float)


class EpochWorkspace:
    """What the epochs of one training run share: a BatchTrace, the targets
    with the buffers of their loss terms, each row's label index with the
    buffers of its accuracy count, and the velocity.

    Rows that are equal on the network's active inputs and have one label
    give equal values and derivatives, so an epoch runs once per group of
    them: ``rows`` holds each group's first row in order of first
    occurrence, and every per-row buffer, the trace's too, holds one row
    per group.  The trace's ``counts`` holds the group sizes; the total
    loss and the accuracy count each group that many times, and ``grad``
    is the count-weighted sum.  With no two rows alike every count is 1 and
    the arithmetic is that of one row each.  Training changes weights only,
    so none of it goes stale within a run; ``reset`` readies it for the next
    run on the same network, whose structure may have changed since, and
    regroups the rows whenever the active inputs changed (a feature
    removal, its cascade, or a restore)."""

    def __init__(self, net: Network, dataset, loss_kind: LossKind,
                 input_grads=False):
        self.net, self.dataset, self.loss_kind = net, dataset, loss_kind
        self._targets = targets_for(dataset, net)
        self._need = _label_indices(dataset, net.output_labels).astype(np.intp)
        self.velocity = np.zeros_like(net.params)
        self.judged = None
        self._group(input_grads)

    def _group(self, input_grads):
        """The trace and per-row buffers over the groups of the dataset's
        rows under the network's current active inputs."""
        self._grouped_by = self.net.active_inputs.tobytes()
        self.rows, counts = distinct_rows(self.dataset, self.net.active_inputs)
        self.trace = BatchTrace(self.net, self.dataset.features[self.rows],
                                input_grads, counts)
        self.targets = LossBuffers(self._targets[self.rows])
        self._weighted = np.empty(len(self.rows))
        need = self._need[self.rows]
        # (the pick each row needs, pick buffer, hit buffer); only judge reads it
        self._picks = need, np.empty_like(need), np.empty(len(need), dtype=bool)

    def reset(self, input_grads=False):
        """The trace rebound to the network's structure, and regrouped when
        the active inputs changed; the velocity zero."""
        if self.net.active_inputs.tobytes() != self._grouped_by:
            self._group(input_grads)
        else:
            self.trace.reset(self.net, input_grads)
        self.velocity.fill(0.0)
        return self

    def evaluate(self):
        """(total loss, dL/d(outputs)) of a forward pass into ``trace``; the
        next evaluation overwrites the dL/d(outputs) buffer."""
        trace = forward_batch(self.net, self.trace.source, self.trace)
        losses, d_out = loss_terms(self.loss_kind, self.targets, trace.outputs)
        return float(np.multiply(losses, trace.counts, out=self._weighted).sum()), d_out

    def judge(self, config: TrainConfig, loss):
        """(criterion met, accuracy) for the ``loss`` that ``evaluate`` just
        returned, with the picks of ``_predicted_outputs``; a non-finite loss
        never meets the criterion.  ``judged`` keeps the (loss, accuracy) of
        the last call."""
        need, picks, hits = self._picks
        np.equal(_predicted_outputs(self.trace.outputs, out=picks), need, out=hits)
        accuracy = float(self.trace.counts @ hits) / len(self.dataset)
        by_loss = config.success_criterion == "loss-below-threshold"
        met = loss <= config.loss_threshold if by_loss else accuracy == 1.0
        self.judged = loss, accuracy
        return math.isfinite(loss) and met, accuracy


def prepare_workspace(work, net, dataset, loss_kind, input_grads=False):
    """``work`` reset for a new run, or a new EpochWorkspace when None."""
    if work is None:
        return EpochWorkspace(net, dataset, loss_kind, input_grads)
    if not (work.net is net and work.dataset is dataset
            and work.loss_kind == loss_kind):
        raise ValueError("workspace of another network, dataset or loss")
    return work.reset(input_grads)


def train_epoch(work: EpochWorkspace, config: TrainConfig, terms):
    """One full-batch gradient step on the trainable elements of
    ``work.net``, in place, from the ``terms`` that ``work.evaluate()`` just
    returned.  The derivatives, frozen elements' too, are left in
    ``work.trace``; ``work.velocity`` is updated in place.  A non-finite
    loss or gradient raises DivergenceError counting this one epoch.
    """
    net, velocity = work.net, work.velocity
    loss, d_out = terms
    grad = backward_batch(net, work.trace, d_out).grad

    if not math.isfinite(loss):
        raise DivergenceError("total loss is not finite", epochs=1)
    if not np.isfinite(grad).all():
        raise DivergenceError("gradient is not finite", epochs=1)

    velocity *= config.momentum
    velocity += grad * net.trainable
    if config.learning_rate != 0.0:  # a zero step would still flip -0.0
        np.subtract(net.params, config.learning_rate * velocity, out=net.params,
                    where=net.trainable)


def criterion_met(net: Network, dataset, loss_kind: LossKind,
                  config: TrainConfig, work=None) -> bool:
    """The success criterion judged as ``train_until`` judges an epoch, from
    one evaluation in ``work`` (reset first) or in a workspace of its own."""
    work = prepare_workspace(work, net, dataset, loss_kind)
    return work.judge(config, work.evaluate()[0])[0]


def train_until(net: Network, dataset, loss_kind: LossKind,
                config: TrainConfig, work=None) -> TrainOutcome:
    """Run epochs until the success criterion holds or the budget runs out.

    Each epoch evaluates the network once: the criterion, the outcome's loss
    and accuracy, and the gradient step all read the same forward pass and
    loss terms, in one EpochWorkspace: ``work`` (an EpochWorkspace of this
    network, dataset and loss), reset first, or else one built for the run.
    The network is left in its final state either way.  A non-finite loss
    raises DivergenceError, even where the accuracy alone would meet the
    criterion; its ``epochs`` counts the epochs run, a raising one included.
    """
    work = prepare_workspace(work, net, dataset, loss_kind)
    epochs = 0
    while True:
        terms = work.evaluate()
        loss = terms[0]
        if not math.isfinite(loss):
            raise DivergenceError("total loss is not finite", epochs)
        met, accuracy = work.judge(config, loss)
        if met or epochs >= config.max_epochs:
            return TrainOutcome(met, epochs, loss, accuracy)
        try:
            train_epoch(work, config, terms)
        except DivergenceError as exc:
            exc.epochs += epochs
            raise
        epochs += 1


def _predicted_outputs(outputs, out=None):
    """Index of the predicted output per row, written into the intp buffer
    ``out`` when given: argmax over outputs, ties to the first and a nan row
    to its first nan; a single output picks 0 when nonnegative, else 1 (nan
    too)."""
    outputs = np.asarray(outputs, dtype=float)
    if out is None:
        out = np.empty(len(outputs), dtype=np.intp)
    if outputs.shape[1] == 1:
        return np.logical_not(np.greater_equal(outputs[:, 0], 0.0, out=out), out=out)
    return np.argmax(outputs, axis=1, out=out)  # argmax takes the first maximum


def evaluate_classification(net: Network, dataset):
    """Accuracy and per-sample predicted classes."""
    picks = _predicted_outputs(forward_batch(net, dataset.features).outputs)
    hits = int(np.count_nonzero(picks == _label_indices(dataset, net.output_labels)))
    labels = net.output_labels
    return hits / len(picks), [labels[i] for i in picks.tolist()]
