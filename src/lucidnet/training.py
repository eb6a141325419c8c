"""Loss functions and full-batch gradient-descent training.

The optimizer is deliberately plain: one full-batch step per epoch with
optional classical momentum, applied to trainable elements only.  Full batch
keeps the per-epoch indicator statistics well defined and makes training a
deterministic function of (initial network, config).

An epoch costs one forward and one backward pass: ``train_until`` decides
its success criterion and outcome from the forward pass that the epoch's
gradient step then reuses, and per-sample indicator statistics are built
only for the element classes a caller asks for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .network import Network, backward_batch, forward_batch

SUCCESS_CRITERIA = ("loss-below-threshold", "zero-classification-error")
ELEMENT_CLASSES = ("input", "weight", "neuron")


@dataclass(frozen=True)
class LossKind:
    kind: str = "mse"
    margin_width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("mse", "margin"):
            raise ValueError(f"unknown loss kind {self.kind!r}")


@dataclass
class TrainConfig:
    learning_rate: float
    momentum: float = 0.0
    max_epochs: int = 1000
    loss_threshold: float = 0.0
    success_criterion: str = "zero-classification-error"

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.success_criterion not in SUCCESS_CRITERIA:
            raise ValueError(f"unknown success criterion {self.success_criterion!r}")


@dataclass
class TrainOutcome:
    converged: bool
    epochs_used: int
    final_total_loss: float
    final_accuracy: float


class StatBlock:
    """Per-sample magnitudes of a group of elements from one epoch.

    ``samples`` is a C-contiguous (len(refs), N) array whose row i belongs to
    refs[i].  Each row is contiguous, so ``max``/``mean`` reduce it in the
    same order as the 1-D reduction of that row alone.
    """

    __slots__ = ("refs", "samples")

    def __init__(self, refs, samples):
        self.refs = refs
        self.samples = samples

    def max(self):
        return self.samples.max(axis=1)

    def mean(self):
        return self.samples.mean(axis=1)


class GradientRecord:
    """Per-sample derivative magnitudes from one epoch, keyed the way the
    sensitivity indicators consume them.

    ``blocks[cls]`` holds the StatBlocks of element class cls ("input",
    "weight" or "neuron"); ``train_epoch`` emits one block per layer.  The
    mappings present the same rows keyed by element:

    weight_abs[ref]  -> (N,) array of |dL^j/dw|
    input_cost[k]    -> (N,) array of |dL^j/du_k * u_k| for active features
    neuron_cost[ref] -> (N,) array of |dL^j/dy * y| for live neurons

    The constructor takes those mappings (rows of one mapping share N) and
    stores each as one block.
    """

    def __init__(self, weight_abs, input_cost, neuron_cost, total_loss):
        self.blocks = {}
        for cls, rows in (("input", input_cost), ("weight", weight_abs),
                          ("neuron", neuron_cost)):
            samples = np.array([np.asarray(v, dtype=float) for v in rows.values()])
            self.blocks[cls] = [StatBlock(tuple(rows), samples)] if rows else []
        self.total_loss = total_loss

    @classmethod
    def from_blocks(cls, blocks, total_loss):
        record = cls.__new__(cls)
        record.blocks = blocks
        record.total_loss = total_loss
        return record

    def rows(self, element_class):
        return {
            ref: row
            for block in self.blocks.get(element_class, ())
            for ref, row in zip(block.refs, block.samples)
        }

    @property
    def weight_abs(self):
        return self.rows("weight")

    @property
    def input_cost(self):
        return self.rows("input")

    @property
    def neuron_cost(self):
        return self.rows("neuron")


def loss_terms(loss_kind: LossKind, targets, outputs):
    """Per-sample loss values and dL/d(outputs)."""
    z = np.asarray(targets, dtype=float)
    zhat = np.asarray(outputs, dtype=float)
    if loss_kind.kind == "mse":
        diff = zhat - z
        return 0.5 * (diff * diff).sum(axis=1), diff
    margins = loss_kind.margin_width - z * zhat
    active = margins > 0.0  # subgradient 0 exactly at the kink
    losses = np.where(active, margins, 0.0).sum(axis=1)
    grads = np.where(active, -z, 0.0)
    return losses, grads


def targets_for(dataset, net: Network):
    """±1 target matrix matching the network's output convention."""
    width = len(net.layers[-1])
    labels = net.output_labels
    n = len(dataset.labels)
    if width == 1:
        z = np.where(
            np.array([lab == labels[0] for lab in dataset.labels]), 1.0, -1.0
        )
        return z[:, None]
    z = -np.ones((n, width))
    index = {lab: i for i, lab in enumerate(labels)}
    for j, lab in enumerate(dataset.labels):
        z[j, index[lab]] = 1.0
    return z


def _label_indices(dataset, labels):
    """Index of each row's label in ``labels`` (-1 when absent), and the
    index of each output's label; both use a label's first position."""
    first = {}
    for i, lab in enumerate(labels):
        first.setdefault(lab, i)
    rows = np.array([first.get(lab, -1) for lab in dataset.labels], dtype=int)
    return rows, np.array([first[lab] for lab in labels], dtype=int)


def total_loss(net: Network, dataset, loss_kind: LossKind) -> float:
    """Sum of the per-sample losses over the whole training set."""
    if len(dataset.labels) == 0:
        raise ValueError("dataset is empty")
    trace = forward_batch(net, dataset.features)
    losses, _ = loss_terms(loss_kind, targets_for(dataset, net), trace.outputs)
    return float(losses.sum())


def _new_velocity(plan):
    return [
        (np.zeros(len(lp.syn_objs)), np.zeros(lp.width)) for lp in plan.layers
    ]


def _gradient_record(plan, trace, grads, stats, epoch_loss):
    blocks = {}
    if "weight" in stats:
        blocks["weight"] = [
            StatBlock(lp.weight_refs, np.abs(np.hstack(
                (grads.syn_grads[l], grads.bias_grads[l][:, lp.bias_cols])).T).copy())
            for l, lp in enumerate(plan.layers, start=1)
        ]
    if "neuron" in stats:
        blocks["neuron"] = [
            StatBlock(lp.neuron_refs, np.abs(
                grads.y_grads[l][:, lp.alive_cols] * trace.values[l][:, lp.alive_cols]
            ).T.copy())
            for l, lp in enumerate(plan.layers, start=1)
        ]
    if "input" in stats:
        keys = list(plan.input_keys)
        blocks["input"] = [StatBlock(plan.input_keys, np.abs(
            grads.input_grads[:, keys] * trace.values[0][:, keys]).T.copy())]
    return GradientRecord.from_blocks(blocks, epoch_loss)


def train_epoch(net: Network, dataset, loss_kind: LossKind, config: TrainConfig,
                velocity=None, *, trace=None, targets=None,
                stats=ELEMENT_CLASSES):
    """One full-batch gradient step on the trainable elements.

    ``trace`` is the network's forward pass over ``dataset.features`` at its
    current weights and ``targets`` the ``targets_for`` matrix; either is
    computed when not given.  Returns (GradientRecord or None, velocity).
    The record holds the per-sample magnitudes of the element classes in
    ``stats``, even when every element is frozen or the learning rate is
    zero; with empty ``stats`` no record is built.
    """
    plan = net._get_plan()
    if trace is None:
        trace = forward_batch(net, dataset.features)
    if targets is None:
        targets = targets_for(dataset, net)
    losses, d_out = loss_terms(loss_kind, targets, trace.outputs)
    grads = backward_batch(net, trace, d_out)

    epoch_loss = float(losses.sum())
    if not np.isfinite(epoch_loss):
        raise DivergenceError("total loss is not finite")
    for l in range(1, net.n_layers + 1):
        if not (np.isfinite(grads.syn_grads[l]).all()
                and np.isfinite(grads.bias_grads[l]).all()):
            raise DivergenceError("gradient is not finite")
    record = _gradient_record(plan, trace, grads, stats, epoch_loss) if stats else None

    if velocity is None or len(velocity) != len(plan.layers):
        velocity = _new_velocity(plan)
    lr, mu = config.learning_rate, config.momentum
    for l, lp in enumerate(plan.layers, start=1):
        v_syn, v_bias = velocity[l - 1]
        if v_syn.shape[0] != len(lp.syn_objs):
            v_syn = np.zeros(len(lp.syn_objs))
            v_bias = np.zeros(lp.width)
        v_syn = mu * v_syn + grads.syn_grads[l].sum(axis=0) * lp.trainable_syn
        v_bias = mu * v_bias + grads.bias_grads[l].sum(axis=0) * lp.bias_mask
        if lr != 0.0:
            w, b = trace.weights[l]
            new_w = np.where(lp.trainable_syn, w - lr * v_syn, w)
            for syn, value in zip(lp.syn_objs, new_w.tolist()):
                syn.weight = value
            new_b = np.where(lp.bias_mask, b - lr * v_bias, b)[lp.bias_cols]
            for syn, value in zip(lp.bias_objs, new_b.tolist()):
                syn.weight = value
        velocity[l - 1] = (v_syn, v_bias)
    return record, velocity


def criterion_met(net: Network, dataset, loss_kind: LossKind, config: TrainConfig):
    if config.success_criterion == "loss-below-threshold":
        return total_loss(net, dataset, loss_kind) <= config.loss_threshold
    accuracy, _ = evaluate_classification(net, dataset)
    return accuracy == 1.0


def train_until(net: Network, dataset, loss_kind: LossKind,
                config: TrainConfig) -> TrainOutcome:
    """Run epochs until the success criterion holds or the budget runs out.

    Each epoch evaluates the network once: the criterion, the outcome's loss
    and accuracy, and the gradient step all read the same forward pass.
    The network is left in its final state either way.
    """
    if len(dataset.labels) == 0:
        raise ValueError("dataset is empty")
    targets = targets_for(dataset, net)
    row_label, output_label = _label_indices(dataset, net.output_labels)
    by_loss = config.success_criterion == "loss-below-threshold"
    velocity = None
    epochs = 0
    while True:
        trace = forward_batch(net, dataset.features)
        losses, _ = loss_terms(loss_kind, targets, trace.outputs)
        loss = float(losses.sum())
        picks = output_label[_predicted_outputs(trace.outputs)]
        accuracy = int(np.count_nonzero(picks == row_label)) / len(row_label)
        met = loss <= config.loss_threshold if by_loss else accuracy == 1.0
        if met or epochs >= config.max_epochs:
            return TrainOutcome(met, epochs, loss, accuracy)
        _, velocity = train_epoch(net, dataset, loss_kind, config, velocity,
                                  trace=trace, targets=targets, stats=())
        epochs += 1


def _predicted_outputs(outputs):
    """Index of the predicted output per row: argmax over outputs, ties to
    the first; a single output picks 0 when nonnegative, else 1."""
    outputs = np.asarray(outputs, dtype=float)
    if outputs.shape[1] == 1:
        return np.where(outputs[:, 0] >= 0.0, 0, 1)
    return np.argmax(outputs, axis=1)  # argmax takes the first maximum


def classify_outputs(outputs, labels):
    """Predicted label per row: argmax over outputs, sign rule for a single
    output, ties to the first label."""
    return [labels[i] for i in _predicted_outputs(outputs).tolist()]


def evaluate_classification(net: Network, dataset):
    """Accuracy and per-sample predicted classes."""
    trace = forward_batch(net, dataset.features)
    preds = classify_outputs(trace.outputs, net.output_labels)
    correct = sum(p == a for p, a in zip(preds, dataset.labels))
    return correct / len(preds), preds
