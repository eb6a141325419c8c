"""Plain batch passes that ``BatchTrace``'s epoch plan must equal, for the tests.

``forward_batch`` and ``backward_batch`` run every layer from a plan built
once per structure, in buffers: one loop body that computes tanh of the
scaled summator in place, overwrites the step columns and zeroes the dead
ones, a column-major gradient matrix, and adds into it that skip the
columns of masked weights.  The loop below groups each layer's live
neurons by activation kind itself, from the network's activation codes
and its neurons' live flags, and activates each group on its own columns of fresh
arrays; dead neurons stay 0.  Its gradient matrix is row-major and each
layer's d_sigma @ weights is added over all its source columns.  It makes
the same BLAS calls, so a test can require the plan's results to equal it
bit for bit.  ``reference_train_until`` runs the epoch loop of
``train_until`` on it, with the loss, accuracy and step arithmetic
spelled out, over the dataset's rows grouped as ``EpochWorkspace`` groups
them: the loss sums each group's loss times its count, the accuracy counts
each group's rows, and the weight and bias gradients sum dL/dsigma times
the counts.  Backward knows the smooth kinds only.
"""

import math
from types import SimpleNamespace

import numpy as np

from lucidnet import DivergenceError, TrainOutcome
from lucidnet.network import ACTIVATIONS, step_function
from lucidnet.training import targets_for

from conftest import distinct_groups


def _groups(net, l):
    """Activation kind -> columns of layer l's live neurons of that kind."""
    first = net.offsets[l] - net.input_dim
    codes = net.codes[first: first + net.layers[l - 1].width]
    neuron_alive = net.views(net.alive)[l - 1][1]
    groups = {}
    for i, (code, alive) in enumerate(zip(codes, neuron_alive)):
        if alive:
            groups.setdefault(ACTIVATIONS[code], []).append(i)
    return groups


def _activate(kind, sigma):
    if kind == "step":
        return step_function(sigma)
    return np.tanh(sigma) if kind == "tanh" else np.tanh(0.5 * sigma)


def _activate_prime(kind, y):
    return 1.0 - y * y if kind == "tanh" else 0.5 * (1.0 - y * y)


def reference_forward(net, X):
    """A namespace of ``activations`` and ``sigma`` (index 0 None) of one
    forward pass over X."""
    off = net.offsets
    A = np.zeros((len(X), off[-1]))
    A[:, : net.input_dim] = np.where(net.active_inputs, X, 0.0)
    sigma = [None]
    for l, (weights, bias) in enumerate(net.views(net.params), start=1):
        s = A[:, : off[l]] @ weights.T
        s += bias
        sigma.append(s)
        values = A[:, off[l]: off[l + 1]]
        for kind, cols in _groups(net, l).items():
            values[:, cols] = _activate(kind, s[:, cols])
    return SimpleNamespace(activations=A, sigma=sigma,
                           outputs=A[:, off[-2]:])


def reference_backward(net, trace, d_outputs, input_grads=True, counts=None):
    """Fill ``trace`` (of ``reference_forward``) with ``G``, ``d_sigma``
    and ``grad`` for a loss whose dL/d(outputs) is ``d_outputs``; row j of
    the trace stands for counts[j] rows (1 when None) in ``grad``."""
    off = net.offsets
    A = trace.activations
    G = trace.G = np.zeros_like(A)
    G[:, off[-2]:] = d_outputs
    trace.d_sigma = [None] + [np.zeros((len(A), layer.width)) for layer in net.layers]
    trace.grad = np.zeros_like(net.params)
    views = net.views(trace.grad)
    for l in range(net.n_layers, 0, -1):
        weights = net.views(net.params)[l - 1][0]
        y, g, d_sigma = A[:, off[l]: off[l + 1]], G[:, off[l]: off[l + 1]], trace.d_sigma[l]
        for kind, cols in _groups(net, l).items():
            d_sigma[:, cols] = g[:, cols] * _activate_prime(kind, y[:, cols])
        if l > 1 or input_grads:
            G[:, : off[l]] += d_sigma @ weights
        weighted = d_sigma if counts is None else d_sigma * counts[:, None]
        np.matmul(weighted.T, A[:, : off[l]], out=views[l - 1][0])
        np.add.reduce(weighted, axis=0, out=views[l - 1][1])
    return trace


def reference_loss(loss_kind, targets, outputs):
    """Per-sample losses and dL/d(outputs), on fresh arrays."""
    if loss_kind.kind == "mse":
        diff = outputs - targets
        return 0.5 * (diff * diff).sum(axis=1), diff
    margins = loss_kind.margin_width - targets * outputs
    active = margins > 0.0
    return np.where(active, margins, 0.0).sum(axis=1), np.where(active, -targets, 0.0)


def reference_train_until(net, dataset, loss_kind, config):
    """The outcome of ``train_until``'s epoch loop over the reference
    passes; raises DivergenceError as it does."""
    reps, counts = distinct_groups(dataset, net)
    targets = targets_for(reps, net)
    rows = np.array([net.output_labels.index(lab) for lab in reps.labels])
    velocity = np.zeros_like(net.params)
    epochs = 0
    while True:
        trace = reference_forward(net, reps.features)
        losses, d_out = reference_loss(loss_kind, targets, trace.outputs)
        loss = float((losses * counts).sum())
        if not math.isfinite(loss):
            raise DivergenceError("total loss is not finite", epochs)
        outputs = trace.outputs
        picks = (np.where(outputs[:, 0] >= 0.0, 0, 1) if outputs.shape[1] == 1
                 else np.argmax(outputs, axis=1))
        accuracy = int(counts[picks == rows].sum()) / len(dataset)
        by_loss = config.success_criterion == "loss-below-threshold"
        met = math.isfinite(loss) and (loss <= config.loss_threshold if by_loss
                                       else accuracy == 1.0)
        if met or epochs >= config.max_epochs:
            return TrainOutcome(met, epochs, loss, accuracy)
        grad = reference_backward(net, trace, d_out, False, counts).grad
        if not np.isfinite(grad).all():
            raise DivergenceError("gradient is not finite", epochs + 1)
        velocity *= config.momentum
        velocity += grad * net.trainable
        if config.learning_rate != 0.0:
            np.subtract(net.params, config.learning_rate * velocity, out=net.params,
                        where=net.trainable)
        epochs += 1
