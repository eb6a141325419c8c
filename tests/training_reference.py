"""The per-layer gradient step that ``training.train_epoch`` replaced, for
the tests.

``train_epoch`` now updates the network's flat ``params`` in one masked
array operation with one flat velocity.  The step below is the same
update written layer by layer over each layer's own arrays (the
per-layer views of ``Network.views``), with one (weights, bias) velocity
pair per layer, so a test can check that the
flat update equals it bit for bit.
"""

import math

import numpy as np

from lucidnet import DivergenceError
from lucidnet.network import backward_batch, forward_batch
from lucidnet.training import loss_terms, targets_for


def per_layer_train_epoch(net, dataset, loss_kind, config, velocity=None, *,
                          trace=None):
    """One full-batch step, layer by layer; returns (trace, velocity), the
    trace holding the step's derivatives and the velocity a list of
    (weights, bias) pairs."""
    if trace is None:
        trace = forward_batch(net, dataset.features)
    losses, d_out = loss_terms(loss_kind, targets_for(dataset, net), trace.outputs)
    grads = backward_batch(net, trace, d_out)

    if not math.isfinite(float(losses.sum())):
        raise DivergenceError("total loss is not finite", epochs=1)
    if not all(np.isfinite(g).all() for g in grads.weight_grads[1:] + grads.bias_grads[1:]):
        raise DivergenceError("gradient is not finite", epochs=1)

    params, flags = net.views(net.params), net.views(net.trainable)
    if velocity is None:
        velocity = [(np.zeros_like(weights), np.zeros_like(bias)) for weights, bias in params]
    lr, mu = config.learning_rate, config.momentum
    for l, ((weights, bias), (trainable, bias_trainable)) in enumerate(
            zip(params, flags), start=1):
        v_w, v_b = velocity[l - 1]
        v_w *= mu
        v_w += grads.weight_grads[l] * trainable
        v_b *= mu
        v_b += grads.bias_grads[l] * bias_trainable
        if lr != 0.0:
            np.subtract(weights, lr * v_w, out=weights, where=trainable)
            np.subtract(bias, lr * v_b, out=bias, where=bias_trainable)
    return grads, velocity


def flat_velocity(net, velocity):
    """A per-layer velocity (None before the first step) laid out as
    ``net.params``: weights 1, bias 1, weights 2, ..."""
    if velocity is None:
        return np.zeros_like(net.params)
    return np.concatenate([a.ravel() for pair in velocity for a in pair])
