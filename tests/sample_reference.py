"""Single-sample forward and backward passes, for the tests.

They run the batch passes on one row and key the derivatives by element,
so a test can read one sample's values and gradients by name.
"""

from dataclasses import dataclass, field

import numpy as np

from lucidnet import InputShapeError
from lucidnet.network import Network, backward_batch, forward_batch


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


def forward(net: Network, x) -> ForwardTrace:
    """Evaluate one input vector, recording sigma and y for every neuron."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise InputShapeError(f"expected ({net.input_dim},) input, got {x.shape}")
    bt = forward_batch(net, x[None, :])
    return ForwardTrace(
        input=x.copy(),
        sigma=[s[0] for s in bt.sigma[1:]],
        y=[v[0].copy() for v in bt.values[1:]],
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
    bundle = GradientBundle()
    for ref, _, _ in net.iter_weights():
        i = ref.neuron
        col = None if ref.kind == "bias" else net.layers[ref.layer - 1].slots[i][ref.slot - 1]
        bundle.weights[ref] = float(bg.bias_grads[ref.layer][i] if col is None
                                    else bg.weight_grads[ref.layer][i, col])
    for nref in net.iter_neurons():
        bundle.neurons[nref] = float(bg.y_grads[nref.layer][0, nref.neuron])
    for k in net.active_feature_indices():
        bundle.inputs[k] = float(bg.y_grads[0][0, k])
    return bundle
