"""Per-sample indicator formulas, one element and one sample at a time.

They read the single-sample ``forward``/``backward`` records and share no
code with the batched ledger, so the tests check ``collect_ledger`` and the
pruning steps against them.
"""

import numpy as np

from lucidnet import LucidnetError, StaleReferenceError
from lucidnet.network import ElementRef, Network


class ExcludedElementError(LucidnetError):
    """Indicator requested for an element outside the candidate pool."""


def input_indicator_sample(trace, gradients, k) -> float:
    """Linearized cost of zeroing feature k for one sample."""
    if k not in gradients.inputs:
        raise StaleReferenceError(f"feature {k} is masked off")
    return abs(gradients.inputs[k] * trace.input[k])


def weight_gradient_sample(net: Network, gradients, ref: ElementRef) -> float:
    """|dL/dw| of one weight for one sample: its indicator before the
    displacement factor, which the ledger applies once at finalize."""
    if not net.is_trainable(ref):
        raise ExcludedElementError(f"{ref} is frozen and outside the pool")
    return abs(gradients.weights[ref])


def weight_indicator_sample(net: Network, gradients, ref: ElementRef,
                            target) -> float:
    """Linearized cost of moving one weight to its target value."""
    return (weight_gradient_sample(net, gradients, ref)
            * abs(float(target) - net.weight(ref)))


def neuron_indicator_sample(net: Network, trace, gradients,
                            ref: ElementRef) -> float:
    """Linearized cost of zeroing one hidden neuron's output."""
    if net.is_output_layer(ref.layer):
        raise ExcludedElementError("output neurons are protected")
    if not net.is_alive(ref):
        raise StaleReferenceError(f"{ref} is not a live neuron")
    y = trace.y[ref.layer - 1][ref.neuron]
    return abs(gradients.neurons[ref] * y)


def aggregate_samples(values, mode, counts=None) -> float:
    """Collapse per-sample values to one epoch rating.  With ``counts``,
    sample j stands for counts[j] equal rows, which the avg weights by."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot aggregate an empty sample set")
    if mode == "max":
        return float(values.max())
    if mode == "avg":
        if counts is None:
            return float(values.mean())
        return float(np.add.reduce(values * counts) / np.sum(counts))
    raise ValueError(f"unknown indicator mode {mode!r}")
