"""The epoch plan's passes equal a plain per-kind-group loop, bit for bit.

``BatchTrace`` runs every pass from a plan built once per structure: every
layer in place at full width through one loop body, tanh of the summator
scaled per column, step columns overwritten, dead neurons' columns set to
0, a column-major gradient matrix and adds into it that start at each
layer's first live source column.  None of that may move a bit.  The
networks drawn here have skip connections, dead neurons, layers of one
kind and of kinds mixed neuron by neuron, and one to three outputs; traces
compute input gradients or not and are reused across structural edits.
Each is compared with ``batch_reference`` by ``tobytes``, and so is
``train_until``'s outcome and network under both losses.  Step neurons are
drawn for forward passes only: backward refuses a live one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucidnet import (LossKind, NonDifferentiableError, TrainConfig, build_network,
                      neuron_ref, train_until)
from lucidnet.network import BatchTrace, backward_batch, forward_batch

from batch_reference import reference_backward, reference_forward, reference_train_until
from conftest import apply_edits, edit_lists, make_dataset
from test_network_reference import loaded, network_docs


@st.composite
def plan_docs(draw, kinds=("tanh", "sigmoid")):
    """A network document with one to three outputs, whose layers are,
    as drawn, of one of ``kinds`` each or of ``kinds`` mixed neuron by
    neuron."""
    doc = draw(network_docs().filter(lambda d: len(d["layers"][-1]) <= 3))
    one_kind = draw(st.booleans())
    for layer in doc["layers"]:
        kind = draw(st.sampled_from(kinds))
        for neuron in layer:
            neuron["activation"] = kind if one_kind else draw(st.sampled_from(kinds))
    return doc


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_trace_equals_reference(net, trace, X, d_out, input_grads):
    want = reference_backward(net, reference_forward(net, X), d_out, input_grads)
    assert same_bits(trace.activations, want.activations)
    assert same_bits(trace.G, want.G)
    assert same_bits(trace.grad, want.grad)
    for l in range(1, net.n_layers + 1):
        assert same_bits(trace.sigma[l], want.sigma[l])
        assert same_bits(trace.d_sigma[l], want.d_sigma[l])


class TestPassesEqualTheReference:
    @settings(max_examples=150, deadline=None)
    @given(doc=plan_docs(), edits=edit_lists, later=edit_lists,
           input_grads=st.booleans(), again=st.booleans(),
           n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_a_trace_reused_across_an_edit(self, doc, edits, later, input_grads,
                                           again, n, seed):
        net = loaded(doc, edits)
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(n, net.input_dim))
        d_out = rng.uniform(-1.0, 1.0, size=(n, net.layers[-1].width))
        trace = BatchTrace(net, X, input_grads)
        backward_batch(net, forward_batch(net, X, trace), d_out)
        assert_trace_equals_reference(net, trace, X, d_out, input_grads)
        apply_edits(net, later)
        trace.reset(net, again)
        backward_batch(net, forward_batch(net, X, trace), d_out)
        assert_trace_equals_reference(net, trace, X, d_out, again)


def has_live_step(net):
    return any(net.activation(ref) == "step" for ref in net.iter_neurons())


class TestStepLayers:
    @settings(max_examples=150, deadline=None)
    @given(doc=plan_docs(kinds=("tanh", "sigmoid", "step")), edits=edit_lists,
           later=edit_lists, n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_forward_across_an_edit(self, doc, edits, later, n, seed):
        """All-step layers and layers mixing step with tanh or sigmoid, dead
        neurons among them, give the reference's values; backward refuses a
        network exactly when a live neuron is a step."""
        net = loaded(doc, edits)
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(n, net.input_dim))
        d_out = rng.uniform(-1.0, 1.0, size=(n, net.layers[-1].width))
        trace = BatchTrace(net, X)
        for edit_list in ([], later):
            apply_edits(net, edit_list)
            trace.reset(net)
            forward_batch(net, X, trace)
            want = reference_forward(net, X)
            assert same_bits(trace.activations, want.activations)
            for l in range(1, net.n_layers + 1):
                assert same_bits(trace.sigma[l], want.sigma[l])
            assert trace.smooth == (not has_live_step(net))
            if trace.smooth:
                backward_batch(net, trace, d_out)
                assert_trace_equals_reference(net, trace, X, d_out, True)
            else:
                with pytest.raises(NonDifferentiableError):
                    backward_batch(net, trace, d_out)

    def test_backward_refuses_a_live_step_only(self):
        net = build_network((2, 3, 1), seed=1)
        net.set_activation(neuron_ref(1, 1), "step")
        X = np.array([[1.0, -0.5], [0.25, 0.5]])
        d_out = np.ones((2, 1))
        with pytest.raises(NonDifferentiableError):
            backward_batch(net, forward_batch(net, X), d_out)
        net.remove_element(neuron_ref(1, 1))
        trace = backward_batch(net, forward_batch(net, X), d_out)
        assert_trace_equals_reference(net, trace, X, d_out, True)


class TestDeadNeurons:
    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_stay_zero_beside_an_infinite_input(self, kind):
        """A dead neuron's summator reads inf * 0 = nan, yet its value and
        dL/dsigma stay exactly 0, as in a layer run per kind group."""
        net = build_network((2, 3, 1), activation=kind, seed=1)
        net.remove_element(neuron_ref(1, 1))
        X = np.array([[np.inf, 0.5], [0.25, -0.5]])
        with np.errstate(all="ignore"):
            trace = backward_batch(net, forward_batch(net, X), np.ones((2, 1)))
        assert np.isnan(trace.sigma[1][0, 1])
        assert (trace.values[1][:, 1] == 0.0).all()
        assert (trace.d_sigma[1][:, 1] == 0.0).all()
        assert not np.signbit(trace.values[1][:, 1]).any()


@st.composite
def training_runs(draw):
    """A network and its twin, a ±1 dataset of its labels, a loss and a
    training config."""
    doc, edits = draw(plan_docs()), draw(edit_lists)
    net, twin = loaded(doc, edits), loaded(doc, edits)
    labels = net.output_labels
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.sampled_from([-1.0, 1.0]), min_size=net.input_dim,
                                  max_size=net.input_dim), min_size=n, max_size=n))
    ds = make_dataset(rows, draw(st.lists(st.sampled_from(labels), min_size=n,
                                          max_size=n)), class_labels=labels)
    loss = draw(st.sampled_from([LossKind("mse"), LossKind("margin", 0.5)]))
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
        momentum=draw(st.sampled_from([0.0, 0.5])),
        max_epochs=draw(st.integers(0, 30)),
        loss_threshold=draw(st.sampled_from([0.0, 0.05, 0.5])),
        success_criterion=draw(st.sampled_from(
            ["loss-below-threshold", "zero-classification-error"])),
    )
    return net, twin, ds, loss, cfg


class TestTrainUntilEqualsTheReference:
    @settings(max_examples=120, deadline=None)
    @given(training_runs())
    def test_outcome_and_params(self, run):
        net, twin, ds, loss, cfg = run
        with np.errstate(all="ignore"):
            got = train_until(net, ds, loss, cfg)
            want = reference_train_until(twin, ds, loss, cfg)
        assert repr(got) == repr(want)
        assert same_bits(net.params, twin.params)
