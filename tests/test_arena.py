"""The parameter arena: every weight and bias of a network in one flat
``params`` vector and every trainable flag in one ``trainable`` mask of
the same layout, each a fixed view of the network's state record beside
``alive``, ``active_inputs`` and ``codes``, with per-layer views of them,
and one flat gradient and velocity in that layout too.

Every edit writes through the views, so after any construction, edit,
training step or restore the fields must still be the views the network
was made with, tiling its record; and the flat epoch update must equal the
per-layer update it replaced (``training_reference``) bit for bit:
outcome, network and velocity.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucidnet import (
    DivergenceError,
    LossKind,
    Network,
    TrainConfig,
    build_network,
    neuron_ref,
    synapse_ref,
    train_until,
)
from lucidnet import training
from lucidnet.network import backward_batch, forward_batch
from lucidnet.training import EpochWorkspace

from conftest import apply_edits, edit_lists, make_dataset, step
from test_network_reference import network_docs
from test_workspace import (
    outcome_or_error,
    plain_train_until,
    same_bits,
    training_cases,
    xor_case,
)
from training_reference import flat_velocity, per_layer_train_epoch


FIELDS = ("params", "trainable", "alive", "active_inputs", "codes")


def fields(net):
    return [getattr(net, name) for name in FIELDS]


def assert_adopted(net, made=None):
    """The fields are C-contiguous views that tile the state record in the
    order of ``FIELDS``, the very arrays ``made`` (the network's fields when
    it was made) when given; and ``views`` of the flat vectors gives views
    of them holding, in order, weights 1, bias 1, weights 2, ..."""
    arrays = fields(net)
    if made is not None:
        assert all(a is b for a, b in zip(arrays, made)), "a field was rebound"
    base, offset = net.state.__array_interface__["data"][0], 0
    for name, array in zip(FIELDS, arrays):
        assert np.shares_memory(array, net.state), f"{name} is not a view"
        assert array.flags.c_contiguous
        assert array.__array_interface__["data"][0] - base == offset, name
        offset += array.nbytes
    assert offset == net.state.nbytes
    for flat in (net.params, net.trainable, net.alive):
        parts = [v for pair in net.views(flat) for v in pair]
        for l, layer in enumerate(net.layers, start=1):
            assert parts[2 * l - 2].shape == (layer.width, net.offsets[l])
            assert parts[2 * l - 1].shape == (layer.width,)
        assert same_bits(np.concatenate([part.ravel() for part in parts]), flat)
        assert all(np.shares_memory(part, flat) for part in parts)


class TestAdoption:
    def test_built_network(self):
        net = build_network((5, 4, 3, 2), seed=1)
        assert_adopted(net)
        assert len(net.params) == 4 * 5 + 4 + 3 * 9 + 3 + 2 * 12 + 2
        assert net.params.dtype == np.float64 and net.trainable.dtype == bool
        assert net.state.dtype == np.uint8 and net.alive.dtype == bool
        assert len(net.active_inputs) == 5 and len(net.codes) == 4 + 3 + 2

    def test_cascade_freeze_training_and_restore(self):
        net = build_network((3, 2, 2, 1), seed=4)
        ds = make_dataset([[1, -1, 1], [-1, 1, 1]], ["pos", "neg"],
                          class_labels=["pos", "neg"])
        made, snap, text = fields(net), net.snapshot(), net.to_json()
        assert net.remove_element(neuron_ref(2, 0))  # cascades
        net.set_weight(synapse_ref(2, 1, 2), 1.0, freeze=True)
        assert_adopted(net, made)
        train_until(net, ds, LossKind("mse"), TrainConfig(0.3, 0.5, max_epochs=3))
        assert_adopted(net, made)
        net.restore(snap)
        assert_adopted(net, made)
        assert net.to_json() == text

    @settings(max_examples=150, deadline=None)
    @given(doc=network_docs(), edits=edit_lists, more=edit_lists,
           freeze=st.integers(0, 10**6))
    def test_edits_and_restore_keep_the_views(self, doc, edits, more, freeze):
        net = Network.from_doc(doc)
        made = fields(net)
        assert_adopted(net)
        net.audit_structure()
        apply_edits(net, edits)
        assert_adopted(net, made)
        text, snap = net.to_json(), net.snapshot()
        apply_edits(net, more)  # removals with their cascades, freezes
        refs = [ref for ref, _, _ in net.iter_weights()]
        net.set_weight(refs[freeze % len(refs)], -1.0, freeze=True)
        assert_adopted(net, made)
        net.restore(snap)
        assert_adopted(net, made)
        assert net.to_json() == text
        assert Network.from_json(text).to_json() == text


class TestGradientLayout:
    def test_views_of_the_trace_gradient(self):
        net = build_network((4, 3, 2), seed=2)
        net.remove_element(synapse_ref(1, 1, 2))
        rng = np.random.default_rng(0)
        X = rng.uniform(-1.0, 1.0, size=(9, 4))
        trace = forward_batch(net, X)
        grad = trace.grad
        assert backward_batch(net, trace, rng.uniform(-1.0, 1.0, size=(9, 2))) is trace
        assert trace.grad is grad and grad.shape == net.params.shape
        A = trace.activations
        parts = []
        for l in range(1, net.n_layers + 1):
            d_sigma = trace.d_sigma[l]
            assert np.shares_memory(trace.weight_grads[l], grad)
            assert np.shares_memory(trace.bias_grads[l], grad)
            # what a fresh product and sum give, each in its own array
            parts += [(d_sigma.T @ A[:, : net.offsets[l]]).ravel(), d_sigma.sum(axis=0)]
        assert same_bits(np.concatenate(parts), grad)
        # a second pass writes the same buffers again
        again = backward_batch(net, forward_batch(net, X, trace),
                               np.zeros((9, 2)))
        assert again.grad is grad and not grad.any()

    def test_a_non_finite_gradient_anywhere_diverges(self):
        for where in ("weight_grads", "bias_grads"):
            net, ds = xor_case()

            def backward(net, trace, d_out):
                grads = backward_batch(net, trace, d_out)
                getattr(grads, where)[-1][0] = np.nan
                return grads

            with mock.patch.object(training, "backward_batch", backward), \
                    pytest.raises(DivergenceError, match="gradient"):
                step(EpochWorkspace(net, ds, LossKind("mse")), TrainConfig(0.3))


class TestFlatUpdateEqualsPerLayer:
    """``train_until`` with the flat update equals the epoch loop stepping
    with the per-layer reference, on random nets with dead and frozen
    elements, momentum 0 and 0.5, and learning rate 0."""

    @settings(max_examples=150, deadline=None)
    @given(training_cases())
    def test_outcome_network_and_velocity(self, case):
        net, twin, ds, loss, cfg = case

        def flat_run():
            work = EpochWorkspace(net, ds, loss)
            return train_until(net, ds, loss, cfg, work), work.velocity

        with np.errstate(all="ignore"):
            got = outcome_or_error(flat_run)
            want = outcome_or_error(lambda: plain_train_until(
                twin, ds, loss, cfg, per_layer_train_epoch))
        if want[0] == "returned":
            assert got[0] == "returned"
            (outcome, velocity), (want_outcome, want_velocity) = got[1], want[1]
            assert repr(outcome) == repr(want_outcome)
            assert same_bits(velocity, flat_velocity(twin, want_velocity))
        else:
            assert got == want
        assert net.to_json() == twin.to_json()
        assert same_bits(net.params, twin.params)
        assert same_bits(net.trainable, twin.trainable)

    @pytest.mark.parametrize("lr, momentum", [(0.0, 0.0), (0.0, 0.5), (0.3, 0.0),
                                              (0.3, 0.5)])
    def test_xor_steps(self, lr, momentum):
        net, ds = xor_case()
        twin, _ = xor_case()
        for other in (net, twin):
            other.set_weight(synapse_ref(1, 0, 2), -0.0, freeze=True)
            other.remove_element(synapse_ref(1, 2, 1))
        cfg = TrainConfig(lr, momentum, max_epochs=7)
        work, want = EpochWorkspace(net, ds, LossKind("mse")), None
        for _ in range(7):
            step(work, cfg)
            _, want = per_layer_train_epoch(twin, ds, LossKind("mse"), cfg, want)
            assert same_bits(work.velocity, flat_velocity(twin, want))
            assert same_bits(net.params, twin.params)

    def test_a_weight_frozen_mid_run_ignores_its_momentum(self):
        # the velocity still holds momentum for the weight; only the mask
        # of the step keeps it from moving
        net, ds = xor_case()
        twin, _ = xor_case()
        cfg = TrainConfig(0.3, 0.9)
        work, want = EpochWorkspace(net, ds, LossKind("mse")), None
        for epoch in range(6):
            if epoch == 3:
                for other in (net, twin):
                    other.set_weight(synapse_ref(1, 1, 1), 0.25, freeze=True)
                work.trace.reset(net)  # rebound to the edit; the velocity is kept
            step(work, cfg)
            _, want = per_layer_train_epoch(twin, ds, LossKind("mse"), cfg, want)
            assert same_bits(work.velocity, flat_velocity(twin, want))
            assert same_bits(net.params, twin.params)
        assert net.weight(synapse_ref(1, 1, 1)) == 0.25
        position = net.views(np.arange(len(net.params)))[0][0]  # layer 1 weights
        assert work.velocity[position[1, 0]] != 0.0

