"""Training through one epoch workspace per run equals the plain per-epoch
composition bit for bit.

``train_until`` and ``collect_ledger`` build one ``EpochWorkspace`` per call
and reuse its buffers, targets, label indices and velocity in every epoch.
The plain composition below builds everything afresh each epoch: a
``forward_batch`` with its own buffers, ``loss_terms`` against a fresh
target matrix, label-string accuracy, and a ``train_epoch`` whose
``backward_batch`` reads that fresh trace.  Both must give the same outcome,
network, velocity and indicator map, and raise the same errors at the same
epoch.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucidnet import (
    DivergenceError,
    LossKind,
    NonDifferentiableError,
    SensitivityLedger,
    TrainConfig,
    TrainOutcome,
    ValidSet,
    build_network,
    collect_ledger,
    forward_batch,
    input_ref,
    train_until,
)
from lucidnet import training
from lucidnet.network import BatchTrace, backward_batch
from lucidnet.sensitivity import _sample_magnitudes, _sample_rows
from lucidnet.training import classify_outputs, loss_terms, targets_for

from conftest import edit_lists, make_dataset, single_neuron_net
from test_network_reference import loaded, network_docs

PLAIN_TRAIN_EPOCH = training.train_epoch


def plain_train_until(net, ds, loss, cfg):
    """(outcome, velocity) of the epoch loop with nothing kept between
    epochs but the velocity."""
    velocity = None
    epochs = 0
    while True:
        trace = forward_batch(net, ds.features)
        losses, _ = loss_terms(loss, targets_for(ds, net), trace.outputs)
        total = float(losses.sum())
        if not np.isfinite(total):
            raise DivergenceError("total loss is not finite", epochs)
        preds = classify_outputs(trace.outputs, net.output_labels)
        accuracy = sum(p == a for p, a in zip(preds, ds.labels)) / len(preds)
        by_loss = cfg.success_criterion == "loss-below-threshold"
        met = total <= cfg.loss_threshold if by_loss else accuracy == 1.0
        if met or epochs >= cfg.max_epochs:
            return TrainOutcome(met, epochs, total, accuracy), velocity
        try:
            _, velocity = PLAIN_TRAIN_EPOCH(net, ds, loss, cfg, velocity, trace=trace)
        except DivergenceError as exc:
            exc.epochs += epochs
            raise
        epochs += 1


def plain_ledger(net, ds, loss, cfg, epochs, refs):
    """``collect_ledger`` with fresh buffers and targets every epoch."""
    ledger = SensitivityLedger(refs)
    rows = _sample_rows(net, ledger.refs)
    velocity = None
    for _ in range(epochs):
        trace = forward_batch(net, ds.features)
        d_out = loss_terms(loss, targets_for(ds, net), trace.outputs)[1]
        grads = backward_batch(net, trace, d_out)
        samples = _sample_magnitudes(trace, grads, rows)
        _, velocity = PLAIN_TRAIN_EPOCH(net, ds, loss, cfg, velocity, trace=trace)
        ledger.add_epoch(samples)
    return ledger


def outcome_or_error(run):
    """("returned", value) of a run, or ("raised", type, text, epochs)."""
    try:
        return "returned", run()
    except (DivergenceError, NonDifferentiableError) as exc:
        return "raised", type(exc), str(exc), getattr(exc, "epochs", None)


def spy_velocity():
    """Patch ``training.train_epoch`` to keep a copy of the velocity that
    each call returns; the list holds the last one."""
    last = []

    def spy(*args, **kwargs):
        grads, velocity = PLAIN_TRAIN_EPOCH(*args, **kwargs)
        last[:] = [[(v_w.copy(), v_b.copy()) for v_w, v_b in velocity]]
        return grads, velocity

    return mock.patch.object(training, "train_epoch", spy), last


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def training_cases(draw):
    doc, edits = draw(network_docs()), draw(edit_lists)
    # not a JSON copy: that would renumber slots and reorder the sums
    net, twin = loaded(doc, edits), loaded(doc, edits)
    labels = net.output_labels
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.sampled_from([-1.0, 1.0]), min_size=net.input_dim,
                                  max_size=net.input_dim), min_size=n, max_size=n))
    # a single-output net also meets a label it does not know
    row_labels = labels + ["other"] if net.layers[-1].width == 1 else labels
    ds = make_dataset(rows, draw(st.lists(st.sampled_from(row_labels),
                                          min_size=n, max_size=n)),
                      class_labels=row_labels)
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


class TestTrainUntilEqualsPlainComposition:
    @settings(max_examples=150, deadline=None)
    @given(training_cases())
    def test_outcome_network_and_velocity(self, case):
        net, twin, ds, loss, cfg = case
        patch, last = spy_velocity()
        with patch, np.errstate(all="ignore"):
            got = outcome_or_error(lambda: train_until(net, ds, loss, cfg))
            want = outcome_or_error(lambda: plain_train_until(twin, ds, loss, cfg))
        if want[0] == "returned":
            want, velocity = want[1]
            assert repr(got) == repr(("returned", want))
            if velocity is None:
                assert last == []
            else:
                assert len(last[0]) == len(velocity)
                for (g_w, g_b), (w_w, w_b) in zip(last[0], velocity):
                    assert same_bits(g_w, w_w) and same_bits(g_b, w_b)
        else:
            assert got == want
        assert net.to_json() == twin.to_json()


class TestCollectLedgerEqualsPlainComposition:
    @settings(max_examples=100, deadline=None)
    @given(case=training_cases(), picks=st.lists(st.booleans(), min_size=40,
                                                  max_size=40),
           epochs=st.integers(1, 4), mode=st.sampled_from(["max", "avg"]))
    def test_finalize_map(self, case, picks, epochs, mode):
        net, twin, ds, loss, cfg = case

        def elements(n):  # inputs, hidden neurons, trainable weights
            refs = [input_ref(k) for k in n.active_feature_indices()]
            refs += list(n.iter_neurons(hidden_only=True))
            refs += [ref for ref, _, trainable in n.iter_weights() if trainable]
            return [ref for ref, keep in zip(refs, picks * 4) if keep]

        valid = ValidSet.ternary()
        with np.errstate(all="ignore"):
            got = outcome_or_error(lambda: collect_ledger(
                net, ds, loss, cfg, epochs, elements(net)).finalize(net, mode, valid))
            want = outcome_or_error(lambda: plain_ledger(
                twin, ds, loss, cfg, epochs, elements(twin)).finalize(twin, mode, valid))
        if want[0] == "returned":
            assert list(got[1]) == list(want[1])
            assert [repr(v) for v in got[1].values()] == \
                [repr(v) for v in want[1].values()]
        else:
            assert got == want
        assert net.to_json() == twin.to_json()


def xor_case():
    net = build_network((2, 3, 1), output_labels=["pos", "neg"], seed=5)
    ds = make_dataset([[-1, -1], [-1, 1], [1, -1], [1, 1]],
                      ["neg", "pos", "pos", "neg"], class_labels=["pos", "neg"])
    return net, ds


class TestDivergenceTiming:
    """A non-finite gradient in the k-th step raises with epochs = k (the
    raising epoch counts); a non-finite loss before the k-th step raises
    with epochs = k - 1 (no step was taken)."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_gradient_in_kth_step(self, k):
        def run(loop):
            net, ds = xor_case()
            calls = []

            def backward(net, trace, d_out):
                grads = backward_batch(net, trace, d_out)
                calls.append(None)
                if len(calls) == k:
                    grads.weight_grads[1][0, 0] = np.inf
                return grads

            with mock.patch.object(training, "backward_batch", backward), \
                    pytest.raises(DivergenceError) as caught:
                loop(net, ds, LossKind("mse"), TrainConfig(0.3, max_epochs=10))
            return caught.value.epochs, net.to_json()

        assert run(train_until) == run(plain_train_until)
        assert run(train_until)[0] == k

    @pytest.mark.parametrize("k", [1, 3])
    def test_loss_before_kth_step(self, k):
        net, ds = xor_case()
        calls = []

        def terms(loss_kind, targets, outputs):
            losses, d_out = loss_terms(loss_kind, targets, outputs)
            calls.append(None)
            return (losses + np.inf if len(calls) == k else losses), d_out

        with mock.patch.object(training, "loss_terms", terms), \
                pytest.raises(DivergenceError) as caught:
            train_until(net, ds, LossKind("mse"), TrainConfig(0.3, max_epochs=10))
        assert caught.value.epochs == k - 1
        # the network holds the k - 1 steps taken before the check
        twin, _ = xor_case()
        plain_train_until(twin, ds, LossKind("mse"), TrainConfig(0.3, max_epochs=k - 1))
        assert net.to_json() == twin.to_json()


class TestNonDifferentiableTiming:
    """Only a step raises: a net with a step neuron that already meets its
    criterion, or has no epoch budget, returns without raising."""

    @staticmethod
    def _case(label):
        """A trainable step neuron that reads its one input's sign."""
        net = single_neuron_net([1.0], 0.0, activation="step", trainable=True)
        ds = make_dataset([[1.0], [-1.0]], [label, "O"], class_labels=["P", "O"])
        return net, ds

    def test_met_criterion_returns(self):
        net, ds = self._case("P")
        outcome = train_until(net, ds, LossKind("mse"), TrainConfig(0.1))
        assert outcome == TrainOutcome(True, 0, 0.0, 1.0)

    def test_no_budget_returns(self):
        net, ds = self._case("O")
        outcome = train_until(net, ds, LossKind("mse"),
                              TrainConfig(0.1, max_epochs=0))
        assert not outcome.converged and outcome.epochs_used == 0

    def test_step_raises(self):
        net, ds = self._case("O")
        before = net.to_json()
        with pytest.raises(NonDifferentiableError):
            train_until(net, ds, LossKind("mse"), TrainConfig(0.1))
        assert net.to_json() == before

    def test_hidden_step_neuron_raises_in_ledger_and_training(self):
        _, ds = self._case("O")
        net = build_network((1, 2, 1), output_labels=["P", "O"], seed=0)
        net.set_activation(list(net.iter_neurons())[0], "step")
        before = net.to_json()
        cfg = TrainConfig(0.1, success_criterion="loss-below-threshold",
                          loss_threshold=-1.0)
        with pytest.raises(NonDifferentiableError):
            collect_ledger(net, ds, LossKind("mse"), cfg, 1,
                           list(net.iter_neurons(hidden_only=True)))
        with pytest.raises(NonDifferentiableError):
            train_until(net, ds, LossKind("mse"), cfg)
        assert net.to_json() == before


class TestBatchTrace:
    def test_refuses_other_inputs_and_a_changed_structure(self):
        from lucidnet import StaleReferenceError, synapse_ref

        net, ds = xor_case()
        trace = forward_batch(net, ds.features)
        assert forward_batch(net, ds.features, trace) is trace
        with pytest.raises(StaleReferenceError):
            forward_batch(net, ds.features.copy(), trace)
        net.remove_element(synapse_ref(1, 0, 1))
        with pytest.raises(StaleReferenceError):
            forward_batch(net, ds.features, trace)

    def test_skipped_input_gradients_leave_the_rest_exact(self):
        net, ds = xor_case()
        d_out = np.linspace(-1.0, 1.0, len(ds.labels))[:, None]
        full = backward_batch(net, forward_batch(net, ds.features), d_out)
        trace = BatchTrace(net, ds.features, input_grads=False)
        lean = backward_batch(net, forward_batch(net, ds.features, trace), d_out)
        assert not lean.input_grads.any() and full.input_grads.any()
        for l in range(1, net.n_layers + 1):
            assert same_bits(lean.weight_grads[l], full.weight_grads[l])
            assert same_bits(lean.bias_grads[l], full.bias_grads[l])
            assert same_bits(lean.d_sigma[l], full.d_sigma[l])
            assert same_bits(lean.y_grads[l], full.y_grads[l])
