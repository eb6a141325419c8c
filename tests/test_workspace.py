"""Training through a reused epoch workspace equals the plain per-epoch
composition bit for bit.

``train_until`` and ``collect_ledger`` reuse one ``EpochWorkspace`` (its
buffers, targets, label indices and velocity) in every epoch, and a pruning
stage hands one workspace to all its calls, each of which resets it.  The
plain composition below builds everything afresh each epoch over the
dataset's rows grouped as the workspace groups them (``distinct_groups``,
written out on its own): a ``forward_batch`` into a trace of its own with
the group counts, ``loss_terms`` against a fresh target matrix, summed with
each group's loss times its count, label-string accuracy counting each
group's rows, and a ``train_epoch`` whose ``backward_batch`` reads that
fresh trace.  Both must give the same outcome,
network, velocity and indicator map, and raise the same errors at the same
epoch.  A reset trace must be in the state of a new one, the chunked ledger
must equal the per-sample indicator formulas, and a stage that reuses its
workspace must log and leave what one with a fresh workspace per call does.
"""

import io
import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucidnet import (
    DatasetError,
    DivergenceError,
    LossKind,
    Network,
    NonDifferentiableError,
    PruneConfig,
    PruningProblem,
    SensitivityLedger,
    StaleReferenceError,
    TrainConfig,
    TrainOutcome,
    ValidSet,
    build_network,
    candidate_pool,
    collect_ledger,
    forward_batch,
    input_ref,
    nearest_valid,
    neuron_ref,
    run_pipeline,
    synapse_ref,
    train_until,
)
from lucidnet import pruning, sensitivity, training
from lucidnet.network import BatchTrace, backward_batch
from lucidnet.training import EpochWorkspace, loss_terms, targets_for

from conftest import (
    apply_edits,
    classify_outputs,
    distinct_groups,
    edit_lists,
    majority_dataset,
    make_dataset,
    single_neuron_net,
)
from indicator_reference import (
    aggregate_samples,
    input_indicator_sample,
    neuron_indicator_sample,
    weight_gradient_sample,
)
from ref_pools import by_class, collect_ratings
from sample_reference import ForwardTrace, GradientBundle
from test_network_reference import loaded, network_docs

PLAIN_TRAIN_EPOCH = training.train_epoch


def grouped_forward(net, ds):
    """(dataset of the groups' first rows, its trace with the group
    counts) of one forward pass over the groups of ``ds``."""
    reps, counts = distinct_groups(ds, net)
    return reps, forward_batch(net, reps.features,
                               BatchTrace(net, reps.features, True, counts))


def plain_step(net, reps, loss, cfg, velocity=None, *, trace):
    """``train_epoch`` on a fresh ``trace`` of ``net`` over the groups'
    first rows ``reps``, with loss terms against a fresh target matrix and
    ``velocity`` (zero when None); returns (trace, velocity)."""
    losses, d_out = loss_terms(loss, targets_for(reps, net), trace.outputs)
    if velocity is None:
        velocity = np.zeros_like(net.params)
    work = SimpleNamespace(net=net, trace=trace, velocity=velocity)
    PLAIN_TRAIN_EPOCH(work, cfg, (float((losses * trace.counts).sum()), d_out))
    return trace, velocity


def plain_train_until(net, ds, loss, cfg, stepper=plain_step):
    """(outcome, velocity) of the epoch loop with nothing kept between
    epochs but the velocity, stepping with ``stepper``."""
    velocity = None
    epochs = 0
    while True:
        reps, trace = grouped_forward(net, ds)
        losses, _ = loss_terms(loss, targets_for(reps, net), trace.outputs)
        total = float((losses * trace.counts).sum())
        if not np.isfinite(total):
            raise DivergenceError("total loss is not finite", epochs)
        preds = classify_outputs(trace.outputs, net.output_labels)
        hits = sum(int(count) for p, a, count in zip(preds, reps.labels, trace.counts)
                   if p == a)
        accuracy = hits / len(ds)
        by_loss = cfg.success_criterion == "loss-below-threshold"
        met = total <= cfg.loss_threshold if by_loss else accuracy == 1.0
        if met or epochs >= cfg.max_epochs:
            return TrainOutcome(met, epochs, total, accuracy), velocity
        try:
            _, velocity = stepper(net, reps, loss, cfg, velocity, trace=trace)
        except DivergenceError as exc:
            exc.epochs += epochs
            raise
        epochs += 1


def plain_ledger(net, ds, loss, cfg, epochs, element_class, pool, mode):
    """``collect_ledger`` with fresh buffers and targets every epoch."""
    ledger = SensitivityLedger(net, element_class, pool, distinct_groups(ds, net)[1], mode)
    velocity = None
    for _ in range(epochs):
        reps, trace = grouped_forward(net, ds)
        _, velocity = plain_step(net, reps, loss, cfg, velocity, trace=trace)
        samples = np.empty((len(ledger.index), len(reps.labels)))
        ledger.sample(trace, samples)
        ledger.add_epoch(samples)
    return ledger


def outcome_or_error(run):
    """("returned", value) of a run, or ("raised", type, text, epochs)."""
    try:
        return "returned", run()
    except (DatasetError, DivergenceError, NonDifferentiableError) as exc:
        return "raised", type(exc), str(exc), getattr(exc, "epochs", None)


def spy_velocity():
    """Patch ``training.train_epoch`` to keep a copy of the velocity that
    each call leaves in its workspace; the list holds the last one."""
    last = []

    def spy(work, config, terms):
        PLAIN_TRAIN_EPOCH(work, config, terms)
        last[:] = [work.velocity.copy()]

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
    # a single-output net also meets a label it does not know, and refuses it
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
                assert same_bits(last[0], velocity)
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
            got = outcome_or_error(lambda: collect_ratings(
                net, ds, loss, cfg, epochs, elements(net), mode, valid))
            want = outcome_or_error(lambda: collect_ratings(
                twin, ds, loss, cfg, epochs, elements(twin), mode, valid, plain_ledger))
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
            collect_ledger(net, ds, LossKind("mse"), cfg, 1, "neuron",
                           candidate_pool(net, PruningProblem("neuron-removal")), "avg")
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
        assert not lean.y_grads[0].any() and full.y_grads[0].any()
        for l in range(1, net.n_layers + 1):
            assert same_bits(lean.weight_grads[l], full.weight_grads[l])
            assert same_bits(lean.bias_grads[l], full.bias_grads[l])
            assert same_bits(lean.d_sigma[l], full.d_sigma[l])
            assert same_bits(lean.y_grads[l], full.y_grads[l])


# -- stage-long reuse -----------------------------------------------------

def trace_state(trace):
    """What ``forward_batch`` and ``backward_batch`` read of a trace before
    they write it: the value matrix, the dL/dsigma blocks and the flags."""
    return ([trace.activations.tobytes()] + [d.tobytes() for d in trace.d_sigma[1:]]
            + [trace.version, trace.smooth, trace.input_grads])


@st.composite
def reuse_cases(draw):
    """A network, its twin, inputs with nan in masked features, edits to
    make after the trace is used, whether a hidden neuron then turns to a
    step, and whether the reset trace computes input gradients."""
    doc, edits, later = draw(network_docs()), draw(edit_lists), draw(edit_lists)
    net, twin = loaded(doc, edits), loaded(doc, edits)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-1.0, 1.0, size=(draw(st.integers(1, 6)), net.input_dim))
    X[:, [k for k in range(net.input_dim) if not net.active_inputs[k]]] = np.nan
    return net, twin, X, later, draw(st.booleans()), draw(st.booleans())


class TestTraceReset:
    """``BatchTrace.reset`` after structural edits gives exactly the state
    of a new trace, so every pass through it matches a new trace's."""

    @settings(max_examples=120, deadline=None)
    @given(reuse_cases())
    def test_reset_equals_a_new_trace(self, case):
        net, twin, X, later, step, input_grads = case
        trace = BatchTrace(net, X, input_grads=True)
        d_out = np.linspace(-1.0, 1.0, X.shape[0] * net.layers[-1].width)
        d_out = d_out.reshape(X.shape[0], -1)
        with np.errstate(all="ignore"):
            backward_batch(net, forward_batch(net, X, trace), d_out)
        for other in (net, twin):
            apply_edits(other, later)
            hidden = list(other.iter_neurons(hidden_only=True))
            if step and hidden:
                other.set_activation(hidden[0], "step")
        if net._version != trace.version:  # only reset rebinds the trace
            with pytest.raises(StaleReferenceError):
                forward_batch(net, X, trace)
        trace.reset(net, input_grads)
        fresh = BatchTrace(twin, X, input_grads)
        assert trace_state(trace) == trace_state(fresh)
        with np.errstate(all="ignore"):
            got = outcome_or_error(lambda: backward_batch(
                net, forward_batch(net, X, trace), d_out))
            want = outcome_or_error(lambda: backward_batch(
                twin, forward_batch(twin, X, fresh), d_out))
        assert got[0] == want[0]
        if got[0] == "returned":
            for name in ("weight_grads", "bias_grads"):
                for g, w in zip(getattr(got[1], name)[1:], getattr(want[1], name)[1:]):
                    assert same_bits(g, w)
            assert same_bits(trace.G, fresh.G)
            assert same_bits(trace.activations, fresh.activations)

    def test_workspace_reset_zeroes_the_velocity(self):
        net, ds = xor_case()
        work = EpochWorkspace(net, ds, LossKind("mse"))
        train_until(net, ds, LossKind("mse"), TrainConfig(0.3, 0.9, max_epochs=5), work)
        assert work.velocity.any()
        net.remove_element(synapse_ref(1, 0, 1))
        assert work.reset() is work
        fresh = EpochWorkspace(net, ds, LossKind("mse"))
        assert same_bits(work.velocity, fresh.velocity)
        assert trace_state(work.trace) == trace_state(fresh.trace)

    def test_a_workspace_of_another_run_is_refused(self):
        net, ds = xor_case()
        other, _ = xor_case()
        work = EpochWorkspace(net, ds, LossKind("mse"))
        cfg = TrainConfig(0.3)
        for args in ((other, ds, LossKind("mse")), (net, ds, LossKind("margin"))):
            with pytest.raises(ValueError, match="another network"):
                train_until(*args, cfg, work)
            with pytest.raises(ValueError, match="another network"):
                collect_ledger(*args, cfg, 1, "weight", [], "avg", work)


def per_sample_records(net, trace):
    """Each sample's forward record and gradient bundle, read off one batch
    pass whose gradients ``backward_batch`` wrote into ``trace``."""
    off = net.offsets
    weights = [(ref, ref.layer, ref.neuron, None if ref.kind == "bias"
                else net.layers[ref.layer - 1].slots[ref.neuron][ref.slot - 1])
               for ref, _, _ in net.iter_weights()]
    records = []
    for j in range(len(trace.activations)):
        bundle = GradientBundle()
        for ref, l, i, col in weights:
            d_sigma = trace.d_sigma[l][j, i]
            bundle.weights[ref] = (d_sigma if col is None
                                   else d_sigma * trace.activations[j, col])
        for ref in net.iter_neurons():
            bundle.neurons[ref] = trace.G[j, off[ref.layer] + ref.neuron]
        for k in net.active_feature_indices():
            bundle.inputs[k] = trace.G[j, k]
        record = ForwardTrace(trace.activations[j, : off[1]], None,
                              [v[j] for v in trace.values[1:]], trace.outputs[j])
        records.append((record, bundle))
    return records


def reference_ledger_map(net, ds, loss, cfg, epochs, pool, mode, valid):
    """The finalized map of ``collect_ledger``, built element by element
    and group by group with the formulas of ``indicator_reference``."""
    sums = dict.fromkeys(pool, 0.0)
    velocity = None
    for _ in range(epochs):
        reps, trace = grouped_forward(net, ds)
        _, velocity = plain_step(net, reps, loss, cfg, velocity, trace=trace)
        records = per_sample_records(net, trace)
        for ref in pool:
            if ref.kind == "input":
                values = [input_indicator_sample(r, b, ref.neuron) for r, b in records]
            elif ref.kind == "neuron":
                values = [neuron_indicator_sample(net, r, b, ref) for r, b in records]
            else:
                values = [weight_gradient_sample(net, b, ref) for _, b in records]
            sums[ref] += aggregate_samples(values, mode, trace.counts)
    out = {}
    for ref in pool:
        out[ref] = sums[ref] / epochs
        if ref.kind in ("synapse", "bias"):
            weight = net.weight(ref)
            out[ref] *= abs(nearest_valid(weight, valid) - weight)
    return out


def every_element(net):
    """Active inputs, hidden neurons and trainable weights, biases too."""
    refs = [input_ref(k) for k in net.active_feature_indices()]
    refs += list(net.iter_neurons(hidden_only=True))
    return refs + [ref for ref, _, trainable in net.iter_weights() if trainable]


@st.composite
def ledger_cases(draw):
    sizes = (draw(st.integers(1, 6)), draw(st.integers(1, 7)),
             draw(st.integers(1, 5)), draw(st.integers(1, 2)))
    labels = ["pos", "neg"] if sizes[-1] == 1 else ["c0", "c1"]
    seed, edits = draw(st.integers(0, 2**31)), draw(edit_lists)
    activation = draw(st.sampled_from(["tanh", "sigmoid"]))
    net, twin = (build_network(sizes, activation, labels, seed) for _ in range(2))
    apply_edits(net, edits)
    apply_edits(twin, edits)
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 140))  # past numpy's pairwise-summation block
    ds = make_dataset(rng.choice([-1.0, 1.0], size=(n, sizes[0])),
                      rng.choice(labels, size=n), class_labels=labels)
    picks = draw(st.lists(st.booleans(), min_size=120, max_size=120))
    pool = [ref for ref, keep in zip(every_element(net), picks) if keep]
    pool = [pool[i] for i in draw(st.permutations(range(len(pool))))]
    cfg = TrainConfig(learning_rate=draw(st.sampled_from([0.0, 0.05, 0.3])),
                      momentum=draw(st.sampled_from([0.0, 0.5])))
    loss = draw(st.sampled_from([LossKind("mse"), LossKind("margin", 0.5)]))
    return net, twin, ds, loss, cfg, pool


class TestLedgerEqualsPerSampleReference:
    """The chunked ledger rates every ref as the per-sample formulas do,
    bit for bit: shuffled pools mix inputs, neurons, and the biases and
    synapses of several layers, rated by one ledger per class in turn, and,
    with the chunk bound drawn down to a few refs' samples, often hold more
    than one chunk of refs reading one gradient block."""

    @staticmethod
    def check(net, twin, ds, loss, cfg, pool, epochs, mode):
        valid = ValidSet.ternary()
        got = collect_ratings(net, ds, loss, cfg, epochs, pool, mode, valid)
        want = {}
        for _, refs in by_class(pool):
            want.update(reference_ledger_map(twin, ds, loss, cfg, epochs, refs, mode, valid))
        assert len(got) == len(pool)
        assert [repr(got[ref]) for ref in pool] == [repr(want[ref]) for ref in pool]
        assert net.to_json() == twin.to_json()

    @settings(max_examples=60, deadline=None)
    @given(case=ledger_cases(), epochs=st.integers(1, 3),
           mode=st.sampled_from(["max", "avg"]),
           chunk=st.sampled_from([sensitivity._CHUNK, 1, 140, 7 * 140]))
    def test_shuffled_pools(self, case, epochs, mode, chunk):
        with mock.patch.object(sensitivity, "_CHUNK", chunk):
            self.check(*case, epochs, mode)

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_whole_pool_of_a_wide_net(self, mode, monkeypatch):
        nets = [build_network((6, 7, 5, 2), seed=3) for _ in range(2)]
        for net in nets:
            net.remove_element(neuron_ref(1, 4))
            net.set_weight(synapse_ref(2, 1, 2), 1.0, freeze=True)
        rng = np.random.default_rng(4)
        ds = make_dataset(rng.choice([-1.0, 1.0], size=(200, 6)),
                          rng.choice(["class0", "class1"], size=200),
                          class_labels=["class0", "class1"])
        pool = every_element(nets[0])
        pool = [pool[i] for i in rng.permutation(len(pool))]
        layer1 = [ref for ref in pool if ref.kind == "synapse" and ref.layer == 1]
        # chunks of 16 refs' samples, so that layer 1's synapses take several
        monkeypatch.setattr(sensitivity, "_CHUNK", 16 * len(distinct_groups(ds, nets[0])[1]))
        assert len(layer1) > 2 * (sensitivity._CHUNK // len(distinct_groups(ds, nets[0])[1]))
        self.check(*nets, ds, LossKind("mse"), TrainConfig(0.05, 0.5), pool, 3, mode)


def fresh_per_call(monkeypatch):
    """Make the pruning loop drop its stage workspace, so that every
    ``collect_ledger`` and ``train_until`` call builds its own."""
    until, ledger = pruning.train_until, pruning.collect_ledger
    monkeypatch.setattr(pruning, "train_until", lambda *args: until(*args[:4]))
    monkeypatch.setattr(pruning, "collect_ledger", lambda *args: ledger(*args[:8]))


def count_workspaces(monkeypatch):
    built = []

    class Counted(EpochWorkspace):
        def __init__(self, *args, **kwargs):
            built.append(None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(training, "EpochWorkspace", Counted)
    monkeypatch.setattr(pruning, "EpochWorkspace", Counted)
    return built


PIPELINE = [
    (PruningProblem("feature-selection"), "basic", 200),
    (PruningProblem("neuron-removal"), "accelerated", 200),
    (PruningProblem("synapse-removal"), "accelerated", 4),
    (PruningProblem("precision-reduction", valid_set=ValidSet.ternary()), "basic", 30),
]


@pytest.fixture(scope="module")
def trained_majority():
    ds = majority_dataset()
    net = build_network((8, 5, 3, 1), output_labels=["pos", "neg"], seed=2)
    cfg = TrainConfig(learning_rate=0.01, momentum=0.5, max_epochs=2000)
    assert train_until(net, ds, LossKind("mse"), cfg).converged
    return net.to_json(), ds


class TestStageWorkspace:
    """A pruning stage that reuses one workspace for every ledger and
    retrain logs and leaves exactly what a stage with a fresh workspace
    per call does."""

    @staticmethod
    def pipeline(text, ds, monkeypatch, fresh):
        if fresh:
            fresh_per_call(monkeypatch)
        built = count_workspaces(monkeypatch)
        net = Network.from_json(text)
        logs, counts = [], []
        for problem, loop, budget in PIPELINE:
            sink = io.StringIO()
            config = PruneConfig(problem, TrainConfig(0.01, 0.5, max_epochs=budget),
                                 accumulation_epochs=2, loop=loop, log_sink=sink)
            start = len(built)
            (result,), net = run_pipeline(net, ds, [config])
            logs.append(sink.getvalue())
            counts.append((len(built) - start, len(result.steps)))
        monkeypatch.undo()
        return logs, net.to_json(), counts

    def test_logs_and_network_equal_fresh_workspaces(self, trained_majority,
                                                     monkeypatch):
        text, ds = trained_majority
        logs, final, counts = self.pipeline(text, ds, monkeypatch, fresh=False)
        assert (logs, final) == self.pipeline(text, ds, monkeypatch, fresh=True)[:2]
        assert [built for built, _ in counts] == [1] * len(PIPELINE)
        records = [[json.loads(line) for line in log.splitlines()] for log in logs]
        features, neurons, synapses, precision = records
        # the stages did what this test is about
        assert any(r["accepted"] and r["refs"] for r in features)
        assert any(r["accepted"] and r["cascade"] for r in neurons)
        for stage in (neurons, synapses):
            # a rejected step restores the snapshot, and a later step of
            # the same stage, accepted, runs on the reused workspace
            flags = [r["accepted"] for r in stage]
            assert (False, True) in zip(flags, flags[1:])
            assert any(r["epochs_used"] > 0 for r in stage)
        assert any(r["accepted"] for r in precision)
        assert '"trainable":false' in final
