"""An epoch runs once per group of rows that are equal on the network's
active inputs and have one label, each group weighted by its size.

``EpochWorkspace`` keeps each group's first row, in order of first
occurrence, with its count, and regroups whenever the active inputs
change.  Full-batch descent on repeated rows is descent on the distinct
rows weighted by how often each occurs, so on data with repeated rows the
weighted loss, accuracy, gradient and indicators must equal a plain
per-row pass up to rounding.  Only up to rounding: besides the order of
the sums, a matrix product's row can round differently with the number of
rows and the row's place in them, since the BLAS kernel blocks them
(numpy 2.4 on OpenBLAS 0.3.31: 78 of 3,000 random shapes had a row that differs
in the last bit between ``(X @ W.T)[rows]`` and ``X[rows] @ W.T``).  What
is exact is that the max indicator of the groups equals the max over the
rows, each read off its group.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucidnet import (
    InputShapeError,
    LossKind,
    TrainConfig,
    ValidSet,
    build_network,
    collect_ledger,
    input_ref,
    nearest_valid,
    synapse_ref,
)
from lucidnet.network import BatchTrace, backward_batch, forward_batch
from lucidnet.training import EpochWorkspace, distinct_rows, loss_terms, targets_for

from conftest import apply_edits, distinct_groups, edit_lists, make_dataset
from ref_pools import by_class, pool_of, rating_map
import test_workspace
from test_workspace import every_element


def groups(work):
    return work.rows.tolist(), work.trace.counts.tolist()


class TestGroups:
    def test_rows_equal_on_the_inputs_but_not_in_label_stay_apart(self):
        net = build_network((2, 3, 1), output_labels=["pos", "neg"], seed=1)
        ds = make_dataset([[1, -1], [1, -1], [1, -1], [-1, 1]],
                          ["pos", "neg", "pos", "neg"], class_labels=["pos", "neg"])
        work = EpochWorkspace(net, ds, LossKind("mse"))
        assert groups(work) == ([0, 1, 3], [2.0, 1.0, 1.0])
        assert work.trace.activations.shape[0] == 3

    def test_removing_an_input_regroups_and_restore_returns(self):
        net = build_network((3, 4, 1), output_labels=["pos", "neg"], seed=2)
        ds = make_dataset([[1, 1, 1], [1, -1, 1], [-1, 1, 1], [1, 1, -1], [1, -1, -1]],
                          ["pos", "pos", "neg", "pos", "pos"],
                          class_labels=["pos", "neg"])
        work = EpochWorkspace(net, ds, LossKind("mse"))
        parent = groups(work)
        assert parent == ([0, 1, 2, 3, 4], [1.0] * 5)
        saved = net.snapshot()
        net.remove_element(input_ref(1))
        work.reset()
        assert groups(work) == ([0, 2, 3], [2.0, 1.0, 2.0])
        assert work.trace.net is net and work.trace.version == net._version
        net.restore(saved)
        work.reset()
        assert groups(work) == parent
        assert work.trace.activations[:, :3].tolist() == ds.features.tolist()

    def test_a_cascade_that_masks_an_input_regroups(self):
        net = build_network((2, 1, 1), output_labels=["pos", "neg"], seed=3)
        ds = make_dataset([[1, 1], [1, -1], [-1, 1]], ["pos", "pos", "neg"],
                          class_labels=["pos", "neg"])
        work = EpochWorkspace(net, ds, LossKind("mse"))
        # the hidden neuron's synapse from input 1 is the input's only use
        removed = net.remove_element(synapse_ref(1, 0, 2))
        assert input_ref(1) in removed
        work.reset()
        assert groups(work) == ([0, 2], [2.0, 1.0])

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
    def test_the_key_has_no_width_limit(self, width):
        # rows that differ only in their last input, and one repeat
        rows = np.ones((3, width))
        rows[1, -1] = -1.0
        ds = make_dataset(rows, ["pos"] * 3, class_labels=["pos", "neg"])
        first, counts = distinct_rows(ds, [True] * width)
        assert (first.tolist(), counts.tolist()) == ([0, 1], [2.0, 1.0])
        first, counts = distinct_rows(ds, [True] * (width - 1) + [False])
        assert (first.tolist(), counts.tolist()) == ([0], [3.0])

    @settings(max_examples=60, deadline=None)
    @given(width=st.integers(1, 90), n=st.integers(1, 60),
           patterns=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_equal_to_the_plain_grouping(self, width, n, patterns, seed):
        rng = np.random.default_rng(seed)
        pool = rng.choice([-1.0, 1.0], size=(patterns, width))
        rows = pool[rng.integers(0, patterns, size=n)]
        active = rng.random(width) < 0.7
        ds = make_dataset(rows, rng.choice(["a", "b"], size=n), class_labels=["a", "b"])
        first, counts = distinct_rows(ds, active)
        reps, want = distinct_groups(ds, _Active(active))
        assert ds.features[first].tolist() == reps.features.tolist()
        assert [ds.labels[j] for j in first] == reps.labels
        assert counts.tolist() == want.tolist()


class _Active:
    def __init__(self, active):
        self.active_inputs = list(active)


@st.composite
def repeated_cases(draw):
    """A network with edits and a ±1 dataset drawn from a few patterns, so
    that rows repeat."""
    sizes = (draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 2)))
    labels = ["pos", "neg"] if sizes[-1] == 1 else ["c0", "c1"]
    seed = draw(st.integers(0, 2**31))
    net = build_network(sizes, draw(st.sampled_from(["tanh", "sigmoid"])), labels, seed)
    apply_edits(net, draw(edit_lists))
    rng = np.random.default_rng(seed)
    pool = rng.choice([-1.0, 1.0], size=(draw(st.integers(1, 6)), sizes[0]))
    n = draw(st.integers(1, 80))
    ds = make_dataset(pool[rng.integers(0, len(pool), size=n)],
                      rng.choice(labels, size=n), class_labels=labels)
    loss = draw(st.sampled_from([LossKind("mse"), LossKind("margin", 0.5)]))
    return net, ds, loss


def per_row(net, ds, loss):
    """(total loss, accuracy, gradient, per-row dL/dsigma and activations)
    of one plain pass over every row."""
    trace = forward_batch(net, ds.features)
    losses, d_out = loss_terms(loss, targets_for(ds, net), trace.outputs)
    outputs = trace.outputs
    picks = (np.where(outputs[:, 0] >= 0.0, 0, 1) if outputs.shape[1] == 1
             else np.argmax(outputs, axis=1))
    want = [net.output_labels.index(label) for label in ds.labels]
    accuracy = int(np.count_nonzero(picks == want)) / len(ds)
    backward_batch(net, trace, d_out)
    return float(losses.sum()), accuracy, trace


def magnitude(net, trace):
    """The gradient of the sum of each term's magnitude: the scale that the
    rounding of a reordered sum is relative to."""
    parts = []
    for l in range(1, net.n_layers + 1):
        d_sigma = np.abs(trace.d_sigma[l])
        parts += [(d_sigma.T @ np.abs(trace.activations[:, : net.offsets[l]])).ravel(),
                  d_sigma.sum(axis=0)]
    return np.concatenate(parts)


class TestGroupedEqualsPerRow:
    @settings(max_examples=120, deadline=None)
    @given(repeated_cases())
    def test_loss_accuracy_and_gradient(self, case):
        net, ds, loss = case
        work = EpochWorkspace(net, ds, loss)
        total, d_out = work.evaluate()
        accuracy = work.judge(TrainConfig(0.1), total)[1]
        backward_batch(net, work.trace, d_out)
        want_total, want_accuracy, trace = per_row(net, ds, loss)
        assert total == pytest.approx(want_total, rel=1e-12, abs=1e-300)
        assert accuracy == want_accuracy
        bound = 1e-12 * magnitude(net, trace)
        assert (np.abs(work.trace.grad - trace.grad) <= bound).all()

    @settings(max_examples=80, deadline=None)
    @given(case=repeated_cases(), picks=st.lists(st.booleans(), min_size=60,
                                                  max_size=60))
    def test_indicators(self, case, picks):
        net, ds, loss = case
        pool = [ref for ref, keep in zip(every_element(net), picks) if keep]
        valid = ValidSet.ternary()
        work = EpochWorkspace(net, ds, loss)
        # one epoch's samples, and a step of zero; one ledger per class and
        # mode, each from the same start state
        start = net.snapshot()
        for _, refs in by_class(pool):
            got = {}
            for mode in ("max", "avg"):
                net.restore(start)
                ledger = collect_ledger(net, ds, loss, TrainConfig(0.0), 1,
                                        *pool_of(net, refs), mode, work)
                got[mode] = rating_map(net, ledger, valid)
            group = group_of_each_row(work)
            _, _, trace = per_row(net, ds, loss)
            for ref in refs:
                scale = 1.0
                if ref.kind in ("synapse", "bias"):
                    scale = abs(nearest_valid(net.weight(ref), valid) - net.weight(ref))
                # the max of the groups is the max of their rows
                assert got["max"][ref] == _samples(net, work.trace, ref)[group].max() * scale
                plain = _samples(net, trace, ref)
                assert got["max"][ref] == pytest.approx(plain.max() * scale,
                                                        rel=1e-12, abs=1e-300)
                assert got["avg"][ref] == pytest.approx(plain.mean() * scale,
                                                        rel=1e-12, abs=1e-300)


def group_of_each_row(work):
    """Each dataset row's index among the workspace's groups."""
    ds, active = work.dataset, np.flatnonzero(work.net.active_inputs)

    def key(j):
        return tuple(ds.features[j, active].tolist()), ds.labels[j]

    index = {key(j): g for g, j in enumerate(work.rows.tolist())}
    return np.array([index[key(j)] for j in range(len(ds))])


def _samples(net, trace, ref):
    """Per-row magnitudes of one element, as the ledger defines them."""
    off = net.offsets
    if ref.kind in ("input", "neuron"):
        col = off[ref.layer] + ref.neuron
        return np.abs(trace.G[:, col] * trace.activations[:, col])
    d_sigma = trace.d_sigma[ref.layer][:, ref.neuron]
    if ref.kind == "bias":
        return np.abs(d_sigma)
    col = net.layers[ref.layer - 1].slots[ref.neuron][ref.slot - 1]
    return np.abs(d_sigma * trace.activations[:, col])


class TestLedgerPastTheSummationBlock:
    """More groups than numpy's 128-element pairwise-summation block, some
    of them repeated rows: the chunked ledger still equals the grouped
    per-sample reference bit for bit."""

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_wide_sample(self, mode):
        rng = np.random.default_rng(11)
        rows = rng.choice([-1.0, 1.0], size=(400, 10))
        labels = rng.choice(["class0", "class1"], size=400)
        ds = make_dataset(rows, labels, class_labels=["class0", "class1"])
        nets = [build_network((10, 4, 2), seed=5) for _ in range(2)]
        counts = distinct_groups(ds, nets[0])[1]
        assert len(counts) > 128 and counts.max() > 1
        pool = every_element(nets[0])
        test_workspace.TestLedgerEqualsPerSampleReference.check(
            *nets, ds, LossKind("mse"), TrainConfig(0.05, 0.5), pool, 2, mode)


class TestTraceCounts:
    def test_counts_weight_only_the_weight_and_bias_gradients(self):
        net = build_network((2, 3, 1), seed=4)
        X = np.array([[1.0, -1.0], [-1.0, 1.0]])
        d_out = np.array([[0.5], [-0.25]])
        plain = backward_batch(net, forward_batch(net, X), d_out)
        trace = BatchTrace(net, X, True, [3.0, 1.0])
        backward_batch(net, forward_batch(net, X, trace), d_out)
        for name in ("G", "activations"):
            assert np.array_equal(getattr(trace, name), getattr(plain, name))
        assert all(np.array_equal(a, b) for a, b in zip(trace.d_sigma[1:],
                                                         plain.d_sigma[1:]))
        # row 0 three times over: the gradient of the rows [0, 0, 0, 1]
        rows = BatchTrace(net, X[[0, 0, 0, 1]], True)
        backward_batch(net, forward_batch(net, rows.source, rows), d_out[[0, 0, 0, 1]])
        assert np.allclose(trace.grad, rows.grad, rtol=1e-12, atol=1e-15)

    def test_counts_of_another_length_are_refused(self):
        net = build_network((2, 3, 1), seed=4)
        with pytest.raises(InputShapeError):
            BatchTrace(net, np.ones((2, 2)), True, [1.0, 1.0, 1.0])
