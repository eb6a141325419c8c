import csv

import numpy as np
import pytest

from lucidnet import (
    LossKind,
    PruningProblem,
    StaleReferenceError,
    TrainConfig,
    ValidSet,
    bias_ref,
    build_network,
    candidate_pool,
    collect_ledger,
    element_refs,
    input_ref,
    nearest_valid,
    neuron_ref,
    synapse_ref,
)
from lucidnet import sensitivity
from lucidnet.network import backward_batch, forward_batch
from lucidnet.sensitivity import SensitivityLedger, export_csv
from lucidnet.training import loss_terms, targets_for

from conftest import make_dataset, single_neuron_net, total_loss
from ref_pools import ledger_of, ledger_refs, pool_of, rating_map
from indicator_reference import (
    ExcludedElementError,
    aggregate_samples,
    input_indicator_sample,
    neuron_indicator_sample,
    weight_indicator_sample,
)
from sample_reference import ForwardTrace, GradientBundle, backward, forward
from test_workspace import grouped_forward, plain_step


# the candidate pool of each element class, as a pruning step takes it
POOL_PROBLEM = {
    "input": PruningProblem("feature-selection"),
    "weight": PruningProblem("precision-reduction", valid_set=ValidSet.ternary()),
    "neuron": PruningProblem("neuron-removal"),
}


def fake_bundle(weights=None, neurons=None, inputs=None):
    return GradientBundle(weights or {}, neurons or {}, inputs or {})


class TestNearestValid:
    def test_nearest_member(self):
        assert nearest_valid(0.4, ValidSet.ternary()) == 0.0

    def test_rounds_up_past_midpoint(self):
        assert nearest_valid(0.6, ValidSet.ternary()) == 1.0

    def test_tie_prefers_smaller_magnitude(self):
        assert nearest_valid(0.5, ValidSet.ternary()) == 0.0
        assert nearest_valid(-0.5, ValidSet.ternary()) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ValidSet(())
        with pytest.raises(ValueError):
            ValidSet((1.0, 1.0))
        with pytest.raises(ValueError):
            ValidSet((1.0, -1.0))
        for bad in ((float("nan"), 1.0), (0.0, float("inf")), (-float("inf"),),
                    (float("nan"),)):
            with pytest.raises(ValueError, match="finite"):
                ValidSet(bad)


class TestSampleIndicators:
    def test_input_zero_value_kills_indicator(self):
        net = single_neuron_net([1.0], 0.0)
        trace = forward(net, [0.0])
        bundle = fake_bundle(inputs={0: 123.0})
        assert input_indicator_sample(trace, bundle, 0) == 0.0

    def test_input_formula(self):
        net = single_neuron_net([1.0], 0.0)
        trace = forward(net, [1.0])
        bundle = fake_bundle(inputs={0: -0.2})
        assert input_indicator_sample(trace, bundle, 0) == pytest.approx(0.2)

    def test_input_zero_gradient(self):
        net = single_neuron_net([1.0], 0.0)
        trace = forward(net, [1.0])
        bundle = fake_bundle(inputs={0: 0.0})
        assert input_indicator_sample(trace, bundle, 0) == 0.0

    def test_masked_feature_is_stale(self):
        net = single_neuron_net([1.0], 0.0, input_dim=2)
        trace = forward(net, [1.0, 1.0])
        bundle = fake_bundle(inputs={0: 0.5})
        with pytest.raises(StaleReferenceError):
            input_indicator_sample(trace, bundle, 1)

    def test_weight_already_valid_costs_nothing(self):
        net = single_neuron_net([0.4], 0.0, activation="tanh", trainable=True)
        ref = synapse_ref(1, 0, 1)
        bundle = fake_bundle(weights={ref: 0.5})
        assert weight_indicator_sample(net, bundle, ref, 0.4) == 0.0

    def test_weight_formula(self):
        net = single_neuron_net([0.4], 0.0, activation="tanh", trainable=True)
        ref = synapse_ref(1, 0, 1)
        bundle = fake_bundle(weights={ref: -0.5})
        assert weight_indicator_sample(net, bundle, ref, 0.0) == pytest.approx(0.2)

    def test_weight_zero_gradient(self):
        net = single_neuron_net([0.4], 0.0, activation="tanh", trainable=True)
        ref = synapse_ref(1, 0, 1)
        bundle = fake_bundle(weights={ref: 0.0})
        assert weight_indicator_sample(net, bundle, ref, -1.0) == 0.0

    def test_frozen_weight_excluded(self):
        net = single_neuron_net([0.4], 0.0, activation="tanh", trainable=False)
        ref = synapse_ref(1, 0, 1)
        bundle = fake_bundle(weights={ref: 0.5})
        with pytest.raises(ExcludedElementError):
            weight_indicator_sample(net, bundle, ref, 0.0)

    def test_neuron_zero_output(self):
        net = build_network((1, 1, 1), seed=0)
        trace = ForwardTrace(
            input=np.array([1.0]),
            sigma=[np.array([0.0]), np.array([0.0])],
            y=[np.array([0.0]), np.array([0.0])],
            outputs=np.array([0.0]),
        )
        bundle = fake_bundle(neurons={neuron_ref(1, 0): 5.0})
        assert neuron_indicator_sample(net, trace, bundle, neuron_ref(1, 0)) == 0.0

    def test_neuron_formula(self):
        net = build_network((1, 1, 1), seed=0)
        trace = ForwardTrace(
            input=np.array([1.0]),
            sigma=[np.array([0.0]), np.array([0.0])],
            y=[np.array([-0.5]), np.array([0.0])],
            outputs=np.array([0.0]),
        )
        bundle = fake_bundle(neurons={neuron_ref(1, 0): 0.3})
        assert neuron_indicator_sample(net, trace, bundle, neuron_ref(1, 0)) == (
            pytest.approx(0.15)
        )

    def test_output_neuron_excluded(self):
        net = build_network((1, 1, 1), seed=0)
        trace = forward(net, np.array([1.0]))
        bundle = fake_bundle(neurons={neuron_ref(2, 0): 0.3})
        with pytest.raises(ExcludedElementError):
            neuron_indicator_sample(net, trace, bundle, neuron_ref(2, 0))

    def test_dead_path_neuron_rates_zero(self):
        # hidden neuron 1 feeds the output only through a zero-frozen synapse
        net = build_network((2, 2, 1), output_labels=["pos", "neg"], seed=2)
        net.set_weight(synapse_ref(2, 0, 2), 0.0, freeze=True)
        ds = make_dataset([[1, -1], [-1, 1], [1, 1]], ["pos", "neg", "pos"],
                          class_labels=["pos", "neg"])
        for j in range(3):
            x = ds.features[j]
            trace = forward(net, x)
            z = targets_for(ds, net)[j]
            _, d_out = loss_terms(LossKind("mse"), z[None, :], trace.outputs[None, :])
            bundle = backward(net, trace, d_out[0])
            value = neuron_indicator_sample(net, trace, bundle, neuron_ref(1, 1))
            assert value == 0.0


class TestAggregation:
    def test_max_mode_matches_factored_form(self):
        assert aggregate_samples([0.5, 0.3], "max") * 0.4 == pytest.approx(0.2)

    def test_avg_mode_matches_factored_form(self):
        assert aggregate_samples([0.5, 0.3], "avg") * 0.4 == pytest.approx(0.16)

    def test_single_sample_modes_agree(self):
        assert aggregate_samples([0.7], "max") == aggregate_samples([0.7], "avg")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_samples([], "max")


class TestLedger:
    def test_single_epoch_equals_aggregate(self):
        net = single_neuron_net([2.0], 0.0, activation="tanh", trainable=True)
        ref = synapse_ref(1, 0, 1)
        ledger = ledger_of(net, [ref], np.ones(2), "max")
        ledger.add_epoch(np.array([[0.5, 0.3]]))
        final = rating_map(net, ledger, ValidSet((1.0,)))  # |1 - 2| = 1
        assert final[ref] == pytest.approx(0.5)

    def test_epoch_mean(self):
        net = single_neuron_net([2.0], 0.0, activation="tanh", trainable=True)
        ref = synapse_ref(1, 0, 1)
        ledger = ledger_of(net, [ref], np.ones(1), "max")
        ledger.add_epoch(np.array([[0.2]]))
        ledger.add_epoch(np.array([[0.4]]))
        final = rating_map(net, ledger, ValidSet((1.0,)))
        assert final[ref] == pytest.approx(0.3)

    def test_frozen_mid_accumulation_excluded(self):
        # freezing takes the weight out of the candidate pool, and a ledger
        # rates exactly the pool it was built for
        net = single_neuron_net([2.0], 0.0, activation="tanh", trainable=True)
        ref = synapse_ref(1, 0, 1)
        problem = PruningProblem("precision-reduction", valid_set=ValidSet((1.0,)))
        net.set_weight(ref, 1.0, freeze=True)
        ledger = SensitivityLedger(net, "weight", candidate_pool(net, problem), np.ones(1),
                                   "max")
        ledger.add_epoch(np.array([[0.1]]))
        final = rating_map(net, ledger, problem.valid_set)
        assert ref not in final
        assert list(final) == [bias_ref(1, 0)]

    def test_rates_exactly_the_given_refs(self):
        net = single_neuron_net([2.0], 0.0, activation="tanh", trainable=True)
        ref = synapse_ref(1, 0, 1)
        empty = ledger_of(net, [], np.ones(1), "max")
        empty.add_epoch(np.zeros((0, 1)))
        assert rating_map(net, empty, ValidSet((1.0,))) == {}
        ledger = ledger_of(net, [ref, bias_ref(1, 0)], np.ones(1), "max")
        # the ledger reads the bias's block first
        assert ledger_refs(net, ledger) == [bias_ref(1, 0), ref]
        ledger.add_epoch(np.array([[0.2], [0.4]]))
        assert rating_map(net, ledger, ValidSet((1.0,))) == {bias_ref(1, 0): 0.2,
                                                            ref: 0.4}
        net.remove_element(ref)  # the ref went stale after the pool was taken
        with pytest.raises(StaleReferenceError):
            ledger.finalize(net, ValidSet((1.0,)))

    def test_sample_rows_must_match_refs(self):
        net = single_neuron_net([1.0], 0.0)
        ledger = ledger_of(net, [synapse_ref(1, 0, 1), bias_ref(1, 0)], np.ones(2), "max")
        with pytest.raises(ValueError):
            ledger.add_epoch(np.array([[0.2, 0.3]]))

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_sample_width_must_match_counts(self, mode):
        net = single_neuron_net([1.0], 0.0)
        ledger = ledger_of(net, [synapse_ref(1, 0, 1), bias_ref(1, 0)],
                           np.array([2.0, 1.0, 3.0]), mode)
        for width in (1, 2, 4):
            with pytest.raises(ValueError, match="shape"):
                ledger.add_epoch(np.ones((2, width)))
        assert ledger.epochs_accumulated == 0
        ledger.add_epoch(np.ones((2, 3)))
        assert ledger.epochs_accumulated == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="indicator mode"):
            ledger_of(single_neuron_net([1.0], 0.0), [], np.ones(1), "mean")

    def test_unknown_element_class_rejected(self):
        with pytest.raises(ValueError, match="element class"):
            SensitivityLedger(single_neuron_net([1.0], 0.0), "bias", [], np.ones(1), "max")

    def test_weight_needs_valid_set(self):
        net = single_neuron_net([1.0], 0.0)
        ledger = ledger_of(net, [synapse_ref(1, 0, 1)], np.ones(1), "max")
        ledger.add_epoch(np.array([[0.2]]))
        with pytest.raises(ValueError):
            ledger.finalize(net)

    def test_empty_ledger_finalize_rejected(self):
        net = single_neuron_net([1.0], 0.0)
        with pytest.raises(ValueError):
            ledger_of(net, [], np.ones(1), "max").finalize(net, ValidSet.removal())

    def test_displacement_scales_linearly(self):
        net = single_neuron_net([0.3], 0.0, activation="tanh", trainable=True)
        ref = synapse_ref(1, 0, 1)
        ledger = ledger_of(net, [ref], np.ones(2), "avg")
        ledger.add_epoch(np.array([[0.8, 0.1]]))
        near = rating_map(net, ledger, ValidSet((0.3 - 0.2,)))[ref]
        far = rating_map(net, ledger, ValidSet((0.3 - 0.4,)))[ref]
        assert far == pytest.approx(2 * near)


def epoch_samples(monkeypatch, *collect_args):
    """(ledger, samples) of each ``add_epoch`` call of
    ``collect_ledger(*collect_args)``, one per epoch."""
    seen = []
    real = SensitivityLedger.add_epoch

    def spy(ledger, samples):
        seen.append((ledger, samples))
        real(ledger, samples)

    monkeypatch.setattr(SensitivityLedger, "add_epoch", spy)
    collect_ledger(*collect_args)
    return seen


def element_samples(net, trace, grads, ref):
    """Per-sample magnitudes of one element at one epoch, from the
    network's forward trace and its ``backward_batch`` gradients."""
    l, i = ref.layer, ref.neuron
    if ref.kind in ("input", "neuron"):
        return np.abs(grads.y_grads[l][:, i] * trace.values[l][:, i])
    if ref.kind == "bias":
        return np.abs(grads.d_sigma[l][:, i])
    col = net.layers[l - 1].slots[i][ref.slot - 1]
    return np.abs(grads.d_sigma[l][:, i] * trace.activations[:, col])


class TestCollectLedger:
    def setup_method(self):
        self.ds = make_dataset(
            [[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]],
            ["pos", "neg", "neg", "pos"],
            class_labels=["pos", "neg"],
        )
        self.cfg = TrainConfig(learning_rate=0.05, max_epochs=10)
        self.loss = LossKind("mse")

    def test_mode_dominance(self):
        net = build_network((3, 4, 1), output_labels=["pos", "neg"], seed=6)
        pool = candidate_pool(net, PruningProblem("synapse-removal"))
        start = net.snapshot()
        # one ledger per mode, both from the same start state
        fmax = rating_map(net, collect_ledger(net, self.ds, self.loss, self.cfg, 4, "weight",
                                              pool, "max"), ValidSet.removal())
        net.restore(start)
        favg = rating_map(net, collect_ledger(net, self.ds, self.loss, self.cfg, 4, "weight",
                                              pool, "avg"), ValidSet.removal())
        assert list(fmax) == list(favg) == element_refs(net, "weight", pool)
        assert len(fmax) > 0
        for ref in fmax:
            assert fmax[ref] >= favg[ref] >= 0.0

    def test_unknown_mode_refused_before_any_epoch(self, monkeypatch):
        calls = []
        real = sensitivity.train_epoch
        monkeypatch.setattr(sensitivity, "train_epoch",
                            lambda *args: calls.append(None) or real(*args))
        net = build_network((3, 4, 1), output_labels=["pos", "neg"], seed=6)
        before = net.to_json()
        pool = candidate_pool(net, PruningProblem("synapse-removal"))
        with pytest.raises(ValueError, match="indicator mode"):
            collect_ledger(net, self.ds, self.loss, self.cfg, 3, "weight", pool, "mean")
        assert calls == []
        assert net.to_json() == before

    def test_rerun_is_identical(self):
        finals = []
        for _ in range(2):
            net = build_network((3, 4, 1), output_labels=["pos", "neg"], seed=6)
            pool = candidate_pool(net, POOL_PROBLEM["input"])
            ledger = collect_ledger(net, self.ds, self.loss, self.cfg, 3, "input", pool, "avg")
            finals.append(ledger.finalize(net).tolist())
        assert finals[0] == finals[1]

    def test_batched_record_matches_per_sample_reference(self, monkeypatch):
        net = build_network((3, 3, 2), seed=9)
        ds = make_dataset(
            [[1, -1, 1], [-1, 1, 1], [1, 1, -1]],
            ["class0", "class1", "class0"],
            class_labels=["class0", "class1"],
        )
        from lucidnet import Network

        reference = Network.from_json(net.to_json())
        weight_refs = [ref for ref, _, _ in net.iter_weights()]
        input_refs = [input_ref(k) for k in net.active_feature_indices()]
        neuron_refs = list(net.iter_neurons())
        # a learning rate of 0 leaves the network as it is for each ledger
        rows = {}
        for refs in (weight_refs, input_refs, neuron_refs):
            (ledger, samples), = epoch_samples(monkeypatch, net, ds, self.loss,
                                               TrainConfig(learning_rate=0.0), 1,
                                               *pool_of(net, refs), "max")
            rows.update(zip(ledger_refs(net, ledger), samples.copy()))
        assert net.to_json() == reference.to_json()
        weight_rows = input_rows = neuron_rows = rows
        z = targets_for(ds, reference)
        for j in range(3):
            trace = forward(reference, ds.features[j])
            _, d_out = loss_terms(self.loss, z[j][None, :], trace.outputs[None, :])
            bundle = backward(reference, trace, d_out[0])
            for ref, grad in bundle.weights.items():
                assert weight_rows[ref][j] == pytest.approx(abs(grad), abs=1e-12)
            for k, grad in bundle.inputs.items():
                expected = abs(grad * ds.features[j][k])
                assert input_rows[input_ref(k)][j] == pytest.approx(expected, abs=1e-12)
            for nref, grad in bundle.neurons.items():
                y = trace.y[nref.layer - 1][nref.neuron]
                assert neuron_rows[nref][j] == pytest.approx(
                    abs(grad * y), abs=1e-12
                )

    def test_empty_pool_still_trains(self, monkeypatch):
        net = build_network((3, 4, 1), output_labels=["pos", "neg"], seed=6)
        before = net.to_json()
        seen = epoch_samples(monkeypatch, net, self.ds, self.loss, self.cfg, 3, "weight",
                             [], "avg")
        assert [s.shape for _, s in seen] == [(0, 4)] * 3
        assert net.to_json() != before


class TestLedgerExactness:
    """The array ledger reproduces per-element aggregation bit for bit."""

    def _case(self):
        rng = np.random.default_rng(5)
        rows = rng.choice([-1.0, 1.0], size=(300, 5))  # 300 rows in at most 64 groups
        labels = ["class0" if r[0] * r[2] + r[4] > 0 else "class1" for r in rows]
        ds = make_dataset(rows, labels, class_labels=["class0", "class1"])
        net = build_network((5, 4, 3, 2), seed=8)
        net.remove_element(synapse_ref(2, 1, 2))
        net.set_weight(synapse_ref(1, 0, 1), 1.0, freeze=True)
        return net, ds

    @pytest.mark.parametrize("element_class", ["input", "weight", "neuron"])
    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_finalize_equals_per_element_aggregates(self, element_class, mode):
        net, ds = self._case()
        twin, _ = self._case()  # not a JSON copy: that would renumber slots
        loss = LossKind("mse")
        cfg = TrainConfig(learning_rate=0.01, momentum=0.5)
        valid = ValidSet.ternary() if element_class == "weight" else None
        epochs = 4
        pool = candidate_pool(net, POOL_PROBLEM[element_class])
        got = rating_map(net, collect_ledger(net, ds, loss, cfg, epochs, element_class, pool,
                                             mode), valid)
        pool = element_refs(net, element_class, pool)

        sums = {}
        velocity = None
        for _ in range(epochs):
            reps, trace = grouped_forward(twin, ds)
            d_out = loss_terms(loss, targets_for(reps, twin), trace.outputs)[1]
            grads = backward_batch(twin, trace, d_out)
            for ref in pool:
                values = element_samples(twin, trace, grads, ref)
                sums[ref] = sums.get(ref, 0.0) + aggregate_samples(values, mode,
                                                                   trace.counts)
            _, velocity = plain_step(twin, reps, loss, cfg, velocity, trace=trace)
        assert net.to_json() == twin.to_json()
        if element_class == "weight":
            want = {}
            for ref, weight, trainable in twin.iter_weights():
                if trainable:
                    target = nearest_valid(weight, valid)
                    want[ref] = (sums[ref] / epochs) * abs(target - weight)
        elif element_class == "input":
            want = {input_ref(k): sums[input_ref(k)] / epochs
                    for k in twin.active_feature_indices()}
        else:
            want = {ref: sums[ref] / epochs
                    for ref in twin.iter_neurons(hidden_only=True)}
        assert len(want) > 0
        assert got == want
        assert list(got) == pool


class TestFirstOrderFidelity:
    def test_perturbation_ratio_approaches_one(self):
        rng = np.random.default_rng(17)
        checked = 0
        for trial in range(8):
            net = build_network((3, 3, 1), output_labels=["pos", "neg"],
                                seed=100 + trial)
            ds = make_dataset([rng.choice([-1.0, 1.0], size=3)], ["pos"],
                              class_labels=["pos", "neg"])
            z = targets_for(ds, net)
            trace = forward(net, ds.features[0])
            _, d_out = loss_terms(LossKind("mse"), z, trace.outputs[None, :])
            bundle = backward(net, trace, d_out[0])
            valid = ValidSet.ternary()
            for ref in list(bundle.weights)[:4]:
                w0 = net.weight(ref)
                target = nearest_valid(w0, valid)
                chi = weight_indicator_sample(net, bundle, ref, target)
                if chi < 1e-4:
                    continue
                checked += 1
                base = total_loss(net, ds, LossKind("mse"))
                ratios = []
                for eps in (1e-2, 1e-3, 1e-4):
                    net.set_weight(ref, w0 + eps * (target - w0))
                    moved = total_loss(net, ds, LossKind("mse"))
                    net.set_weight(ref, w0)
                    ratios.append(abs(moved - base) / (eps * chi))
                assert abs(ratios[-1] - 1.0) < 0.05
                # shrinking the perturbation shrinks the linearization error
                assert abs(ratios[2] - 1.0) <= abs(ratios[0] - 1.0) + 1e-6
        assert checked >= 10


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        net = build_network((3, 2, 1), output_labels=["pos", "neg"], seed=1)
        ds = make_dataset([[1, -1, 1], [-1, 1, -1]], ["pos", "neg"],
                          class_labels=["pos", "neg"])
        pool = candidate_pool(net, POOL_PROBLEM["weight"])
        ledger = collect_ledger(net, ds, LossKind("mse"),
                                TrainConfig(learning_rate=0.1), 2, "weight", pool, "avg")
        final = rating_map(net, ledger, ValidSet.ternary())
        path = tmp_path / "indicators.csv"
        export_csv(final, "weight", "avg", path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["element", "class", "indicator", "mode"]
        assert len(rows) == len(final) + 1
        from lucidnet import ElementRef

        for element, klass, indicator, mode in rows[1:]:
            ref = ElementRef.parse(element)
            assert klass == "weight" and mode == "avg"
            assert float(indicator) == final[ref]
