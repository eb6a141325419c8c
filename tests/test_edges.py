"""Cross-module edge cases: alternative activations, the hinge loss in
full loops, degenerate structures, and CLI determinism."""

import itertools
import json

import numpy as np
import pytest

from lucidnet import (
    ElementRef,
    LossKind,
    PruneConfig,
    PruningProblem,
    TrainConfig,
    bias_ref,
    build_network,
    evaluate_classification,
    neuron_ref,
    prune_accelerated,
    prune_basic,
    substitute_step,
    synapse_ref,
    train_until,
    verbalize,
)
from lucidnet.cli import main
from lucidnet.training import loss_terms
from lucidnet.transparency import evaluate_rules

from bookkeeping_reference import synapses
from conftest import (
    assert_close_rel,
    classify_outputs,
    finite_difference_weight,
    fresh_trained_xor,
    make_dataset,
    move_weight,
    network_from_layers,
    neuron_doc,
    total_loss,
)
from sample_reference import backward, forward


class TestSigmoidActivation:
    def test_range_is_open_unit_interval_symmetric(self):
        net = build_network((1, 1), activation="sigmoid", seed=0)
        net.set_weight(synapse_ref(1, 0, 1), 10.0)
        net.set_weight(ElementRef("bias", 1, 0), 0.0)
        high = forward(net, [50.0]).outputs[0]
        low = forward(net, [-50.0]).outputs[0]
        assert 0.99 < high <= 1.0 and -1.0 <= low < -0.99
        assert forward(net, [0.0]).outputs[0] == 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        net = build_network((3, 4, 2), activation="sigmoid", seed=23)
        x = rng.uniform(-1, 1, size=3)
        g = rng.uniform(-1, 1, size=2)
        bundle = backward(net, forward(net, x), g)
        for ref, got in bundle.weights.items():
            fd = finite_difference_weight(net, ref, x, g)
            assert_close_rel(got, fd, rel=1e-6, abs_tol=1e-9)

    def test_trains_xor(self):
        net = build_network((2, 6, 1), activation="sigmoid",
                            output_labels=["pos", "neg"], seed=4)
        ds = make_dataset([[-1, -1], [-1, 1], [1, -1], [1, 1]],
                          ["neg", "pos", "pos", "neg"],
                          class_labels=["pos", "neg"])
        cfg = TrainConfig(learning_rate=0.5, momentum=0.9, max_epochs=5000,
                          success_criterion="zero-classification-error")
        assert train_until(net, ds, LossKind("mse"), cfg).converged


class TestMarginLoss:
    def test_subgradient_matches_finite_differences_off_kink(self):
        rng = np.random.default_rng(31)
        net = build_network((2, 3, 1), output_labels=["pos", "neg"], seed=31)
        ds = make_dataset([[1.0, -1.0]], ["pos"], class_labels=["pos", "neg"])
        loss_kind = LossKind("margin", margin_width=0.7)

        def value():
            return total_loss(net, ds, loss_kind)

        trace = forward(net, ds.features[0])
        _, d_out = loss_terms(loss_kind, np.array([[1.0]]),
                              trace.outputs[None, :])
        assert abs(0.7 - trace.outputs[0]) > 1e-3  # not at the kink
        bundle = backward(net, trace, d_out[0])
        for ref in list(bundle.weights)[:6]:
            w0 = net.weight(ref)
            h = 1e-5
            move_weight(net, ref, w0 + h)
            up = value()
            move_weight(net, ref, w0 - h)
            down = value()
            move_weight(net, ref, w0)
            assert_close_rel(bundle.weights[ref], (up - down) / (2 * h),
                             rel=1e-4, abs_tol=1e-9)

    def test_satisfied_margins_stop_training(self):
        net = build_network((2, 4, 1), output_labels=["pos", "neg"], seed=2)
        ds = make_dataset([[1, 1], [-1, -1]], ["pos", "neg"],
                          class_labels=["pos", "neg"])
        loss_kind = LossKind("margin", margin_width=0.5)
        cfg = TrainConfig(learning_rate=0.1, momentum=0.0, max_epochs=2000,
                          success_criterion="loss-below-threshold",
                          loss_threshold=0.0)
        outcome = train_until(net, ds, loss_kind, cfg)
        assert outcome.converged and outcome.final_total_loss == 0.0
        frozen = net.to_json()
        train_until(net, ds, loss_kind, cfg)
        assert net.to_json() == frozen  # zero gradient everywhere

    def test_margin_loss_through_pruning_loop(self):
        net = build_network((2, 4, 1), output_labels=["pos", "neg"], seed=6)
        ds = make_dataset([[1, 1], [-1, -1], [1, -1], [-1, 1]],
                          ["pos", "neg", "pos", "neg"],
                          class_labels=["pos", "neg"])
        loss_kind = LossKind("margin", margin_width=0.3)
        retrain = TrainConfig(learning_rate=0.05, momentum=0.0,
                              max_epochs=600,
                              success_criterion="zero-classification-error")
        assert train_until(net, ds, loss_kind, retrain).converged
        config = PruneConfig(
            problem=PruningProblem("synapse-removal"), retrain=retrain,
            loss_kind=loss_kind, indicator_mode="avg",
            accumulation_epochs=3, loop="basic",
        )
        result = prune_basic(net, ds, config)
        assert result.stop_reason == "failed-at-m1"
        assert evaluate_classification(result.network, ds)[0] == 1.0


class TestLossThresholdCriterion:
    def test_prune_loop_under_loss_threshold(self):
        # a 1-neuron regression-flavoured task: success is loss <= 0.4
        net = build_network((2, 1), output_labels=["pos", "neg"], seed=3)
        ds = make_dataset([[1, 1], [-1, -1], [1, -1]], ["pos", "neg", "pos"],
                          class_labels=["pos", "neg"])
        cfg = TrainConfig(learning_rate=0.05, momentum=0.0, max_epochs=3000,
                          success_criterion="loss-below-threshold",
                          loss_threshold=0.4)
        assert train_until(net, ds, LossKind("mse"), cfg).converged
        config = PruneConfig(
            problem=PruningProblem("synapse-removal"), retrain=cfg,
            loss_kind=LossKind("mse"), indicator_mode="max",
            accumulation_epochs=2, loop="accelerated", initial_m=2,
        )
        result = prune_accelerated(net, ds, config)
        assert result.stop_reason == "failed-at-m1"
        assert total_loss(result.network, ds, LossKind("mse")) <= 0.4


class TestMaxModePruning:
    def test_max_mode_runs_the_loop(self):
        net, ds, _, _ = fresh_trained_xor(4)
        config = PruneConfig(
            problem=PruningProblem("synapse-removal"),
            retrain=TrainConfig(learning_rate=0.3, momentum=0.9,
                                max_epochs=500,
                                success_criterion="zero-classification-error"),
            loss_kind=LossKind("mse"), indicator_mode="max",
            accumulation_epochs=3, loop="basic",
        )
        result = prune_basic(net, ds, config)
        assert result.stop_reason == "failed-at-m1"
        assert evaluate_classification(result.network, ds)[0] == 1.0


class TestMultiClass:
    def test_three_output_argmax(self):
        assert classify_outputs([[0.1, 0.5, 0.2]], ["a", "b", "c"]) == ["b"]
        assert classify_outputs([[0.5, 0.5, 0.2]], ["a", "b", "c"]) == ["a"]

    def test_three_class_training_targets(self):
        from lucidnet.training import targets_for

        net = build_network((2, 4, 3), seed=0,
                            output_labels=["a", "b", "c"])
        ds = make_dataset([[1, 1], [-1, 1]], ["b", "c"],
                          class_labels=["a", "b", "c"])
        z = targets_for(ds, net)
        assert z.tolist() == [[-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]


class TestDegenerateStructures:
    def test_forward_with_fully_dead_hidden_layer(self):
        net = build_network((2, 2, 1), output_labels=["pos", "neg"], seed=5)
        net.remove_element(neuron_ref(1, 0))
        net.remove_element(neuron_ref(1, 1))
        assert net.is_alive(neuron_ref(2, 0))
        assert synapses(net, neuron_ref(2, 0)) == []
        y = forward(net, [1.0, -1.0]).outputs[0]
        assert y == pytest.approx(np.tanh(net.weight(bias_ref(2, 0))))
        # both features lost every consumer
        assert net.active_inputs.tolist() == [False, False]

    def test_masked_feature_values_are_ignored(self):
        net = build_network((3, 3, 1), seed=12)
        from lucidnet import input_ref

        net.remove_element(input_ref(1))
        a = forward(net, np.array([0.5, 123456.0, -0.25])).outputs
        for masked in (-99999.0, float("nan"), float("inf")):
            b = forward(net, np.array([0.5, masked, -0.25])).outputs
            assert np.array_equal(a, b)

    def test_element_ref_string_round_trip(self):
        refs = [
            ElementRef("input", 0, 7),
            ElementRef("neuron", 2, 3),
            ElementRef("bias", 1, 0),
            ElementRef("synapse", 3, 4, 9),
        ]
        for ref in refs:
            assert ElementRef.parse(str(ref)) == ref


class TestReadableHierarchy:
    def build_two_syndrome_network(self):
        """Hand-built analogue of a two-syndrome diagnosis: two hidden
        threshold units over five symptoms, output fires if either does."""
        s1 = neuron_doc(-1.0, [(0, 0, 1.0), (0, 1, 1.0), (0, 2, -1.0)])
        s2 = neuron_doc(-1.0, [(0, 1, 1.0), (0, 3, 1.0), (0, 4, 1.0)])
        diagnosis = neuron_doc(1.0, [(1, 0, 1.0), (1, 1, 1.0)])
        return network_from_layers(5, [[s1, s2], [diagnosis]], ["O", "P"])

    def test_syndrome_style_rules(self):
        net = self.build_two_syndrome_network()
        names = [f"s{k}" for k in range(5)]
        ruleset = verbalize(net, feature_names=names)
        assert [r.k for r in ruleset.rules] == [2, 2, 1]
        text = ruleset.render_text()
        assert "syndrome-1-0" in text and "at least 2" in text
        assert "Otherwise class P." in text
        # the diagnosis rule cites the syndromes, not raw features
        diagnosis = ruleset.rules[-1]
        assert all(st.rule is not None for st in diagnosis.statements)

    def test_hierarchy_matches_network(self):
        net = self.build_two_syndrome_network()
        names = [f"s{k}" for k in range(5)]
        ruleset = verbalize(net, feature_names=names)
        for bits in itertools.product((-1.0, 1.0), repeat=5):
            x = np.array(bits)
            want = classify_outputs(forward(net, x).outputs[None, :],
                                    net.output_labels)[0]
            assert evaluate_rules(ruleset, dict(zip(names, bits))) == want

    def test_negated_syndrome_reference(self):
        net = self.build_two_syndrome_network()
        ref = synapse_ref(2, 0, 2)
        net.set_weight(ref, -1.0, freeze=True)
        names = [f"s{k}" for k in range(5)]
        ruleset = verbalize(net, feature_names=names)
        diagnosis = ruleset.rules[-1]
        assert [st.affirmed for st in diagnosis.statements] == [True, False]
        for bits in itertools.product((-1.0, 1.0), repeat=5):
            x = np.array(bits)
            want = classify_outputs(forward(net, x).outputs[None, :],
                                    net.output_labels)[0]
            assert evaluate_rules(ruleset, dict(zip(names, bits))) == want


class TestCliDeterminismAndOptions:
    def xor_csv(self, tmp_path):
        path = tmp_path / "xor.csv"
        path.write_text(
            "x0,x1,class\n-1,-1,neg\n-1,1,pos\n1,-1,pos\n1,1,neg\n"
        )
        return str(path)

    def test_prune_artifacts_bit_reproducible(self, tmp_path, capsys):
        data = self.xor_csv(tmp_path)
        train_out = tmp_path / "t"
        assert main(["train", "--dataset", data, "--arch", "2,6,1",
                     "--labels", "pos,neg", "--lr", "0.3", "--momentum",
                     "0.9", "--epochs", "5000", "--seed", "1",
                     "--out", str(train_out)]) == 0
        blobs = []
        for sub in ("p1", "p2"):
            out = tmp_path / sub
            assert main(["prune", "--network", str(train_out / "network.json"),
                         "--dataset", data, "--problem", "synapse-removal",
                         "--loop", "basic", "--acc-epochs", "3",
                         "--lr", "0.3", "--momentum", "0.9", "--epochs",
                         "500", "--out", str(out)]) == 0
            blobs.append(((out / "network.json").read_bytes(),
                          (out / "prune_log.jsonl").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_numeric_initial_m_flag(self, tmp_path, capsys):
        data = self.xor_csv(tmp_path)
        train_out = tmp_path / "t"
        assert main(["train", "--dataset", data, "--arch", "2,6,1",
                     "--labels", "pos,neg", "--lr", "0.3", "--momentum",
                     "0.9", "--epochs", "5000", "--seed", "1",
                     "--out", str(train_out)]) == 0
        out = tmp_path / "p"
        assert main(["prune", "--network", str(train_out / "network.json"),
                     "--dataset", data, "--problem", "synapse-removal",
                     "--loop", "accelerated", "--initial-m", "4",
                     "--acc-epochs", "3", "--lr", "0.3", "--momentum", "0.9",
                     "--epochs", "500", "--out", str(out)]) == 0
        records = [json.loads(line) for line in
                   (out / "prune_log.jsonl").read_text().splitlines()]
        assert records[0]["M"] == 4

    def test_sigmoid_activation_flag(self, tmp_path, capsys):
        data = self.xor_csv(tmp_path)
        out = tmp_path / "s"
        assert main(["train", "--dataset", data, "--arch", "2,6,1",
                     "--labels", "pos,neg", "--activation", "sigmoid",
                     "--lr", "0.5", "--momentum", "0.9", "--epochs", "5000",
                     "--seed", "4", "--out", str(out)]) == 0
        doc = json.loads((out / "network.json").read_text())
        assert doc["layers"][0][0]["activation"] == "sigmoid"


class TestDatasetValidation:
    def test_non_binary_feature_rejected(self):
        from lucidnet import DatasetError

        with pytest.raises(DatasetError):
            make_dataset([[0.5, 1.0]], ["pos"], class_labels=["pos", "neg"])

    def test_unknown_label_rejected(self):
        from lucidnet import DatasetError

        with pytest.raises(DatasetError):
            make_dataset([[1.0, 1.0]], ["mystery"], class_labels=["pos", "neg"])
