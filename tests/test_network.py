import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lucidnet import (
    ElementRef,
    IllegalModificationError,
    InputShapeError,
    LossKind,
    Network,
    NonDifferentiableError,
    StaleReferenceError,
    TrainConfig,
    bias_ref,
    build_network,
    forward_batch,
    input_ref,
    neuron_ref,
    synapse_ref,
    train_until,
)

from lucidnet.network import backward_batch

from bookkeeping_reference import synapses
from conftest import (
    assert_close_rel,
    finite_difference_weight,
    make_dataset,
    network_from_layers,
    neuron_doc,
    single_neuron_net,
)
from sample_reference import backward, forward


class TestForward:
    def test_step_neuron_direct(self):
        net = single_neuron_net([1.0, -1.0], 0.0)
        trace = forward(net, [1.0, -1.0])
        assert trace.sigma[0][0] == 2.0
        assert trace.y[0][0] == 1.0

    def test_step_boundary_belongs_to_plus_one(self):
        net = single_neuron_net([1.0, -1.0], 0.0)
        trace = forward(net, [1.0, 1.0])
        assert trace.sigma[0][0] == 0.0
        assert trace.y[0][0] == 1.0

    def test_bias_only_neuron(self):
        net = single_neuron_net([], -1.0, input_dim=2)
        for x in ([0.0, 0.0], [5.0, -3.0], [1.0, 1.0]):
            assert forward(net, x).y[0][0] == -1.0

    def test_dimension_mismatch(self):
        net = single_neuron_net([1.0, -1.0], 0.0)
        with pytest.raises(InputShapeError):
            forward(net, [1.0, 2.0, 3.0])

    def test_forward_is_pure(self):
        net = build_network((3, 5, 2), seed=7)
        x = np.array([0.2, -0.4, 1.0])
        t1 = forward(net, x)
        t2 = forward(net, x)
        assert np.array_equal(t1.outputs, t2.outputs)
        for a, b in zip(t1.sigma, t2.sigma):
            assert np.array_equal(a, b)


class TestBackward:
    def test_single_tanh_neuron_analytic(self):
        net = single_neuron_net([0.5], 0.0, activation="tanh", trainable=True,
                                labels=("pos", "neg"))
        trace = forward(net, [1.0])
        yhat = trace.outputs[0]
        assert yhat == pytest.approx(np.tanh(0.5))
        # L = 0.5 (1 - yhat)^2, dL/dyhat = yhat - 1
        bundle = backward(net, trace, [yhat - 1.0])
        analytic = -(1 - np.tanh(0.5)) * (1 - np.tanh(0.5) ** 2)
        ref = synapse_ref(1, 0, 1)
        assert bundle.weights[ref] == pytest.approx(analytic, rel=1e-12)
        fd = finite_difference_weight(net, ref, np.array([1.0]), [yhat - 1.0])
        assert_close_rel(bundle.weights[ref], fd, rel=1e-6)

    def test_zero_output_gradient_zeroes_everything(self):
        net = build_network((4, 3, 2), seed=3)
        trace = forward(net, np.array([0.1, 0.2, -0.3, 0.9]))
        bundle = backward(net, trace, [0.0, 0.0])
        assert all(v == 0.0 for v in bundle.weights.values())
        assert all(v == 0.0 for v in bundle.neurons.values())
        assert all(v == 0.0 for v in bundle.inputs.values())

    def test_frozen_synapse_still_reported(self):
        net = build_network((2, 2, 1), seed=0)
        ref = synapse_ref(1, 0, 1)
        net.set_weight(ref, 0.3, freeze=True)
        trace = forward(net, np.array([1.0, -1.0]))
        bundle = backward(net, trace, [1.0])
        assert ref in bundle.weights
        assert bundle.weights[ref] != 0.0

    def test_trace_from_another_structure_is_stale(self):
        net = build_network((2, 2, 1), seed=0)
        X = np.array([[1.0, -1.0]])
        trace = forward_batch(net, X)
        snap = net.snapshot()
        net.remove_element(synapse_ref(1, 0, 1))
        with pytest.raises(StaleReferenceError):
            backward_batch(net, trace, [[1.0]])
        net.restore(snap)
        with pytest.raises(StaleReferenceError):
            backward_batch(net, trace, [[1.0]])
        backward_batch(net, forward_batch(net, X), [[1.0]])

    def test_step_network_refuses_backward(self):
        net = single_neuron_net([1.0], 0.0)
        trace = forward(net, [1.0])
        with pytest.raises(NonDifferentiableError):
            backward(net, trace, [1.0])

    def test_matches_finite_differences_on_random_nets(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            sizes = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 4)))]
            net = build_network([3] + sizes, seed=trial)
            x = rng.uniform(-1, 1, size=3)
            d_out = rng.uniform(-1, 1, size=net.layers[-1].width)
            trace = forward(net, x)
            bundle = backward(net, trace, d_out)
            for ref, value in bundle.weights.items():
                fd = finite_difference_weight(net, ref, x, d_out)
                assert_close_rel(value, fd, rel=1e-6, abs_tol=1e-9)


class TestSetWeight:
    def test_zero_and_freeze(self):
        net = build_network((2, 2, 1), seed=1)
        ref = synapse_ref(1, 1, 2)
        net.set_weight(ref, 0.0, freeze=True)
        assert net.weight(ref) == 0.0 and not net.is_trainable(ref)

    def test_freeze_in_place_keeps_value(self):
        net = build_network((2, 2, 1), seed=1)
        ref = bias_ref(1, 0)
        w = net.weight(ref)
        net.set_weight(ref, w, freeze=True)
        assert net.weight(ref) == w and not net.is_trainable(ref)

    def test_freezing_everything_makes_training_a_noop(self):
        net = build_network((2, 3, 1), output_labels=["pos", "neg"], seed=5)
        for ref, w, _ in list(net.iter_weights()):
            net.set_weight(ref, w, freeze=True)
        before = net.to_json()
        dataset = make_dataset(
            [[1, 1], [1, -1]], ["pos", "neg"], class_labels=["pos", "neg"]
        )
        cfg = TrainConfig(learning_rate=0.5, max_epochs=100,
                          success_criterion="loss-below-threshold",
                          loss_threshold=-1.0)
        train_until(net, dataset, LossKind("mse"), cfg)
        assert net.to_json() == before

    def test_stale_ref(self):
        net = build_network((2, 2, 1), seed=1)
        net.remove_element(neuron_ref(1, 0))
        with pytest.raises(StaleReferenceError):
            net.set_weight(synapse_ref(1, 0, 1), 0.0, freeze=True)


class TestRemoveElement:
    def test_orphaned_hidden_neuron_cascades(self):
        # hidden neuron 0's only consumer synapse goes away -> neuron 0 dies
        net = build_network((2, 2, 1), seed=2)
        out_syn = synapse_ref(2, 0, 1)  # output neuron input from hidden 0
        cascade = net.remove_element(out_syn)
        refs = {str(r) for r in cascade}
        assert "neuron:1:0" in refs
        assert "synapse:1:0:1" in refs and "synapse:1:0:2" in refs
        assert not net.is_alive(neuron_ref(1, 0))

    def test_remove_feature_removes_sourced_synapses(self):
        net = build_network((3, 2, 1), seed=4)
        cascade = net.remove_element(input_ref(1))
        assert not net.active_inputs[1]
        for nref in net.iter_neurons():
            assert all(src != (0, 1) for _, src, _, _ in synapses(net, nref))
        assert {str(r) for r in cascade} == {"synapse:1:0:2", "synapse:1:1:2"}

    def test_one_sweep_fires_all_three_rules_in_order(self):
        """Two chains x0 -> 1:0 -> 2:0 and x1 -> 1:1 -> 2:1 into one output.
        Removing 2:0 orphans its outgoing synapse (a), leaves 1:0 with no
        path to the output (b) and, only once (b) has killed 1:0, leaves x0
        unread (c); so the one sweep must run (b) before (c)."""
        net = network_from_layers(2, [
            [neuron_doc(0.1, [(0, 0, 0.5)]), neuron_doc(0.2, [(0, 1, 0.5)])],
            [neuron_doc(0.3, [(1, 0, 0.5)]), neuron_doc(0.4, [(1, 1, 0.5)])],
            [neuron_doc(0.5, [(2, 0, 0.5), (2, 1, 0.5)])],
        ], ["pos", "neg"])
        cascade = net.remove_element(neuron_ref(2, 0))
        assert [str(r) for r in cascade] == [
            "synapse:3:0:1", "neuron:1:0", "synapse:1:0:1", "bias:1:0", "input:0"]
        assert net.audit_structure() == []
        assert net.active_inputs.tolist() == [False, True]
        assert [str(r) for r in net.iter_neurons()] == ["neuron:1:1", "neuron:2:1",
                                                        "neuron:3:0"]

    def test_no_cascade_in_fully_connected(self):
        net = build_network((2, 2, 1), seed=0)
        cascade = net.remove_element(synapse_ref(1, 0, 1))
        assert cascade == []

    def test_output_neuron_protected(self):
        net = build_network((2, 2, 1), seed=0)
        with pytest.raises(IllegalModificationError):
            net.remove_element(neuron_ref(2, 0))

    def test_bias_not_structurally_removable(self):
        net = build_network((2, 2, 1), seed=0)
        with pytest.raises(IllegalModificationError):
            net.remove_element(bias_ref(1, 0))

    def test_cascade_is_idempotent(self):
        net = build_network((4, 3, 3, 1), seed=9)
        net.remove_element(neuron_ref(1, 1))
        net.remove_element(input_ref(2))
        assert net.audit_structure() == []
        net.check_layered()

    def test_removing_all_consumers_kills_whole_column(self):
        net = build_network((2, 2, 1), seed=6)
        net.remove_element(synapse_ref(2, 0, 1))
        cascade = net.remove_element(synapse_ref(2, 0, 2))
        assert not net.is_alive(neuron_ref(1, 0))
        assert not net.is_alive(neuron_ref(1, 1))
        # both features have lost every outgoing synapse
        assert net.active_inputs.tolist() == [False, False]
        assert any(r.kind == "input" for r in cascade)


class TestFanIn:
    def test_fresh_layer_fan_in(self):
        net = build_network((12, 10, 2), seed=0)
        assert all(net.fan_in(neuron_ref(1, i)) == 12 for i in range(10))

    def test_removal_decrements(self):
        net = build_network((12, 10, 2), seed=0)
        net.remove_element(synapse_ref(1, 3, 5))
        assert net.fan_in(neuron_ref(1, 3)) == 11

    def test_bias_never_counts(self):
        net = single_neuron_net([], 0.5, input_dim=1)
        assert net.fan_in(neuron_ref(1, 0)) == 0

    def test_zero_frozen_synapse_does_not_count(self):
        net = build_network((3, 1), seed=0)
        net.set_weight(synapse_ref(1, 0, 2), 0.0, freeze=True)
        assert net.fan_in(neuron_ref(1, 0)) == 2


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        net = build_network((5, 4, 3, 2), seed=42)
        text = net.to_json()
        again = Network.from_json(text)
        assert again.to_json() == text

    def test_round_trip_preserves_forward(self):
        net = build_network((4, 3, 2), seed=13)
        x = np.array([0.25, -0.5, 0.75, -1.0])
        expect = forward(net, x).outputs
        again = Network.from_json(net.to_json())
        assert np.array_equal(forward(again, x).outputs, expect)

    def test_compaction_after_removal(self):
        net = build_network((3, 3, 1), seed=8)
        x = np.array([1.0, -1.0, 0.5])
        net.remove_element(neuron_ref(1, 1))
        expect = forward(net, x).outputs
        compact = Network.from_json(net.to_json())
        assert compact.layers[0].width == 2  # tombstone dropped
        assert np.array_equal(forward(compact, x).outputs, expect)
        compact.check_layered()

    def test_snapshot_restore(self):
        net = build_network((3, 3, 1), seed=8)
        text = net.to_json()
        snap = net.snapshot()
        net.set_weight(synapse_ref(1, 0, 1), 9.0)
        net.remove_element(neuron_ref(1, 2))
        net.restore(snap)
        assert net.to_json() == text


class TestBuildNetwork:
    def test_election_architecture_counts(self):
        net = build_network((12, 10, 10, 2), output_labels=["P", "O"], seed=0)
        n_syn = sum(1 for _ in net.iter_weights(with_bias=False))
        n_bias = sum(1 for r, _, _ in net.iter_weights() if r.kind == "bias")
        assert n_syn == 12 * 10 + 10 * 10 + 10 * 2 == 240
        assert n_bias == 22

    def test_minimal_architecture(self):
        net = build_network((2, 1), seed=0)
        assert sum(1 for _ in net.iter_weights(with_bias=False)) == 2
        assert sum(1 for r, _, _ in net.iter_weights() if r.kind == "bias") == 1

    def test_seed_determinism(self):
        a = build_network((4, 5, 2), seed=77)
        b = build_network((4, 5, 2), seed=77)
        assert a.to_json() == b.to_json()

    def test_zero_size_layer_rejected(self):
        with pytest.raises(ValueError):
            build_network((2, 0, 1))


element_refs = st.one_of(
    st.builds(input_ref, st.integers(-3, 10**9)),
    st.builds(neuron_ref, st.integers(-3, 10**9), st.integers(-3, 10**9)),
    st.builds(bias_ref, st.integers(-3, 10**9), st.integers(-3, 10**9)),
    st.builds(synapse_ref, st.integers(-3, 10**9), st.integers(-3, 10**9),
              st.integers(-3, 10**9)),
)


class TestElementRef:
    @given(refs=st.lists(element_refs, min_size=1, max_size=6), extra=st.integers(0, 99))
    def test_parse_inverts_str_and_refuses_other_part_counts(self, refs, extra):
        parsed = [ElementRef.parse(str(ref)) for ref in refs]
        assert parsed == refs
        assert [hash(p) for p in parsed] == [hash(ref) for ref in refs]
        # a ref is the plain tuple of its fields
        assert refs == [tuple(ref) for ref in refs]
        assert [hash(ref) for ref in refs] == [hash(tuple(ref)) for ref in refs]
        # so parsed refs sort by key as the originals do
        assert [p.key for p in parsed] == [ref.key for ref in refs]
        for ref in refs:
            parts = str(ref).split(":")
            for wrong in [":".join(parts[:k]) for k in range(1, len(parts))] + [
                    f"{ref}:{extra}", f"{ref}:"]:
                with pytest.raises(ValueError, match="unparseable element ref"):
                    ElementRef.parse(wrong)

    @pytest.mark.parametrize("text", [
        "synapse:1:2", "neuron:1", "input", "bias:1", "input:1:2", "synapse:1:2:3:4",
        "bias:1:2:0", "neuron:1:2:3", "input:01", "gate:1:2", "", "synapse:1:x:2"])
    def test_malformed_texts_raise_value_error(self, text):
        with pytest.raises(ValueError, match="unparseable element ref"):
            ElementRef.parse(text)
