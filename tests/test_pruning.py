import io
import json

import numpy as np
import pytest

from lucidnet import (
    LossKind,
    Network,
    NotTrainedError,
    PipelineAbort,
    PoolExhausted,
    PruneConfig,
    PruningProblem,
    TrainConfig,
    ValidSet,
    apply_modification,
    bias_ref,
    build_network,
    candidate_pool,
    evaluate_classification,
    input_ref,
    neuron_ref,
    prune_accelerated,
    prune_basic,
    run_pipeline,
    select_candidates,
    synapse_ref,
    train_until,
)
from lucidnet import training
from lucidnet.network import BatchTrace
from lucidnet.training import loss_terms

from conftest import (
    fresh_trained_xor,
    majority_dataset,
    make_dataset,
    network_from_layers,
    neuron_doc,
)
from ref_pools import pool_refs, rated

TERNARY = ValidSet.ternary()


def retrain_cfg(lr=0.3, momentum=0.9, budget=500):
    return TrainConfig(learning_rate=lr, momentum=momentum, max_epochs=budget,
                       success_criterion="zero-classification-error")


def prune_cfg(problem, retrain=None, loop="basic", initial_m="half-of-pool",
              acc=3, sink=None, **kw):
    return PruneConfig(
        problem=PruningProblem(problem, **kw),
        retrain=retrain or retrain_cfg(),
        loss_kind=LossKind("mse"),
        indicator_mode="avg",
        accumulation_epochs=acc,
        initial_m=initial_m,
        loop=loop,
        log_sink=sink,
    )


def synth_retrain():
    return retrain_cfg(lr=0.005, momentum=0.0, budget=800)


def trained_majority_net(seed, data):
    net = build_network((8, 6, 1), output_labels=["pos", "neg"], seed=seed)
    cfg = TrainConfig(learning_rate=0.005, momentum=0.0, max_epochs=3000,
                      success_criterion="zero-classification-error")
    outcome = train_until(net, data, LossKind("mse"), cfg)
    assert outcome.converged
    return net


def uneven_fan_net():
    """One hidden layer with fan-ins (5, 3, 2) plus a 3-input output."""
    def neuron(n_inputs):
        return neuron_doc(0.1, [(0, j, 0.5) for j in range(n_inputs)], "tanh",
                          trainable=True)

    hidden = [neuron(5), neuron(3), neuron(2)]
    out = neuron_doc(0.0, [(1, j, 1.0) for j in range(3)], "tanh", trainable=True)
    return network_from_layers(5, [hidden, [out]], ["pos", "neg"])


def flat_map(net, problem, value=1.0):
    return {ref: value for ref in pool_refs(net, problem)}


class TestSelectCandidates:
    def test_m_larger_than_pool_returns_whole_pool(self):
        net = uneven_fan_net()
        problem = PruningProblem("synapse-removal")
        fm = flat_map(net, problem)
        picked = select_candidates(*rated(net, fm), net, problem, 1000)
        assert len(picked) == len(fm)

    def test_uniform_restricts_to_busiest_neuron(self):
        net = uneven_fan_net()
        problem = PruningProblem("uniform-simplification", target_fan_in=3)
        picked = select_candidates(*rated(net, flat_map(net, problem)), net, problem, 100)
        owners = {(r.layer, r.neuron) for r, _ in picked}
        assert owners == {(1, 0)}
        assert len(picked) == 5
        assert all(r.kind == "synapse" for r, _ in picked)

    def test_uniform_exhausts_at_target(self):
        net = uneven_fan_net()
        for slot in (1, 2):
            net.remove_element(synapse_ref(1, 0, slot))
        problem = PruningProblem("uniform-simplification", target_fan_in=3)
        assert candidate_pool(net, problem).tolist() == []
        with pytest.raises(PoolExhausted):
            select_candidates(*rated(net, {}), net, problem, 1)

    def test_ties_break_toward_lower_ref(self):
        net = uneven_fan_net()
        problem = PruningProblem("synapse-removal")
        fm = flat_map(net, problem, value=0.25)
        (ref, target), = select_candidates(*rated(net, fm), net, problem, 1)
        assert str(ref) == "bias:1:0"  # smallest key in the pool
        assert target == 0.0

    def test_ascending_indicator_order(self):
        net = uneven_fan_net()
        problem = PruningProblem("synapse-removal")
        fm = flat_map(net, problem, value=1.0)
        fm[synapse_ref(1, 2, 2)] = 0.001
        fm[bias_ref(2, 0)] = 0.01
        picked = select_candidates(*rated(net, fm), net, problem, 2)
        assert [str(r) for r, _ in picked] == ["synapse:1:2:2", "bias:2:0"]

    def test_frozen_elements_not_in_pool(self):
        net = uneven_fan_net()
        net.set_weight(synapse_ref(1, 2, 1), 0.5, freeze=True)
        pool = pool_refs(net, PruningProblem("synapse-removal"))
        assert synapse_ref(1, 2, 1) not in pool

    def test_precision_targets_use_nearest_valid(self):
        net = uneven_fan_net()  # all weights 0.5, biases 0.1 / 0.0
        problem = PruningProblem("precision-reduction", valid_set=TERNARY)
        fm = flat_map(net, problem)
        fm[synapse_ref(1, 0, 1)] = 0.0
        (ref, target), = select_candidates(*rated(net, fm), net, problem, 1)
        assert str(ref) == "synapse:1:0:1"
        assert target == 0.0  # 0.5 ties toward smaller magnitude


class TestApplyModification:
    def test_precision_freezes_at_target(self):
        net = uneven_fan_net()
        ref = synapse_ref(1, 1, 2)
        net.set_weight(ref, 0.4)
        problem = PruningProblem("precision-reduction", valid_set=TERNARY)
        applied, cascade = apply_modification(net, [(ref, 0.0)], problem)
        assert applied == [ref] and cascade == []
        assert net.weight(ref) == 0.0 and not net.is_trainable(ref)

    def test_neuron_removal_cascades(self):
        net = uneven_fan_net()
        problem = PruningProblem("neuron-removal")
        applied, cascade = apply_modification(net, [(neuron_ref(1, 2), None)], problem)
        assert applied == [neuron_ref(1, 2)]
        assert "synapse:2:0:3" in {str(r) for r in cascade}

    def test_feature_selection_clears_mask(self):
        net = uneven_fan_net()
        problem = PruningProblem("feature-selection")
        apply_modification(net, [(input_ref(4), None)], problem)
        assert net.active_inputs.tolist()[4] is False

    def test_vanished_candidate_skipped(self):
        net = uneven_fan_net()
        problem = PruningProblem("neuron-removal")
        # removing neuron 1:2 will not cascade into 1:1, but removing the
        # same ref twice in a batch must not crash
        applied, _ = apply_modification(
            net, [(neuron_ref(1, 2), None), (neuron_ref(1, 2), None)], problem
        )
        assert applied == [neuron_ref(1, 2)]

    def test_bias_removal_freezes_at_zero(self):
        net = uneven_fan_net()
        problem = PruningProblem("synapse-removal")
        applied, _ = apply_modification(net, [(bias_ref(1, 0), 0.0)], problem)
        ref = bias_ref(1, 0)
        assert net.weight(ref) == 0.0 and not net.is_trainable(ref)
        assert net.is_alive(ref)

    def test_a_removal_set_given_as_negative_zero_freezes_biases_at_zero(self):
        """A bias is frozen at its selected target, and a removal problem's
        valid set is {0} even when given as {-0.0}."""
        net = uneven_fan_net()
        problem = PruningProblem("synapse-removal", valid_set=ValidSet((-0.0,)))
        assert repr(problem.valid_set.values) == "(0.0,)"
        candidates = select_candidates(*rated(net, {bias_ref(1, 0): 0.0}), net, problem, 1)
        assert apply_modification(net, candidates, problem) == ([bias_ref(1, 0)], [])
        assert repr(net.weight(bias_ref(1, 0))) == "0.0"


def doomed_single_weight_net():
    """The only trainable element is the one synapse; removing it leaves an
    untrainable constant network, so every pruning attempt must fail."""
    neuron = neuron_doc(0.0, [(0, 0, 3.0)], "tanh")
    neuron["synapses"][0]["trainable"] = True
    net = network_from_layers(1, [[neuron]], ["pos", "neg"])
    ds = make_dataset([[1.0], [-1.0]], ["pos", "neg"], class_labels=["pos", "neg"])
    return net, ds


class TestPruneBasic:
    def test_requires_trained_network(self):
        net = build_network((2, 3, 1), output_labels=["pos", "neg"], seed=0)
        ds = make_dataset([[1, 1], [-1, 1], [1, -1], [-1, -1]],
                          ["pos", "neg", "neg", "pos"], class_labels=["pos", "neg"])
        config = prune_cfg("synapse-removal",
                           retrain=retrain_cfg(lr=0.0, budget=0))
        if evaluate_classification(net, ds)[0] == 1.0:
            pytest.skip("random net solves the task by accident")
        with pytest.raises(NotTrainedError):
            prune_basic(net, ds, config)

    def test_exhausted_pool_certifies_with_zero_steps(self):
        net, ds = doomed_single_weight_net()
        net.set_weight(synapse_ref(1, 0, 1), 3.0, freeze=True)
        result = prune_basic(net, ds, prune_cfg("synapse-removal"))
        assert result.stop_reason == "pool-exhausted"
        assert result.steps == []

    def test_first_failure_restores_entry_network(self):
        net, ds = doomed_single_weight_net()
        entry, digest = net.to_json(), net.digest()
        sink = io.StringIO()
        result = prune_basic(net, ds, prune_cfg("synapse-removal", sink=sink,
                                                retrain=retrain_cfg(budget=40)))
        assert result.stop_reason == "failed-at-m1"
        assert len(result.steps) == 1
        record = result.steps[0]
        assert not record.accepted
        assert record.net_hash_after == record.save_hash == digest
        assert result.network.to_json() == entry
        logged = json.loads(sink.getvalue().splitlines()[0])
        assert logged["accepted"] is False and logged["M"] == 1

    def test_xor_synapse_removal_keeps_skill(self):
        net, ds, _, outcome = fresh_trained_xor(1)
        assert outcome.converged
        sink = io.StringIO()
        result = prune_basic(net, ds, prune_cfg("synapse-removal", sink=sink))
        accuracy, _ = evaluate_classification(result.network, ds)
        assert accuracy == 1.0
        assert result.stop_reason == "failed-at-m1"
        assert len(result.accepted_steps) >= 1
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        for rec in records:
            if not rec["accepted"]:
                assert rec["net_hash_after"] == rec["save_hash"]
        pools = [r["pool_size"] for r in records]
        assert pools == sorted(pools, reverse=True)


class TestPruneAccelerated:
    def test_m_halves_on_failure_until_stop(self):
        net, ds = doomed_single_weight_net()
        result = prune_accelerated(
            net, ds, prune_cfg("synapse-removal", loop="accelerated",
                               initial_m=8, retrain=retrain_cfg(budget=40)))
        assert [r.m for r in result.steps] == [8, 4, 2, 1]
        assert [r.staleness for r in result.steps] == [0, 1, 2, 3]
        assert all(not r.accepted for r in result.steps)
        assert result.stop_reason == "failed-at-m1"

    def test_m1_matches_basic_exactly(self):
        final = {}
        for loop, runner in (("basic", prune_basic),
                             ("accelerated", prune_accelerated)):
            net, ds, _, _ = fresh_trained_xor(5)
            result = runner(net, ds, prune_cfg("synapse-removal", loop=loop,
                                               initial_m=1))
            final[loop] = (result.network.to_json(), result.stop_reason)
        assert final["basic"] == final["accelerated"]

    def test_success_resets_staleness(self, majority_data):
        net = trained_majority_net(0, majority_data)
        result = prune_accelerated(
            net, majority_data,
            prune_cfg("synapse-removal", loop="accelerated",
                      retrain=synth_retrain()))
        records = result.steps
        assert any(r.accepted and r.m > 1 for r in records)
        for i, rec in enumerate(records[:-1]):
            if rec.accepted:
                assert records[i + 1].staleness == 0
        accuracy, _ = evaluate_classification(result.network, majority_data)
        assert accuracy == 1.0


class TestStaleIndicators:
    def test_halved_batch_is_the_front_of_the_rejected_one(self, majority_data):
        # the restore after a rejected batch must keep every ref valid, so
        # the loop retries the lowest-rated half of the same candidates
        net = trained_majority_net(0, majority_data)
        net.remove_element(synapse_ref(1, 0, 1))  # tombstones before the loop
        net.remove_element(neuron_ref(1, 1))
        assert train_until(net, majority_data, LossKind("mse"),
                           synth_retrain()).converged
        result = prune_accelerated(
            net, majority_data,
            prune_cfg("synapse-removal", loop="accelerated", initial_m=8, acc=2,
                      retrain=retrain_cfg(lr=0.005, momentum=0.0, budget=30)))
        retries = [(a, b) for a, b in zip(result.steps, result.steps[1:])
                   if b.staleness > 0]
        assert retries
        for rejected, retry in retries:
            assert not rejected.accepted
            assert retry.refs == rejected.refs[: retry.m]


class TestDivergence:
    """A test double makes the second loss evaluation after the stage's
    entry check (call 1) non-finite, so training diverges: in the retrain
    after one accumulation epoch, in the ledger itself after two."""

    def _run(self, loop, acc, monkeypatch):
        net, ds, _, _ = fresh_trained_xor(1)
        entry, digest = net.to_json(), net.digest()
        sink = io.StringIO()
        config = prune_cfg("synapse-removal", loop=loop, initial_m=4, acc=acc,
                           sink=sink, retrain=retrain_cfg(budget=20))
        calls = []

        def diverging_loss_terms(loss_kind, targets, outputs):
            losses, grads = loss_terms(loss_kind, targets, outputs)
            calls.append(None)
            return (losses + np.inf if len(calls) == 3 else losses), grads

        monkeypatch.setattr(training, "loss_terms", diverging_loss_terms)
        runner = prune_basic if loop == "basic" else prune_accelerated
        result = runner(net, ds, config)
        logged = [json.loads(line) for line in sink.getvalue().splitlines()]
        return net, entry, digest, result, logged

    @pytest.mark.parametrize("loop", ["basic", "accelerated"])
    @pytest.mark.parametrize("acc,modified", [(1, True), (2, False)])
    def test_diverged_step_restores_snapshot(self, loop, acc, modified,
                                             monkeypatch):
        net, entry, digest, result, logged = self._run(loop, acc, monkeypatch)
        first = result.steps[0]
        assert not first.accepted and first.reason == "diverged"
        assert bool(first.refs) == modified  # retrain diverged after a removal
        assert first.save_hash == first.net_hash_after == digest
        assert logged[0]["reason"] == "diverged" and logged[0]["loss"] is None
        assert logged[0]["epochs_used"] == 0  # no retrain epoch ran
        for step in result.steps:
            if not step.accepted:
                assert step.save_hash == step.net_hash_after
        if not any(step.accepted for step in result.steps):
            assert net.to_json() == entry
        assert result.steps[-1].m == 1 and not result.steps[-1].accepted

    def test_only_diverged_records_carry_a_reason(self, monkeypatch):
        _, _, _, result, logged = self._run("accelerated", 1, monkeypatch)
        assert any(rec["accepted"] for rec in logged)
        for step, rec in zip(result.steps, logged):
            assert ("reason" in rec) == (step.reason is not None)
            assert ("reason" in rec) == (rec["loss"] is None)


def test_a_stage_allocates_one_batch_trace(monkeypatch):
    """The entry check evaluates in the stage's workspace, whose trace
    then serves every ledger and retrain of the stage."""
    net, ds, _, _ = fresh_trained_xor(1)
    built, init = [], BatchTrace.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BatchTrace, "__init__", counted)
    result = prune_basic(net, ds, prune_cfg("synapse-removal"))
    assert len(result.steps) > 1 and len(built) == 1


class TestRunPipeline:
    def test_empty_stage_list_returns_unchanged(self):
        net, ds, _, _ = fresh_trained_xor(2)
        before = net.to_json()
        results, final = run_pipeline(net, ds, [])
        assert results == [] and final.to_json() == before

    def test_untrained_network_aborts_with_stage_count(self):
        net = build_network((2, 3, 1), output_labels=["pos", "neg"], seed=10)
        ds = make_dataset([[1, 1], [-1, 1], [1, -1], [-1, -1]],
                          ["pos", "neg", "neg", "pos"], class_labels=["pos", "neg"])
        if evaluate_classification(net, ds)[0] == 1.0:
            pytest.skip("random net solves the task by accident")
        with pytest.raises(PipelineAbort) as info:
            run_pipeline(net, ds, [prune_cfg("synapse-removal")])
        assert info.value.stages_completed == 0

    def test_election_style_stage_order(self, majority_data):
        net = trained_majority_net(0, majority_data)
        stages = [
            prune_cfg("feature-selection", retrain=synth_retrain()),
            prune_cfg("neuron-removal", retrain=synth_retrain()),
            prune_cfg("synapse-removal", retrain=synth_retrain()),
            prune_cfg("precision-reduction", retrain=synth_retrain(),
                      valid_set=TERNARY),
        ]
        results, final = run_pipeline(net, majority_data, stages)
        assert len(results) == 4
        masked = sorted(k for k in range(8) if not final.active_inputs[k])
        assert masked == [1, 3, 6]  # the uninformative features
        for _, weight, trainable in final.iter_weights():
            assert not trainable and weight in (-1.0, 0.0, 1.0)
        accuracy, _ = evaluate_classification(final, majority_data)
        assert accuracy == 1.0

    def test_transparency_stage_order(self, majority_data):
        net = trained_majority_net(3, majority_data)
        stages = [
            prune_cfg("uniform-simplification", retrain=synth_retrain(),
                      target_fan_in=3),
            prune_cfg("synapse-removal", retrain=synth_retrain()),
            prune_cfg("precision-reduction", retrain=synth_retrain(),
                      valid_set=TERNARY),
        ]
        results, final = run_pipeline(net, majority_data, stages)
        assert max(final.fan_in(r) for r in final.iter_neurons()) <= 3
        for _, weight, trainable in final.iter_weights():
            assert not trainable and weight in (-1.0, 0.0, 1.0)


class TestProblemDefinitions:
    def test_synapse_removal_is_precision_with_zero_set(self):
        problem = PruningProblem("synapse-removal")
        assert problem.valid_set.values == (0.0,)
        with pytest.raises(ValueError):
            PruningProblem("synapse-removal", valid_set=TERNARY)

    def test_precision_requires_valid_set(self):
        with pytest.raises(ValueError):
            PruningProblem("precision-reduction")

    def test_initial_m_is_a_count_or_half_of_pool(self):
        retrain = TrainConfig(0.1)
        for bad in (True, False, 2.5, 2.0, "3", "half", 0, -1, None):
            with pytest.raises(ValueError, match="initial M"):
                PruneConfig(PruningProblem("synapse-removal"), retrain, initial_m=bad)
        for good, want in ((1, 1), (np.int64(3), 3), ("half-of-pool", "half-of-pool")):
            m = PruneConfig(PruningProblem("synapse-removal"), retrain,
                            initial_m=good).initial_m
            assert m == want and type(m) is type(want)

    def test_element_classes(self):
        assert PruningProblem("feature-selection").element_class == "input"
        assert PruningProblem("neuron-removal").element_class == "neuron"
        assert PruningProblem("uniform-simplification").element_class == "weight"


def chain_end(records, entry_hash):
    """Check a stage's save_hash chain and return its last hash.

    The first save_hash digests the entry network, each later one is the
    net_hash_after of the last accepted record (retries at staleness > 0
    share their snapshot's), and a rejected record's net_hash_after equals
    its save_hash: the restore is exact.
    """
    last = entry_hash
    for rec in records:
        assert rec.save_hash == last
        if rec.accepted:
            last = rec.net_hash_after
        else:
            assert rec.net_hash_after == rec.save_hash
    return last


class TestSaveHashChain:
    @pytest.fixture
    def snapshot_digests(self, monkeypatch):
        """Digest of the network at every snapshot the loop takes."""
        digests = []
        real = Network.snapshot

        def snapshot(net):
            digests.append(net.digest())
            return real(net)

        monkeypatch.setattr(Network, "snapshot", snapshot)
        return digests

    @staticmethod
    def stage(loop, problem="synapse-removal", **kw):
        return prune_cfg(problem, loop=loop, acc=2,
                         retrain=retrain_cfg(budget=200), **kw)

    @pytest.mark.parametrize("loop", ["basic", "accelerated"])
    def test_one_stage(self, snapshot_digests, loop):
        net, ds, _, _ = fresh_trained_xor(1)
        entry = net.digest()
        (result,), final = run_pipeline(net, ds, [self.stage(loop)])
        records = result.steps
        assert any(r.accepted for r in records)
        if loop == "accelerated":
            assert any(r.staleness > 0 for r in records)
        last = chain_end(records, entry)
        assert final.digest() == last
        # every record's save_hash is the digest taken at its snapshot
        taken = [snapshot_digests[sum(r.accepted for r in records[:i])]
                 for i in range(len(records))]
        assert [r.save_hash for r in records] == taken

    def test_two_stages(self):
        net, ds, _, _ = fresh_trained_xor(1)
        entry = net.digest()
        stages = [self.stage("accelerated"),
                  self.stage("basic", "precision-reduction", valid_set=TERNARY)]
        (first, second), final = run_pipeline(net, ds, stages)
        assert second.steps
        middle = chain_end(first.steps, entry)
        assert second.steps[0].save_hash == middle
        assert final.digest() == chain_end(second.steps, middle)
