"""``select_candidates`` picks by one array sort and equals the per-ref rule.

The rule is ``sorted(final_map, key=lambda ref: (final_map[ref], ref.key))``
cut at M: the smallest indicators first, ties (-0.0 against 0.0 too) to
the lower ElementRef.  The maps drawn here rate a candidate pool of each
element class of networks with skip connections, removals and frozen
weights; they hold exact ties and signed zeros, come in shuffled order so
that the map's order cannot break a tie, and M runs past the pool.  Each
map reaches ``select_candidates`` as its (index, indicators) arrays, in
the map's order, through ``ref_pools.rated``.  A ledger reorders its pool
into gradient-block order, so a pool rated in any order must give every
entry the same indicator bits and the same picks.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lucidnet import (
    LossKind,
    PruneConfig,
    PruningProblem,
    TrainConfig,
    ValidSet,
    build_network,
    candidate_pool,
    select_candidates,
)
from lucidnet.pruning import rate_pool

from bookkeeping_reference import reference_nearest
from conftest import apply_edits, edit_lists, make_dataset
from ref_pools import pool_refs, rated
from test_network_reference import loaded, network_docs

PROBLEMS = [PruningProblem("feature-selection"), PruningProblem("neuron-removal"),
            PruningProblem("synapse-removal"),
            PruningProblem("precision-reduction", valid_set=ValidSet.ternary()),
            PruningProblem("uniform-simplification", target_fan_in=1)]

INDICATORS = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]),
                       st.floats(0.0, 2.0, allow_nan=False))


def reference_picks(final_map, net, problem, m):
    picked = sorted(final_map, key=lambda ref: (final_map[ref], ref.key))[:m]
    if problem.element_class != "weight":
        return [(ref, None) for ref in picked]
    return [(ref, reference_nearest(net.weight(ref), problem.valid_set)) for ref in picked]


@st.composite
def rated_pools(draw):
    """A network, a problem, a shuffled rating of its candidate pool and M."""
    net = loaded(draw(network_docs()), draw(edit_lists))
    problem = draw(st.sampled_from(PROBLEMS))
    pool = pool_refs(net, problem)
    assume(pool)
    values = draw(st.lists(INDICATORS, min_size=len(pool), max_size=len(pool)))
    order = draw(st.permutations(range(len(pool))))
    final_map = {pool[i]: values[i] for i in order}
    return net, problem, final_map, draw(st.integers(1, len(pool) + 3))


class TestSelectCandidatesEqualsThePerRefSort:
    @settings(max_examples=300, deadline=None)
    @given(rated_pools())
    def test_shuffled_maps(self, case):
        net, problem, final_map, m = case
        got = select_candidates(*rated(net, final_map), net, problem, m)
        assert got == reference_picks(final_map, net, problem, m)
        assert len(got) == min(m, len(final_map))

    @settings(max_examples=100, deadline=None)
    @given(rated_pools())
    def test_all_tied_takes_the_lowest_refs(self, case):
        """With every indicator 0.0 or -0.0 the picks are the M lowest refs,
        whatever the map's order."""
        net, problem, final_map, m = case
        zeros = {ref: (-0.0 if k % 2 else 0.0) for k, ref in enumerate(final_map)}
        got = [ref for ref, _ in select_candidates(*rated(net, zeros), net, problem, m)]
        assert got == sorted(zeros, key=lambda ref: ref.key)[:m]

    def test_a_signed_zero_tie_goes_to_the_lower_ref(self):
        net = loaded(_two_input_doc(), [])
        problem = PruningProblem("feature-selection")
        a, b = pool_refs(net, problem)
        (got, _), = select_candidates(*rated(net, {b: 0.0, a: -0.0}), net, problem, 1)
        assert got == a
        (got, _), = select_candidates(*rated(net, {b: -0.0, a: 0.0}), net, problem, 1)
        assert got == a


def _two_input_doc():
    neuron = {"activation": "tanh", "bias": {"trainable": True, "w": 0.1},
              "synapses": [{"src_layer": 0, "src_index": k, "trainable": True, "w": 0.5}
                           for k in range(2)]}
    return {"input_dim": 2, "active_inputs": [True, True], "layers": [[neuron]],
            "output_labels": ["pos", "neg"]}


@st.composite
def rating_cases(draw):
    """Twin networks with removals and frozen weights, a dataset of their
    shape, a pruning problem, a configuration that trains while it rates,
    and a seed to shuffle the pool with."""
    sizes = (draw(st.integers(1, 5)), draw(st.integers(1, 6)),
             draw(st.integers(1, 4)), draw(st.integers(1, 2)))
    labels = ["pos", "neg"] if sizes[-1] == 1 else ["c0", "c1"]
    seed, edits = draw(st.integers(0, 2**31)), draw(edit_lists)
    activation = draw(st.sampled_from(["tanh", "sigmoid"]))
    nets = [build_network(sizes, activation, labels, seed) for _ in range(2)]
    for net in nets:
        apply_edits(net, edits)
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 60))
    ds = make_dataset(rng.choice([-1.0, 1.0], size=(n, sizes[0])),
                      rng.choice(labels, size=n), class_labels=labels)
    problem = draw(st.sampled_from(PROBLEMS))
    config = PruneConfig(problem, TrainConfig(draw(st.sampled_from([0.0, 0.05, 0.3])),
                                              draw(st.sampled_from([0.0, 0.5]))),
                         LossKind("mse"), draw(st.sampled_from(["max", "avg"])),
                         accumulation_epochs=draw(st.integers(1, 3)))
    return nets, ds, config, draw(st.integers(0, 2**31))


class TestAShuffledPoolRatesTheSame:
    @settings(max_examples=80, deadline=None)
    @given(rating_cases())
    def test_indicator_bits_and_picks(self, case):
        (net, twin), ds, config, shuffle_seed = case
        pool = candidate_pool(net, config.problem)
        shuffled = np.random.default_rng(shuffle_seed).permutation(pool)
        with np.errstate(all="ignore"):
            index, indicators = rate_pool(net, ds, config, pool)
            twin_index, twin_indicators = rate_pool(twin, ds, config, shuffled)
        got = dict(zip(index.tolist(), indicators.tolist()))
        want = dict(zip(twin_index.tolist(), twin_indicators.tolist()))
        assert sorted(got) == sorted(want) == sorted(pool.tolist())
        assert [repr(got[k]) for k in pool.tolist()] == [repr(want[k]) for k in pool.tolist()]
        assert net.to_json() == twin.to_json()
        if not len(pool):
            return
        for m in range(1, len(pool) + 2):
            assert select_candidates(index, indicators, net, config.problem, m) == \
                select_candidates(twin_index, twin_indicators, twin, config.problem, m)
