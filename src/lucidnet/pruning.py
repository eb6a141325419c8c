"""Controlled pruning loops over the five pruning problems.

Both loops share the same skeleton: snapshot the network, take the
candidate pool, accumulate sensitivity indicators over a few live training
epochs and rate exactly the pool, modify the lowest-rated candidates,
retrain, and either keep the result or restore the snapshot.  A step
carries its pool as one index array, weight-table rows for a weight
problem and value columns for inputs and neurons, from ``candidate_pool``
through the ledger to the pick; only the picked entries are named as
ElementRefs.  The pool is taken once per snapshot: ledger epochs move only
trainable weights and a restore returns to the snapshot, so membership
cannot change until a step is accepted.  A stage builds one
``EpochWorkspace``, which refuses a row label the network cannot output,
and its entry check, ledgers and retrains reset and reuse it.  The
accelerated loop modifies batches of M, halving M on failure without
recomputing the indicators, and stops once a single-element attempt fails;
the basic loop is the same with M fixed at 1.
Both first refuse a network that fails ``criterion_met``.  A step whose
training diverges counts as a failed retrain: the snapshot is restored and
the step is logged with the reason.

The result says which way the loop stopped: "pool-exhausted" when no
candidate of the class was left, or "failed-at-m1" when the lowest-rated
single candidate could not be modified without breaking the success
criterion within the retraining budget.  "failed-at-m1" is not a proof of
minimality: the other candidates are not tried, and one of them may still
be modifiable.
"""

from __future__ import annotations

import json
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, NotTrainedError, PipelineAbort, PoolExhausted
from .network import Network
from .sensitivity import (INDICATOR_MODES, ValidSet, collect_ledger, element_refs,
                          nearest_valid)
from .training import EpochWorkspace, LossKind, TrainConfig, criterion_met, train_until

PROBLEM_KINDS = (
    "feature-selection",
    "neuron-removal",
    "synapse-removal",
    "precision-reduction",
    "uniform-simplification",
)
LOOP_KINDS = ("basic", "accelerated")


@dataclass(frozen=True)
class PruningProblem:
    kind: str
    valid_set: ValidSet | None = None
    target_fan_in: int = 3

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown pruning problem {self.kind!r}")
        if self.target_fan_in < 1:
            raise ValueError("target fan-in must be at least 1")
        if self.kind == "precision-reduction" and self.valid_set is None:
            raise ValueError("precision reduction needs a valid set")
        if self.kind in ("synapse-removal", "uniform-simplification"):
            # removal is precision reduction with the singleton {0}, never {-0.0}
            if self.valid_set not in (None, ValidSet.removal()):
                raise ValueError("removal problems fix the valid set at {0}")
            object.__setattr__(self, "valid_set", ValidSet.removal())

    @property
    def element_class(self):
        if self.kind == "feature-selection":
            return "input"
        if self.kind == "neuron-removal":
            return "neuron"
        return "weight"


@dataclass
class PruneConfig:
    problem: PruningProblem
    retrain: TrainConfig
    loss_kind: LossKind = field(default_factory=LossKind)
    indicator_mode: str = "avg"
    accumulation_epochs: int = 10
    initial_m: int | str = "half-of-pool"
    loop: str = "accelerated"
    log_sink: object = None

    def __post_init__(self):
        if self.indicator_mode not in INDICATOR_MODES:
            raise ValueError(f"unknown indicator mode {self.indicator_mode!r}")
        if self.accumulation_epochs < 1:
            raise ValueError("need at least one accumulation epoch")
        if self.loop not in LOOP_KINDS:
            raise ValueError(f"unknown loop kind {self.loop!r}")
        m = self.initial_m
        if m != "half-of-pool":
            if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
                raise ValueError("initial M is a count of at least 1 or 'half-of-pool'")
            self.initial_m = operator.index(m)  # numpy's too: the log holds an int


@dataclass
class PruneStepRecord:
    """One attempted modification batch.

    save_hash is ``Network.digest`` of the network when the snapshot was
    taken before the attempt and net_hash_after its digest after accept or
    restore.  A digest covers the network's whole state record, and equal
    digests mean an equal ``network.json``, so a rejected step whose
    net_hash_after equals its save_hash is the log's proof that it rolled
    back byte-exactly.
    ``reason`` is "diverged" on a step whose training diverged.  The loss of
    such a step is None.  Its epochs_used counts the retrain's epochs, the
    one that diverged included, and is 0 when the rating diverged: ledger
    epochs are never counted in epochs_used.
    """

    step: int
    m: int
    refs: list
    accepted: bool
    total_loss: float | None
    epochs_used: int
    staleness: int
    cascade: list = field(default_factory=list)
    pool_size: int = 0
    save_hash: str = ""
    net_hash_after: str = ""
    reason: str | None = None

    def to_json(self):
        doc = {
            "step": self.step,
            "M": self.m,
            "refs": self.refs,
            "accepted": self.accepted,
            "loss": self.total_loss,
            "epochs_used": self.epochs_used,
            "staleness": self.staleness,
            "cascade": self.cascade,
            "pool_size": self.pool_size,
            "save_hash": self.save_hash,
            "net_hash_after": self.net_hash_after,
        }
        if self.reason is not None:
            doc["reason"] = self.reason
        return json.dumps(doc, sort_keys=True)


@dataclass
class PruneResult:
    """``stop_reason`` is "pool-exhausted" when no candidate of the class
    was left to try, or "failed-at-m1" when the lowest-rated single
    candidate failed to retrain.  ``final_loss`` and ``final_accuracy``
    are those of the returned network: of the last accepted step's
    retrain, or of the stage's entry check when no step was accepted."""

    network: Network
    steps: list
    stop_reason: str
    final_loss: float
    final_accuracy: float

    @property
    def accepted_steps(self):
        return [s for s in self.steps if s.accepted]


def candidate_pool(net: Network, problem: PruningProblem):
    """Live, trainable elements of the problem's class as one ascending
    index array, so in ElementRef.key order: columns of the value vector
    for inputs (the active features) and neurons (the live hidden ones),
    else rows of ``net.weight_table``, every live trainable weight, or for
    uniform simplification the live trainable synapses of each neuron whose
    ``fan_ins`` entry is the network's largest, when that exceeds the
    target.  ``sensitivity.element_refs`` names them."""
    if problem.kind == "feature-selection":
        return np.flatnonzero(net.active_inputs)
    if problem.kind == "neuron-removal":
        return net.neuron_columns(hidden_only=True)
    table = net.weight_table
    take = net.alive[table.pos] & net.trainable[table.pos]
    if problem.kind == "uniform-simplification":
        fan = net.fan_ins()
        top = fan.max()
        if top <= problem.target_fan_in:
            return np.empty(0, dtype=np.intp)
        take &= table.synapse & (fan[table.unit] == top)
    return np.flatnonzero(take)


def select_candidates(index, indicators, net: Network, problem: PruningProblem, m):
    """The m rated elements with the smallest indicators, each paired with
    its modification target: the nearest valid value of the weight's
    current value, or None for inputs and neurons.

    ``indicators`` rates the entries of ``index``, a rated candidate pool
    as ``candidate_pool`` gives it, in any order.  One lexsort picks by
    indicator, then by the entry itself, a ``weight_table`` row or a value
    column, whose order is ElementRef.key order.  So ties, -0.0 against
    0.0 too, break toward the lower ElementRef whatever the pool's order.
    Only the m picks are named as refs.  Raises PoolExhausted when the pool
    is empty, i.e. no candidate of the class remains (for uniform
    simplification this is the successful exit: every fan-in is at or
    below target).
    """
    if m < 1:
        raise ValueError("M must be at least 1")
    if not len(index):
        raise PoolExhausted(f"no candidates left for {problem.kind}")
    picks = index[np.lexsort((index, indicators))[:m]]
    refs = element_refs(net, problem.element_class, picks)
    if problem.element_class == "weight":
        w = net.params[net.weight_table.pos[picks]]
        return list(zip(refs, nearest_valid(w, problem.valid_set).tolist()))
    return [(ref, None) for ref in refs]


def apply_modification(net: Network, candidates, problem: PruningProblem):
    """Apply one batch of modifications; returns (modified refs, cascade).

    One rule: a bias, or any weight under precision reduction, is frozen at
    its target (a removal problem's valid set is {0}, so a bias's target
    is 0.0); every other element goes through remove_element, so dead
    subnetworks are cleaned up.  A candidate that vanished through an
    earlier cascade in the same batch is skipped.
    """
    applied = []
    cascade = []
    for ref, target in candidates:
        if not net.is_alive(ref):
            continue
        if ref.kind == "bias" or problem.kind == "precision-reduction":
            net.set_weight(ref, target, freeze=True)
        else:
            cascade.extend(net.remove_element(ref))
        applied.append(ref)
    return applied, cascade


def _emit(config, record):
    if config.log_sink is not None:
        config.log_sink.write(record.to_json() + "\n")


def prune_basic(net: Network, dataset, config: PruneConfig) -> PruneResult:
    """One-element-at-a-time loop: snapshot, rate, modify, retrain, and
    restore the snapshot on the first failed retraining."""
    return _prune(net, dataset, config, 1)


def prune_accelerated(net: Network, dataset, config: PruneConfig) -> PruneResult:
    """Batch loop: try M elements at once; on failure restore the snapshot
    and halve M without recomputing indicators; a failure at M = 1 ends the
    procedure with the last saved network.  An initial M of
    "half-of-pool" is half the first candidate pool, and at least 1."""
    return _prune(net, dataset, config, config.initial_m)


def rate_pool(net, dataset, config, pool, work=None):
    """(index, indicators) over ``pool`` from a fresh ledger of the config's
    accumulation epochs, which train the network (in ``work`` if given):
    the pool in the ledger's order, and one indicator per entry."""
    problem = config.problem
    ledger = collect_ledger(net, dataset, config.loss_kind, config.retrain,
                            config.accumulation_epochs, problem.element_class, pool,
                            config.indicator_mode, work)
    return ledger.index, ledger.finalize(net, problem.valid_set)


def _prune(net, dataset, config, m):
    work = EpochWorkspace(net, dataset, config.loss_kind)  # one per stage
    if not criterion_met(net, dataset, config.loss_kind, config.retrain, work):
        raise NotTrainedError(
            "pruning requires a network that already meets the success criterion"
        )
    final = work.judged  # the network's until a step is accepted
    steps, save_hash = [], net.digest()  # an accepted step's digest is the next one
    while True:
        saved = net.snapshot()
        pool = candidate_pool(net, config.problem)
        if m == "half-of-pool":
            m = max(1, len(pool) // 2)
        rating = None  # rated lazily: a diverged rating is retried
        staleness = 0
        while True:
            applied, cascade, outcome, epochs = [], [], None, 0
            try:
                if rating is None:
                    rating = rate_pool(net, dataset, config, pool, work)
                candidates = select_candidates(*rating, net, config.problem, m)
                applied, cascade = apply_modification(net, candidates, config.problem)
                outcome = train_until(net, dataset, config.loss_kind,
                                      config.retrain, work)
            except PoolExhausted:
                net.restore(saved)
                return PruneResult(net, steps, "pool-exhausted", *final)
            except DivergenceError as exc:
                if rating is not None:  # the retrain diverged
                    epochs = exc.epochs
            accepted = outcome is not None and outcome.converged
            if not accepted:
                net.restore(saved)
            record = PruneStepRecord(
                step=len(steps),
                m=m,
                refs=[str(r) for r in applied],
                accepted=accepted,
                total_loss=None if outcome is None else outcome.final_total_loss,
                epochs_used=epochs if outcome is None else outcome.epochs_used,
                staleness=staleness,
                cascade=[str(r) for r in cascade],
                pool_size=len(pool),
                save_hash=save_hash,
                net_hash_after=net.digest(),
                reason="diverged" if outcome is None else None,
            )
            steps.append(record)
            _emit(config, record)
            if accepted:
                final = outcome.final_total_loss, outcome.final_accuracy
                save_hash = record.net_hash_after
                break  # fresh indicators on the smaller network
            if m == 1:
                return PruneResult(net, steps, "failed-at-m1", *final)
            staleness += 1
            m //= 2


def run_pipeline(net: Network, dataset, configs):
    """Run pruning stages in order, each starting from the previous result.

    Returns (list of PruneResult, final network).  A stage whose
    precondition fails aborts with the count of completed stages.
    """
    results = []
    for i, config in enumerate(configs):
        runner = prune_basic if config.loop == "basic" else prune_accelerated
        try:
            results.append(runner(net, dataset, config))
        except NotTrainedError as exc:
            raise PipelineAbort(str(exc), stages_completed=i) from exc
        net = results[-1].network
    return results, net
