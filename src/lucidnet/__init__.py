"""lucidnet: prune small feed-forward networks until they read like rules.

Train a deliberately oversized network, rank every element by a first-order
sensitivity indicator averaged over training epochs, prune to minimality
under one of five pruning problems, quantize the survivors to {-1, 0, 1},
and read the result back as "at least k of m" threshold statements.
"""

from .data import Dataset, load_dataset
from .errors import (
    DatasetError,
    DivergenceError,
    ExcludedElementError,
    IllegalModificationError,
    InputShapeError,
    LucidnetError,
    NonDifferentiableError,
    NotTrainedError,
    PipelineAbort,
    PoolExhausted,
    StaleReferenceError,
    TransparencyError,
    UsageError,
)
from .network import (
    ElementRef,
    ForwardTrace,
    GradientBundle,
    Network,
    Neuron,
    Synapse,
    backward,
    bias_ref,
    build_network,
    forward,
    forward_batch,
    input_ref,
    neuron_ref,
    step_function,
    synapse_ref,
)
from .pruning import (
    PruneConfig,
    PruneResult,
    PruneStepRecord,
    PruningProblem,
    apply_modification,
    candidate_pool,
    prune_accelerated,
    prune_basic,
    run_pipeline,
    select_candidates,
)
from .sensitivity import (
    SensitivityLedger,
    ValidSet,
    aggregate_samples,
    collect_ledger,
    input_indicator_sample,
    nearest_valid,
    neuron_indicator_sample,
    weight_indicator_sample,
)
from .training import (
    GradientRecord,
    LossKind,
    TrainConfig,
    TrainOutcome,
    evaluate_classification,
    total_loss,
    train_epoch,
    train_until,
)
from .transparency import (
    RuleComparison,
    RuleSet,
    Statement,
    ThresholdRule,
    classify_rules,
    compare_rulesets,
    evaluate_rules,
    fixtures_A1_A2,
    is_logically_transparent,
    single_question_rule_network,
    substitute_step,
    verbalize,
)

__version__ = "0.1.0"
