"""Database matching under noisy column repetitions.

Generation of correlated database pairs, replica and seeded deletion
detection, joint-typicality row matching, an exact matching-capacity
calculator, and a config-driven experiment harness.
"""

from .detection import (
    DeletionEstimate,
    RunStructure,
    assemble_pattern,
    collapse_runs,
    consecutive_hamming,
    detect_deletions,
    detect_replicas,
    true_runs,
)
from .errors import (
    ArityMismatch,
    DbMatchError,
    DegenerateGap,
    IndependentDatabases,
    MemoryCapExceeded,
    RunMismatch,
    ValidationError,
)
from .experiments import (
    ExperimentConfig,
    SweepResult,
    TrialRecord,
    config_from_dict,
    detection_bench,
    load_config,
    run_sweep,
    run_trial,
    simulate,
)
from .matcher import (
    MatchReport,
    TypicalityParams,
    evaluate,
    match_all,
)
from .model import (
    Database,
    Labeling,
    RepetitionPattern,
    SeedBatch,
    apply_repetition_noise,
    generate_seeds,
    generate_unlabeled,
    sample_labeling,
    sample_pattern,
    substreams,
)
from .probability import (
    Channel,
    Pmf,
    Scalars,
    SymbolMap,
    bernoulli_kl,
    binary_entropy,
    capacity,
    capacity_direct,
    capacity_per_count,
    compute_p0_p1,
    compute_q0_q1,
    entropy,
    find_best_sigma,
    pipeline_scalars,
    recommend_seed_size,
    recommend_threshold,
    replica_error_bounds,
)

__version__ = "0.1.0"
