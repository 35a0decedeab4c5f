"""beliefcomm: lossy communication of learned beliefs over finite alphabets."""

from .spaces import (
    Distribution,
    ConceptSpace,
    HypothesisSpace,
    ProblemInstance,
    total_variation,
    kl_divergence,
    mutual_information,
    entropy_bits,
    problem_instance_from_json,
    problem_instance_to_json,
    load_problem_instance,
)
from .learning import (
    Posterior,
    LearningRule,
    fit,
    empirical_loss,
    true_loss,
    d_sem,
    d_sem_rows,
    effective_distortion_matrix,
)
from .rate_distortion import (
    RDPoint,
    RDCurve,
    solve_dr,
    solve_rd,
    solve_rd_with_prior,
    rd_curve,
    kl_rate,
)
from .channel_coding import (
    CommonRandomness,
    CodeRecord,
    CodedBatch,
    CodedSequence,
    SingleShotBounds,
    encode_batch,
    decode_batch,
    encode_mrc,
    decode_mrc,
    code_messages,
    induced_distribution_exact,
    single_shot_bounds,
    candidate_count,
    code_sequence,
    GENERATOR_ID,
)
from .coordination import (
    SequenceTrace,
    Example1Result,
    StrongCoordinationReport,
    d_avg_seq,
    d_max_seq,
    d_sem_from_joint_type,
    joint_type_from_pairs,
    alternating_schedule,
    run_example_1,
    simulate_empirical_deterministic,
    simulate_strong,
)
from .schemes import (
    SchemeReport,
    BoundCheckRow,
    distortion_rate_bound,
    distortion_rate_bound_scheme2,
    compare_schemes,
    enumerate_compressors,
    refit_on_compressed,
    verify_bound,
)
from .oracle import (
    rd_grid_oracle,
    mrc_enumeration_oracle,
    sequence_distortion_oracle,
)
from .worlds import two_hypothesis_world, random_instance, random_rows
from . import errors

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
