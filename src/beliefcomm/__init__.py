"""beliefcomm: lossy communication of learned beliefs over finite alphabets."""

from .spaces import (
    Distribution,
    ConceptSpace,
    HypothesisSpace,
    ProblemInstance,
    total_variation,
    kl_divergence,
    mutual_information,
    problem_instance_from_json,
    problem_instance_to_json,
    load_problem_instance,
)
from .learning import (
    Posterior,
    LearningRule,
    fit,
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
)
from .channel_coding import (
    CommonRandomness,
    CodeRecord,
    CodedBatch,
    CodedSequence,
    encode_batch,
    decode_batch,
    encode_mrc,
    decode_mrc,
    code_messages,
    induced_distribution_exact,
    candidate_count,
    code_sequence,
    GENERATOR_ID,
)
from .coordination import (
    Example1Result,
    StrongCoordinationReport,
    d_avg_seq,
    d_max_seq,
    alternating_schedule,
    run_example_1,
    simulate_strong,
)
from .schemes import (
    SchemeReport,
    BoundCheckRow,
    distortion_rate_bound,
    distortion_rate_bound_scheme2,
    compare_schemes,
    enumerate_compressors,
    verify_bound,
)
from .oracle import (
    rd_grid_oracle,
    mrc_enumeration_oracle,
    sequence_distortion_oracle,
)
from .worlds import two_hypothesis_world, random_instance
from . import errors

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
