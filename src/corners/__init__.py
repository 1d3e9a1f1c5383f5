"""Corner statistics of tree-like, permutation, type-B and symmetric
tree-like tableaux: exact enumeration, a weighted growth chain, the
folding bijection, and seeded uniform sampling.
"""

from .bijections import (
    CornerDecomposition,
    symmetric_corner_decomposition,
    symmetric_to_type_b,
    tree_like_to_permutation_shape,
    type_b_to_symmetric,
)
from .chain import (
    ChainSpec,
    Transition,
    corner_distribution,
    corner_event_probability_dp,
    corner_event_probability_formula,
    count_tableaux,
    expected_corners,
    first_step_west_probability,
    last_step_south_probability,
    rising_factorial_pgf,
    total_corners,
    u_distribution,
    u_pgf,
)
from .enumerator import (
    Census,
    census,
    enumerate_shapes,
    enumerate_tableaux,
    extend_permutation,
    parent_permutation,
)
from .errors import (
    BijectionError,
    BudgetExceededError,
    CornersError,
    DomainError,
    IndexOutOfRangeError,
    InvalidTableauError,
    NotATreeLikeShapeError,
    NotSymmetricError,
)
from .families import BRUTE_FORCE_BUDGET, CHAIN_BUDGET, ChainBudget, Family
from .sampler import (
    GENERATOR_ID,
    McReport,
    McStatistic,
    Trajectory,
    monte_carlo_corner_report,
    sample_permutation_tableau,
    sample_permutation_tableaux,
    sample_trajectories,
    sample_trajectory,
)
from .shapes import BorderPath, all_paths
from .tableaux import (
    CornerStats,
    MarkerMap,
    PermutationTableau,
    SymmetricTreeLikeTableau,
    TreeLikeTableau,
    TypeBTableau,
    ValidationResult,
    canonical_key,
    corner_stats,
    family_of,
    from_record,
    markers,
    to_record,
    transpose,
    unrestricted_row_count,
    unrestricted_rows,
    validate,
)
from .verification import (
    PushforwardReport,
    VerificationReport,
    VerificationRow,
    pushforward_check,
    run_suite,
)

__version__ = "1.0.0"
