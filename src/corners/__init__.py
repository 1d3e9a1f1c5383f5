"""Corner statistics of tree-like, permutation, type-B and symmetric
tree-like tableaux: exact enumeration, a weighted growth chain, the
folding bijection, and seeded uniform sampling.

Importing the package runs none of its modules.  Each name below is
imported from its module on first use (PEP 562), so ``from corners import
census`` loads the enumerator and what it needs, and nothing else.
"""

import importlib

_EXPORTS = {
    "bijections": (
        "round_trip",
        "symmetric_to_type_b",
        "tree_like_to_permutation_shape",
        "type_b_to_symmetric",
    ),
    "chain": (
        "CornerDecomposition",
        "corner_distribution",
        "corner_event_probability_dp",
        "corner_event_probability_formula",
        "count_tableaux",
        "expected_corners",
        "first_step_west_probability",
        "last_step_south_probability",
        "rising_factorial_pgf",
        "symmetric_corner_decomposition",
        "total_corners",
        "u_distribution",
        "u_pgf",
    ),
    "enumerator": (
        "Census",
        "census",
        "enumerate_shapes",
        "enumerate_tableaux",
        "extend_permutation",
        "parent_permutation",
    ),
    "errors": (
        "BijectionError",
        "BudgetExceededError",
        "CornersError",
        "DomainError",
        "IndexOutOfRangeError",
        "InvalidTableauError",
        "NotATreeLikeShapeError",
        "NotSymmetricError",
    ),
    "families": ("BRUTE_FORCE_BUDGET", "CHAIN_BUDGET", "ChainBudget", "Family"),
    "sampler": (
        "GENERATOR_ID",
        "McReport",
        "McStatistic",
        "Trajectory",
        "monte_carlo_corner_report",
        "sample_permutation_tableau",
        "sample_permutation_tableaux",
        "sample_trajectories",
        "sample_trajectory",
    ),
    "shapes": ("BorderPath", "all_paths"),
    "tableaux": (
        "CornerStats",
        "MarkerMap",
        "PermutationTableau",
        "SymmetricTreeLikeTableau",
        "TreeLikeTableau",
        "TypeBTableau",
        "ValidationResult",
        "canonical_key",
        "corner_stats",
        "from_record",
        "markers",
        "to_record",
        "validate",
    ),
    "verification": (
        "VerificationReport",
        "VerificationRow",
        "pushforward_check",
        "run_suite",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "1.0.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
