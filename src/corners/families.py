"""Tableau family identifiers, which of them are pointed and the 0/1
family each is paired with, enumeration budgets and the verify suite
names."""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import _excerpt

__all__ = ["Family", "BRUTE_FORCE_BUDGET", "ChainBudget", "CHAIN_BUDGET", "SUITE_NAMES"]


class Family(str, enum.Enum):
    """The four tableau families handled by this package.

    The string values double as the spelling used on the command line and
    in serialized records.  The member order is the order ``verify``
    prints them in.
    """

    TREE_LIKE = "tree-like"
    PERMUTATION = "permutation"
    TYPE_B = "type-b"
    SYMMETRIC = "symmetric"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def pointed(self) -> bool:
        """True when a tableau of this family is a set of points on its
        shape (tree-like, symmetric), False for a 0/1 filling."""
        return self in _BIT_FAMILY_OF

    @property
    def bit_family(self) -> "Family":
        """The 0/1 family paired with this one, whose growth chain carries
        its corner laws: itself for a 0/1 family, permutation for
        tree-like and type-B for symmetric."""
        return _BIT_FAMILY_OF.get(self, self)

    @classmethod
    def parse(cls, text: str) -> "Family":
        try:
            return cls(text)
        except ValueError:
            names = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown family {_excerpt(text)}; expected one of: {names}") from None


# each pointed family and its 0/1 family: dropping the last West step of a
# tree-like shape gives a permutation shape, and a symmetric tableau folds
# to a type-B one
_BIT_FAMILY_OF = {Family.TREE_LIKE: Family.PERMUTATION, Family.SYMMETRIC: Family.TYPE_B}


# Largest size accepted by the exhaustive enumerators, per family.  The caps
# keep worst-case runtimes in the seconds range; counting beyond them goes
# through the weighted chain instead.  For the symmetric family the budget is
# expressed in tableau size (always odd), for the others in half-perimeter
# related size n.
BRUTE_FORCE_BUDGET: dict[Family, int] = {
    Family.PERMUTATION: 8,
    Family.TREE_LIKE: 8,
    Family.TYPE_B: 7,
    Family.SYMMETRIC: 13,
}


class ChainBudget(NamedTuple):
    """Caps on the weighted-chain work one call may ask for.

    ``dp_size`` bounds ``n`` of the DP corner law (the symmetric index for
    that family), ``sample_size`` the size of sampled trajectories and
    tableaux, ``sample_count`` the number of samples in one run,
    ``formula_size`` ``n`` of the closed-form corner law and
    ``u_law_size`` ``n`` of the law of the unrestricted-row count.
    """

    dp_size: int
    sample_size: int
    sample_count: int
    formula_size: int
    u_law_size: int


# Set from runs on a 2-CPU host with Python 3.11: the DP law at n = 4000
# takes about 0.1 s, and the whole `formula corners --method dp --family
# symmetric --n 4000` command 0.17 s at 19 MB max RSS; a cold 100-draw
# report at n = 300 about 1.1 s and 146 MB, as the step table grows with
# n; 100 000 draws of the smallest report about 1.8 s.  Each chain family
# keeps one step table for every size, so `sample_size` also bounds its
# positions.  The memory is per process: a report that splits its draws
# with a forked child grows a table in each, so up to about twice that.
# The closed-form corner law is one fraction per position: `formula corners
# --family symmetric --n 20000` takes 0.17-0.21 s at 36 MB max RSS (0.33 s
# and 68 MB at n = 50 000), about what the DP law costs at its cap.  The law
# of U builds the forward rows, and its time grows about as n**4: 0.05 s at
# n = 100, 0.20 s at 150 and 0.65-0.70 s at 200 on either chain (19-29 s for
# type-B at 400).
CHAIN_BUDGET = ChainBudget(
    dp_size=4000, sample_size=300, sample_count=100_000, formula_size=20_000, u_law_size=200
)

# The `verify` suites in run order.  `verification.SUITES` maps each name to
# its function; the names live here so the CLI parser can offer them as
# choices without importing the suites and every engine they call.
SUITE_NAMES = ("counts", "corner-law", "corner-totals", "boundary", "extension", "pgf", "bijections")
