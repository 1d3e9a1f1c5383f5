"""The paper's closed forms, written out here so that the benchmark checks
the package's outputs against something it does not import from it.

``n`` is the size for the tree-like, permutation and type-B families and
the index for the symmetric family (a symmetric tableau of index ``n``
has size ``2n + 1``).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

FAMILIES = ("tree-like", "permutation", "type-b", "symmetric")


def count(family: str, n: int) -> int:
    """Number of tableaux: n! for tree-like and permutation, 2^n n! for
    type-B and for symmetric of index n."""
    if family in ("tree-like", "permutation"):
        return factorial(n)
    return 2**n * factorial(n)


def expected_corners(family: str, n: int) -> Fraction:
    """Mean number of corners, n >= 2."""
    if family == "tree-like":
        return Fraction(n + 4, 6)
    if family == "permutation":
        return Fraction(n + 4, 6) - Fraction(1, n)
    if family == "type-b":
        return Fraction(4 * n + 7, 24) - Fraction(1, 2 * n)
    return Fraction(4 * n + 13, 12)


def total_corners(family: str, n: int) -> int:
    """Corners summed over the family, e.g. n!(n+4)/6 for tree-like."""
    total = expected_corners(family, n) * count(family, n)
    if total.denominator != 1:
        raise ValueError(f"non-integer corner total for {family} n={n}")
    return total.numerator


def corner_probability(family: str, n: int, k: int) -> Fraction:
    """Probability of a corner at border position k, 1 <= k <= n - 1, for
    the permutation and type-B families."""
    if family == "permutation":
        return Fraction(n - k + 1, n) - Fraction((n - k) ** 2, n * (n - 1))
    if family == "type-b":
        return Fraction(n - k + 1, 2 * n) - Fraction((n - k) ** 2, 4 * n * (n - 1))
    raise ValueError(f"no per-position closed form here for {family}")
