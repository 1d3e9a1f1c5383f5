"""The weighted growth chain on unrestricted-row counts.

A permutation tableau of size ``n`` arises from a unique size ``n - 1``
parent by appending a border step, and the number of ways to append a
given step depends only on the parent's unrestricted-row count ``u``:

* ``S`` (new empty bottom row): one way, ``u`` becomes ``u + 1``;
* ``W`` (new leftmost column): ``C(u, j - 1)`` ways to land on ``j``,
  for ``j = 1..u``.

Type-B tableaux follow the same scheme with every West weight doubled
plus one extra West transition to ``u + 1``.  Total outgoing weight is
``2**u`` respectively ``2**(u + 1)``, and under either normalization the
next state is ``1 + Binomial(u, 1/2)``.

Summing trajectory weights gives exact cardinalities and exact corner
probabilities for sizes far beyond enumeration reach.  Write the forward
row of k-step prefix weights as a polynomial ``P_k(x) = sum_u w_k(u) x**u``.
The transitions give ``P_k(x) = d x P_{k-1}(x + 1)`` (``d`` = 1, resp. 2
for type B), which never leaves an anti-diagonal ``k + x = s``; counts and
the corner DP read only values ``P_k(s - k)`` from two such diagonals, in
O(n) steps each.  The coefficient rows themselves, grown from
:meth:`ChainSpec.transitions`, serve only the law of ``u``.
Completion weights use the closed form ``m! (m + 1)**u`` (times ``2**m``
for type B).

Tree-like and symmetric values ride on these two chains: dropping the
final West step of a tree-like shape is a corner-faithful bijection onto
permutation shapes, and the symmetric border path of size ``2n + 1``
decomposes as ``S + mirror(q) + q + W`` where ``q`` is the type-B path.

The closed forms live here too (counts, corner laws and totals, corner
position ranges); :mod:`corners.verification` checks them by enumeration.

All arithmetic is exact: integers are unbounded and probabilities are
:class:`fractions.Fraction` values.  No floating point exists here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Union

from .errors import BudgetExceededError, CornersError, DomainError, IndexOutOfRangeError
from .families import CHAIN_BUDGET, Family
from .shapes import SOUTH, WEST

__all__ = [
    "Transition",
    "ChainSpec",
    "count_tableaux",
    "u_distribution",
    "u_pgf",
    "rising_factorial_pgf",
    "corner_event_probability_dp",
    "corner_event_probability_formula",
    "corner_distribution",
    "expected_corners",
    "total_corners",
    "last_step_south_probability",
    "first_step_west_probability",
]

_CHAIN_FAMILIES = (Family.PERMUTATION, Family.TYPE_B)


def _require_chain(family: Family) -> None:
    if family not in _CHAIN_FAMILIES:
        raise DomainError(
            f"the growth chain is defined for {Family.PERMUTATION.value} and "
            f"{Family.TYPE_B.value}, not {family.value}"
        )


def _fraction_text(value: Union[int, Fraction]) -> str:
    """``p/q`` in lowest terms, also for integers (``3`` is ``3/1``)."""
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Transition:
    step: str
    target: int
    weight: int


class ChainSpec:
    """Transition weights out of state ``u`` for one chain family."""

    def __init__(self, family: Family):
        _require_chain(family)
        self.family = family

    def transitions(self, u: int) -> tuple[Transition, ...]:
        if u < 0:
            raise DomainError(f"state must be non-negative, got {u}")
        doubling = 2 if self.family is Family.TYPE_B else 1
        out = [Transition(SOUTH, u + 1, 1)]
        out.extend(Transition(WEST, j, doubling * comb(u, j - 1)) for j in range(1, u + 1))
        if self.family is Family.TYPE_B:
            out.append(Transition(WEST, u + 1, 1))
        return tuple(out)


def _suffix_weight(family: Family, m: int, u: int) -> int:
    """Total weight of all ``m``-step continuations from state ``u``:
    ``m! (m + 1)**u``, times ``2**m`` for type B."""
    return (factorial(m) << m if family is Family.TYPE_B else factorial(m)) * (m + 1) ** u


def _rows(family: Family, n: int) -> list[list[int]]:
    """Forward rows ``0..n`` of ``family``: ``rows[k][u]`` weighs the
    k-step prefixes ending in state ``u``."""
    spec = ChainSpec(family)
    rows = [[1]]
    for k in range(1, n + 1):
        row = [0] * (k + 1)
        for u, w in enumerate(rows[-1]):
            if w:
                for t in spec.transitions(u):
                    row[t.target] += w * t.weight
        rows.append(row)
    return rows


@functools.lru_cache(maxsize=4)  # one DP query reads three; at n = 4000 each holds about 12 MB
def _diagonal(family: Family, s: int) -> tuple[int, ...]:
    """``P_k(s - k)`` for ``k = 0..s``, where ``P_k`` is the polynomial of
    the forward row ``k`` (see :func:`_rows`).

    ``P_0 = 1`` and ``P_k(x) = d x P_{k-1}(x + 1)``: the South step adds
    ``x P(x)``, the binomial West steps ``x (P(x + 1) - P(x))`` and the
    extra type-B West step another ``x P(x)``.  So each value is the one
    before times ``d (s - k)``.
    """
    d = 2 if family is Family.TYPE_B else 1
    values = [1]
    for k in range(1, s + 1):
        values.append(values[-1] * d * (s - k))
    return tuple(values)


def _corner_position_range(n: int, family: Family) -> range:
    """Positions ``k`` where steps ``k`` and ``k + 1`` can form a corner.

    The border path has ``n`` steps in the 0/1 families, ``n + 1`` for a
    tree-like tableau of size ``n`` and ``2n + 2`` at symmetric index ``n``.
    """
    if family in _CHAIN_FAMILIES:
        return range(1, n)
    if family is Family.TREE_LIKE:
        return range(1, n + 1)
    return range(1, 2 * n + 2)


def _require_position(n: int, k: int, family: Family, error: type[CornersError]) -> None:
    positions = _corner_position_range(n, family)
    if k not in positions:
        raise error(
            f"corner position {k} outside {positions.start}..{positions.stop - 1} "
            f"for {family.value} at n={n}"
        )


def _chain_family_and_position(n: int, k: int, family: Family) -> tuple[Family, int]:
    """Map a (size, position) corner query of any family onto a chain query.

    Returns the chain family plus the position there; position 0 encodes
    the last-step-South event and -1 the first-step-West event of the
    chain at size ``n`` (resp. index ``n`` for the symmetric family).
    """
    _require_position(n, k, family, IndexOutOfRangeError)
    if family in _CHAIN_FAMILIES:
        return family, k
    if family is Family.TREE_LIKE:
        return Family.PERMUTATION, (k if k <= n - 1 else 0)
    # symmetric: index n, path length 2n + 2
    if k == 1 or k == 2 * n + 1:
        return Family.TYPE_B, 0
    if k == n + 1:
        return Family.TYPE_B, -1
    return Family.TYPE_B, (n + 1 - k if k <= n else k - n - 1)


def count_tableaux(n: int, family: Family) -> int:
    """Number of tableaux: chain trajectory-weight total for the 0/1
    families, closed form for the pointed ones (symmetric takes the
    index ``n``, counting size ``2n + 1``)."""
    if n < 0:
        raise DomainError(f"size must be non-negative, got {n}")
    if family in _CHAIN_FAMILIES:
        return _diagonal(family, n + 1)[n]
    return _closed_form_count(n, family)


def _closed_form_count(n: int, family: Family) -> int:
    """``n!`` tableaux for the permutation and tree-like families, ``2**n n!``
    for type B and symmetric (at index ``n``)."""
    if family is Family.PERMUTATION or family is Family.TREE_LIKE:
        return factorial(n)
    return factorial(n) << n


def _fold_boundary_terms(n: int) -> tuple[int, int]:
    """Closed forms of the boundary terms of the symmetric corner split at
    index ``n >= 1``: the south term ``2**n (n-1)!`` (twice the type-B
    tableaux of size ``n`` whose path ends South) and the west term
    ``2**(n-1) n!`` (those whose path starts West)."""
    return factorial(n - 1) << n, factorial(n) << (n - 1)


def u_distribution(n: int, family: Family) -> dict[int, Fraction]:
    """Exact law of the unrestricted-row count at size ``n``."""
    _require_chain(family)
    if n < 1:
        raise DomainError(f"size must be at least 1, got {n}")
    row = _rows(family, n)[n]
    total = sum(row)
    return {u: Fraction(w, total) for u, w in enumerate(row) if w}


def u_pgf(n: int, family: Family, z: Union[int, Fraction]) -> Fraction:
    """``E[z**U_n]`` evaluated exactly from the chain distribution."""
    zf = Fraction(z)
    return sum((p * zf**u for u, p in u_distribution(n, family).items()), Fraction(0))


def rising_factorial_pgf(z: Union[int, Fraction], m: int) -> Fraction:
    """``z (z+1) ... (z+m-1) / m!``, the closed form of ``E[z**U_m]``.

    ``m = 0`` is the empty product: the size-0 object has no rows.
    """
    if m < 0:
        raise DomainError(f"the generating function needs m >= 0, got {m}")
    zf = Fraction(z)
    prod = Fraction(1)
    for i in range(m):
        prod *= zf + i
    return prod / factorial(m)


def corner_event_probability_dp(n: int, k: int, family: Family) -> Fraction:
    """Exact probability that border steps ``k`` and ``k + 1`` form a
    corner, computed from the chain weights.

    For the symmetric family ``n`` is the index (size ``2n + 1``) and
    ``k`` runs over ``1..2n+1``; for tree-like tableaux of size ``n``
    over ``1..n``; for the 0/1 families over ``1..n-1``.
    """
    if n < 1:
        raise DomainError(f"size must be at least 1, got {n}")
    chain, pos = _chain_family_and_position(n, k, family)
    if pos == 0:
        return last_step_south_probability(n, chain)
    if pos == -1:
        return first_step_west_probability(n, chain)
    # Step pos is South from v; the m steps left start West, weighing
    # g[m][v + 1] - g[m - 1][v + 2] = g[m][1] (m + 1)**v - g[m - 1][2] m**v
    # with g = _suffix_weight, so the sum over v is P_{pos-1}(m + 1) and
    # P_{pos-1}(m), read off the diagonals n and n - 1.  The two weights
    # share d**(m - 1) m!: g[m][1] is that times d (m + 1), g[m - 1][2]
    # that times m.
    m = n - pos
    d = 2 if chain is Family.TYPE_B else 1
    shared = factorial(m) << (m - 1) if d == 2 else factorial(m)
    weight = shared * (
        d * (m + 1) * _diagonal(chain, n)[pos - 1] - m * _diagonal(chain, n - 1)[pos - 1]
    )
    return Fraction(weight, _diagonal(chain, n + 1)[n])


def corner_event_probability_formula(n: int, k: int, family: Family) -> Fraction:
    """The closed-form corner probability; defined for ``n >= 2`` only
    (the printed expressions leave their ranges below that)."""
    if n < 2:
        raise DomainError(f"closed forms need n >= 2, got {n}")

    def type_a(pos: int) -> Fraction:
        return Fraction(n - pos + 1, n) - Fraction((n - pos) ** 2, n * (n - 1))

    def type_b(pos: int) -> Fraction:
        return Fraction(n - pos + 1, 2 * n) - Fraction((n - pos) ** 2, 4 * n * (n - 1))

    _require_position(n, k, family, DomainError)
    if family is Family.PERMUTATION:
        return type_a(k)
    if family is Family.TREE_LIKE:
        return Fraction(1, n) if k == n else type_a(k)
    if family is Family.TYPE_B:
        return type_b(k)
    if k == 1 or k == 2 * n + 1:
        return Fraction(1, 2 * n)
    if k == n + 1:
        return Fraction(1, 2)
    if k <= n:
        return Fraction(k, 2 * n) - Fraction((k - 1) ** 2, 4 * n * (n - 1))
    return Fraction(2 * n - k + 2, 2 * n) - Fraction((2 * n - k + 1) ** 2, 4 * n * (n - 1))


def _require_dp_size(n: int, family: Family, what: str) -> None:
    """Refuse ``what`` at ``n`` past ``CHAIN_BUDGET.dp_size``."""
    if n > CHAIN_BUDGET.dp_size:
        raise BudgetExceededError(
            n, family, CHAIN_BUDGET.dp_size, f"{what} of {family.value} at n={n}"
        )


def corner_distribution(n: int, family: Family, *, method: str = "dp") -> dict[int, Fraction]:
    """Per-position corner probabilities over the family's full range."""
    if method == "dp":
        prob: Callable[[int], Fraction] = lambda k: corner_event_probability_dp(n, k, family)
        least = 1
    elif method == "formula":
        prob = lambda k: corner_event_probability_formula(n, k, family)
        least = 2
    else:
        raise ValueError(f"unknown method {method!r}")
    if n < least:
        raise DomainError(f"the {method} corner law needs n >= {least}, got {n}")
    if method == "dp":
        _require_dp_size(n, family, "the DP corner law")
    return {k: prob(k) for k in _corner_position_range(n, family)}


def expected_corners(n: int, family: Family) -> Fraction:
    """Mean corner count (symmetric: at index ``n``, size ``2n + 1``)."""
    if n < 2:
        raise DomainError(f"expected corners defined for n >= 2, got {n}")
    if family is Family.PERMUTATION:
        return Fraction(n + 4, 6) - Fraction(1, n)
    if family is Family.TREE_LIKE:
        return Fraction(n + 4, 6)
    if family is Family.TYPE_B:
        return Fraction(4 * n + 7, 24) - Fraction(1, 2 * n)
    return Fraction(4 * n + 13, 12)


def total_corners(n: int, family: Family) -> int:
    """Corner count summed over the whole family; always an integer.
    Capped at ``CHAIN_BUDGET.dp_size``, as the DP law is."""
    _require_dp_size(n, family, "the corner total")
    total = expected_corners(n, family) * _closed_form_count(n, family)
    if total.denominator != 1:
        raise DomainError(f"non-integer corner total {total} at n={n}")  # pragma: no cover
    return total.numerator


def last_step_south_probability(n: int, family: Family) -> Fraction:
    """Probability that the final border step is South (chain families)."""
    _require_chain(family)
    if n < 1:
        raise DomainError(f"size must be at least 1, got {n}")
    return Fraction(_diagonal(family, n)[n - 1], _diagonal(family, n + 1)[n])


def first_step_west_probability(n: int, family: Family) -> Fraction:
    """Probability that the first border step is West (chain families)."""
    _require_chain(family)
    if n < 1:
        raise DomainError(f"size must be at least 1, got {n}")
    if family is Family.PERMUTATION:
        return Fraction(0)
    # the one West step out of state 0 reaches state 1 with weight 1
    return Fraction(_suffix_weight(family, n - 1, 1), _diagonal(family, n + 1)[n])
