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
for type B), which never leaves an anti-diagonal ``k + x = s`` and solves
to ``P_k(s - k) = d**k (s - 1)(s - 2)...(s - k)``; counts and the corner
DP read only such values, each from that closed form, and a whole DP
corner law runs the recursion along two diagonals.  The coefficient rows
themselves, grown from the plain ``(step, target, weight)`` triples of
:func:`_transitions`, serve only the law of ``u`` and the tests that check
the closed form; the sampler's step-table rows read the same triples.
Completion weights use the closed form ``d**m m! (m + 1)**u`` and the
closed-form counts ``d**n n!``, each with ``d`` read from :func:`_doubling`.

Tree-like and symmetric values ride on these two chains: each of their
corner positions reads one chain event, by the map of
:func:`_chain_positions`.

The closed forms live here too (counts, corner laws and totals), as does
the split of the symmetric corner total along the fold
(:func:`symmetric_corner_decomposition`);
:mod:`corners.verification` checks them by enumeration.

All arithmetic is exact: integers are unbounded and probabilities are
:class:`fractions.Fraction` values.  No floating point exists here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, perm
from typing import Callable, NamedTuple, Union

from .errors import (
    BijectionError,
    BudgetExceededError,
    CornersError,
    DomainError,
    IndexOutOfRangeError,
    _excerpt,
)
from .families import CHAIN_BUDGET, Family
from .shapes import SOUTH, WEST

__all__ = [
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
    "CornerDecomposition",
    "symmetric_corner_decomposition",
]


def _require_chain(family: Family, n: int) -> None:
    """Refuse an off-chain (pointed) family, then a size below 1."""
    if family.pointed:
        raise DomainError(
            f"the growth chain is defined for {Family.PERMUTATION.value} and "
            f"{Family.TYPE_B.value}, not {family.value}"
        )
    if n < 1:
        raise DomainError(f"size must be at least 1, got {_excerpt(n)}")


def _doubling(family: Family) -> int:
    """``d``: the factor on every binomial West weight of ``family``'s chain."""
    return 2 if family.bit_family is Family.TYPE_B else 1


def _fraction_text(value: Union[int, Fraction]) -> str:
    """``p/q`` in lowest terms, also for integers (``3`` is ``3/1``)."""
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


def _transitions(family: Family, u: int) -> list[tuple[str, int, int]]:
    """``(step, target, weight)`` of each transition out of state ``u``."""
    doubling = _doubling(family)
    out = [(SOUTH, u + 1, 1)]
    out.extend((WEST, j, doubling * comb(u, j - 1)) for j in range(1, u + 1))
    if family is Family.TYPE_B:
        out.append((WEST, u + 1, 1))
    return out


def _suffix_weight(family: Family, m: int, u: int) -> int:
    """Total weight of all ``m``-step continuations from state ``u``:
    ``d**m m! (m + 1)**u``."""
    return _doubling(family) ** m * factorial(m) * (m + 1) ** u


def _rows(family: Family, n: int) -> list[list[int]]:
    """Forward rows ``0..n`` of ``family``: ``rows[k][u]`` weighs the
    k-step prefixes ending in state ``u``."""
    rows = [[1]]
    for k in range(1, n + 1):
        row = [0] * (k + 1)
        for u, w in enumerate(rows[-1]):
            if w:
                for _, target, weight in _transitions(family, u):
                    row[target] += w * weight
        rows.append(row)
    return rows


def _forward_value(family: Family, s: int, k: int) -> int:
    """``P_k(s - k)``, where ``P_k`` is the polynomial of the forward row
    ``k`` (see :func:`_rows`) and ``k <= s``.

    ``P_0 = 1`` and ``P_k(x) = d x P_{k-1}(x + 1)``: the South step adds
    ``x P(x)``, the binomial West steps ``x (P(x + 1) - P(x))`` and the
    extra type-B West step another ``x P(x)``.  So along the anti-diagonal
    ``s`` each value is the one before times ``d (s - k)``, and
    ``P_k(s - k) = d**k (s - 1)(s - 2)...(s - k)``.
    """
    return _doubling(family) ** k * perm(s - 1, k) if k else 1


def _chain_positions(n: int, family: Family) -> tuple[range, ...]:
    """The chain event that each corner position of ``family`` at ``n``
    reads (symmetric: at index ``n``): corner position ``k`` reads entry
    ``k - 1`` of these ranges laid end to end.

    Entries ``1..n-1`` are positions of the chain of ``family.bit_family``
    at size ``n``, 0 is its last-step-South event and -1 its
    first-step-West event.  The 0/1 families read the chain itself.
    Dropping the final West step of a tree-like shape is a
    corner-faithful bijection onto permutation shapes, and that step makes
    a corner at ``k = n`` exactly when the permutation path ends South.
    The symmetric border path of size ``2n + 1`` is ``S + mirror(q) + q +
    W`` for its type-B path ``q``: its corners at ``1`` and ``2n + 1`` fire
    when ``q`` ends South, at ``n + 1`` when ``q`` starts West, and the two
    halves between mirror the corners of ``q``.
    """
    chain, south = range(1, n), range(0, 1)
    if not family.pointed:
        return (chain,)
    if family is Family.TREE_LIKE:
        return (chain, south)
    return (south, chain[::-1], range(-1, 0), chain, south)


def _corner_position_range(n: int, family: Family) -> range:
    """The corner positions ``1..L`` of ``family`` at ``n``, one per entry of
    :func:`_chain_positions`."""
    return range(1, 1 + sum(map(len, _chain_positions(n, family))))


def _chain_position(n: int, k: int, family: Family, error: type[CornersError]) -> int:
    """The entry of :func:`_chain_positions` that corner position ``k``
    reads; ``error`` if there is none.  A ``k`` that is not an ``int`` is
    refused before any range test, which would compare it with every
    position in turn."""
    last = 0  # the corner positions before ``part``
    for part in _chain_positions(n, family):
        size = abs(part.stop - part.start)  # every step is 1 or -1; len() stops at sys.maxsize
        if isinstance(k, int) and k - 1 - last in range(size):
            return part[k - 1 - last]
        last += size
    raise error(f"corner position {k} outside 1..{last} for {family.value} at n={n}")


def _lay_out(
    n: int,
    family: Family,
    chain_law: list[Fraction],
    per_position: Callable[[int, int, Family], Fraction],
) -> dict[int, Fraction]:
    """``family``'s corner law at ``n``, keyed by ascending position: the
    entries of :func:`_chain_positions` read off ``chain_law``, the chain's
    values at positions ``1..n-1``.

    The boundary events have expressions of their own, which the
    per-position function holds, so each is read through
    ``per_position(n, k, family)`` at the first ``k`` that maps to it.
    """
    table = [None, *chain_law, None]  # [0]: last step South, [-1]: first step West
    law = {}
    for k, pos in enumerate(itertools.chain.from_iterable(_chain_positions(n, family)), 1):
        if table[pos] is None:
            table[pos] = per_position(n, k, family)
        law[k] = table[pos]
    return law


def count_tableaux(n: int, family: Family) -> int:
    """Number of tableaux: chain trajectory-weight total for the 0/1
    families, closed form for the pointed ones (symmetric takes the
    index ``n``, counting size ``2n + 1``)."""
    if n < 0:
        raise DomainError(f"size must be non-negative, got {_excerpt(n)}")
    if not family.pointed:
        _require_within(n, family, CHAIN_BUDGET.dp_size, "the chain count")
        return _forward_value(family, n + 1, n)
    return _closed_form_count(n, family)


def _closed_form_count(n: int, family: Family) -> int:
    """``d**n n!`` tableaux (symmetric: at index ``n``)."""
    return _doubling(family) ** n * factorial(n)


def _fold_boundary_terms(n: int) -> tuple[int, int]:
    """Closed forms of the boundary terms of the symmetric corner split at
    index ``n >= 1``: the south term ``2**n (n-1)!`` (twice the type-B
    tableaux of size ``n`` whose path ends South) and the west term
    ``2**(n-1) n!`` (those whose path starts West)."""
    return factorial(n - 1) << n, factorial(n) << (n - 1)


class CornerDecomposition(NamedTuple):
    """Corner total of symmetric tableaux split along the fold, by the
    events that :func:`_chain_positions` maps the symmetric positions to:
    the mirror pairs of type-B corners (``twice_type_b``), the type-B path
    ending South (``south_term``) and starting West (``west_term``).
    """

    index: int
    twice_type_b: int
    south_term: int
    west_term: int

    @property
    def total(self) -> int:
        return self.twice_type_b + self.south_term + self.west_term


def _exact_count(probability: Fraction, cardinality: int) -> int:
    scaled = probability * cardinality
    if scaled.denominator != 1:
        raise BijectionError(f"non-integer event count {scaled}")  # pragma: no cover
    return scaled.numerator


def symmetric_corner_decomposition(n: int) -> CornerDecomposition:
    """Split ``c(T^sym_{2n+1})`` into its type-B contributions, exactly.

    Asserts the component identities (``south_term = 2^n (n-1)!`` and
    ``west_term = 2^{n-1} n!``, :func:`_fold_boundary_terms`) and that the
    three parts sum to the symmetric corner total, which it takes from the
    symmetric DP law, so ``n`` is capped at ``CHAIN_BUDGET.dp_size``.
    """
    if n < 1:
        raise DomainError(f"index must be at least 1, got {_excerpt(n)}")
    _require_within(n, Family.SYMMETRIC, CHAIN_BUDGET.dp_size, "the corner decomposition")
    b_count = count_tableaux(n, Family.TYPE_B)
    twice_b = 2 * total_corners(n, Family.TYPE_B) if n >= 2 else 0
    south = 2 * _exact_count(last_step_south_probability(n, Family.TYPE_B), b_count)
    west = _exact_count(first_step_west_probability(n, Family.TYPE_B), b_count)
    deco = CornerDecomposition(n, twice_b, south, west)

    sym_total = sum(
        _exact_count(p, b_count) for p in corner_distribution(n, Family.SYMMETRIC).values()
    )
    if (deco.south_term, deco.west_term) != _fold_boundary_terms(n) or deco.total != sym_total:
        raise BijectionError(f"corner decomposition mismatch at n={n}: {deco}")
    return deco


def u_distribution(n: int, family: Family) -> dict[int, Fraction]:
    """Exact law of the unrestricted-row count at size ``n``, read off the
    forward rows, so capped at ``CHAIN_BUDGET.u_law_size``."""
    _require_chain(family, n)
    _require_within(n, family, CHAIN_BUDGET.u_law_size, "the law of U")
    row = _rows(family, n)[n]
    total = sum(row)
    return {u: Fraction(w, total) for u, w in enumerate(row) if w}


def u_pgf(n: int, family: Family, z: Union[int, Fraction]) -> Fraction:
    """``E[z**U_n]`` evaluated exactly from the chain distribution (capped
    as :func:`u_distribution` is)."""
    zf = Fraction(z)
    return sum((p * zf**u for u, p in u_distribution(n, family).items()), Fraction(0))


def rising_factorial_pgf(z: Union[int, Fraction], m: int) -> Fraction:
    """``z (z+1) ... (z+m-1) / m!``, the closed form of ``E[z**U_m]``.

    ``m = 0`` is the empty product: the size-0 object has no rows.
    """
    if m < 0:
        raise DomainError(f"the generating function needs m >= 0, got {_excerpt(m)}")
    zf = Fraction(z)
    prod = Fraction(1)
    for i in range(m):
        prod *= zf + i
    return prod / factorial(m)


def _dp_corner(d: int, n: int, m: int, high: int, low: int) -> Fraction:
    """The DP probability of a corner at chain position ``pos = n - m``
    of the chain with doubling ``d``, from ``high`` = ``P_{pos-1}(m + 1)``
    and ``low`` = ``P_{pos-1}(m)``.

    Step ``pos`` is South from some state ``v``; the ``m`` steps left start
    West, weighing ``g[m][v + 1] - g[m - 1][v + 2] = g[m][1] (m + 1)**v -
    g[m - 1][2] m**v`` with ``g`` = :func:`_suffix_weight`, so the sum over
    ``v`` is read off the diagonals ``n`` and ``n - 1``.  The two weights
    share ``d**(m - 1) m!``: ``g[m][1]`` is that times ``d (m + 1)``,
    ``g[m - 1][2]`` that times ``m``.  Over the same factor the count at
    ``n``, ``P_n(1) = d**n n!``, is ``d**2 n high``.
    """
    return Fraction(d * (m + 1) * high - m * low, d * d * n * high)


def _dp_chain_law(n: int, chain: Family) -> list[Fraction]:
    """The DP corner probabilities of ``chain`` at positions ``1..n-1``, in
    one pass along the diagonals ``n`` and ``n - 1``.

    ``high`` and ``low`` start at ``P_0 = 1`` and take the recursion of
    :func:`_forward_value` one step per position.
    """
    d = _doubling(chain)
    high = low = 1
    law = []
    for pos in range(1, n):
        m = n - pos
        law.append(_dp_corner(d, n, m, high, low))
        high *= d * m
        low *= d * (m - 1)
    return law


def corner_event_probability_dp(n: int, k: int, family: Family) -> Fraction:
    """Exact probability that border steps ``k`` and ``k + 1`` form a
    corner, computed from the chain weights at the chain event that ``k``
    reads (:func:`_chain_positions`; symmetric: ``n`` is the index).
    """
    if n < 1:
        raise DomainError(f"size must be at least 1, got {_excerpt(n)}")
    pos = _chain_position(n, k, family, IndexOutOfRangeError)
    _require_within(n, family, CHAIN_BUDGET.dp_size, "the DP corner probability")
    chain = family.bit_family
    if pos == 0:
        return last_step_south_probability(n, chain)
    if pos == -1:
        return first_step_west_probability(n, chain)
    high, low = _forward_value(chain, n, pos - 1), _forward_value(chain, n - 1, pos - 1)
    return _dp_corner(_doubling(chain), n, n - pos, high, low)


def _closed_form_corner(n: int, pos: int, d: int) -> Fraction:
    """The closed-form probability at chain position ``pos`` (0 and -1 as
    in :func:`_chain_positions`) at size ``n >= 2`` of the chain with
    doubling ``d`` (:func:`_doubling`).

    With ``m = n - pos`` this is ``(m + 1)/(d n) - m**2/(d**2 n (n - 1))``,
    as one fraction; the last step is South with probability ``1/(d n)``
    and the first step West with probability ``1/2``.
    """
    if pos == 0:
        return Fraction(1, d * n)
    if pos == -1:
        return Fraction(1, 2)
    m = n - pos
    return Fraction(d * (m + 1) * (n - 1) - m * m, d * d * n * (n - 1))


def corner_event_probability_formula(n: int, k: int, family: Family) -> Fraction:
    """The closed-form corner probability; defined for ``n >= 2`` only
    (the printed expressions leave their ranges below that).

    Permutation: ``(n-k+1)/n - (n-k)**2/(n(n-1))``; type B:
    ``(n-k+1)/(2n) - (n-k)**2/(4n(n-1))``; the boundary events as in
    :func:`_closed_form_corner`.  Tree-like and symmetric positions read
    these by :func:`_chain_positions` (symmetric: ``n`` is the index).
    """
    if n < 2:
        raise DomainError(f"closed forms need n >= 2, got {_excerpt(n)}")
    return _closed_form_corner(n, _chain_position(n, k, family, DomainError), _doubling(family))


def _require_within(n: int, family: Family, cap: int, what: str) -> None:
    """Refuse ``what`` at ``n`` past ``cap``, a ``CHAIN_BUDGET`` field."""
    if n > cap:
        raise BudgetExceededError(n, family, cap, f"{what} of {family.value} at n={_excerpt(n)}")


def corner_distribution(n: int, family: Family, *, method: str = "dp") -> dict[int, Fraction]:
    """Per-position corner probabilities over the family's full range,
    keyed by ascending position, in one pass.

    Both methods compute the chain law at positions ``1..n-1`` once:
    ``method="dp"`` in one pass along two diagonals (:func:`_dp_chain_law`),
    ``"formula"`` as one fraction per position from the closed form.
    :func:`_lay_out` reads it by the map of :func:`_chain_positions`, so
    the two halves of the symmetric law share one chain law, and reads
    each boundary event through :func:`corner_event_probability_dp`,
    resp. :func:`corner_event_probability_formula`.  Each value equals
    that function at its position.  ``n`` is capped at
    ``CHAIN_BUDGET.dp_size``, resp. ``CHAIN_BUDGET.formula_size``.
    """
    if method not in ("dp", "formula"):
        raise DomainError(f"unknown corner-law method {method!r}")
    least = 1 if method == "dp" else 2
    if n < least:
        raise DomainError(f"the {method} corner law needs n >= {least}, got {_excerpt(n)}")
    if method == "formula":
        _require_within(n, family, CHAIN_BUDGET.formula_size, "the closed-form corner law")
        d = _doubling(family)
        chain_law = [_closed_form_corner(n, pos, d) for pos in range(1, n)]
        return _lay_out(n, family, chain_law, corner_event_probability_formula)
    _require_within(n, family, CHAIN_BUDGET.dp_size, "the DP corner law")
    return _lay_out(n, family, _dp_chain_law(n, family.bit_family), corner_event_probability_dp)


def expected_corners(n: int, family: Family) -> Fraction:
    """Mean corner count (symmetric: at index ``n``, size ``2n + 1``)."""
    if n < 2:
        raise DomainError(f"expected corners defined for n >= 2, got {_excerpt(n)}")
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
    _require_within(n, family, CHAIN_BUDGET.dp_size, "the corner total")
    total = expected_corners(n, family) * _closed_form_count(n, family)
    if total.denominator != 1:
        raise DomainError(f"non-integer corner total {total} at n={n}")  # pragma: no cover
    return total.numerator


def last_step_south_probability(n: int, family: Family) -> Fraction:
    """Probability that the final border step is South (chain families)."""
    _require_chain(family, n)
    _require_within(n, family, CHAIN_BUDGET.dp_size, "the last-step-South probability")
    return Fraction(_forward_value(family, n, n - 1), _forward_value(family, n + 1, n))


def first_step_west_probability(n: int, family: Family) -> Fraction:
    """Probability that the first border step is West (chain families)."""
    _require_chain(family, n)
    if family is Family.PERMUTATION:
        return Fraction(0)
    _require_within(n, family, CHAIN_BUDGET.dp_size, "the first-step-West probability")
    # the one West step out of state 0 reaches state 1 with weight 1
    return Fraction(_suffix_weight(family, n - 1, 1), _forward_value(family, n + 1, n))
