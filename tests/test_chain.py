"""Weighted growth chain: counts, corner DP, closed forms, pgf."""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cached_census
from corners import chain
from corners.chain import (
    corner_distribution,
    corner_event_probability_dp,
    corner_event_probability_formula,
    count_tableaux,
    expected_corners,
    first_step_west_probability,
    last_step_south_probability,
    rising_factorial_pgf,
    symmetric_corner_decomposition,
    total_corners,
    u_distribution,
    u_pgf,
)
from corners.errors import BudgetExceededError, DomainError, IndexOutOfRangeError
from corners.families import CHAIN_BUDGET, Family
from corners.tableaux import corner_stats, markers
from corners.verification import pushforward_check

CHAIN = (Family.PERMUTATION, Family.TYPE_B)
ALL = (Family.TREE_LIKE, Family.PERMUTATION, Family.TYPE_B, Family.SYMMETRIC)


def test_transition_weights_and_totals():
    assert {(s, v): w for s, v, w in chain._transitions(Family.PERMUTATION, 2)} == {
        ("S", 3): 1,
        ("W", 1): 1,
        ("W", 2): 2,
    }
    assert {(s, v): w for s, v, w in chain._transitions(Family.TYPE_B, 2)} == {
        ("S", 3): 1,
        ("W", 1): 2,
        ("W", 2): 4,
        ("W", 3): 1,
    }


@pytest.mark.parametrize("family", CHAIN)
@pytest.mark.parametrize("u", range(6))
def test_normalized_law_is_one_plus_binomial(family, u):
    transitions = chain._transitions(family, u)
    total = sum(w for _, _, w in transitions)
    law = {}
    for _, v, w in transitions:
        law[v] = law.get(v, 0) + Fraction(w, total)
    assert law == {1 + j: Fraction(comb(u, j), 2**u) for j in range(u + 1)}
    assert sum(law.values()) == 1


@pytest.mark.parametrize("family", ALL)
@pytest.mark.parametrize("n", range(1, 9))
def test_counts_match_closed_forms(family, n):
    expected = {
        Family.PERMUTATION: factorial(n),
        Family.TREE_LIKE: factorial(n),
        Family.TYPE_B: 2**n * factorial(n),
        Family.SYMMETRIC: 2**n * factorial(n),
    }[family]
    assert count_tableaux(n, family) == expected


@pytest.mark.parametrize("family", CHAIN)
@pytest.mark.parametrize("m", range(13))
def test_suffix_weight_solves_the_transition_recursion(family, m):
    for u in range(13):
        expected = 1 if m == 0 else sum(
            w * chain._suffix_weight(family, m - 1, v) for _, v, w in chain._transitions(family, u)
        )
        assert chain._suffix_weight(family, m, u) == expected


def _polynomial(row, x):
    return sum(c * x**u for u, c in enumerate(row))


@pytest.mark.parametrize("family", CHAIN)
def test_rows_satisfy_the_functional_equation(family):
    # the rows are grown from the transition triples, the independent side
    rows = chain._rows(family, 40)
    d = 2 if family is Family.TYPE_B else 1
    for k in range(1, 41):
        for x in range(-3, 12):
            assert _polynomial(rows[k], x) == d * x * _polynomial(rows[k - 1], x + 1), (k, x)


@pytest.mark.parametrize("family", CHAIN)
def test_diagonals_are_row_values(family):
    rows = chain._rows(family, 40)
    for s in range(41):
        for k in range(s + 1):
            assert chain._forward_value(family, s, k) == _polynomial(rows[k], s - k), (s, k)


@pytest.mark.parametrize("family", ALL)
def test_dp_equals_formula_at_1000(family):
    assert corner_distribution(1000, family) == corner_distribution(1000, family, method="formula")


# corner positions at size n: the first, an interior and the last of each
# family, and the symmetric centre (its first-step-West event)
_POSITIONS = {
    "first": lambda n, family: 1,
    "interior": lambda n, family: n // 2,
    "last": lambda n, family: chain._corner_position_range(n, family)[-1],
    "centre": lambda n, family: n + 1,
}


def _dp_corner_reader(family, where):
    position = _POSITIONS[where]
    return (
        lambda n: corner_event_probability_dp(n, position(n, family), family),
        lambda n: corner_event_probability_formula(n, position(n, family), family),
        True,
    )


# each public function that reads the chain, with its closed form at size n
# and whether the DP budget refuses it one past the cap
TABLE_READERS = {
    "count": (lambda n: count_tableaux(n, Family.TYPE_B), lambda n: factorial(n) << n, True),
    "count-permutation": (lambda n: count_tableaux(n, Family.PERMUTATION), factorial, True),
    # the pointed counts are closed forms with no cap
    "count-tree-like": (lambda n: count_tableaux(n, Family.TREE_LIKE), factorial, False),
    "count-symmetric": (
        lambda n: count_tableaux(n, Family.SYMMETRIC), lambda n: factorial(n) << n, False
    ),
    "corner": _dp_corner_reader(Family.TYPE_B, "first"),
    **{
        f"corner-{family.value}-{where}": _dp_corner_reader(family, where)
        for family in ALL
        for where in ("first", "interior", "last", "centre")
        if (family, where) != (Family.TYPE_B, "first")
        and (where != "centre" or family is Family.SYMMETRIC)
    },
    "south": (lambda n: last_step_south_probability(n, Family.TYPE_B), lambda n: Fraction(1, 2 * n), True),
    "south-permutation": (
        lambda n: last_step_south_probability(n, Family.PERMUTATION), lambda n: Fraction(1, n), True
    ),
    "west": (lambda n: first_step_west_probability(n, Family.TYPE_B), lambda n: Fraction(1, 2), True),
    # a permutation path never starts West, whatever the size
    "west-permutation": (
        lambda n: first_step_west_probability(n, Family.PERMUTATION), lambda n: Fraction(0), False
    ),
}


@pytest.mark.parametrize("name", TABLE_READERS)
def test_chain_tables_stop_at_the_dp_budget(name):
    read, closed_form, refused = TABLE_READERS[name]
    cap = CHAIN_BUDGET.dp_size
    assert read(cap) == closed_form(cap)
    if not refused:
        assert read(cap + 1) == closed_form(cap + 1)
        return
    with pytest.raises(BudgetExceededError, match=f"at n={cap + 1} exceeds the budget of {cap}"):
        read(cap + 1)


def _rising_factorial_law(n):
    """The law of U at size ``n`` on either chain: the coefficients of
    ``x (x + 1) ... (x + n - 1)`` over ``n!``, built factor by factor."""
    coefficients = [1]
    for i in range(n):
        coefficients = [i * a + b for a, b in zip(coefficients + [0], [0] + coefficients)]
    return {u: Fraction(c, factorial(n)) for u, c in enumerate(coefficients) if c}


@pytest.mark.parametrize("family", CHAIN)
def test_u_law_stops_at_its_budget(family):
    cap = CHAIN_BUDGET.u_law_size
    for read in (lambda n: u_distribution(n, family), lambda n: u_pgf(n, family, 2)):
        with pytest.raises(BudgetExceededError, match=f"at n={cap + 1} exceeds the budget of {cap}"):
            read(cap + 1)


def test_u_law_at_its_budget_is_the_rising_factorial_law():
    cap = CHAIN_BUDGET.u_law_size
    assert _rising_factorial_law(6) == _u_law(6, Family.PERMUTATION)
    assert u_distribution(cap, Family.TYPE_B) == _rising_factorial_law(cap)


@pytest.mark.parametrize("family", CHAIN)
@pytest.mark.parametrize("n", range(1, 7))
def test_u_distribution_matches_enumeration(family, n):
    c = cached_census(n, family)
    enumerated = {u: Fraction(v, c.cardinality) for u, v in c.u_histogram.items()}
    assert u_distribution(n, family) == enumerated


_u_law = lru_cache(maxsize=None)(u_distribution)


@pytest.mark.parametrize("n", range(1, 31))
@pytest.mark.parametrize("z", range(1, 6))
def test_pgf_is_normalized_rising_factorial(n, z):
    # P_n(x) = d**n x (x + 1) ... (x + n - 1), so type B has the same law
    expected = rising_factorial_pgf(z, n)
    assert expected == Fraction(factorial(z + n - 1), factorial(z - 1) * factorial(n))
    law = _u_law(n, Family.PERMUTATION)
    assert _u_law(n, Family.TYPE_B) == law
    assert sum(p * z**u for u, p in law.items()) == expected


def test_pgf_special_evaluations():
    # doubling: E 2^U = n + 1; and the two shifted-power evaluations used
    # to derive the corner law
    for n in range(1, 9):
        assert u_pgf(n, Family.PERMUTATION, 2) == n + 1
    for n in range(2, 9):
        for k in range(1, n):
            lhs = (n - k + 1) * rising_factorial_pgf(n - k + 1, k - 1)
            assert lhs == (n - k + 1) * Fraction(
                factorial(n - 1), factorial(n - k) * factorial(k - 1)
            )
            lhs = (n - k) * rising_factorial_pgf(n - k, k - 1)
            assert lhs == (n - k) * Fraction(
                factorial(n - 2), factorial(n - k - 1) * factorial(k - 1)
            )


@pytest.mark.parametrize("family", ALL)
def test_dp_equals_formula_small(family):
    for n in range(2, 26):
        assert corner_distribution(n, family, method="dp") == corner_distribution(
            n, family, method="formula"
        )


@pytest.mark.parametrize("family", ALL)
@pytest.mark.parametrize("n", range(2, 7))
def test_dp_matches_enumerated_frequencies(family, n):
    size = 2 * n + 1 if family is Family.SYMMETRIC else n
    c = cached_census(size, family)
    for k, p in corner_distribution(n, family, method="dp").items():
        assert p == Fraction(c.corner_counts_by_k.get(k, 0), c.cardinality)


def test_formula_values_fixed_points():
    assert corner_event_probability_formula(3, 1, Family.PERMUTATION) == Fraction(1, 3)
    assert corner_event_probability_formula(3, 2, Family.PERMUTATION) == Fraction(1, 2)
    assert corner_event_probability_formula(3, 3, Family.TREE_LIKE) == Fraction(1, 3)
    assert corner_event_probability_formula(2, 1, Family.TYPE_B) == Fraction(3, 8)
    assert corner_event_probability_formula(2, 3, Family.SYMMETRIC) == Fraction(1, 2)
    assert corner_event_probability_formula(2, 5, Family.SYMMETRIC) == Fraction(1, 4)


@pytest.mark.parametrize("family", ALL)
@pytest.mark.parametrize("n", [*range(2, 61), 400])
def test_one_pass_laws_equal_the_per_position_functions(family, n):
    dp = corner_distribution(n, family, method="dp")
    formula = corner_distribution(n, family, method="formula")
    positions = list(chain._corner_position_range(n, family))
    assert list(dp) == positions and list(formula) == positions
    assert list(dp.values()) == [corner_event_probability_dp(n, k, family) for k in positions]
    assert list(formula.values()) == [
        corner_event_probability_formula(n, k, family) for k in positions
    ]
    for k in (positions[0] - 1, positions[-1] + 1):
        with pytest.raises(IndexOutOfRangeError):
            corner_event_probability_dp(n, k, family)
        with pytest.raises(DomainError):
            corner_event_probability_formula(n, k, family)


@pytest.mark.parametrize("family", ALL)
def test_the_dp_law_at_size_one_reads_only_boundary_positions(family):
    # the chain law is empty at n = 1: the 0/1 laws are empty, and the
    # pointed laws hold only their last-step-South and first-step-West values
    law = corner_distribution(1, family, method="dp")
    positions = list(chain._corner_position_range(1, family))
    assert list(law) == positions
    assert list(law.values()) == [corner_event_probability_dp(1, k, family) for k in positions]


@pytest.mark.parametrize("family", ALL)
def test_corner_law_rejects_an_unknown_method(family):
    with pytest.raises(DomainError, match="unknown corner-law method 'bogus'"):
        corner_distribution(5, family, method="bogus")


@pytest.mark.parametrize("family", ALL)
def test_corner_index_bounds(family):
    n = 5
    ks = list(corner_distribution(n, family))
    assert ks[0] == 1
    with pytest.raises(IndexOutOfRangeError):
        corner_event_probability_dp(n, 0, family)
    with pytest.raises(IndexOutOfRangeError):
        corner_event_probability_dp(n, ks[-1] + 1, family)
    with pytest.raises(DomainError):
        corner_event_probability_formula(1, 1, family)


@pytest.mark.parametrize(
    "family,value",
    [
        (Family.PERMUTATION, Fraction(9, 6) - Fraction(1, 5)),
        (Family.TREE_LIKE, Fraction(9, 6)),
        (Family.TYPE_B, Fraction(27, 24) - Fraction(1, 10)),
        (Family.SYMMETRIC, Fraction(33, 12)),
    ],
)
def test_expected_corners_at_5(family, value):
    assert expected_corners(5, family) == value
    assert sum(corner_distribution(5, family, method="dp").values()) == value


@pytest.mark.parametrize("family", ALL)
@pytest.mark.parametrize("n", range(2, 8))
def test_total_corners_is_expectation_times_count(family, n):
    assert total_corners(n, family) == expected_corners(n, family) * count_tableaux(
        n if family is not Family.SYMMETRIC else n, family
    )


def test_boundary_step_probabilities():
    for n in range(2, 10):
        assert last_step_south_probability(n, Family.PERMUTATION) == Fraction(1, n)
        assert last_step_south_probability(n, Family.TYPE_B) == Fraction(1, 2 * n)
        assert first_step_west_probability(n, Family.PERMUTATION) == 0
        assert first_step_west_probability(n, Family.TYPE_B) == Fraction(1, 2)


@pytest.mark.parametrize("n", range(2, 7))
def test_pushforward_identity(n):
    for stat in (
        lambda t: 1,
        lambda t: 1 << len(markers(t).unrestricted_rows),
        lambda t: corner_stats(t).corner_count,
    ):
        left, right = pushforward_check(n, stat)
        assert type(left) is type(right) is Fraction
        assert left == right, (n, left, right)


def test_pushforward_guards():
    with pytest.raises(DomainError):
        pushforward_check(1, lambda t: 1)
    left, right = pushforward_check(2, lambda t: 1)
    assert (left, right) == (Fraction(1), Fraction(1))


@pytest.mark.parametrize("call, message", [
    (lambda: count_tableaux(-1, Family.PERMUTATION), "size must be non-negative, got -1"),
    (lambda: symmetric_corner_decomposition(0), "index must be at least 1, got 0"),
    (lambda: u_distribution(0, Family.TYPE_B), "size must be at least 1, got 0"),
    (lambda: rising_factorial_pgf(2, -1), "the generating function needs m >= 0, got -1"),
    (lambda: corner_event_probability_dp(0, 1, Family.TREE_LIKE), "size must be at least 1, got 0"),
    (lambda: expected_corners(1, Family.SYMMETRIC), "expected corners defined for n >= 2, got 1"),
    (lambda: last_step_south_probability(0, Family.PERMUTATION), "size must be at least 1, got 0"),
    (lambda: first_step_west_probability(0, Family.TYPE_B), "size must be at least 1, got 0"),
    # an off-chain family is refused before a bad size
    (lambda: u_distribution(0, Family.TREE_LIKE), "the growth chain is defined for"),
    (lambda: last_step_south_probability(0, Family.SYMMETRIC), "the growth chain is defined for"),
    (lambda: first_step_west_probability(-1, Family.TREE_LIKE), "the growth chain is defined for"),
], ids=[
    "count_tableaux", "symmetric_corner_decomposition", "u_distribution", "rising_factorial_pgf",
    "corner_event_probability_dp", "expected_corners", "last_step_south_probability",
    "first_step_west_probability", "u_distribution-off-chain",
    "last_step_south_probability-off-chain", "first_step_west_probability-off-chain",
])
def test_public_size_and_index_guards(call, message):
    with pytest.raises(DomainError) as excinfo:
        call()
    assert type(excinfo.value) is DomainError
    assert message in str(excinfo.value)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.sampled_from(ALL))
def test_dp_equals_formula_property(n, family):
    ks = sorted(corner_distribution(n, family, method="formula"))
    mid = ks[len(ks) // 2]
    assert corner_event_probability_dp(n, mid, family) == corner_event_probability_formula(
        n, mid, family
    )
