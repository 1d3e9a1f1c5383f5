"""Weighted growth chain: counts, corner DP, closed forms, pgf."""

import itertools
import tracemalloc
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
from corners.shapes import WEST, BorderPath, all_paths
from corners.tableaux import corner_stats, markers
from corners.enumerator import enumerate_tableaux, parent_permutation
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


def _event_holds(path, pos):
    """Whether chain event ``pos`` of :func:`chain._chain_positions` holds on
    the 0/1 path ``path``: a corner at ``pos >= 1``, the last step South at
    0, the first step West at -1."""
    if pos == 0:
        return path.last_step_south
    if pos == -1:
        return path.first_step_west
    return pos in path.corner_positions()


# each family with its 0/1 paths of 1..`steps` steps and the map from such
# a path to the family's border path
_SHAPE_MAPS = {
    Family.PERMUTATION: (12, BorderPath.is_permutation_shape, lambda p: p),
    Family.TREE_LIKE: (12, BorderPath.is_permutation_shape, lambda p: BorderPath(p.steps + WEST)),
    Family.TYPE_B: (9, lambda q: True, lambda q: q),
    Family.SYMMETRIC: (9, lambda q: True, lambda q: q.unfolded),
}


@pytest.mark.parametrize("family", ALL)
def test_the_corner_position_map_matches_the_shape_maps(family):
    # no chain values and no census, so this reaches past BRUTE_FORCE_BUDGET
    # (tree-like size 12, symmetric size 19)
    steps, is_bit_path, to_border_path = _SHAPE_MAPS[family]
    for n in range(1, steps + 1):
        entries = list(itertools.chain.from_iterable(chain._chain_positions(n, family)))
        for path in filter(is_bit_path, all_paths(n)):
            border = to_border_path(path)
            assert len(entries) == len(border) - 1, (family, path)
            expected = tuple(k for k, pos in enumerate(entries, 1) if _event_holds(path, pos))
            assert border.corner_positions() == expected, (family, path)


_HUGE = 10**6


def _permutation_corner(n, k):
    return Fraction(n - k + 1, n) - Fraction((n - k) ** 2, n * (n - 1))


def _type_b_corner(n, k):
    return Fraction(n - k + 1, 2 * n) - Fraction((n - k) ** 2, 4 * n * (n - 1))


# (k, closed form) at the first, an interior and the last corner position
# of each family at size (symmetric: index) _HUGE; the last is L in 1..L
_HUGE_POSITIONS = {
    Family.PERMUTATION: [(1, _permutation_corner(_HUGE, 1)),
                         (_HUGE // 2, _permutation_corner(_HUGE, _HUGE // 2)),
                         (_HUGE - 1, _permutation_corner(_HUGE, _HUGE - 1))],
    Family.TREE_LIKE: [(1, _permutation_corner(_HUGE, 1)),
                       (_HUGE // 2, _permutation_corner(_HUGE, _HUGE // 2)),
                       (_HUGE, Fraction(1, _HUGE))],
    Family.TYPE_B: [(1, _type_b_corner(_HUGE, 1)),
                    (_HUGE // 2, _type_b_corner(_HUGE, _HUGE // 2)),
                    (_HUGE - 1, _type_b_corner(_HUGE, _HUGE - 1))],
    # the mirrored half: position k reads type-B position n + 1 - k
    Family.SYMMETRIC: [(1, Fraction(1, 2 * _HUGE)),
                       (_HUGE // 2, _type_b_corner(_HUGE, _HUGE + 1 - _HUGE // 2)),
                       (2 * _HUGE + 1, Fraction(1, 2 * _HUGE))],
}


def test_per_position_reads_do_not_grow_with_n():
    # a map that lists its positions would hold millions of entries here
    reads = [(k, family, value) for family in ALL for k, value in _HUGE_POSITIONS[family]]
    tracemalloc.start()
    try:
        got = [corner_event_probability_formula(_HUGE, k, family) for k, family, _ in reads]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [value for _, _, value in reads]
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("family", ALL)
def test_per_position_reads_check_the_position_first_at_huge_n(family):
    last = _HUGE_POSITIONS[family][-1][0]
    for k, _ in _HUGE_POSITIONS[family]:
        with pytest.raises(BudgetExceededError):
            corner_event_probability_dp(_HUGE, k, family)
    for k in (0, last + 1):
        message = f"corner position {k} outside 1..{last} for {family.value} at n={_HUGE}"
        with pytest.raises(IndexOutOfRangeError) as excinfo:
            corner_event_probability_dp(_HUGE, k, family)
        assert str(excinfo.value) == message
        with pytest.raises(DomainError) as excinfo:
            corner_event_probability_formula(_HUGE, k, family)
        assert type(excinfo.value) is DomainError and str(excinfo.value) == message


def test_per_position_reads_past_the_largest_range_length():
    # len() of a range stops at sys.maxsize; the lookup must not call it
    n = 10**19
    assert corner_event_probability_formula(n, 2 * n + 1, Family.SYMMETRIC) == Fraction(1, 2 * n)
    assert corner_event_probability_formula(n, n + 1, Family.SYMMETRIC) == Fraction(1, 2)
    with pytest.raises(DomainError, match=f"outside 1..{2 * n + 1} for symmetric at n={n}$"):
        corner_event_probability_formula(n, 2 * n + 2, Family.SYMMETRIC)


class _CountingFloat(float):
    """A float that counts the comparisons a range test would make."""

    eq_calls = 0

    def __eq__(self, other):
        type(self).eq_calls += 1
        return float.__eq__(self, other)

    __hash__ = float.__hash__


@pytest.mark.parametrize("family", ALL)
def test_a_non_int_position_is_refused_before_any_range_test(family):
    # ``in range(...)`` compares a non-int with every position in turn
    _CountingFloat.eq_calls = 0
    last = _HUGE_POSITIONS[family][-1][0]
    for k in (_CountingFloat(1.5), _CountingFloat(2.0), 2.0, Fraction(2)):
        message = f"corner position {k} outside 1..{last} for {family.value} at n={_HUGE}"
        with pytest.raises(IndexOutOfRangeError) as excinfo:
            corner_event_probability_dp(_HUGE, k, family)
        assert str(excinfo.value) == message
        with pytest.raises(DomainError) as excinfo:
            corner_event_probability_formula(_HUGE, k, family)
        assert type(excinfo.value) is DomainError and str(excinfo.value) == message
    assert _CountingFloat.eq_calls == 0


def test_a_non_int_position_is_refused_at_once_at_any_n():
    # a scan of 2 * 10**18 + 1 positions would run for hours
    n = 10**18
    with pytest.raises(DomainError) as excinfo:
        corner_event_probability_formula(n, 1.5, Family.SYMMETRIC)
    assert str(excinfo.value) == f"corner position 1.5 outside 1..{2 * n + 1} for symmetric at n={n}"


@pytest.mark.parametrize("family, boundary_positions", [
    (Family.PERMUTATION, lambda n: []),
    (Family.TYPE_B, lambda n: []),
    (Family.TREE_LIKE, lambda n: [n]),
    (Family.SYMMETRIC, lambda n: [1, n + 1]),
])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_the_dp_law_reads_its_boundary_events_through_the_per_position_function(
    monkeypatch, family, boundary_positions, n
):
    # perfbench's chain.dp_* metrics time these calls, wrapped in the module
    calls = []
    read = chain.corner_event_probability_dp

    def recording(*args):
        calls.append(args)
        return read(*args)

    monkeypatch.setattr(chain, "corner_event_probability_dp", recording)
    corner_distribution(n, family, method="dp")
    assert calls == [(n, k, family) for k in boundary_positions(n)]


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


def _pushforward_reference(n, statistic):
    """Both sides of the push-forward identity, one ``Fraction`` per term."""
    parents = [parent_permutation(t) for t in enumerate_tableaux(n, Family.PERMUTATION)]
    lower = enumerate_tableaux(n - 1, Family.PERMUTATION)
    left = sum(Fraction(statistic(p)) for p in parents) / factorial(n)
    right = sum(Fraction(statistic(s)) * (1 << len(markers(s).unrestricted_rows)) for s in lower)
    return left, right / (n * factorial(n - 1))


@pytest.mark.parametrize("n", range(2, 7))
def test_pushforward_sides_equal_the_per_term_fraction_sums(n):
    for stat in (
        lambda t: corner_stats(t).corner_count,
        lambda t: Fraction(t.path.row_count, t.path.column_count + 1),
    ):
        left, right = pushforward_check(n, stat)
        assert (left, right) == _pushforward_reference(n, stat)
        assert type(left) is type(right) is Fraction and left == right


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
