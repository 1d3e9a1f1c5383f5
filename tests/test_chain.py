"""Weighted growth chain: counts, corner DP, closed forms, pgf."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cached_census, cached_tableaux
from corners import chain
from corners.chain import (
    ChainSpec,
    ChainWeightTable,
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
from corners.errors import DomainError, IndexOutOfRangeError
from corners.families import Family
from corners.tableaux import corner_stats, unrestricted_row_count
from corners.verification import pushforward_check

CHAIN = (Family.PERMUTATION, Family.TYPE_B)
ALL = (Family.TREE_LIKE, Family.PERMUTATION, Family.TYPE_B, Family.SYMMETRIC)


def test_transition_weights_and_totals():
    spec = ChainSpec(Family.PERMUTATION)
    assert {(t.step, t.target): t.weight for t in spec.transitions(2)} == {
        ("S", 3): 1,
        ("W", 1): 1,
        ("W", 2): 2,
    }
    assert spec.total_weight(2) == 4
    spec_b = ChainSpec(Family.TYPE_B)
    assert {(t.step, t.target): t.weight for t in spec_b.transitions(2)} == {
        ("S", 3): 1,
        ("W", 1): 2,
        ("W", 2): 4,
        ("W", 3): 1,
    }
    assert spec_b.total_weight(2) == 8


@pytest.mark.parametrize("family", CHAIN)
@pytest.mark.parametrize("u", range(6))
def test_normalized_law_is_one_plus_binomial(family, u):
    law = ChainSpec(family).normalized_law(u)
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
def test_weight_table_forward_backward_identity(family):
    n = 7
    table = ChainWeightTable(n, family)
    for k in range(n + 1):
        total = sum(table.forward_total(k, u) * table.backward(k, u) for u in range(k + 1))
        assert total == table.count()
    assert table.forward_total(0, 0) == 1
    assert table.forward(3, 2, "S") + table.forward(3, 2, "W") == table.forward_total(3, 2)
    with pytest.raises(IndexOutOfRangeError):
        table.backward(n + 1, 0)


def _closed_form_suffix(family, m, u):
    return factorial(m) * (m + 1) ** u * (2**m if family is Family.TYPE_B else 1)


@pytest.mark.parametrize("family", CHAIN)
def test_backward_does_not_depend_on_earlier_queries(family):
    table = ChainWeightTable(20, family)
    cells = [(k, u) for k in range(21) for u in (0, 1, 5, 21, 300)]
    before = [table.backward(k, u) for k, u in cells]
    count_tableaux(40, family)
    after = [ChainWeightTable(20, family).backward(k, u) for k, u in cells]
    assert before == after == [_closed_form_suffix(family, 20 - k, u) for k, u in cells]


@pytest.mark.parametrize("family", CHAIN)
@pytest.mark.parametrize("m", range(13))
def test_suffix_weight_solves_the_transition_recursion(family, m):
    spec = ChainSpec(family)
    for u in range(13):
        expected = 1 if m == 0 else sum(
            t.weight * chain._suffix_weight(family, m - 1, t.target) for t in spec.transitions(u)
        )
        assert chain._suffix_weight(family, m, u) == expected


def _polynomial(row, x):
    return sum(c * x**u for u, c in enumerate(row))


@pytest.mark.parametrize("family", CHAIN)
def test_rows_satisfy_the_functional_equation(family):
    # the rows are grown from ChainSpec.transitions, the independent side
    rows, _ = chain._rows(family, 40)
    d = 2 if family is Family.TYPE_B else 1
    for k in range(1, 41):
        for x in range(-3, 12):
            assert _polynomial(rows[k], x) == d * x * _polynomial(rows[k - 1], x + 1), (k, x)


@pytest.mark.parametrize("family", CHAIN)
def test_diagonals_are_row_values(family):
    rows, _ = chain._rows(family, 40)
    for s in range(41):
        assert chain._diagonal(family, s) == tuple(
            _polynomial(rows[k], s - k) for k in range(s + 1)
        ), s


@pytest.mark.parametrize("family", ALL)
def test_dp_equals_formula_at_1000(family):
    assert corner_distribution(1000, family) == corner_distribution(1000, family, method="formula")


def _fresh_rows(monkeypatch):
    monkeypatch.setattr(chain, "_forward", {f: ([[1]], [1], []) for f in CHAIN})


def _copy_rows(family, n):
    rows, totals = chain._rows(family, n)
    return [list(row) for row in rows], list(totals)


@pytest.mark.parametrize("family", CHAIN)
def test_rows_grown_in_steps_match_a_cold_build(family, monkeypatch):
    _fresh_rows(monkeypatch)
    chain._rows(family, 10)
    grown = _copy_rows(family, 25)
    _fresh_rows(monkeypatch)
    cold_rows, cold_totals = chain._rows(family, 25)
    assert grown == (cold_rows, cold_totals) and len(cold_rows) == 26
    assert cold_totals == [sum(row) for row in cold_rows] == [
        factorial(k) * (2**k if family is Family.TYPE_B else 1) for k in range(26)
    ]


class _Interrupted(BaseException):
    """Stands in for KeyboardInterrupt without stopping the test run."""


class _TrippingTransition:
    """A transition whose weight raises the first time it is read."""

    def __init__(self, transition):
        self.target = transition.target
        self._weight = transition.weight
        self._armed = True

    @property
    def weight(self):
        if self._armed:
            self._armed = False
            raise _Interrupted
        return self._weight


@pytest.mark.parametrize("family", CHAIN)
def test_rows_survive_an_interrupted_growth(family, monkeypatch):
    _fresh_rows(monkeypatch)
    cold = _copy_rows(family, 12)
    _fresh_rows(monkeypatch)
    transitions, tripped = ChainSpec.transitions, []

    def tripping(self, u):
        out = transitions(self, u)
        if u == 5 and not tripped:
            tripped.append(u)
            return (_TrippingTransition(out[0]),) + out[1:]
        return out

    monkeypatch.setattr(ChainSpec, "transitions", tripping)
    with pytest.raises(_Interrupted):
        chain._rows(family, 12)
    assert tripped and _copy_rows(family, 12) == cold


@pytest.mark.parametrize("family", CHAIN)
def test_weight_table_bounds_ignore_longer_shared_rows(family):
    count_tableaux(30, family)
    table = ChainWeightTable(5, family)
    for call in (
        lambda: table.forward(6, 1, "S"),
        lambda: table.forward(0, 0, "S"),
        lambda: table.forward_total(6, 1),
        lambda: table.forward_total(-1, 0),
        lambda: table.backward(6, 0),
        lambda: table.backward(-1, 0),
    ):
        with pytest.raises(IndexOutOfRangeError):
            call()
    assert table.count() == count_tableaux(5, family)


@pytest.mark.parametrize("family", CHAIN)
@pytest.mark.parametrize("last_step", ("X", "", "SW", "s", None))
def test_forward_rejects_unknown_last_step(family, last_step):
    table = ChainWeightTable(5, family)
    with pytest.raises(DomainError):
        table.forward(3, 2, last_step)
    assert table.forward(3, 2, "S") + table.forward(3, 2, "W") == table.forward_total(3, 2)


@pytest.mark.parametrize("family", CHAIN)
@pytest.mark.parametrize("n", range(1, 7))
def test_u_distribution_matches_enumeration(family, n):
    c = cached_census(n, family)
    enumerated = {u: Fraction(v, c.cardinality) for u, v in c.u_histogram.items()}
    assert u_distribution(n, family) == enumerated


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("z", range(1, 6))
def test_pgf_is_normalized_rising_factorial(n, z):
    assert u_pgf(n, Family.PERMUTATION, z) == rising_factorial_pgf(z, n)
    assert rising_factorial_pgf(z, n) == Fraction(
        factorial(z + n - 1), factorial(z - 1) * factorial(n)
    )


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
        lambda t: 1 << unrestricted_row_count(t),
        lambda t: corner_stats(t).corner_count,
    ):
        report = pushforward_check(n, stat)
        assert report.equal, (n, report)


def test_pushforward_guards():
    with pytest.raises(DomainError):
        pushforward_check(1, lambda t: 1)
    with pytest.raises(DomainError):
        pushforward_check(3, lambda t: 1, Family.TYPE_B)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.sampled_from(ALL))
def test_dp_equals_formula_property(n, family):
    ks = sorted(corner_distribution(n, family, method="formula"))
    mid = ks[len(ks) // 2]
    assert corner_event_probability_dp(n, mid, family) == corner_event_probability_formula(
        n, mid, family
    )
