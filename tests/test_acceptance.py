"""Acceptance run: twelve end-to-end criteria, one test and one line each.

Every equality below is exact (integers and Fractions) except criterion 12,
which is statistical with fixed seeds and stated tolerances.  Run with
``pytest -v tests/test_acceptance.py`` for the per-criterion pass/fail lines,
add ``-s`` to see the summary line each test prints.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from fractions import Fraction
from math import factorial

from conftest import cached_census, cached_tableaux, chi_square_survival
from corners.bijections import symmetric_to_type_b, tree_like_to_permutation_shape, type_b_to_symmetric
from corners.chain import (
    _transitions,
    corner_distribution,
    corner_event_probability_formula,
    expected_corners,
    rising_factorial_pgf,
    symmetric_corner_decomposition,
    total_corners,
    u_distribution,
    u_pgf,
)
from corners.enumerator import census, extend_permutation, parent_permutation
from corners.families import Family
from corners.sampler import monte_carlo_corner_report, sample_permutation_tableaux
from corners.tableaux import canonical_key, markers
from corners.verification import pushforward_check
from test_bijections import SYMMETRIC_11, TYPE_B_5

P = Family.PERMUTATION
T = Family.TREE_LIKE
B = Family.TYPE_B
SYM = Family.SYMMETRIC

SEED = 2026


def _line(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion:2d}: {text}", flush=True)


def test_criterion_01_cardinalities():
    for n in range(1, 7):
        assert census(n, P, method="brute").cardinality == factorial(n)
    for n in range(1, 9):
        assert census(n, P, method="extension").cardinality == factorial(n)
    for n in range(1, 8):
        assert cached_census(n, T).cardinality == factorial(n)
    for n in range(1, 7):
        assert cached_census(n, B, "brute").cardinality == 2**n * factorial(n)
    for n in range(1, 6):
        assert cached_census(2 * n + 1, SYM).cardinality == 2**n * factorial(n)
    _line(1, "cardinalities n!, n!, 2^n n!, 2^n n! by brute force and extension")


def test_criterion_02_tree_like_corner_total():
    for n in range(2, 8):
        expected = Fraction(factorial(n) * (n + 4), 6)
        assert expected.denominator == 1
        assert cached_census(n, T).total_corners == expected
    assert cached_census(5, T).total_corners == 180
    _line(2, "tree-like corner totals n!(n+4)/6 for n=2..7, value 180 at n=5")


def test_criterion_03_permutation_corner_total():
    for n in range(2, 9):
        c = cached_census(n, P)
        assert c.total_corners == factorial(n) * (Fraction(n + 4, 6) - Fraction(1, n))
        assert c.last_step_south_count == factorial(n - 1)
    _line(3, "permutation corner totals n!((n+4)/6 - 1/n) and (n-1)! South enders, n=2..8")


def test_criterion_04_permutation_corner_law():
    for n in range(2, 9):
        c = cached_census(n, P)
        for k in range(1, n):
            freq = Fraction(c.corner_counts_by_k.get(k, 0), c.cardinality)
            assert freq == Fraction(n - k + 1, n) - Fraction((n - k) ** 2, n * (n - 1))
            assert freq == corner_event_probability_formula(n, k, P)
    _line(4, "permutation per-position corner frequencies match the closed form, n=2..8")


def test_criterion_05_tree_like_corner_law():
    for n in range(2, 8):
        c = cached_census(n, T)
        for k in range(1, n + 1):
            freq = Fraction(c.corner_counts_by_k.get(k, 0), c.cardinality)
            assert freq == corner_event_probability_formula(n, k, T)
        assert corner_event_probability_formula(n, n, T) == Fraction(1, n)
    _line(5, "tree-like per-position frequencies match, final-position value 1/n, n=2..7")


def test_criterion_06_type_b_law_mean_cardinality():
    for n in range(2, 7):
        c = cached_census(n, B)
        assert c.cardinality == 2**n * factorial(n)
        for k in range(1, n):
            freq = Fraction(c.corner_counts_by_k.get(k, 0), c.cardinality)
            assert freq == Fraction(n - k + 1, 2 * n) - Fraction((n - k) ** 2, 4 * n * (n - 1))
        assert Fraction(c.total_corners, c.cardinality) == expected_corners(n, B)
    assert expected_corners(2, B) == Fraction(3, 8)
    assert cached_census(1, B).cardinality == 2
    _line(6, "type-B per-position frequencies, mean corners (3/8 at n=2), cardinalities, n<=6")


def test_criterion_07_symmetric_totals_law_decomposition():
    for n in range(2, 6):
        c = cached_census(2 * n + 1, SYM)
        total = Fraction(2**n * factorial(n) * (4 * n + 13), 12)
        assert total.denominator == 1
        assert c.total_corners == total
        for k in range(1, 2 * n + 2):
            freq = Fraction(c.corner_counts_by_k.get(k, 0), c.cardinality)
            assert freq == corner_event_probability_formula(n, k, SYM)
    assert cached_census(5, SYM).total_corners == 14
    for n in range(1, 6):
        d = symmetric_corner_decomposition(n)
        assert d.total == cached_census(2 * n + 1, SYM).total_corners
        assert d.south_term == 2**n * factorial(n - 1)
        assert d.south_term // 2 == 2 ** (n - 1) * factorial(n - 1)
        assert d.west_term == 2 ** (n - 1) * factorial(n)
        if n >= 2:
            assert d.twice_type_b == 2 * total_corners(n, B)
    _line(7, "symmetric totals 2^n n!(4n+13)/12, piecewise law, fold decomposition, n<=5")


def test_criterion_08_dp_matches_formula_to_200():
    start = time.perf_counter()
    for n in range(2, 201):
        for family in (P, T, B, SYM):
            by_dp = corner_distribution(n, family, method="dp")
            assert by_dp == corner_distribution(n, family, method="formula")
            assert sum(by_dp.values()) == expected_corners(n, family)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _line(8, f"chain DP equals printed formulas for n=2..200, four families, {elapsed:.1f}s")


def test_criterion_09_bijections():
    for n in range(1, 5):
        for b in cached_tableaux(n, B):
            assert symmetric_to_type_b(type_b_to_symmetric(b)) == b
    images = set()
    for size in (3, 5, 7, 9):
        for s in cached_tableaux(size, SYM):
            b = symmetric_to_type_b(s)
            images.add(canonical_key(b))
            assert type_b_to_symmetric(b) == s
    assert len(images) == sum(2**n * factorial(n) for n in range(1, 5))
    assert symmetric_to_type_b(SYMMETRIC_11) == TYPE_B_5
    assert type_b_to_symmetric(TYPE_B_5) == SYMMETRIC_11
    for n in range(2, 7):
        projected: Counter = Counter()
        extra = 0
        for t in cached_tableaux(n, T):
            p_path = tree_like_to_permutation_shape(t.path)
            diff = t.path.corner_count() - p_path.corner_count()
            assert diff in (0, 1)
            assert diff == int(p_path.last_step_south)
            projected[p_path.steps] += 1
            extra += diff
        shapes = Counter(t.path.steps for t in cached_tableaux(n, P))
        assert projected == shapes
        assert extra == factorial(n - 1)
        assert cached_census(n, T).total_corners == cached_census(n, P).total_corners + extra
    _line(9, "fold/unfold inverse on B_n (n<=4) and sizes<=9, golden pair, shape projection")


def test_criterion_10_extension_machinery():
    for n in range(2, 8):
        children = []
        for t in cached_tableaux(n - 1, P):
            u = len(markers(t).unrestricted_rows)
            images = extend_permutation(t)
            assert len(images) == 1 << u
            seen: Counter = Counter()
            for child in images:
                assert parent_permutation(child) == t
                seen[(child.path.steps[-1], len(markers(child).unrestricted_rows))] += 1
            assert dict(seen) == {(s, v): w for s, v, w in _transitions(P, u)}
            children.extend(images)
        keys = {canonical_key(c) for c in children}
        assert len(children) == len(keys) == factorial(n)
        assert keys == {canonical_key(t) for t in cached_tableaux(n, P)}
    for n in range(2, 8):
        statistics = [lambda t: 1, lambda t: 1 << len(markers(t).unrestricted_rows)]
        statistics += [lambda t, k=k: int(k in t.path.corner_positions()) for k in range(1, n - 1)]
        for statistic in statistics:
            left, right = pushforward_check(n, statistic)
            assert left == right
    _line(10, "extension partitions P_n with 2^U images, push-forward identity, n<=7")


def test_criterion_11_u_generating_function():
    for m in range(1, 9):
        for z in range(1, 6):
            assert u_pgf(m, P, z) == rising_factorial_pgf(z, m)
        assert u_pgf(m, P, 2) == m + 1
    for n in range(2, 9):
        for k in range(1, n):
            z = n - k + 1
            first = z * rising_factorial_pgf(z, k - 1)
            assert first == Fraction((n - k + 1) * factorial(n - 1), factorial(n - k) * factorial(k - 1))
            z = n - k
            second = z * rising_factorial_pgf(z, k - 1)
            assert second == Fraction((n - k) * factorial(n - 2), factorial(max(n - k - 1, 0)) * factorial(k - 1))
    for n in range(1, 9):
        hist = cached_census(n, P).u_histogram
        assert u_distribution(n, P) == {u: Fraction(c, factorial(n)) for u, c in hist.items()}
    for n in range(1, 7):
        hist = cached_census(n, B).u_histogram
        total = 2**n * factorial(n)
        assert u_distribution(n, B) == {u: Fraction(c, total) for u, c in hist.items()}
    _line(11, "U pgf equals z(z+1)..(z+m-1)/m!, boundary evaluations, census histograms")


def test_criterion_12_monte_carlo():
    first = monte_carlo_corner_report(50, P, 100_000, SEED)
    assert first.mean_corners.reference == Fraction(449, 50)
    assert abs(first.mean_corners.z_score) <= 3.0
    again = monte_carlo_corner_report(50, P, 100_000, SEED)
    assert json.dumps(first.to_json_dict()) == json.dumps(again.to_json_dict())

    type_b = monte_carlo_corner_report(40, B, 100_000, SEED)
    assert type_b.mean_corners.reference == Fraction(4 * 40 + 7, 24) - Fraction(1, 2 * 40)
    assert abs(type_b.mean_corners.z_score) <= 3.0

    draws = 60_000
    counts = Counter(canonical_key(t) for t in sample_permutation_tableaux(3, SEED, draws))
    assert sum(counts.values()) == draws
    assert set(counts) == {canonical_key(t) for t in cached_tableaux(3, P)}
    expected = draws / 6
    statistic = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi_square_survival(statistic, 5) >= 1e-3

    repeat = Counter(canonical_key(t) for t in sample_permutation_tableaux(3, SEED, draws))
    assert repeat == counts
    _line(12, "seeded Monte Carlo within 3 SE, uniformity chi-square, byte-stable reruns")
