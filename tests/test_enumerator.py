"""Exhaustive enumeration, extension tree, censuses."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_rebuilds, cached_census, cached_tableaux
from corners import enumerator, tableaux, verification
from corners.chain import _closed_form_count, corner_distribution, total_corners, u_distribution
from corners.enumerator import (
    _builder,
    _extension_levels,
    _fillings,
    _rows,
    _shape_rows,
    _shapes,
    census,
    enumerate_shapes,
    enumerate_tableaux,
    extend_permutation,
    parent_permutation,
)
from corners.errors import BudgetExceededError, DomainError, EmptyPathError, ShapeFillingMismatchError
from corners.families import BRUTE_FORCE_BUDGET, Family
from corners.shapes import BorderPath, all_paths
from corners.tableaux import PermutationTableau, canonical_key, markers, validate
from corners.verification import _CENSUS_CAP

# every size the verify census sweeps reach, symmetric sizes odd
SWEPT_SIZES = [
    (family, size)
    for family, cap in _CENSUS_CAP.items()
    for size in range(1, cap + 1, 2 if family is Family.SYMMETRIC else 1)
]


@pytest.mark.parametrize("family,factor", [(Family.PERMUTATION, 1), (Family.TREE_LIKE, 1)])
@pytest.mark.parametrize("n", range(1, 7))
def test_factorial_cardinalities(family, factor, n):
    assert cached_census(n, family).cardinality == factor * factorial(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_type_b_cardinality(n):
    assert cached_census(n, Family.TYPE_B).cardinality == 2**n * factorial(n)


@pytest.mark.parametrize("n", range(1, 5))
def test_symmetric_cardinality(n):
    assert cached_census(2 * n + 1, Family.SYMMETRIC).cardinality == 2**n * factorial(n)


def test_enumerate_shapes_filters_admissible_paths():
    assert [p.steps for p in enumerate_shapes(2, Family.PERMUTATION)] == ["SS", "SW"]
    assert [p.steps for p in enumerate_shapes(3, Family.TREE_LIKE)] == ["SSW", "SWW"]
    assert len(list(enumerate_shapes(2, Family.TYPE_B))) == 4
    assert [p.steps for p in enumerate_shapes(4, Family.SYMMETRIC)] == ["SSWW", "SWSW"]


def _filtered_shapes(h, family):
    """The admissible paths as a filter over all ``2**h`` paths."""
    for path in all_paths(h):
        if family is Family.PERMUTATION and not path.is_permutation_shape():
            continue
        if family.pointed and not path.is_tree_like_shape():
            continue
        if family is Family.SYMMETRIC and not path.is_self_conjugate:
            continue
        yield path


@pytest.mark.parametrize("family", list(Family))
def test_generated_shapes_equal_the_filter_over_every_path(family):
    for h in range(1, 15):
        assert list(enumerate_shapes(h, family)) == list(_filtered_shapes(h, family)), h
    with pytest.raises(EmptyPathError):
        list(enumerate_shapes(0, family))


def test_symmetric_shapes_come_from_their_halves():
    # the filter would build 2**26 paths to keep these
    steps = [p.steps for p in enumerate_shapes(26, Family.SYMMETRIC)]
    assert len(steps) == 4096 and steps == sorted(steps)
    assert all(BorderPath(s).is_self_conjugate and BorderPath(s).is_tree_like_shape() for s in steps)


def test_every_enumerated_tableau_validates():
    for family, size in SWEPT_SIZES:
        for t in enumerate_tableaux(size, family):
            assert t.family is family
            assert validate(t).ok


@pytest.mark.parametrize(
    "family,top",
    [(Family.PERMUTATION, 7), (Family.TYPE_B, 5), (Family.TREE_LIKE, 7), (Family.SYMMETRIC, 11)],
)
def test_enumerated_tableaux_pass_the_constructor_checks(family, top):
    # enumeration builds each tableau without the constructor's checks
    for size in range(1, top + 1, 2 if family is Family.SYMMETRIC else 1):
        for t in cached_tableaux(size, family):
            assert_rebuilds(t)


def test_extended_tableaux_and_their_parents_pass_the_constructor_checks():
    # so do the extension step and its inverse
    for level in _extension_levels(7):
        for t in level:
            assert_rebuilds(t)
            if t.size > 1:
                assert_rebuilds(parent_permutation(t))


def test_enumeration_is_sorted_and_duplicate_free():
    # with every tableau valid, a sorted, distinct list of closed-form
    # length is the whole family
    for family, size in SWEPT_SIZES:
        keys = [canonical_key(t) for t in enumerate_tableaux(size, family)]
        assert keys == sorted(keys)
        index = (size - 1) // 2 if family is Family.SYMMETRIC else size
        assert len(set(keys)) == len(keys) == _closed_form_count(index, family)


def _recursive_fillings(rule, keys, need):
    """The reference walk: every row depth first, with no suffix lists,
    each filling passed up one frame per row."""
    fill = [()] * len(keys)

    def walk(r, above):
        if r == len(keys):
            if above & need == need:
                yield tuple(fill)
            return
        for cells, cover, *_ in _rows(rule, keys[r], above):
            fill[r] = cells
            yield from walk(r + 1, above | cover)

    return walk(0, 0)


@pytest.mark.parametrize("family", list(_CENSUS_CAP))
def test_fillings_match_the_recursive_walk(family):
    row_counts = set()
    for size in range(1, _CENSUS_CAP[family] + 1, 2 if family is Family.SYMMETRIC else 1):
        for path in _shapes(size, family):
            rule, keys, need = _shape_rows(family, path)
            fills = list(_fillings(rule, keys, need))
            assert fills == list(_recursive_fillings(rule, keys, need)), path.steps
            assert all(type(fill) is tuple and len(fill) == len(keys) for fill in fills), path.steps
            row_counts.add(len(keys))
    assert {1, 2, 3} <= row_counts


def test_symmetric_walk_yields_canonical_order_unsorted():
    # a symmetric row is walked from its diagonal cell rightwards and each
    # cell left of the diagonal mirrors a cell of an earlier row, so the
    # depth-first walk alone puts each shape's tableaux in canonical order
    build = _builder(Family.SYMMETRIC)
    for size in range(1, 12, 2):
        for path in enumerate_shapes(size + 1, Family.SYMMETRIC):
            fills = _fillings(*_shape_rows(Family.SYMMETRIC, path))
            keys = [canonical_key(build(path, fill)) for fill in fills]
            assert keys, (size, path.steps)
            assert all(a < b for a, b in zip(keys, keys[1:])), (size, path.steps)


def test_hand_census_type_b_2():
    c = cached_census(2, Family.TYPE_B)
    assert c.cardinality == 8
    assert c.total_corners == 3
    assert c.corner_counts_by_k == {1: 3}
    assert c.last_step_south_count == 2
    assert c.first_step_west_count == 4
    assert c.u_histogram == {1: 4, 2: 4}


def test_hand_census_permutation_3():
    c = cached_census(3, Family.PERMUTATION)
    assert c.cardinality == 6
    assert c.total_corners == 5
    # P(corner at 1) = 1/3, P(corner at 2) = 1/2
    assert c.corner_counts_by_k == {1: 2, 2: 3}
    assert c.last_step_south_count == 2
    assert c.u_histogram == {1: 2, 2: 3, 3: 1}


def test_hand_census_tree_like_3():
    c = cached_census(3, Family.TREE_LIKE)
    assert c.cardinality == 6
    assert c.total_corners == 7
    # permutation law at k = 1, 2 plus the extra 1/n branch at k = 3
    assert c.corner_counts_by_k == {1: 2, 2: 3, 3: 2}
    assert c.total_occupied_corners is not None


def test_hand_census_symmetric_5():
    c = cached_census(5, Family.SYMMETRIC)
    assert c.cardinality == 8
    assert c.total_corners == 14
    # piecewise law at index 2: 1/4, 3/8, 1/2, 3/8, 1/4 over k=1..5
    assert {k: Fraction(v, 8) for k, v in c.corner_counts_by_k.items()} == {
        1: Fraction(1, 4),
        2: Fraction(3, 8),
        3: Fraction(1, 2),
        4: Fraction(3, 8),
        5: Fraction(1, 4),
    }


def test_brute_and_extension_methods_agree():
    for n in range(1, 7):
        brute = census(n, Family.PERMUTATION, method="brute")
        ext = census(n, Family.PERMUTATION, method="extension")
        assert brute == ext


@pytest.mark.parametrize(
    "family,n",
    [(Family.PERMUTATION, n) for n in range(1, 9)] + [(Family.TYPE_B, n) for n in range(1, 7)],
)
def test_transfer_census_matches_brute_force(family, n):
    assert cached_census(n, family) == cached_census(n, family, "brute")


@pytest.mark.parametrize(
    "family,n",
    [(Family.TREE_LIKE, n) for n in range(1, 9)] + [(Family.SYMMETRIC, n) for n in range(1, 14, 2)],
)
def test_occupied_corners_equal_cardinality(family, n):
    c = cached_census(n, family)
    assert c.total_occupied_corners == c.cardinality


def test_transfer_census_at_type_b_budget():
    n = BRUTE_FORCE_BUDGET[Family.TYPE_B]
    c = cached_census(n, Family.TYPE_B)
    assert c.cardinality == _closed_form_count(n, Family.TYPE_B)
    assert c.total_corners == total_corners(n, Family.TYPE_B)
    corner_law = {k: Fraction(v, c.cardinality) for k, v in c.corner_counts_by_k.items()}
    assert corner_law == corner_distribution(n, Family.TYPE_B, method="formula")
    u_law = {u: Fraction(v, c.cardinality) for u, v in c.u_histogram.items()}
    assert u_law == u_distribution(n, Family.TYPE_B)


def test_census_rejects_unknown_method_and_budget():
    with pytest.raises(DomainError):
        census(3, Family.PERMUTATION, method="magic")
    with pytest.raises(BudgetExceededError):
        census(99, Family.TYPE_B)
    with pytest.raises(BudgetExceededError):
        census(BRUTE_FORCE_BUDGET[Family.PERMUTATION] + 1, Family.PERMUTATION)
    with pytest.raises(DomainError):
        census(0, Family.TYPE_B)
    with pytest.raises(DomainError):
        census(4, Family.SYMMETRIC)
    with pytest.raises(BudgetExceededError):
        list(enumerate_tableaux(99, Family.TREE_LIKE))


def test_enumerate_rejects_even_symmetric_size():
    with pytest.raises(DomainError):
        list(enumerate_tableaux(4, Family.SYMMETRIC))


@pytest.mark.parametrize("n", range(2, 8))
def test_tree_like_corner_total_closed_form(n):
    assert cached_census(n, Family.TREE_LIKE).total_corners == factorial(n) * (n + 4) // 6


@pytest.mark.parametrize("n", range(2, 8))
def test_permutation_corner_total_closed_form(n):
    expected = factorial(n) * Fraction(n + 4, 6) - factorial(n) * Fraction(1, n)
    c = cached_census(n, Family.PERMUTATION)
    assert c.total_corners == expected
    assert c.last_step_south_count == factorial(n - 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_type_b_corner_total_closed_form(n):
    expected = 2**n * factorial(n) * (Fraction(4 * n + 7, 24) - Fraction(1, 2 * n))
    assert cached_census(n, Family.TYPE_B).total_corners == expected


@pytest.mark.parametrize("n", range(2, 5))
def test_symmetric_corner_total_closed_form(n):
    expected = 2**n * factorial(n) * Fraction(4 * n + 13, 12)
    assert cached_census(2 * n + 1, Family.SYMMETRIC).total_corners == expected


def test_extension_images_partition_next_size():
    for n in range(2, 7):
        seen = set()
        count = 0
        for t in cached_tableaux(n - 1, Family.PERMUTATION):
            children = extend_permutation(t)
            assert len(children) == 2 ** len(markers(t).unrestricted_rows)
            for child in children:
                assert validate(child).ok
                assert parent_permutation(child) == t
                seen.add(canonical_key(child))
                count += 1
        assert count == factorial(n)
        assert len(seen) == factorial(n)


def _masked_extensions(t):
    """The extension step as a loop over subset masks, each child's rows
    built afresh."""
    unrest = markers(t).unrestricted_rows
    out = [PermutationTableau(BorderPath(t.path.steps + "S"), t.rows + ((),))]
    for mask in range(1, 1 << len(unrest)):
        chosen = {unrest[i] for i in range(len(unrest)) if mask >> i & 1}
        rows = tuple((int(r in chosen),) + row for r, row in enumerate(t.rows, start=1))
        out.append(PermutationTableau(BorderPath(t.path.steps + "W"), rows))
    return tuple(out)


def test_extensions_come_in_ascending_subset_mask_order():
    for n in range(1, 7):
        for t in cached_tableaux(n, Family.PERMUTATION):
            assert extend_permutation(t) == _masked_extensions(t), t


def test_census_sweeps_and_the_extension_suite_build_no_marker_map(monkeypatch):
    # they read the unrestricted rows from masks, never the full marker record
    def refuse(t):
        raise AssertionError("markers() called")

    for module in (enumerator, verification):
        monkeypatch.setattr(module, "markers", refuse, raising=False)
    monkeypatch.setattr(tableaux, "markers", refuse)
    for method in ("brute", "extension"):
        assert census(7, Family.PERMUTATION, method=method) == cached_census(7, Family.PERMUTATION)
    assert all(row.ok for row in verification.suite_extension(6))


def test_parent_of_size_one_is_undefined():
    root = cached_tableaux(1, Family.PERMUTATION)[0]
    with pytest.raises(DomainError):
        parent_permutation(root)


@pytest.mark.parametrize("family", (Family.TREE_LIKE, Family.TYPE_B, Family.SYMMETRIC))
def test_extension_census_is_for_permutations_only(family):
    with pytest.raises(DomainError) as excinfo:
        census(3, family, method="extension")
    assert type(excinfo.value) is DomainError
    assert "extension construction applies to permutation tableaux only" in str(excinfo.value)


@pytest.mark.parametrize("h", range(1, 11))
def test_final_step_fixes_the_rows_a_parent_drops(h):
    # parent_permutation needs no check of its own: a final South step
    # leaves the bottom row empty and a final West step leaves no row
    # empty, and a tableau's rows hold its path's lengths
    for path in all_paths(h):
        lengths = path.row_lengths
        if path.steps[-1] == "S":
            assert lengths[-1] == 0, path
        else:
            assert all(lengths), path
        if lengths:
            with pytest.raises(ShapeFillingMismatchError):
                PermutationTableau(path, tuple((0,) * (n + 1) for n in lengths))


@settings(max_examples=30)
@given(st.data())
def test_extension_grows_size_by_one(data):
    n = data.draw(st.integers(1, 5))
    t = data.draw(st.sampled_from(cached_tableaux(n, Family.PERMUTATION)))
    child = data.draw(st.sampled_from(extend_permutation(t)))
    assert child.path.half_perimeter == n + 1
    assert child.path.steps[:-1] == t.path.steps
