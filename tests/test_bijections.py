"""Folding between symmetric and type-B tableaux; shape projection."""

from math import factorial

import pytest

from conftest import assert_rebuilds, cached_census, cached_tableaux
from corners import bijections
from corners.bijections import (
    round_trip,
    symmetric_to_type_b,
    tree_like_to_permutation_shape,
    type_b_to_symmetric,
)
from corners.chain import CornerDecomposition, symmetric_corner_decomposition
from corners.errors import (
    BijectionError,
    CornersError,
    DomainError,
    InvalidTableauError,
    NotATreeLikeShapeError,
)
from corners.families import Family
from corners.shapes import BorderPath
from corners.tableaux import SymmetricTreeLikeTableau, TypeBTableau, canonical_key, validate

# a worked pair: the size-11 staircase symmetric tableau folds onto a
# two-column element of B_5
SYMMETRIC_11 = SymmetricTreeLikeTableau(
    BorderPath("SWSWSWSWSWSW"),
    frozenset(
        [(1, 1), (1, 2), (1, 5), (1, 6), (2, 1), (2, 4), (3, 4),
         (4, 2), (4, 3), (5, 1), (6, 1)]
    ),
)
TYPE_B_5 = TypeBTableau.from_strings("SWSWS", ["1", "00", "01", "1", ""])


def test_worked_pair_folds_both_ways():
    assert symmetric_to_type_b(SYMMETRIC_11) == TYPE_B_5
    assert type_b_to_symmetric(TYPE_B_5) == SYMMETRIC_11


def test_round_trip_goes_through_the_partner_and_back():
    assert round_trip(TYPE_B_5) == (SYMMETRIC_11, TYPE_B_5)
    assert round_trip(SYMMETRIC_11) == (TYPE_B_5, SYMMETRIC_11)


@pytest.mark.parametrize("t", [TYPE_B_5, SYMMETRIC_11], ids=["type-b", "symmetric"])
def test_round_trip_validates_each_tableau_once(monkeypatch, t):
    # the input, the partner and the tableau that comes back
    seen = []
    validate = bijections.validate
    monkeypatch.setattr(bijections, "validate", lambda x: seen.append(x) or validate(x))
    partner, back = round_trip(t)
    assert seen == [t, partner, back]


@pytest.mark.parametrize("t", [TYPE_B_5, SYMMETRIC_11], ids=["type-b", "symmetric"])
def test_round_trip_reads_the_marker_rule_once(monkeypatch, t):
    # the unfold and the fold read the rule for equal type-B tableaux;
    # the second read is served from the one cached entry
    bijections._lower_points.cache_clear()
    seen = []
    markers = bijections.markers
    monkeypatch.setattr(bijections, "markers", lambda b: seen.append(b) or markers(b))
    partner, back = round_trip(t)
    assert seen == [t if t is TYPE_B_5 else partner]
    assert back == t


def test_fold_checks_that_its_result_unfolds_back(monkeypatch):
    lower_points = bijections._lower_points
    monkeypatch.setattr(bijections, "_lower_points", lambda b: set(sorted(lower_points(b))[:-1]))
    with pytest.raises(BijectionError, match="does not unfold back"):
        symmetric_to_type_b(SYMMETRIC_11)


@pytest.mark.parametrize(
    "family,sizes", [(Family.TYPE_B, range(1, 6)), (Family.SYMMETRIC, range(3, 12, 2))]
)
def test_folded_tableaux_pass_the_constructor_checks(family, sizes):
    # the fold builds its type-B tableau without the constructor's checks
    for size in sizes:
        for t in cached_tableaux(size, family):
            partner, back = round_trip(t)
            assert_rebuilds(back if family is Family.TYPE_B else partner)


def test_unfold_checks_that_its_points_lie_in_the_shape(monkeypatch):
    # validate reads no bound of the shape: row 7 and column 7 lie past the
    # unfolded staircase of TYPE_B_5, yet (7, 1) and its mirror (1, 7) break
    # no tree-like rule, so only the constructor's check refuses them
    lower_points = bijections._lower_points
    monkeypatch.setattr(bijections, "_lower_points", lambda b: lower_points(b) | {(7, 1)})
    with pytest.raises(CornersError, match="outside the shape"):
        type_b_to_symmetric(TYPE_B_5)


def test_size_three_cases():
    l_shape = SymmetricTreeLikeTableau(
        BorderPath("SWSW"), frozenset([(1, 1), (1, 2), (2, 1)])
    )
    square = SymmetricTreeLikeTableau(
        BorderPath("SSWW"), frozenset([(1, 1), (1, 2), (2, 1)])
    )
    empty_row = TypeBTableau.from_strings("S", [""])
    one_column = TypeBTableau.from_strings("W", ["1"])
    assert symmetric_to_type_b(l_shape) == empty_row
    assert symmetric_to_type_b(square) == one_column
    assert type_b_to_symmetric(empty_row) == l_shape
    assert type_b_to_symmetric(one_column) == square


def test_tableaux_of_one_shape_share_their_image_path():
    # the image path is cached on the source path, so one shape's
    # tableaux fold and unfold to one path object
    b_path = BorderPath("SWSWS")
    b1 = TypeBTableau(b_path, TYPE_B_5.rows)
    b2 = TypeBTableau(b_path, ((1,), (1, 1), (1, 1), (0,), ()))
    t1, t2 = type_b_to_symmetric(b1), type_b_to_symmetric(b2)
    assert t1 != t2
    assert t1.path is t2.path
    assert symmetric_to_type_b(t1).path is symmetric_to_type_b(t2).path


def test_fold_rejects_size_one():
    t = SymmetricTreeLikeTableau(BorderPath("SW"), frozenset([(1, 1)]))
    with pytest.raises(DomainError):
        symmetric_to_type_b(t)


@pytest.mark.parametrize("n", range(1, 6))
def test_unfold_then_fold_is_identity_on_type_b(n):
    for b in cached_tableaux(n, Family.TYPE_B):
        t = type_b_to_symmetric(b)
        assert t.size == 2 * n + 1
        assert symmetric_to_type_b(t) == b


@pytest.mark.parametrize("size", (3, 5, 7, 9, 11))
def test_fold_then_unfold_is_identity_and_bijective(size):
    images = set()
    for t in cached_tableaux(size, Family.SYMMETRIC):
        b = symmetric_to_type_b(t)
        images.add(canonical_key(b))
        assert type_b_to_symmetric(b) == t
    n = (size - 1) // 2
    assert len(images) == 2**n * factorial(n)


def test_fold_preserves_corner_bookkeeping():
    # corners of the symmetric tableau = corners of its two mirrored base
    # copies plus the head and the middle, which is what the
    # decomposition identity tracks globally
    for size in (5, 7, 9):
        n = (size - 1) // 2
        total = cached_census(size, Family.SYMMETRIC).total_corners
        d = symmetric_corner_decomposition(n)
        assert d.total == total


def test_shape_projection_examples():
    assert tree_like_to_permutation_shape(BorderPath("SSW")).steps == "SS"
    assert tree_like_to_permutation_shape(BorderPath("SWW")).steps == "SW"
    with pytest.raises(NotATreeLikeShapeError):
        tree_like_to_permutation_shape(BorderPath("WSW"))
    with pytest.raises(NotATreeLikeShapeError):
        tree_like_to_permutation_shape(BorderPath("SWS"))


def test_shape_projection_corner_difference():
    for n in range(1, 7):
        for t in cached_tableaux(n, Family.TREE_LIKE):
            p_path = tree_like_to_permutation_shape(t.path)
            assert p_path.half_perimeter == n
            diff = t.path.corner_count() - p_path.corner_count()
            assert diff == int(p_path.last_step_south)


def test_shape_projection_aggregate_at_3():
    # summing corners over both families with multiplicity: 7 = 5 + 2
    tree = cached_census(3, Family.TREE_LIKE).total_corners
    perm = cached_census(3, Family.PERMUTATION).total_corners
    assert tree == 7 and perm == 5
    assert tree == perm + factorial(2)


def test_decomposition_values():
    assert symmetric_corner_decomposition(1) == CornerDecomposition(1, 0, 2, 1)
    assert symmetric_corner_decomposition(1).total == 3
    d = symmetric_corner_decomposition(2)
    assert (d.twice_type_b, d.south_term, d.west_term) == (6, 4, 4)
    assert d.total == 14


def test_decomposition_component_counts_at_2():
    c = cached_census(2, Family.TYPE_B)
    assert c.last_step_south_count == 2
    assert c.first_step_west_count == 4
    d = symmetric_corner_decomposition(2)
    assert d.south_term == 2 * c.last_step_south_count
    assert d.west_term == c.first_step_west_count


@pytest.mark.parametrize("n", range(1, 9))
def test_decomposition_closed_form(n):
    d = symmetric_corner_decomposition(n)
    assert d.south_term == 2**n * factorial(n - 1)
    assert d.west_term == 2 ** (n - 1) * factorial(n)
    assert d.total == d.twice_type_b + d.south_term + d.west_term


def test_fold_requires_valid_input():
    from corners.errors import InvalidTableauError

    broken = TypeBTableau.from_strings("SWSWS", ["1", "10", "01", "1", ""])
    with pytest.raises(InvalidTableauError):
        type_b_to_symmetric(broken)


# a symmetric tableau with a point that has points both above and left of it
BROKEN_SYMMETRIC = SymmetricTreeLikeTableau(
    BorderPath("SSWW"), frozenset([(1, 1), (1, 2), (2, 1), (2, 2)])
)
# a type-B tableau whose diagonal 0 sits in a row that is not all 0
BROKEN_TYPE_B = TypeBTableau.from_strings("SWSWS", ["1", "10", "01", "1", ""])


@pytest.mark.parametrize("bijection, broken, what", [
    (symmetric_to_type_b, BROKEN_SYMMETRIC, "fold input"),
    (type_b_to_symmetric, BROKEN_TYPE_B, "unfold input"),
], ids=["fold", "unfold"])
def test_each_map_refuses_an_invalid_input(bijection, broken, what):
    with pytest.raises(InvalidTableauError) as excinfo:
        bijection(broken)
    assert type(excinfo.value) is InvalidTableauError
    assert str(excinfo.value) == f"{what}: {validate(broken).violations[0].message}"


@pytest.mark.parametrize("bijection, source, result_type, broken, what", [
    (symmetric_to_type_b, SYMMETRIC_11, TypeBTableau, BROKEN_TYPE_B,
     "folded filling breaks type-B rules"),
    (type_b_to_symmetric, TYPE_B_5, SymmetricTreeLikeTableau, BROKEN_SYMMETRIC,
     "unfolded tableau breaks tree-like rules"),
], ids=["fold", "unfold"])
def test_each_map_refuses_an_invalid_result(
    monkeypatch, bijection, source, result_type, broken, what
):
    # the input passes its check; the result is made to fail its own, and
    # the error names the result's first violation and carries the input
    failing = validate(broken)
    monkeypatch.setattr(
        bijections, "validate", lambda x: failing if isinstance(x, result_type) else validate(x)
    )
    with pytest.raises(BijectionError) as excinfo:
        bijection(source)
    assert type(excinfo.value) is BijectionError
    assert str(excinfo.value) == f"{what}: {failing.violations[0].message}"
    assert excinfo.value.witness is source
