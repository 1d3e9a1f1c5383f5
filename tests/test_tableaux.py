"""Tableau construction, validation, markers, serialization."""

import pytest
from hypothesis import given, strategies as st

from conftest import cached_tableaux
from corners.errors import InvalidTableauError, ShapeFillingMismatchError
from corners.families import Family
from corners.shapes import BorderPath
from corners.tableaux import (
    PermutationTableau,
    SymmetricTreeLikeTableau,
    TreeLikeTableau,
    TypeBTableau,
    canonical_key,
    corner_stats,
    from_record,
    markers,
    to_record,
    validate,
)

# worked examples: one pointed tableau of size 13, one 0/1 tableau of
# size 12, one type-B tableau of size 6
TREE_LIKE_13 = TreeLikeTableau(
    BorderPath("SSWWSSWWWSSWSW"),
    frozenset(
        [(1, 1), (1, 2), (1, 4), (1, 7), (2, 2), (2, 6), (3, 2),
         (4, 1), (4, 3), (4, 5), (5, 2), (6, 1), (7, 1)]
    ),
)
PERMUTATION_12 = PermutationTableau.from_strings(
    "SWWSSWWWSSWS", ["010011", "0011", "0111", "0", "1", ""]
)
TYPE_B_6 = TypeBTableau.from_strings("WSSWWS", ["1", "00", "011", "01", "00", ""])


def test_tree_like_example_is_valid():
    assert validate(TREE_LIKE_13).ok
    assert TREE_LIKE_13.size == 13
    stats = corner_stats(TREE_LIKE_13)
    assert TREE_LIKE_13.path.corner_positions() == (2, 6, 11, 13)
    assert stats.corner_count == 4
    assert stats.occupied_corner_count == 2


def test_permutation_example_is_valid():
    assert validate(PERMUTATION_12).ok
    assert PERMUTATION_12.path.corner_positions() == (1, 5, 10)
    m = markers(PERMUTATION_12)
    assert m.unrestricted_rows == (1, 3, 4, 5, 6)
    assert m.restricted_zeros == frozenset({(2, 2)})
    assert m.rightmost_restricted_zeros == frozenset({(2, 2)})
    assert m.diagonal_zeros == frozenset()
    assert (5, 1) in m.topmost_ones and (1, 2) in m.topmost_ones


def test_type_b_example_is_valid():
    assert validate(TYPE_B_6).ok
    assert TYPE_B_6.row_lengths == (1, 2, 3, 2, 2, 0)
    m = markers(TYPE_B_6)
    assert m.diagonal_zeros == frozenset({(2, 2)})
    assert m.unrestricted_rows == (1, 6)
    assert TYPE_B_6.path.corner_positions() == (3,)


def test_filling_must_match_shape():
    with pytest.raises(ShapeFillingMismatchError):
        PermutationTableau.from_strings("SW", ["10"])
    with pytest.raises(ShapeFillingMismatchError):
        TypeBTableau.from_strings("WSSWWS", ["1", "00", "011", "01", "00"])


# the self-conjugate shape with rows 3, 1, 1: (1, 4) and (2, 2) are one
# past the end of their rows, (4, 1) lies in a row below the last
@pytest.mark.parametrize("cls", [TreeLikeTableau, SymmetricTreeLikeTableau])
@pytest.mark.parametrize("point", [(0, 1), (1, 0), (-1, 1), (1, -1), (1, 4), (2, 2), (4, 1)])
def test_points_outside_the_shape_are_rejected(cls, point):
    r, c = point
    with pytest.raises(ShapeFillingMismatchError):
        cls(BorderPath("SWWSSW"), frozenset([(1, 1), (r, c), (c, r)]))


# on the path SW the one cell is (1, 1); these would compare equal to it,
# or fail with a bare TypeError or ValueError, if let through
@pytest.mark.parametrize("cls", [TreeLikeTableau, SymmetricTreeLikeTableau])
@pytest.mark.parametrize(
    "point",
    [(True, True), (1, 1.0), (1.0, 1), 1, (1, 1, 1)],
    ids=["bools", "float-column", "float-row", "int", "triple"],
)
def test_points_must_be_pairs_of_ints(cls, point):
    with pytest.raises(ShapeFillingMismatchError, match="not a pair of ints"):
        cls(BorderPath("SW"), {point})


@pytest.mark.parametrize(
    "rows",
    [
        ["●●", "●.", "."],  # one row too many
        ["●●", "●"],  # a row too short
        ["●●", "●x"],  # a character other than ● and .
    ],
    ids=["row-count", "row-length", "character"],
)
@pytest.mark.parametrize("family", ["tree-like", "symmetric"])
def test_from_record_checks_pointed_rows(family, rows):
    with pytest.raises(ShapeFillingMismatchError):
        from_record({"family": family, "path": "SSWW", "rows": rows})


# on the path SW a permutation filling has one row of one cell, and a
# type-B filling two such rows
@pytest.mark.parametrize("bit", [True, 1.0, 2, "1"], ids=["bool", "float", "two", "str"])
@pytest.mark.parametrize("cls,rest", [(PermutationTableau, ()), (TypeBTableau, ((1,),))])
def test_bits_must_be_int_zero_or_one(cls, rest, bit):
    with pytest.raises(ShapeFillingMismatchError, match="non-bit value"):
        cls(BorderPath("SW"), ((bit,), *rest))


@pytest.mark.parametrize("digit", ["\u0661", "x", "2", " "], ids=["arabic-indic-one", "x", "two", "space"])
@pytest.mark.parametrize("family,rest", [("permutation", []), ("type-b", ["1"])])
def test_from_record_checks_bit_characters(family, rest, digit):
    with pytest.raises(ShapeFillingMismatchError, match="character outside"):
        from_record({"family": family, "path": "SW", "rows": [digit, *rest]})


@pytest.mark.parametrize("key", ["family", "path", "rows"])
def test_from_record_names_a_missing_key(key):
    record = {"family": "type-b", "path": "SW", "rows": ["1", "1"]}
    del record[key]
    with pytest.raises(InvalidTableauError, match=repr(key)):
        from_record(record)


def test_validation_catches_each_rule():
    # column 2 with no 1
    t = PermutationTableau.from_strings("SWW", ["00"])
    assert not validate(t).ok
    # restricted 0 with a 1 to its left
    t = PermutationTableau.from_strings("SSWW", ["11", "10"])
    assert {v.rule for v in validate(t).violations} == {"restricted-zero-blocked"}
    # diagonal 0 in a row that is not all zero
    t = TypeBTableau.from_strings("WWS", ["1", "10", ""])
    assert any(v.rule == "diagonal-zero-row" for v in validate(t).violations)
    # tree-like point with both directions occupied
    t = TreeLikeTableau(BorderPath("SSWW"), frozenset([(1, 1), (1, 2), (2, 1), (2, 2)]))
    assert any(v.rule == "point-direction" for v in validate(t).violations)
    # missing root
    t = TreeLikeTableau(BorderPath("SW"), frozenset())
    assert not validate(t).ok


def test_transpose_and_symmetry():
    from corners.errors import NotSymmetricError

    with pytest.raises(NotSymmetricError):
        SymmetricTreeLikeTableau(TREE_LIKE_13.path, TREE_LIKE_13.points)
    square = SymmetricTreeLikeTableau(
        BorderPath("SSWW"), frozenset([(1, 1), (1, 2), (2, 1)])
    )
    assert validate(square).ok


def test_symmetric_construction_guards():
    from corners.errors import NotSymmetricError

    with pytest.raises(NotSymmetricError):
        SymmetricTreeLikeTableau(BorderPath("SWW"), frozenset([(1, 1)]))
    with pytest.raises(NotSymmetricError):
        SymmetricTreeLikeTableau(BorderPath("SSWW"), frozenset([(1, 1), (1, 2)]))


def test_tableaux_of_different_families_are_never_equal():
    path = BorderPath("S")
    perm, type_b = PermutationTableau(path, ((),)), TypeBTableau(path, ((),))
    assert perm != type_b
    assert perm == PermutationTableau(BorderPath("S"), ((),))
    tree = TreeLikeTableau(BorderPath("SW"), {(1, 1)})
    sym = SymmetricTreeLikeTableau(BorderPath("SW"), {(1, 1)})
    assert tree != sym
    assert sym == SymmetricTreeLikeTableau(BorderPath("SW"), frozenset([(1, 1)]))
    for t in (perm, type_b, PERMUTATION_12, TYPE_B_6):
        assert hash(t) == hash((t.path, t.rows))
    for t in (tree, sym, TREE_LIKE_13):
        assert hash(t) == hash((t.path, t.points))


@pytest.mark.parametrize("t, name", [
    (PERMUTATION_12, "rows"),
    (TYPE_B_6, "path"),
    (TREE_LIKE_13, "points"),
    (SymmetricTreeLikeTableau(BorderPath("SW"), {(1, 1)}), "points"),
], ids=["perm", "type-b", "tree", "symmetric"])
def test_tableaux_are_immutable(t, name):
    value = getattr(t, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(t, name, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(t, name)
    with pytest.raises(AttributeError):
        t.extra = 1
    assert getattr(t, name) is value and not hasattr(t, "extra")


def test_tableau_repr_and_keyword_construction():
    perm = PermutationTableau(path=BorderPath("SW"), rows=((1,),))
    assert repr(perm) == "PermutationTableau(path=BorderPath(steps='SW'), rows=((1,),))"
    type_b = TypeBTableau(path=BorderPath("S"), rows=[[]])
    assert repr(type_b) == "TypeBTableau(path=BorderPath(steps='S'), rows=((),))"
    tree = TreeLikeTableau(path=BorderPath("SW"))
    assert tree.points == frozenset()
    assert repr(tree) == "TreeLikeTableau(path=BorderPath(steps='SW'), points=frozenset())"
    sym = SymmetricTreeLikeTableau(path=BorderPath("SW"), points=[(1, 1)])
    assert repr(sym) == (
        "SymmetricTreeLikeTableau(path=BorderPath(steps='SW'), points=frozenset({(1, 1)}))"
    )
    assert SymmetricTreeLikeTableau(BorderPath("SW")).points == frozenset()


def test_family_of():
    assert TREE_LIKE_13.family is Family.TREE_LIKE
    assert PERMUTATION_12.family is Family.PERMUTATION
    assert TYPE_B_6.family is Family.TYPE_B


@pytest.mark.parametrize(
    "t", [TREE_LIKE_13, PERMUTATION_12, TYPE_B_6], ids=["tree", "perm", "type-b"]
)
def test_record_roundtrip(t):
    back = from_record(to_record(t))
    assert back == t
    assert back.family is t.family


@given(st.integers(2, 5), st.data())
def test_record_roundtrip_across_families(n, data):
    family = data.draw(st.sampled_from(list(Family)))
    size = n | 1 if family is Family.SYMMETRIC else n
    pool = cached_tableaux(size, family)
    t = data.draw(st.sampled_from(pool))
    assert from_record(to_record(t)) == t


def test_canonical_key_orders_path_then_filling():
    keys = [canonical_key(t) for t in cached_tableaux(3, Family.PERMUTATION)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
