"""Border paths and the plain and shifted diagrams they bound."""

import pytest
from hypothesis import given, strategies as st

from corners.errors import (
    EmptyPathError,
    IllegalCharacterError,
    IndexOutOfRangeError,
    NotATreeLikeShapeError,
)
from corners.shapes import BorderPath, all_paths

paths = st.text(alphabet="SW", min_size=1, max_size=40).map(BorderPath)


def test_rejects_empty_and_illegal():
    with pytest.raises(EmptyPathError):
        BorderPath("")
    with pytest.raises(IllegalCharacterError):
        BorderPath("SXW")


def test_a_path_is_an_immutable_value():
    p = BorderPath(steps="SW")
    assert p == BorderPath("SW") and p != BorderPath("WS") and p != "SW"
    assert hash(p) == hash((p.steps,))
    assert repr(p) == "BorderPath(steps='SW')"
    with pytest.raises(AttributeError, match="cannot assign to field 'steps'"):
        p.steps = "WS"
    with pytest.raises(AttributeError, match="cannot delete field 'steps'"):
        del p.steps
    assert p.steps == "SW"


def test_row_lengths_of_figure_paths():
    assert BorderPath("SWWSSWWWSSWS").row_lengths == (6, 4, 4, 1, 1, 0)
    assert BorderPath("SSWWSSWWWSSWSW").row_lengths == (7, 7, 5, 5, 2, 2, 1)
    assert BorderPath("WSSWWS").row_lengths == (2, 2, 0)
    assert BorderPath("WSSWWS").column_heights == (2, 2, 0)


def test_zero_rows_and_zero_columns():
    # trailing south steps are rows of length 0; leading west steps are
    # columns of height 0
    p = BorderPath("WWSS")
    assert p.row_lengths == (0, 0)
    assert p.column_heights == (0, 0)
    assert p.corner_positions() == ()


@given(paths)
def test_row_column_duality(p):
    assert len(p.row_lengths) == p.steps.count("S")
    assert len(p.column_heights) == p.steps.count("W")
    assert sum(p.row_lengths) == sum(p.column_heights)
    assert p.row_count + p.column_count == p.half_perimeter == len(p)


@given(paths)
def test_conjugate_is_an_involution(p):
    q = p.conjugate()
    assert q.conjugate() == p
    assert q.row_lengths == p.column_heights
    assert p.is_self_conjugate == (p.steps == q.steps)


@given(paths)
def test_corner_positions_mirror_under_conjugation(p):
    h = len(p)
    mirrored = sorted(h - k for k in p.conjugate().corner_positions())
    assert mirrored == list(p.corner_positions())


@given(paths)
def test_corners_are_south_west_step_pairs(p):
    expected = [k for k in range(1, len(p)) if p.steps[k - 1] == "S" and p.steps[k] == "W"]
    assert list(p.corner_positions()) == expected
    assert p.corner_count() == len(expected)


@given(paths)
def test_corner_cells_sit_at_row_ends(p):
    lengths = p.row_lengths
    for k in p.corner_positions():
        r, c = p.corner_cell(k)
        assert lengths[r - 1] == c > 0
    with pytest.raises(IndexOutOfRangeError):
        p.corner_cell(len(p) + 1)


@pytest.mark.parametrize("h", range(1, 13))
def test_self_conjugacy_matches_the_conjugate_path(h):
    for p in all_paths(h):
        assert p.is_self_conjugate == (p.conjugate().steps == p.steps)


@pytest.mark.parametrize("h", range(1, 11))
def test_corner_cells_match_the_step_counts(h):
    for p in all_paths(h):
        expected = tuple(
            (p.steps[:k].count("S"), p.row_lengths[p.steps[:k].count("S") - 1])
            for k in p.corner_positions()
        )
        assert p.corner_cells() == expected
        assert tuple(map(p.corner_cell, p.corner_positions())) == expected
        assert p.corner_cells() is p.corner_cells()


@pytest.mark.parametrize("h", range(1, 9))
def test_fold_paths_are_derived_once_per_path(h):
    for p in all_paths(h):
        u = p.unfolded
        assert u.steps == "S" + p.conjugate().steps + p.steps + "W"
        assert u.is_self_conjugate and u.is_tree_like_shape()
        assert u.folded_half == p
        assert p.unfolded is u and u.folded_half is u.folded_half


def test_admissibility_flags():
    assert BorderPath("SW").is_permutation_shape()
    assert not BorderPath("WS").is_permutation_shape()
    assert BorderPath("SW").is_tree_like_shape()
    assert not BorderPath("SS").is_tree_like_shape()
    with pytest.raises(NotATreeLikeShapeError):
        BorderPath("WS").require_tree_like()


@pytest.mark.parametrize("h", range(1, 13))
def test_ferrers_roundtrip_exhaustive(h):
    """The row lengths and the column count determine the path."""
    for p in all_paths(h):
        rows = p.row_lengths + (0,)
        word = "W" * (p.column_count - rows[0]) + "".join(
            "S" + "W" * (rows[r] - rows[r + 1]) for r in range(p.row_count)
        )
        assert word == p.steps


@pytest.mark.parametrize("h", (0, -1))
def test_all_paths_needs_a_positive_half_perimeter(h):
    with pytest.raises(EmptyPathError) as excinfo:
        list(all_paths(h))
    assert type(excinfo.value) is EmptyPathError
    assert "half-perimeter must be at least 1" in str(excinfo.value)


def test_all_paths_is_lexicographic_and_complete():
    got = [p.steps for p in all_paths(3)]
    assert got == sorted(got)
    assert len(got) == 8
    assert len(set(got)) == 8


def test_shifted_rows_of_figure_type_b():
    p = BorderPath("WSSWWS")
    assert p.column_count == 3
    assert p.shifted_row_lengths == (1, 2, 3, 2, 2, 0)
    rows = p.shifted_row_lengths
    diagonal = [
        (r, c)
        for r, length in enumerate(rows, start=1)
        for c in range(1, length + 1)
        if r == c <= p.column_count
    ]
    assert diagonal == [(1, 1), (2, 2), (3, 3)]


@pytest.mark.parametrize("h", range(1, 11))
def test_shifted_roundtrip_exhaustive(h):
    for p in all_paths(h):
        assert len(p.shifted_row_lengths) == len(p)


@given(paths)
def test_shifted_cell_count_adds_staircase(p):
    k = p.column_count
    assert sum(p.shifted_row_lengths) == sum(p.row_lengths) + k * (k + 1) // 2
