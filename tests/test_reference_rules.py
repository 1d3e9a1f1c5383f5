"""The linear rule sweeps against the quadratic reference checks.

The reference functions below are the earlier, direct readings of the
rules: each 0/1 column is rescanned for a 1, each 0 slices its row for a
1 to its left, each tree-like point scans its row and its column, the
markers are found cell by cell and the unrestricted rows by a second
scan.  The fold fills its type-B rows cell by cell, and its covered-point
test scans the column above the point and the mirrored row.  Every
filling of every small shape, valid or not, must give the same violations
in the same order and the same markers, and every small symmetric
tableau the same fold.
"""

from itertools import combinations

import pytest

from conftest import cached_tableaux
from corners.bijections import symmetric_to_type_b
from corners.families import Family
from corners.shapes import all_paths
from corners.tableaux import (
    PermutationTableau,
    RuleViolation,
    SymmetricTreeLikeTableau,
    TreeLikeTableau,
    TypeBTableau,
    _unrestricted_rows,
    markers,
    validate,
)


def ref_column_has_one(rows, c):
    return any(len(row) >= c and row[c - 1] == 1 for row in rows)


def ref_validate_bit_tableau(rows, column_count, diagonal_limit):
    violations = []
    heights = [0] * (column_count + 1)
    for row in rows:
        for c in range(1, len(row) + 1):
            heights[c] += 1
    for c in range(1, column_count + 1):
        if heights[c] == 0:
            violations.append(
                RuleViolation("column-needs-one", None, f"column {c} has no cells, so no 1")
            )
        elif not ref_column_has_one(rows, c):
            violations.append(
                RuleViolation("column-needs-one", (heights[c], c), f"column {c} has no 1")
            )
    one_above = [False] * (column_count + 1)
    for r, row in enumerate(rows, start=1):
        for c, bit in enumerate(row, start=1):
            if bit == 0 and one_above[c] and 1 in row[: c - 1]:
                violations.append(
                    RuleViolation(
                        "restricted-zero-blocked",
                        (r, c),
                        f"0 at {(r, c)} has a 1 above and a 1 to the left",
                    )
                )
        if r <= diagonal_limit and row and row[r - 1] == 0 and 1 in row:
            violations.append(
                RuleViolation(
                    "diagonal-zero-row",
                    (r, r),
                    f"diagonal 0 at {(r, r)} but row {r} is not all 0",
                )
            )
        for c, bit in enumerate(row, start=1):
            if bit == 1:
                one_above[c] = True
    return violations


def ref_validate_tree_like(t):
    violations = []
    lengths = t.path.row_lengths
    heights = t.path.column_heights
    if not lengths or lengths[-1] == 0 or not heights or heights[-1] == 0:
        violations.append(
            RuleViolation(
                "shape-not-tree-like", None, f"shape {t.path.steps!r} has an empty row or column"
            )
        )
    if (1, 1) not in t.points:
        violations.append(RuleViolation("root-missing", (1, 1), "cell (1,1) is not pointed"))
    rows_seen = [False] * (len(lengths) + 1)
    cols_seen = [False] * (len(heights) + 1)
    for r, c in t.points:
        rows_seen[r] = True
        cols_seen[c] = True
    for r in range(1, len(lengths) + 1):
        if lengths[r - 1] > 0 and not rows_seen[r]:
            violations.append(RuleViolation("row-without-point", None, f"row {r} empty"))
    for c in range(1, len(heights) + 1):
        if heights[c - 1] > 0 and not cols_seen[c]:
            violations.append(RuleViolation("column-without-point", None, f"column {c} empty"))
    for r, c in sorted(t.points):
        if (r, c) == (1, 1):
            continue
        above_empty = not any((i, c) in t.points for i in range(1, r))
        left_empty = not any((r, j) in t.points for j in range(1, c))
        if above_empty == left_empty:
            violations.append(
                RuleViolation(
                    "point-direction",
                    (r, c),
                    f"point {(r, c)}: column-above empty={above_empty}, "
                    f"row-left empty={left_empty}",
                )
            )
    return violations


def ref_validate(t):
    if isinstance(t, TypeBTableau):
        k = t.path.column_count
        return tuple(ref_validate_bit_tableau(t.rows, k, k))
    if isinstance(t, PermutationTableau):
        return tuple(ref_validate_bit_tableau(t.rows, t.path.column_count, 0))
    return tuple(ref_validate_tree_like(t))


def ref_markers(t):
    """(topmost 1s, restricted 0s, rightmost restricted 0s, diagonal 0s)."""
    diagonal_limit = t.path.column_count if isinstance(t, TypeBTableau) else 0
    topmost, restricted, rightmost, diagonal_zeros = {}, set(), {}, set()
    for r, row in enumerate(t.rows, start=1):
        for c, bit in enumerate(row, start=1):
            if bit == 1:
                topmost.setdefault(c, (r, c))
            else:
                if c in topmost and topmost[c][0] < r:
                    restricted.add((r, c))
                    rightmost[r] = (r, c)
                if r == c and r <= diagonal_limit:
                    diagonal_zeros.add((r, c))
    return (
        frozenset(topmost.values()),
        frozenset(restricted),
        frozenset(rightmost.values()),
        frozenset(diagonal_zeros),
    )


def ref_unrestricted_rows(t):
    _, restricted, _, diagonal_zeros = ref_markers(t)
    blocked = {r for r, _ in restricted} | {r for r, _ in diagonal_zeros}
    return tuple(r for r in range(1, len(t.rows) + 1) if r not in blocked)


def ref_covered_above(points, r, c):
    return any((i, c) in points for i in range(c, r)) or any((c, j) in points for j in range(1, c))


def ref_fold_rows(t):
    """The type-B rows of the fold of ``t``, one cell at a time."""
    b_path = t.path.folded_half
    k = b_path.column_count
    ones, zero_marks, unrestricted = set(), {}, set()
    for r, c in t.points:
        if c > r:
            continue
        if c == 1:
            if r > 1:
                unrestricted.add(r - 1)
        elif ref_covered_above(t.points, r, c):
            zero_marks[r - 1] = c - 1
        else:
            ones.add((r - 1, c - 1))
    rows = []
    col_has_one = [False] * (k + 1)
    for big_r, length in enumerate(b_path.shifted_row_lengths, start=1):
        zero_mark = zero_marks.get(big_r)
        all_zero_row = big_r not in unrestricted and zero_mark is None
        row = []
        for c in range(1, length + 1):
            if all_zero_row:
                bit = 0
            elif (big_r, c) in ones:
                bit = 1
            elif big_r == c <= k:
                bit = 1
            elif zero_mark is not None and c <= zero_mark:
                bit = 0
            elif col_has_one[c]:
                bit = 1
            else:
                bit = 0
            row.append(bit)
            if bit:
                col_has_one[c] = True
        rows.append(tuple(row))
    return tuple(rows)


def bit_fillings(cls, path):
    """Every 0/1 filling of the diagram ``cls`` puts on ``path``."""
    lengths = path.shifted_row_lengths if cls is TypeBTableau else path.row_lengths
    cells = sum(lengths)
    for mask in range(1 << cells):
        bits = [mask >> i & 1 for i in range(cells)]
        rows, start = [], 0
        for length in lengths:
            rows.append(tuple(bits[start : start + length]))
            start += length
        yield cls(path, tuple(rows))


def subsets(cells):
    for size in range(len(cells) + 1):
        yield from combinations(cells, size)


def shape_cells(path, lower_only=False):
    return [
        (r, c)
        for r, length in enumerate(path.row_lengths, start=1)
        for c in range(1, (min(r, length) if lower_only else length) + 1)
    ]


def assert_bit_tableau_matches(t):
    assert validate(t).violations == ref_validate(t)
    m = markers(t)
    assert (m.topmost_ones, m.restricted_zeros, m.rightmost_restricted_zeros, m.diagonal_zeros) == ref_markers(t)
    assert _unrestricted_rows(t) == ref_unrestricted_rows(t) == m.unrestricted_rows


@pytest.mark.parametrize("h", range(1, 7))
def test_permutation_sweeps_match_reference(h):
    # every path, so columns without cells are covered too
    for path in all_paths(h):
        for t in bit_fillings(PermutationTableau, path):
            assert_bit_tableau_matches(t)


@pytest.mark.parametrize("h", range(1, 5))
def test_type_b_sweeps_match_reference(h):
    for path in all_paths(h):
        for t in bit_fillings(TypeBTableau, path):
            assert_bit_tableau_matches(t)


@pytest.mark.parametrize("h", range(1, 7))
def test_tree_like_sweep_matches_reference(h):
    # every path, so shapes with an empty row or column are covered too
    for path in all_paths(h):
        for points in subsets(shape_cells(path)):
            t = TreeLikeTableau(path, frozenset(points))
            assert validate(t).violations == ref_validate(t)


@pytest.mark.parametrize("h", range(1, 7))
def test_symmetric_sweep_matches_reference(h):
    for path in all_paths(h):
        if not path.is_self_conjugate:
            continue
        for lower in subsets(shape_cells(path, lower_only=True)):
            t = SymmetricTreeLikeTableau(path, frozenset(lower) | {(c, r) for r, c in lower})
            assert validate(t).violations == ref_validate(t)


def test_sweeps_catch_every_rule():
    # the differential tests above must meet each rule, and its absence
    rules = set()
    for h in range(1, 5):
        for path in all_paths(h):
            for t in bit_fillings(TypeBTableau, path):
                rules.update(v.rule for v in validate(t).violations)
            for points in subsets(shape_cells(path)):
                rules.update(v.rule for v in validate(TreeLikeTableau(path, frozenset(points))).violations)
    assert rules == {
        "column-needs-one", "restricted-zero-blocked", "diagonal-zero-row",
        "shape-not-tree-like", "root-missing", "row-without-point",
        "column-without-point", "point-direction",
    }


def test_sweeps_reach_each_branch_of_the_count_checks():
    # the 0/1 check counts a column's height only when the column has no 1,
    # and the tree-like check scans for an empty row or column only when
    # fewer rows or columns hold a point than the path has; the sweeps
    # above must meet a column with no cells and one with no 1, an empty
    # row and an empty column, and a scan that finds nothing (a zero-length
    # row or column, every other one holding a point)
    no_cells = set()
    point_rules = set()
    quiet_scan = False
    for h in range(1, 5):
        for path in all_paths(h):
            for t in bit_fillings(PermutationTableau, path):
                no_cells.update(v.cell is None for v in validate(t).violations if v.rule == "column-needs-one")
            for points in subsets(shape_cells(path)):
                rules = {v.rule for v in validate(TreeLikeTableau(path, frozenset(points))).violations}
                point_rules |= rules
                empty = rules & {"row-without-point", "column-without-point"}
                quiet_scan |= not path.is_tree_like_shape() and not empty
    assert no_cells == {True, False}
    assert {"row-without-point", "column-without-point"} <= point_rules
    assert quiet_scan


@pytest.mark.parametrize("size", range(3, 12, 2))
def test_fold_matches_the_cell_by_cell_sweep(size):
    for t in cached_tableaux(size, Family.SYMMETRIC):
        assert symmetric_to_type_b(t).rows == ref_fold_rows(t)
