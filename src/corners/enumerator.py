"""Exhaustive enumeration of shapes and tableaux, and censuses.

Enumeration is exact and deterministic: shapes come out in lexicographic
border-path order (``S`` before ``W``) and the tableaux of one shape are
ordered by their filling read as a binary word (row-major, points count
as 1).  All enumerators are budgeted; sizes past the budget raise
:class:`~corners.errors.BudgetExceededError` since counting large sizes
is the chain module's job.

The permutation family additionally supports the local extension step
that underlies the weighted chain: a tableau of size ``n - 1`` with ``u``
unrestricted rows has exactly ``2**u`` extensions of size ``n`` (one new
bottom row, or a new full-height leftmost column holding 1s on a
non-empty subset of the unrestricted rows).

Censuses of the permutation and type-B families count fillings without
building them: a row-by-row transfer over the columns that already hold
a 1 tallies, per shape, how many fillings have each number of
unrestricted rows.  Building every tableau (``method="brute"``) or
growing the extension tree (``method="extension"``) stays available as
the reference.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceededError,
    DomainError,
    InvalidTableauError,
)
from .families import BRUTE_FORCE_BUDGET, Family
from .shapes import SOUTH, WEST, BorderPath, all_paths
from .tableaux import (
    PermutationTableau,
    SymmetricTreeLikeTableau,
    Tableau,
    TreeLikeTableau,
    TypeBTableau,
    canonical_key,
    corner_stats,
    unrestricted_row_count,
    unrestricted_rows,
)

__all__ = [
    "enumerate_shapes",
    "enumerate_tableaux",
    "extend_permutation",
    "parent_permutation",
    "Census",
    "census",
]


def enumerate_shapes(half_perimeter: int, family: Family) -> Iterator[BorderPath]:
    """Admissible border paths of one family, in lexicographic order.

    Permutation shapes need every column non-empty (first step South),
    tree-like shapes need every row and column non-empty (first step
    South, last step West), type-B shapes are unrestricted, and symmetric
    shapes are self-conjugate tree-like shapes.
    """
    for path in all_paths(half_perimeter):
        if family is Family.PERMUTATION and not path.is_permutation_shape():
            continue
        if family in (Family.TREE_LIKE, Family.SYMMETRIC) and not path.is_tree_like_shape():
            continue
        if family is Family.SYMMETRIC and not path.is_self_conjugate():
            continue
        yield path


def _column_heights_of(profile: Sequence[int]) -> list[int]:
    width = max(profile, default=0)
    heights = [0] * (width + 1)
    for length in profile:
        for c in range(1, length + 1):
            heights[c] += 1
    return heights


def _bottom_rows_of(profile: Sequence[int]) -> list[int]:
    """bottom_rows[c] = largest 1-based row index whose length reaches c."""
    width = max(profile, default=0)
    bottom = [0] * (width + 1)
    for r, length in enumerate(profile, start=1):
        for c in range(1, length + 1):
            bottom[c] = max(bottom[c], r)
    return bottom


def _bit_fillings(
    profile: Sequence[int],
    column_count: int,
    diagonal_limit: int,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All valid 0/1 fillings of a (possibly shifted) profile.

    Implements the three filling rules: every column of the profile gets a
    1, no 0 with a 1 above and a 1 to its left, and for rows up to
    ``diagonal_limit`` a 0 on the diagonal cell ``(i, i)`` forces row ``i``
    to all 0.  Columns beyond the profile's width (zero-height columns)
    make the shape infeasible.
    """
    if column_count > max(profile, default=0):
        return  # a column without cells can never contain a 1
    bottom = _bottom_rows_of(profile)
    nrows = len(profile)

    def fill_row(r: int, one_above: list[bool], prefix: list[tuple[int, ...]]):
        if r > nrows:
            yield tuple(prefix)
            return
        length = profile[r - 1]

        def fill_cell(c: int, row_acc: list[int], one_left: bool):
            if c > length:
                if r <= diagonal_limit and length and row_acc[r - 1] == 0 and one_left:
                    return  # diagonal 0 with a 1 in its row
                next_above = one_above.copy()
                for cc, bit in enumerate(row_acc, start=1):
                    if bit:
                        next_above[cc] = True
                prefix.append(tuple(row_acc))
                yield from fill_row(r + 1, next_above, prefix)
                prefix.pop()
                return
            # bit 0 first keeps fillings in ascending binary order
            if not (one_above[c] and one_left):  # no blocked 0
                if not (bottom[c] == r and not one_above[c]):  # column keeps hope of a 1
                    row_acc.append(0)
                    yield from fill_cell(c + 1, row_acc, one_left)
                    row_acc.pop()
            row_acc.append(1)
            yield from fill_cell(c + 1, row_acc, True)
            row_acc.pop()

        yield from fill_cell(1, [], False)

    yield from fill_row(1, [False] * (max(profile, default=0) + 1), [])


def _point_sets(profile: Sequence[int]) -> Iterator[frozenset[tuple[int, int]]]:
    """All point sets on a Ferrers profile satisfying the tree-like rules."""
    if not profile or profile[-1] == 0:
        return  # empty rows cannot carry points
    heights = _column_heights_of(profile)
    nrows = len(profile)
    width = profile[0]
    if heights[width] == 0:
        return

    points: list[tuple[int, int]] = []
    col_above = [False] * (width + 1)

    def do_row(r: int):
        length = profile[r - 1]

        def do_cell(c: int, row_has: bool):
            if c > length:
                if not row_has:
                    return  # row without a point
                next_rows = do_row(r + 1) if r < nrows else iter((frozenset(points),))
                yield from next_rows
                return
            root = r == 1 and c == 1
            # skip first (0 before 1 in the binary filling order)
            if not root and not (heights[c] == r and not col_above[c]):
                yield from do_cell(c + 1, row_has)
            above_empty = not col_above[c]
            left_empty = not row_has
            if root or (above_empty != left_empty):
                saved = col_above[c]
                points.append((r, c))
                col_above[c] = True
                yield from do_cell(c + 1, True)
                col_above[c] = saved
                points.pop()

        yield from do_cell(1, False)

    yield from do_row(1)


def _symmetric_point_sets(profile: Sequence[int]) -> Iterator[frozenset[tuple[int, int]]]:
    """Transpose-invariant tree-like point sets on a self-conjugate profile.

    Only cells on or below the main diagonal are decided; the mirror cell
    of ``(r, c)`` is ``(c, r)``.  Checking the point rule on the lower
    triangle is exact because transposition swaps the two arms of the
    rule, and covering row ``r`` of the full tableau is the same as
    putting a point in lower row ``r`` or lower column ``r``.
    """
    heights = _column_heights_of(profile)
    nrows = len(profile)
    lower_lengths = [min(r, profile[r - 1]) for r in range(1, nrows + 1)]

    def lower_point(points: set, r: int, c: int) -> bool:
        return (r, c) in points if c <= r else (c, r) in points

    points: set[tuple[int, int]] = set()
    row_has = [False] * (nrows + 1)
    col_has = [False] * (nrows + 1)

    def do_row(r: int):
        length = lower_lengths[r - 1]

        def do_cell(c: int):
            if c > length:
                # with no lower cells in column r, full row r is covered by
                # its lower row alone; that is settled here
                if heights[r] < r and not row_has[r]:
                    return
                if r == nrows:
                    yield frozenset(points) | frozenset((c0, r0) for r0, c0 in points)
                else:
                    yield from do_row(r + 1)
                return

            def deadline_ok() -> bool:
                # bottom of lower column c decides coverage of full row c
                return heights[c] != r or row_has[c] or col_has[c]

            root = r == 1 and c == 1
            if not root:
                if deadline_ok():
                    yield from do_cell(c + 1)
                above_empty = not any(lower_point(points, i, c) for i in range(1, r))
                left_empty = not any(lower_point(points, r, j) for j in range(1, c))
                if above_empty == left_empty:
                    return
            points.add((r, c))
            old_r, old_c = row_has[r], col_has[c]
            row_has[r] = col_has[c] = True
            if deadline_ok():
                yield from do_cell(c + 1)
            points.discard((r, c))
            row_has[r], col_has[c] = old_r, old_c

        yield from do_cell(1)

    yield from do_row(1)


def _require_size(n: int, family: Family, budget: int | None) -> None:
    if n < 1:
        raise DomainError(f"size must be at least 1, got {n}")
    limit = BRUTE_FORCE_BUDGET[family] if budget is None else budget
    if n > limit:
        raise BudgetExceededError(n, family, limit)


def enumerate_tableaux(
    n: int, family: Family, *, budget: int | None = None
) -> Iterator[Tableau]:
    """All tableaux of the family in canonical order.

    ``n`` is the tableau size; for the symmetric family that is the (odd)
    size ``2m + 1``.
    """
    _require_size(n, family, budget)
    if family is Family.SYMMETRIC and n % 2 == 0:
        raise DomainError(f"symmetric tableaux have odd size, got {n}")

    if family is Family.PERMUTATION:
        for path in enumerate_shapes(n, family):
            batch = [
                PermutationTableau(path, rows)
                for rows in _bit_fillings(path.row_lengths, path.column_count, 0)
            ]
            batch.sort(key=canonical_key)
            yield from batch
    elif family is Family.TYPE_B:
        for path in enumerate_shapes(n, family):
            shifted = path.shifted_shape()
            batch = [
                TypeBTableau(path, rows)
                for rows in _bit_fillings(
                    shifted.row_lengths, shifted.staircase_count, shifted.staircase_count
                )
            ]
            batch.sort(key=canonical_key)
            yield from batch
    elif family is Family.TREE_LIKE:
        for path in enumerate_shapes(n + 1, family):
            batch = [TreeLikeTableau(path, pts) for pts in _point_sets(path.row_lengths)]
            batch.sort(key=canonical_key)
            yield from batch
    elif family is Family.SYMMETRIC:
        for path in enumerate_shapes(n + 1, family):
            batch = [
                SymmetricTreeLikeTableau(path, pts)
                for pts in _symmetric_point_sets(path.row_lengths)
            ]
            batch.sort(key=canonical_key)
            yield from batch
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown family {family!r}")


def extend_permutation(t: PermutationTableau) -> tuple[PermutationTableau, ...]:
    """The ``2**u`` size ``n + 1`` tableaux whose parent is ``t``.

    One extension appends an empty bottom row (path gains a South step);
    the others insert a leftmost full-height column (path gains a West
    step) carrying 1s exactly on a non-empty subset of the unrestricted
    rows.  The row extension comes first, then the column extensions in
    ascending order of the subset bitmask (bit ``i`` is the i-th
    unrestricted row from the top).
    """
    south = PermutationTableau(BorderPath(t.path.steps + SOUTH), t.rows + ((),))
    out = [south]
    unrest = unrestricted_rows(t)
    west_path = BorderPath(t.path.steps + WEST)
    for mask in range(1, 1 << len(unrest)):
        chosen = {unrest[i] for i in range(len(unrest)) if mask >> i & 1}
        rows = tuple(
            (1 if r in chosen else 0,) + row for r, row in enumerate(t.rows, start=1)
        )
        out.append(PermutationTableau(west_path, rows))
    return tuple(out)


def parent_permutation(t: PermutationTableau) -> PermutationTableau:
    """Undo the extension step: drop the empty bottom row after a final
    South step, or the leftmost column after a final West step."""
    if t.size < 2:
        raise DomainError("a size-1 tableau has no parent")
    if t.path.steps[-1] == SOUTH:
        if t.rows[-1]:
            raise InvalidTableauError("final South step demands an empty bottom row")
        return PermutationTableau(BorderPath(t.path.steps[:-1]), t.rows[:-1])
    if any(not row for row in t.rows):
        raise InvalidTableauError("final West step demands a full-height first column")
    return PermutationTableau(BorderPath(t.path.steps[:-1]), tuple(row[1:] for row in t.rows))


@dataclass(frozen=True)
class Census:
    """Exact aggregate statistics of one family at one size."""

    family: Family
    n: int
    cardinality: int
    total_corners: int
    corner_counts_by_k: dict[int, int]
    last_step_south_count: int
    first_step_west_count: int
    u_histogram: dict[int, int] | None
    total_occupied_corners: int | None

    def to_json_dict(self) -> dict:
        out: dict = {
            "schema": "census/v1",
            "family": self.family.value,
            "n": self.n,
            "cardinality": str(self.cardinality),
            "totalCorners": str(self.total_corners),
            "cornerCountsByK": {str(k): str(v) for k, v in sorted(self.corner_counts_by_k.items())},
            "lastStepSouthCount": str(self.last_step_south_count),
            "firstStepWestCount": str(self.first_step_west_count),
        }
        if self.u_histogram is not None:
            out["uHistogram"] = {str(u): str(v) for u, v in sorted(self.u_histogram.items())}
        if self.total_occupied_corners is not None:
            out["totalOccupiedCorners"] = str(self.total_occupied_corners)
        return out


def _census_of(
    family: Family, n: int, shapes: Iterable[tuple[BorderPath, Counter[int]]]
) -> Census:
    """Fold per-shape tallies into a census.

    A tally maps the per-tableau statistic (unrestricted rows for the 0/1
    families, occupied corners for the pointed ones) to the number of
    tableaux of that shape carrying it.  A shape may come more than once.
    """
    pointed = family in (Family.TREE_LIKE, Family.SYMMETRIC)
    cardinality = 0
    total_corners = 0
    occupied = 0
    by_k: Counter[int] = Counter()
    u_hist: Counter[int] = Counter()
    south = 0
    west = 0
    for path, tally in shapes:
        count = sum(tally.values())
        cardinality += count
        total_corners += count * path.corner_count()
        for k in path.corner_positions():
            by_k[k] += count
        south += count * path.last_step_south
        west += count * path.first_step_west
        if pointed:
            occupied += sum(value * c for value, c in tally.items())
        else:
            u_hist.update(tally)
    return Census(
        family=family,
        n=n,
        cardinality=cardinality,
        total_corners=total_corners,
        corner_counts_by_k=dict(sorted(by_k.items())),
        last_step_south_count=south,
        first_step_west_count=west,
        u_histogram=None if pointed else dict(sorted(u_hist.items())),
        total_occupied_corners=occupied if pointed else None,
    )


def _tableau_tallies(
    family: Family, tableaux: Iterable[Tableau]
) -> Iterator[tuple[BorderPath, Counter[int]]]:
    """Per-shape tallies of built tableaux, one per run of equal paths."""
    pointed = family in (Family.TREE_LIKE, Family.SYMMETRIC)
    for path, group in groupby(tableaux, key=attrgetter("path")):
        yield path, Counter(
            corner_stats(t).occupied_corner_count if pointed else unrestricted_row_count(t)
            for t in group
        )


_LegalRows = tuple[tuple[int, bool], ...]


def _legal_rows(length: int, above: int, diagonal: bool) -> _LegalRows:
    """Every legal bit row of one row, with whether it is restricted.

    Bit ``c - 1`` stands for column ``c``; ``above`` holds the columns of
    the row with a 1 above.  No 0 may have both a 1 above and a 1 to its
    left, and in a staircase row (``diagonal``) a 0 in the last, diagonal
    cell forces the whole row to 0.  A row is restricted when it holds a
    0 under a 1, or a diagonal 0.
    """
    out = []
    for bits in range(1 << length):
        under = above & ~bits  # 0s with a 1 above
        lowest_one = bits & -bits
        if lowest_one and under > lowest_one:
            continue  # a 0 under a 1 with a 1 to its left
        diagonal_zero = diagonal and not bits >> (length - 1)
        if diagonal_zero and bits:
            continue
        out.append((bits, bool(under) or diagonal_zero))
    return tuple(out)


def _transfer_tally(
    lengths: Sequence[int],
    staircase: int,
    required: int,
    legal: dict[tuple[int, int, bool], _LegalRows],
) -> Counter[int]:
    """Fillings of one (possibly shifted) profile, counted by unrestricted rows.

    Rows are filled top to bottom; the state is the set of columns holding
    a 1 so far, each carrying a tally ``u -> partial fillings``.  The first
    ``staircase`` rows end on a diagonal cell.  Only states covering
    columns ``1..required`` count; ``legal`` caches the rows per key.
    """
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    for r, length in enumerate(lengths, start=1):
        diagonal = r <= staircase
        visible = (1 << length) - 1
        grown: defaultdict[tuple[int, int], int] = defaultdict(int)
        for (above, u), count in states.items():
            key = (length, above & visible, diagonal)
            if key not in legal:
                legal[key] = _legal_rows(*key)
            for bits, restricted in legal[key]:
                grown[above | bits, u if restricted else u + 1] += count
        states = grown
    need = (1 << required) - 1
    tally: Counter[int] = Counter()
    for (above, u), count in states.items():
        if above & need == need:
            tally[u] += count
    return tally


def _transfer_tallies(n: int, family: Family) -> Iterator[tuple[BorderPath, Counter[int]]]:
    """Per-shape tallies of the permutation or type-B family, by transfer."""
    legal: dict[tuple[int, int, bool], _LegalRows] = {}
    for path in enumerate_shapes(n, family):
        if family is Family.TYPE_B:
            shifted = path.shifted_shape()
            staircase = shifted.staircase_count
            yield path, _transfer_tally(shifted.row_lengths, staircase, staircase, legal)
        else:
            yield path, _transfer_tally(path.row_lengths, 0, path.column_count, legal)


def _extension_levels(n: int) -> Iterator[list[PermutationTableau]]:
    """Levels ``1..n`` of the extension tree rooted at the size-1 tableau."""
    level = [PermutationTableau(BorderPath(SOUTH), ((),))]
    yield level
    for _ in range(n - 1):
        level = [child for t in level for child in extend_permutation(t)]
        yield level


def census(n: int, family: Family, *, method: str = "auto", budget: int | None = None) -> Census:
    """Aggregate statistics at size ``n``.

    ``"auto"`` counts permutation and type-B fillings shape by shape
    without building them, and builds the tableaux of the pointed
    families.  ``"brute"`` builds every tableau by filling shapes, and
    ``"extension"`` (permutation only) grows them through the extension
    step.  All routes must agree; tests hold them to that.
    """
    if method not in ("auto", "brute", "extension"):
        raise DomainError(f"unknown census method {method!r}")
    if method == "extension":
        if family is not Family.PERMUTATION:
            raise DomainError("extension construction applies to permutation tableaux only")
        _require_size(n, family, budget)
        *_, last = _extension_levels(n)
        return _census_of(family, n, _tableau_tallies(family, last))
    if method == "auto" and family in (Family.PERMUTATION, Family.TYPE_B):
        _require_size(n, family, budget)
        return _census_of(family, n, _transfer_tallies(n, family))
    tableaux = enumerate_tableaux(n, family, budget=budget)
    return _census_of(family, n, _tableau_tallies(family, tableaux))
