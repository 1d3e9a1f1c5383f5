"""Exhaustive enumeration of shapes and tableaux, and censuses.

Enumeration is exact and deterministic: shapes come out in lexicographic
border-path order (``S`` before ``W``) and the tableaux of one shape are
ordered by their filling read as a binary word (row-major, points count
as 1).  Shapes are generated, not filtered out of every border path:
only the admissible words are built, in order (see
:func:`enumerate_shapes`).  All enumerators are budgeted; sizes past the
budget raise :class:`~corners.errors.BudgetExceededError` since counting
large sizes is the chain module's job.

The permutation family additionally supports the local extension step
that underlies the weighted chain: a tableau of size ``n - 1`` with ``u``
unrestricted rows has exactly ``2**u`` extensions of size ``n`` (one new
bottom row, or a new full-height leftmost column holding 1s on a
non-empty subset of the unrestricted rows).

Each family states its filling rules once, as a function listing the
legal rows of one row given the columns already covered above it: bit
rows for the permutation and type-B families, point rows for the pointed
ones, where a symmetric row is its upper part, from the diagonal cell
rightwards.  A filling is a choice of legal rows, top to bottom, that
covers every column it must.  Enumeration walks a shape's top rows
depth first, on an explicit stack rather than nested generators, and
takes its last two rows from suffix lists, one per set of columns the
top rows cover, kept for that shape only; it builds each filling once,
as its top rows followed by a suffix, and then its tableau.  Each row's
legal rows are computed once per process and sorted by their cells, so
the walk yields the fillings of a shape in canonical order and no
filling is collected per shape.  That holds for symmetric tableaux too:
each cell left of the diagonal mirrors a cell of an earlier upper row,
so the row-major word is decided upper row by upper row.
The census of a 0/1 family walks them breadth first, merging fillings
that cover the same columns with the same number of unrestricted rows,
and builds nothing; the census of a pointed family builds its tableaux.
A census that builds 0/1 tableaux (``"brute"``, ``"extension"``) and the
extension step read a tableau's unrestricted rows through
``tableaux._unrestricted_rows``, one column mask per row, not through
the full :func:`~corners.tableaux.markers` record.
Building every tableau (``method="brute"``) reads the same legal rows,
so it checks the census statistic rather than the rules.  The rules are
checked independently by :func:`~corners.tableaux.validate`, by the
closed-form counts and by growing the extension tree
(``method="extension"``).

Each tableau is built by its family's class in ``tableaux._CLASS_OF``,
and whether a family is pointed is read from ``Family.pointed``, both
once per enumeration, when ``_builder`` picks the family's builder.  The
tableaux built here skip the constructor's structure check
(``_trusted``), since their construction guarantees it: a walked filling
has one row per row of the shape, each of its key's length and made of
bits, and its points lie in those rows, a symmetric one's mirrors too
(the shape is self-conjugate); an extension or a parent adds or drops
one bottom row or one leftmost column of a built tableau.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import groupby, product, repeat
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import BudgetExceededError, DomainError, _excerpt
from .families import BRUTE_FORCE_BUDGET, Family
from .shapes import _FLIP, SOUTH, WEST, BorderPath, all_paths
from .tableaux import _CLASS_OF, Bits, PermutationTableau, Tableau, _cells, _unrestricted_rows, corner_stats

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
    shapes are self-conjugate tree-like shapes.  Only admissible words are
    built: ``S…`` for permutation, ``S…W`` for tree-like, and for
    symmetric ``S + w + conj(w) + W``, whose first half ``S + w`` decides
    both the path and its order, so the words ``w`` are taken in order.
    """
    if family is Family.TYPE_B or half_perimeter < 1:
        yield from all_paths(half_perimeter)  # refuses a half-perimeter below 1
        return
    if family is Family.PERMUTATION:
        words = (SOUTH + w for w in _words(half_perimeter - 1))
    elif family is Family.TREE_LIKE:
        words = (SOUTH + w + WEST for w in _words(half_perimeter - 2))
    elif half_perimeter % 2 == 0:
        words = (SOUTH + w + w[::-1].translate(_FLIP) + WEST for w in _words(half_perimeter // 2 - 1))
    else:
        return  # a self-conjugate path has even length
    for steps in words:
        yield BorderPath(steps)


def _words(length: int) -> Iterator[str]:
    """Every S/W word of ``length`` steps (none below 0), lexicographic."""
    if length < 0:
        return iter(())
    return map("".join, product((SOUTH, WEST), repeat=length))


# one legal row: its cells (1 for a 1 or a point) and the columns it covers
# as a mask (bit c - 1 for column c); a bit row also carries 1 when it is
# unrestricted, the statistic of the 0/1 census
_Row = tuple
_Rule = Callable[..., tuple[_Row, ...]]


def _legal_rows(length: int, diagonal: bool, above: int) -> tuple[_Row, ...]:
    """Every legal bit row of a permutation or type-B filling.

    ``above`` masks the columns of the row with a 1 above.  No 0 may have
    both a 1 above and a 1 to its left, and in a staircase row
    (``diagonal``) a 0 in the last, diagonal cell forces the whole row to
    0.  A row is unrestricted unless it holds a 0 under a 1 or a diagonal
    0.
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
        out.append((_cells(bits, length), bits, 0 if under or diagonal_zero else 1))
    return tuple(out)


def _point_rows(length: int, start: int, root: bool, above: int) -> tuple[_Row, ...]:
    """Every legal point row of a tree-like filling, or upper row of a
    symmetric one: its cells from column ``start`` on.

    ``above`` masks the columns of the row with a point above.  The row's
    first point is the root (cell ``(1, 1)`` of the ``root`` row) or sits
    under a point, and every later point sits under a column without one.
    A symmetric row ``r`` starts at its diagonal cell, and its cells to the
    left mirror column ``r`` above it: with a point there (``start > 1``
    and bit ``start - 1`` set) the row may be empty and all its points are
    later ones.  A non-empty row covers column ``start``, its mirror (for a
    tree-like row column 1, which the root covers anyway).  A row with no
    cell from ``start`` on is empty; the final cover check reads its mirror.
    """
    mirror = 1 << (start - 1)
    left = length < start or start > 1 and above & mirror
    out = [(_cells(0, length), 0)] if left else []
    for bits in range(mirror, 1 << length, mirror):
        first = 0 if left else bits & -bits  # the point with none to its left
        if first and not (first & above or root and first == 1):
            continue
        if bits & above != first & above:
            continue  # a later point under a point
        out.append((_cells(bits, length), bits | mirror))
    return tuple(out)


def _shape_rows(family: Family, path: BorderPath) -> tuple[_Rule, list[tuple], int]:
    """One shape's legal-row function, its row keys top to bottom, and the
    columns every filling must cover, as a mask.

    A key is the arguments of the legal-row function except ``above``,
    row length first.  Type-B rows are those of the shifted shape, and a
    symmetric row starts at its diagonal cell.
    """
    if family is Family.PERMUTATION:
        keys = [(length, False) for length in path.row_lengths]
        return _legal_rows, keys, (1 << path.column_count) - 1
    if family is Family.TYPE_B:
        k = path.column_count
        lengths = path.shifted_row_lengths
        keys = [(length, r <= k) for r, length in enumerate(lengths, start=1)]
        return _legal_rows, keys, (1 << k) - 1
    lengths = path.row_lengths
    upper = family is Family.SYMMETRIC
    keys = [(length, r if upper else 1, r == 1) for r, length in enumerate(lengths, start=1)]
    return _point_rows, keys, (1 << lengths[0]) - 1


@lru_cache(maxsize=None)
def _sorted_rows(rule: _Rule, key: tuple, seen: int) -> tuple[_Row, ...]:
    """One row's legal rows sorted by their cells, once per process; a row
    within ``BRUTE_FORCE_BUDGET`` has at most 8 cells, so 256 ``seen`` values."""
    return tuple(sorted(rule(*key, seen), key=itemgetter(0)))


def _rows(rule: _Rule, key: tuple, above: int) -> tuple[_Row, ...]:
    """One row's legal rows under the covered columns ``above``."""
    return _sorted_rows(rule, key, above & ((1 << key[0]) - 1))


def _fillings(rule: _Rule, keys: list[tuple], need: int) -> Iterator[Bits]:
    """Every filling of one shape; with rows sorted by their cells, in the
    order of the filling read row by row.

    The top rows are walked depth first on an explicit stack of
    ``(prefix, covered columns)``, each node's children pushed in reverse
    so that they pop in order; the last top row is read in a plain loop.
    The last two rows come from suffix lists, one per set of columns the
    top rows cover, each built once for this shape and listed in the same
    order; each filling is built once, as its top rows followed by one
    suffix.
    """
    split = max(len(keys) - 2, 0)
    suffixes: dict[int, list[Bits]] = {}

    def ends(above: int) -> list[Bits]:
        """The suffixes below top rows that cover ``above``, built once."""
        found = suffixes.get(above)
        if found is None:
            level: list[tuple[Bits, int]] = [((), above)]
            for key in keys[split:]:
                level = [
                    ((*end, row[0]), covered | row[1])
                    for end, covered in level
                    for row in _rows(rule, key, covered)
                ]
            found = suffixes[above] = [end for end, covered in level if covered & need == need]
        return found

    if split == 0:
        yield from ends(0)
        return
    last = split - 1
    stack: list[tuple[Bits, int]] = [((), 0)]
    while stack:
        prefix, above = stack.pop()
        r = len(prefix)
        if r < last:
            stack += [((*prefix, row[0]), above | row[1]) for row in reversed(_rows(rule, keys[r], above))]
            continue
        for row in _rows(rule, keys[last], above):
            top, covered = (*prefix, row[0]), above | row[1]
            yield from map(top.__add__, ends(covered))


def _tally(rule: _Rule, keys: list[tuple], need: int) -> Counter[int]:
    """The 0/1 fillings of one shape counted by unrestricted rows, row by
    row breadth first: a state is the covered columns and the count so
    far, and equal states merge."""
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    for key in keys:
        grown: defaultdict[tuple[int, int], int] = defaultdict(int)
        for (above, u), count in states.items():
            for _, cover, unrestricted in _rows(rule, key, above):
                grown[above | cover, u + unrestricted] += count
        states = grown
    tally: Counter[int] = Counter()
    for (above, u), count in states.items():
        if above & need == need:
            tally[u] += count
    return tally


def _shapes(n: int, family: Family) -> Iterator[BorderPath]:
    """The shapes of size ``n``; a pointed tableau's half-perimeter is its size plus one."""
    return enumerate_shapes(n + 1 if family.pointed else n, family)


def _builder(family: Family) -> Callable[[BorderPath, Bits], Tableau]:
    """The function that builds ``family``'s tableau of a walked filling on
    its path, without the constructor's checks, which the walk makes true
    (see the module docstring)."""
    trusted = _CLASS_OF[family]._trusted
    if not family.pointed:
        return trusted
    mirrored = family is Family.SYMMETRIC

    def build(path: BorderPath, fill: Bits) -> Tableau:
        points = {
            (r, c) for r, row in enumerate(fill, start=1) for c, cell in enumerate(row, start=1) if cell
        }
        if mirrored:
            points.update([(c, r) for r, c in points])
        return trusted(path, frozenset(points))

    return build


def _require_size(n: int, family: Family) -> None:
    if n < 1:
        raise DomainError(f"size must be at least 1, got {_excerpt(n)}")
    limit = BRUTE_FORCE_BUDGET[family]
    if n > limit:
        raise BudgetExceededError(n, family, limit)
    if family is Family.SYMMETRIC and n % 2 == 0:
        raise DomainError(f"symmetric tableaux have odd size, got {_excerpt(n)}")


def enumerate_tableaux(n: int, family: Family) -> Iterator[Tableau]:
    """All tableaux of the family in canonical order.

    ``n`` is the tableau size; for the symmetric family that is the (odd)
    size ``2m + 1``.
    """
    _require_size(n, family)
    build = _builder(family)
    for path in _shapes(n, family):
        yield from map(build, repeat(path), _fillings(*_shape_rows(family, path)))


def extend_permutation(t: PermutationTableau) -> tuple[PermutationTableau, ...]:
    """The ``2**u`` size ``n + 1`` tableaux whose parent is ``t``.

    One extension appends an empty bottom row (path gains a South step);
    the others insert a leftmost full-height column (path gains a West
    step) carrying 1s exactly on a non-empty subset of the unrestricted
    rows.  The row extension comes first, then the column extensions in
    ascending order of the subset bitmask (bit ``i`` is the i-th
    unrestricted row from the top).
    """
    trusted = PermutationTableau._trusted
    steps, rows = t.path.steps, t.rows
    out = [trusted(BorderPath(steps + SOUTH), rows + ((),))]
    west_path = BorderPath(steps + WEST)
    # fills[mask]: a 0 heads every row but the chosen ones; each unrestricted
    # row doubles the list, so the masks stay in ascending order
    fills = [tuple([(0,) + row for row in rows])]
    for r in _unrestricted_rows(t):
        one = (1,) + rows[r - 1]
        fills += [fill[: r - 1] + (one,) + fill[r:] for fill in fills]
    out += [trusted(west_path, fill) for fill in fills[1:]]
    return tuple(out)


def parent_permutation(t: PermutationTableau) -> PermutationTableau:
    """Undo the extension step: drop the empty bottom row after a final
    South step, or the leftmost column after a final West step.

    Rows hold their path's lengths, so a final South step always leaves
    the bottom row empty and a final West step leaves no row empty.
    """
    if t.size < 2:
        raise DomainError("a size-1 tableau has no parent")
    if t.path.steps[-1] == SOUTH:
        return PermutationTableau._trusted(BorderPath(t.path.steps[:-1]), t.rows[:-1])
    return PermutationTableau._trusted(BorderPath(t.path.steps[:-1]), tuple(row[1:] for row in t.rows))


class Census(NamedTuple):
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
    pointed = family.pointed
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
    pointed = family.pointed
    for path, group in groupby(tableaux, key=attrgetter("path")):
        yield path, Counter(
            corner_stats(t).occupied_corner_count if pointed else len(_unrestricted_rows(t))
            for t in group
        )


def _walk_tallies(n: int, family: Family) -> Iterator[tuple[BorderPath, Counter[int]]]:
    """Per-shape tallies of the permutation or type-B family, by walking
    its legal rows."""
    for path in _shapes(n, family):
        yield path, _tally(*_shape_rows(family, path))


def _extension_levels(n: int) -> Iterator[list[PermutationTableau]]:
    """Levels ``1..n`` of the extension tree rooted at the size-1 tableau."""
    level = [PermutationTableau(BorderPath(SOUTH), ((),))]
    yield level
    for _ in range(n - 1):
        level = [child for t in level for child in extend_permutation(t)]
        yield level


def census(n: int, family: Family, *, method: str = "auto") -> Census:
    """Aggregate statistics at size ``n``.

    ``"auto"`` counts permutation and type-B fillings shape by shape
    without building them: it walks the same legal rows as
    :func:`enumerate_tableaux`, breadth first, merging fillings that
    cover the same columns with the same number of unrestricted rows.  It
    builds the tableaux of the pointed families.  ``"brute"`` builds every
    tableau, and ``"extension"`` (permutation only) grows them through
    the extension step.

    ``"brute"`` reads the same legal rows as ``"auto"``, so comparing the
    two checks the per-tableau statistic and the tableau construction,
    not the rules.  The set of fillings is checked independently by
    :func:`~corners.tableaux.validate`, by the closed-form counts and, for
    permutation tableaux, by ``"extension"``.
    """
    if method not in ("auto", "brute", "extension"):
        raise DomainError(f"unknown census method {method!r}")
    if method == "extension":
        if family is not Family.PERMUTATION:
            raise DomainError("extension construction applies to permutation tableaux only")
        _require_size(n, family)
        *_, last = _extension_levels(n)
        return _census_of(family, n, _tableau_tallies(family, last))
    if method == "auto" and not family.pointed:
        _require_size(n, family)
        return _census_of(family, n, _walk_tallies(n, family))
    tableaux = enumerate_tableaux(n, family)
    return _census_of(family, n, _tableau_tallies(family, tableaux))
