"""The four tableau families and their rule validators.

Families
--------

* :class:`PermutationTableau` -- a 0/1 filling of a Ferrers diagram of
  half-perimeter ``n`` such that every column contains a 1 and no 0 has a
  1 above it and a 1 to its left.  Size ``n``; there are ``n!`` of them.
* :class:`TypeBTableau` -- a 0/1 filling of a shifted Ferrers diagram of
  half-perimeter ``n`` obeying the same two rules plus: a diagonal 0
  forces its whole row to 0.  Size ``n``; there are ``2**n * n!``.
* :class:`TreeLikeTableau` -- a pointed Ferrers diagram without empty rows
  or columns whose top-left cell (the root) is pointed, every row and
  column carries a point, and every non-root point has exactly one of
  {all cells above empty, all cells to its left empty}.  A tableau with
  half-perimeter ``n + 1`` has size ``n`` and exactly ``n`` points; there
  are ``n!`` of them.
* :class:`SymmetricTreeLikeTableau` -- a tree-like tableau equal to its
  transpose.  Sizes are odd, ``2n + 1``, and there are ``2**n * n!``.

Every shape is a :class:`~corners.shapes.BorderPath`; a type-B tableau
fills the shifted diagram of its path (``path.shifted_row_lengths``).
Constructors check only structure (the filling must cover the shape), from
the row lengths the path caches; family rules are checked by
:func:`validate` so that fillings that break them can still be
represented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from .errors import InvalidTableauError, NotSymmetricError, ShapeFillingMismatchError
from .families import Family
from .shapes import BorderPath, Cell

__all__ = [
    "POINT_CHAR",
    "EMPTY_CHAR",
    "PermutationTableau",
    "TypeBTableau",
    "TreeLikeTableau",
    "SymmetricTreeLikeTableau",
    "Tableau",
    "RuleViolation",
    "ValidationResult",
    "MarkerMap",
    "CornerStats",
    "validate",
    "markers",
    "unrestricted_rows",
    "unrestricted_row_count",
    "corner_stats",
    "is_symmetric",
    "transpose",
    "family_of",
    "canonical_key",
    "to_record",
    "from_record",
]

POINT_CHAR = "●"  # filled circle for a pointed cell
EMPTY_CHAR = "."

Bits = tuple[tuple[int, ...], ...]


def _check_rows(rows: tuple, lengths: tuple[int, ...], what: str, symbols: tuple, kind: str) -> None:
    """Rows must have the shape's lengths and hold only ``symbols``."""
    if len(rows) != len(lengths):
        raise ShapeFillingMismatchError(
            f"{what}: expected {len(lengths)} rows, got {len(rows)}"
        )
    for r, (row, length) in enumerate(zip(rows, lengths), start=1):
        if len(row) != length:
            raise ShapeFillingMismatchError(
                f"{what}: row {r} has {len(row)} cells, shape wants {length}"
            )
        if any(x not in symbols for x in row):
            raise ShapeFillingMismatchError(f"{what}: row {r} holds a {kind}")


@dataclass(frozen=True)
class _BitTableau:
    """A 0/1 filling, one bit per cell of the diagram whose rows
    ``row_lengths`` gives."""

    path: BorderPath
    rows: Bits

    _what = "filling"

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        _check_rows(rows, self.row_lengths, self._what, (0, 1), "non-bit value")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_strings(cls, path: str | BorderPath, rows: Iterable[str]):
        path = path if isinstance(path, BorderPath) else BorderPath(path)
        return cls(path, tuple(tuple(int(ch) for ch in row) for row in rows))

    @property
    def size(self) -> int:
        return self.path.half_perimeter

    @property
    def row_lengths(self) -> tuple[int, ...]:
        return self.path.row_lengths

    def row_strings(self) -> tuple[str, ...]:
        return tuple("".join(str(b) for b in row) for row in self.rows)


class PermutationTableau(_BitTableau):
    """A 0/1 filling of a Ferrers diagram, one bit per cell."""


class TypeBTableau(_BitTableau):
    """A 0/1 filling of a shifted Ferrers diagram.

    ``path`` is the border path of the base diagram; ``rows`` covers the
    rows of the shifted diagram, staircase rows first (top to bottom).
    """

    _what = "shifted filling"

    @property
    def row_lengths(self) -> tuple[int, ...]:
        return self.path.shifted_row_lengths


@dataclass(frozen=True)
class TreeLikeTableau:
    """A Ferrers diagram with a set of pointed cells."""

    path: BorderPath
    points: frozenset[Cell] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        points = frozenset(self.points)
        object.__setattr__(self, "points", points)
        lengths = self.path.row_lengths
        stray = [
            (r, c) for r, c in points if not (0 < r <= len(lengths) and 0 < c <= lengths[r - 1])
        ]
        if stray:
            raise ShapeFillingMismatchError(
                f"points {sorted(stray)} fall outside the shape of {self.path.steps!r}"
            )

    @property
    def size(self) -> int:
        return self.path.half_perimeter - 1

    @property
    def row_lengths(self) -> tuple[int, ...]:
        return self.path.row_lengths

    def row_strings(self) -> tuple[str, ...]:
        return tuple(
            "".join(
                POINT_CHAR if (r, c) in self.points else EMPTY_CHAR
                for c in range(1, length + 1)
            )
            for r, length in enumerate(self.row_lengths, start=1)
        )


class SymmetricTreeLikeTableau(TreeLikeTableau):
    """A tree-like tableau that equals its transpose."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.path.is_self_conjugate:
            raise NotSymmetricError(f"shape {self.path.steps!r} is not self-conjugate")
        mirrored = frozenset((c, r) for r, c in self.points)
        if mirrored != self.points:
            raise NotSymmetricError("point set is not invariant under transposition")


Tableau = Union[PermutationTableau, TypeBTableau, TreeLikeTableau]


@dataclass(frozen=True)
class RuleViolation:
    rule: str
    cell: Cell | None
    message: str


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[RuleViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class MarkerMap:
    """Distinguished cells of a 0/1 tableau.

    * ``topmost_ones`` -- the highest 1 of each non-empty column;
    * ``restricted_zeros`` -- 0s with a 1 above them in their column;
    * ``rightmost_restricted_zeros`` -- the rightmost restricted 0 of each
      row that has one;
    * ``diagonal_zeros`` -- diagonal cells holding 0 (type-B only, empty
      otherwise).
    """

    topmost_ones: frozenset[Cell]
    restricted_zeros: frozenset[Cell]
    rightmost_restricted_zeros: frozenset[Cell]
    diagonal_zeros: frozenset[Cell]


@dataclass(frozen=True)
class CornerStats:
    corner_count: int
    occupied_corner_count: int | None


def _column_has_one(rows: Bits, c: int) -> bool:
    return any(len(row) >= c and row[c - 1] == 1 for row in rows)


def _validate_bit_tableau(
    rows: Bits,
    column_count: int,
    diagonal_limit: int,
) -> list[RuleViolation]:
    """Shared rule checks for permutation and type-B fillings.

    ``diagonal_limit`` is the number of staircase rows (0 for permutation);
    row ``i <= diagonal_limit`` has its diagonal cell at ``(i, i)``.
    """
    violations: list[RuleViolation] = []
    heights = [0] * (column_count + 1)
    for row in rows:
        for c in range(1, len(row) + 1):
            heights[c] += 1
    for c in range(1, column_count + 1):
        if heights[c] == 0:
            violations.append(
                RuleViolation(
                    "column-needs-one", None, f"column {c} has no cells, so no 1"
                )
            )
        elif not _column_has_one(rows, c):
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


def _validate_tree_like(t: TreeLikeTableau) -> list[RuleViolation]:
    violations: list[RuleViolation] = []
    lengths = t.path.row_lengths
    heights = t.path.column_heights
    if not lengths or lengths[-1] == 0 or not heights or heights[-1] == 0:
        violations.append(
            RuleViolation(
                "shape-not-tree-like",
                None,
                f"shape {t.path.steps!r} has an empty row or column",
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


def validate(t: Tableau) -> ValidationResult:
    """Check the family rules of a tableau."""
    if isinstance(t, PermutationTableau):
        violations = _validate_bit_tableau(t.rows, t.path.column_count, 0)
    elif isinstance(t, TypeBTableau):
        staircase = t.path.column_count
        violations = _validate_bit_tableau(t.rows, staircase, staircase)
    elif isinstance(t, TreeLikeTableau):
        violations = _validate_tree_like(t)
        if isinstance(t, SymmetricTreeLikeTableau) and t.size % 2 == 0:
            violations.append(
                RuleViolation("even-size", None, f"symmetric size {t.size} is even")
            )
    else:  # pragma: no cover - defensive
        raise TypeError(f"not a tableau: {t!r}")
    return ValidationResult(tuple(violations))


def markers(t: PermutationTableau | TypeBTableau) -> MarkerMap:
    """Locate topmost 1s, restricted 0s and diagonal 0s of a 0/1 tableau."""
    diagonal_limit = t.path.column_count if isinstance(t, TypeBTableau) else 0
    topmost: dict[int, Cell] = {}
    restricted: set[Cell] = set()
    rightmost: dict[int, Cell] = {}
    diagonal_zeros: set[Cell] = set()
    for r, row in enumerate(t.rows, start=1):
        for c, bit in enumerate(row, start=1):
            if bit == 1:
                topmost.setdefault(c, (r, c))
            else:
                if c in topmost and topmost[c][0] < r:
                    restricted.add((r, c))
                    rightmost[r] = (r, c)  # row-major scan keeps the rightmost
                if r == c and r <= diagonal_limit:
                    diagonal_zeros.add((r, c))
    return MarkerMap(
        topmost_ones=frozenset(topmost.values()),
        restricted_zeros=frozenset(restricted),
        rightmost_restricted_zeros=frozenset(rightmost.values()),
        diagonal_zeros=frozenset(diagonal_zeros),
    )


def unrestricted_rows(t: PermutationTableau | TypeBTableau) -> tuple[int, ...]:
    """1-based indices of rows with no restricted 0 and no diagonal 0.

    Zero-length rows are unrestricted; staircase rows of a type-B tableau
    take part like any other row.
    """
    m = markers(t)
    blocked = {r for r, _ in m.restricted_zeros} | {r for r, _ in m.diagonal_zeros}
    return tuple(r for r in range(1, len(t.rows) + 1) if r not in blocked)


def unrestricted_row_count(t: PermutationTableau | TypeBTableau) -> int:
    return len(unrestricted_rows(t))


def corner_stats(t: Tableau) -> CornerStats:
    """Corner count of the border path, plus pointed-corner count for the
    pointed families (``None`` for 0/1 fillings)."""
    count = t.path.corner_count()
    if isinstance(t, TreeLikeTableau):
        occupied = sum(1 for cell in t.path.corner_cells() if cell in t.points)
        return CornerStats(count, occupied)
    return CornerStats(count, None)


def transpose(t: TreeLikeTableau) -> TreeLikeTableau:
    return TreeLikeTableau(t.path.conjugate(), frozenset((c, r) for r, c in t.points))


def is_symmetric(t: TreeLikeTableau) -> bool:
    if not t.path.is_self_conjugate:
        return False
    return all((c, r) in t.points for r, c in t.points)


def family_of(t: Tableau) -> Family:
    if isinstance(t, PermutationTableau):
        return Family.PERMUTATION
    if isinstance(t, TypeBTableau):
        return Family.TYPE_B
    if isinstance(t, SymmetricTreeLikeTableau):
        return Family.SYMMETRIC
    if isinstance(t, TreeLikeTableau):
        return Family.TREE_LIKE
    raise TypeError(f"not a tableau: {t!r}")


def _filling_bits(t: Tableau) -> tuple[int, ...]:
    if isinstance(t, TreeLikeTableau):
        return tuple(
            1 if (r, c) in t.points else 0
            for r, length in enumerate(t.row_lengths, start=1)
            for c in range(1, length + 1)
        )
    return tuple(bit for row in t.rows for bit in row)


def canonical_key(t: Tableau) -> tuple[str, tuple[int, ...]]:
    """Sort key of the canonical enumeration order: border path first
    (lexicographic, S before W), then the filling read as a binary word."""
    return (t.path.steps, _filling_bits(t))


def to_record(t: Tableau) -> dict:
    """Serialize to the canonical JSON-friendly record."""
    return {
        "schema": "tableau/v1",
        "family": family_of(t).value,
        "path": t.path.steps,
        "rows": list(t.row_strings()),
    }


def from_record(record: dict) -> Tableau:
    """Rebuild a tableau from :func:`to_record` output."""
    if not isinstance(record, dict):
        raise InvalidTableauError(f"a tableau record is a JSON object, got {type(record).__name__}")
    if record.get("schema", "tableau/v1") != "tableau/v1":
        raise InvalidTableauError(f"a tableau record's schema must be 'tableau/v1', got {record['schema']!r}")
    family = Family.parse(record["family"])
    if not isinstance(record["path"], str):
        raise InvalidTableauError("a tableau record's path must be a string")
    rows = record["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, str) for row in rows):
        raise InvalidTableauError("a tableau record's rows must be a list of strings")
    path = BorderPath(record["path"])
    if family is Family.PERMUTATION:
        return PermutationTableau.from_strings(path, rows)
    if family is Family.TYPE_B:
        return TypeBTableau.from_strings(path, rows)
    symbols = (POINT_CHAR, EMPTY_CHAR)
    _check_rows(rows, path.row_lengths, "pointed filling", symbols, f"character outside {symbols}")
    points = frozenset(
        (r, c)
        for r, row in enumerate(rows, start=1)
        for c, ch in enumerate(row, start=1)
        if ch == POINT_CHAR
    )
    if family is Family.SYMMETRIC:
        return SymmetricTreeLikeTableau(path, points)
    return TreeLikeTableau(path, points)
