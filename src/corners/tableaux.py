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
* :class:`SymmetricTreeLikeTableau` -- a tree-like tableau symmetric
  about its main diagonal.  Sizes are odd, ``2n + 1``, and there are
  ``2**n * n!``.

Each class names its :class:`~corners.families.Family` as the class
attribute ``family``, and ``_CLASS_OF`` maps each family back to its
class, for :func:`from_record` and the enumerator.  Every shape is a
:class:`~corners.shapes.BorderPath`; a type-B tableau fills the shifted
diagram of its path (``path.shifted_row_lengths``).  Constructors check
only structure (the filling must cover the shape with ``int`` bits 0 and
1, or with points inside it, each a pair of ``int``), from the row
lengths the path caches; family rules are checked by :func:`validate` so
that fillings that break them can still be represented.  The public
constructors, ``from_strings`` and :func:`from_record` always check.
The private ``_trusted`` of their base ``_Filling`` skips the check;
only the enumerator and the fold call it, where their construction
guarantees the structure (see their modules).

A tableau is an immutable value on the ``shapes`` base ``_Frozen``: its
constructor checks and sets its fields once, and two tableaux are equal
only when they are of one class with equal fields, so a permutation and
a type-B tableau of one filling differ.  The records that describe a
tableau (rule violations, validation results, markers, corner counts)
are ``NamedTuple`` records.

Each per-tableau pass is one linear sweep: a row check tests the whole
filling at once and words an error row by row only when that test fails;
:func:`validate` reads a 0/1 filling once row-major, one column mask per
row, and a point set once in sorted order; :func:`markers` finds every
distinguished cell, and the unrestricted rows, in one scan.  What
belongs to the shape is read from the path, which caches it: the row and
column counts and the row lengths.  The column heights are read only to
word a column without a 1, and the rows and columns are scanned for an
empty one only when fewer of them hold a point than the path has.  The
row of a mask and the mask of a row come from two small caches
(``_cells``, ``_mask``), since the tableaux within the enumeration
budgets repeat few distinct rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterable, NamedTuple, Union

from .errors import InvalidTableauError, NotSymmetricError, ShapeFillingMismatchError, _excerpt
from .families import Family
from .shapes import BorderPath, Cell, _Frozen

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
    "corner_stats",
    "canonical_key",
    "to_record",
    "from_record",
]

POINT_CHAR = "●"  # filled circle for a pointed cell
EMPTY_CHAR = "."

Bits = tuple[tuple[int, ...], ...]


# These two caches each hold every row of up to 8 cells (511 rows), the
# longest rows within the enumeration budgets.
@lru_cache(maxsize=512)
def _cells(bits: int, length: int) -> tuple[int, ...]:
    """The row of ``length`` cells whose mask is ``bits``: bit ``c - 1`` is
    column ``c``."""
    return tuple(bits >> c & 1 for c in range(length))


@lru_cache(maxsize=512)
def _mask(row: tuple[int, ...]) -> int:
    """The mask of a 0/1 row, the inverse of :func:`_cells`."""
    return sum(bit << c for c, bit in enumerate(row))


_BITS = frozenset((0, 1))
_BIT_DIGITS = frozenset("01")
_POINT_SYMBOLS = frozenset((POINT_CHAR, EMPTY_CHAR))
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")  # bit value -> its digit


def _check_rows(
    rows: tuple, lengths: tuple[int, ...], what: str, cell_type: type, symbols: frozenset, kind: str
) -> None:
    """Rows must have the shape's lengths and hold only ``symbols``, each
    of type ``cell_type`` (so ``True`` and ``1.0`` are not bits).

    The whole filling is tested at once; the row-by-row loop only words
    the error.
    """
    if (
        tuple(map(len, rows)) == lengths
        and set(map(type, chain.from_iterable(rows))) <= {cell_type}
        and set().union(*rows) <= symbols
    ):
        return
    if len(rows) != len(lengths):
        raise ShapeFillingMismatchError(
            f"{what}: expected {len(lengths)} rows, got {len(rows)}"
        )
    for r, (row, length) in enumerate(zip(rows, lengths), start=1):
        if len(row) != length:
            raise ShapeFillingMismatchError(
                f"{what}: row {r} has {len(row)} cells, shape wants {length}"
            )
        if any(type(x) is not cell_type or x not in symbols for x in row):
            raise ShapeFillingMismatchError(f"{what}: row {r} holds a {kind}")


class _Filling(_Frozen):
    """A filling on a border path: the fields ``path`` and one more, the
    filling.

    ``_trusted`` builds a tableau without ``__init__``'s checks.  Only code
    whose construction already guarantees the structure those checks test
    may call it: the enumerator (fillings walked over the shape's own row
    lengths, and one extension step of a built tableau) and the fold (rows
    cut to the shifted row lengths).
    """

    @classmethod
    def _trusted(cls, path: BorderPath, filling: object):
        """The tableau of ``filling`` on ``path``, with none of ``__init__``'s
        checks; the two fields go straight into the instance's ``__dict__``."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["path"] = path
        fields[cls._fields[1]] = filling
        return self


class _BitTableau(_Filling):
    """A 0/1 filling, one bit per cell of the diagram whose rows
    ``row_lengths`` gives."""

    _fields = ("path", "rows")
    path: BorderPath
    rows: Bits

    _what = "filling"

    def __init__(self, path: BorderPath, rows: Bits) -> None:
        self._set_field("path", path)
        rows = tuple(map(tuple, rows))
        _check_rows(rows, self.row_lengths, self._what, int, _BITS, "non-bit value")
        self._set_field("rows", rows)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.path, self.rows) == (other.path, other.rows)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.path, self.rows))

    @classmethod
    def from_strings(cls, path: str | BorderPath, rows: Iterable[str]):
        """Build from one string of ``0`` and ``1`` digits per row."""
        path = path if isinstance(path, BorderPath) else BorderPath(path)
        rows = tuple(rows)
        # the characters only: the constructor checks the row lengths
        _check_rows(rows, tuple(map(len, rows)), cls._what, str, _BIT_DIGITS, "character outside ('0', '1')")
        return cls(path, tuple(tuple(map(int, row)) for row in rows))

    @property
    def size(self) -> int:
        return self.path.half_perimeter

    @property
    def row_lengths(self) -> tuple[int, ...]:
        return self.path.row_lengths

    def row_strings(self) -> tuple[str, ...]:
        return tuple([bytes(row).translate(_BIT_CHARS).decode() for row in self.rows])


class PermutationTableau(_BitTableau):
    """A 0/1 filling of a Ferrers diagram, one bit per cell."""

    family = Family.PERMUTATION


class TypeBTableau(_BitTableau):
    """A 0/1 filling of a shifted Ferrers diagram.

    ``path`` is the border path of the base diagram; ``rows`` covers the
    rows of the shifted diagram, staircase rows first (top to bottom).
    """

    family = Family.TYPE_B
    _what = "shifted filling"

    @property
    def row_lengths(self) -> tuple[int, ...]:
        return self.path.shifted_row_lengths


class TreeLikeTableau(_Filling):
    """A Ferrers diagram with a set of pointed cells."""

    _fields = ("path", "points")
    path: BorderPath
    points: frozenset[Cell]

    family = Family.TREE_LIKE

    def __init__(self, path: BorderPath, points: Iterable[Cell] = frozenset()) -> None:
        self._set_field("path", path)
        points = frozenset(points)
        self._set_field("points", points)
        lengths = path.row_lengths
        height = len(lengths)
        stray = []
        for point in points:
            if not (type(point) is tuple and len(point) == 2 and type(point[0]) is type(point[1]) is int):
                raise ShapeFillingMismatchError(f"point {point!r} is not a pair of ints")
            r, c = point
            if not (0 < r <= height and 0 < c <= lengths[r - 1]):
                stray.append(point)
        if stray:
            raise ShapeFillingMismatchError(
                f"points {sorted(stray)} fall outside the shape of {path.steps!r}"
            )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.path, self.points) == (other.path, other.points)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.path, self.points))

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
    """A tree-like tableau symmetric about its main diagonal."""

    family = Family.SYMMETRIC

    def __init__(self, path: BorderPath, points: Iterable[Cell] = frozenset()) -> None:
        super().__init__(path, points)
        if not self.path.is_self_conjugate:
            raise NotSymmetricError(f"shape {_excerpt(self.path.steps)} is not self-conjugate")
        if {(c, r) for r, c in self.points} != self.points:
            raise NotSymmetricError("point set is not invariant under transposition")


Tableau = Union[PermutationTableau, TypeBTableau, TreeLikeTableau]

# the class that builds each family's tableaux
_CLASS_OF = {
    cls.family: cls
    for cls in (PermutationTableau, TypeBTableau, TreeLikeTableau, SymmetricTreeLikeTableau)
}


class RuleViolation(NamedTuple):
    rule: str
    cell: Cell | None
    message: str


class ValidationResult(NamedTuple):
    violations: tuple[RuleViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


class MarkerMap(NamedTuple):
    """Distinguished cells of a 0/1 tableau.

    * ``topmost_ones`` -- the highest 1 of each non-empty column;
    * ``restricted_zeros`` -- 0s with a 1 above them in their column;
    * ``rightmost_restricted_zeros`` -- the rightmost restricted 0 of each
      row that has one;
    * ``diagonal_zeros`` -- diagonal cells holding 0 (type-B only, empty
      otherwise);
    * ``unrestricted_rows`` -- 1-based indices, ascending, of the rows
      with no restricted 0 and no diagonal 0.  Zero-length rows are
      unrestricted; staircase rows of a type-B tableau take part like any
      other row.
    """

    topmost_ones: frozenset[Cell]
    restricted_zeros: frozenset[Cell]
    rightmost_restricted_zeros: frozenset[Cell]
    diagonal_zeros: frozenset[Cell]
    unrestricted_rows: tuple[int, ...]


class CornerStats(NamedTuple):
    corner_count: int
    occupied_corner_count: int | None


def _validate_bit_tableau(
    rows: Bits,
    column_count: int,
    diagonal_limit: int,
) -> list[RuleViolation]:
    """Shared rule checks for permutation and type-B fillings, in one
    row-major sweep over the rows' masks.

    ``diagonal_limit`` is the number of staircase rows (0 for permutation);
    row ``i <= diagonal_limit`` has its diagonal cell at ``(i, i)``.
    Column violations come first, then each row's blocked 0s and its
    diagonal 0, top to bottom.  Column heights are counted only for a
    column without a 1.
    """
    above = 0  # the columns holding a 1 in the rows read so far
    row_violations: list[RuleViolation] = []
    for r, row in enumerate(rows, start=1):
        bits = _mask(row)
        if not bits:
            continue  # a row of 0s breaks no row rule
        # the 0s under a 1 and right of the row's first 1
        blocked = above & ~bits & -((bits & -bits) << 1) & ((1 << len(row)) - 1)
        if blocked:
            for c in range(1, blocked.bit_length() + 1):
                if blocked >> (c - 1) & 1:
                    row_violations.append(
                        RuleViolation(
                            "restricted-zero-blocked",
                            (r, c),
                            f"0 at {(r, c)} has a 1 above and a 1 to the left",
                        )
                    )
        if r <= diagonal_limit and row[r - 1] == 0:
            row_violations.append(
                RuleViolation(
                    "diagonal-zero-row",
                    (r, r),
                    f"diagonal 0 at {(r, r)} but row {r} is not all 0",
                )
            )
        above |= bits
    violations: list[RuleViolation] = []
    if above != (1 << column_count) - 1:
        for c in range(1, column_count + 1):
            if above >> (c - 1) & 1:
                continue
            height = sum(len(row) >= c for row in rows)
            if height == 0:
                violations.append(
                    RuleViolation(
                        "column-needs-one", None, f"column {c} has no cells, so no 1"
                    )
                )
            else:
                violations.append(
                    RuleViolation("column-needs-one", (height, c), f"column {c} has no 1")
                )
    return violations + row_violations


def _validate_tree_like(t: TreeLikeTableau) -> list[RuleViolation]:
    """Tree-like rules, reading the points once in row-major order.

    A point's column is empty above it unless an earlier point filled that
    column, and its row is empty to its left unless the previous point
    lies in the same row.  Every point lies in the shape, so the rows (or
    columns) are scanned for an empty one only when fewer of them hold a
    point than the path has.
    """
    violations: list[RuleViolation] = []
    path = t.path
    if not path.is_tree_like_shape():
        violations.append(
            RuleViolation(
                "shape-not-tree-like",
                None,
                f"shape {_excerpt(path.steps)} has an empty row or column",
            )
        )
    if (1, 1) not in t.points:
        violations.append(RuleViolation("root-missing", (1, 1), "cell (1,1) is not pointed"))
    filled_rows: set[int] = set()
    filled_columns: set[int] = set()
    misdirected: list[RuleViolation] = []
    previous_row = 0
    for r, c in sorted(t.points):
        above_empty = c not in filled_columns
        left_empty = r != previous_row
        if above_empty == left_empty and (r, c) != (1, 1):
            misdirected.append(
                RuleViolation(
                    "point-direction",
                    (r, c),
                    f"point {(r, c)}: column-above empty={above_empty}, "
                    f"row-left empty={left_empty}",
                )
            )
        filled_rows.add(r)
        filled_columns.add(c)
        previous_row = r
    if len(filled_rows) < path.row_count:
        lengths = path.row_lengths
        for r in range(1, len(lengths) + 1):
            if lengths[r - 1] > 0 and r not in filled_rows:
                violations.append(RuleViolation("row-without-point", None, f"row {r} empty"))
    if len(filled_columns) < path.column_count:
        heights = path.column_heights
        for c in range(1, len(heights) + 1):
            if heights[c - 1] > 0 and c not in filled_columns:
                violations.append(RuleViolation("column-without-point", None, f"column {c} empty"))
    return violations + misdirected


def validate(t: Tableau) -> ValidationResult:
    """Check the family rules of a tableau."""
    if isinstance(t, PermutationTableau):
        violations = _validate_bit_tableau(t.rows, t.path.column_count, 0)
    elif isinstance(t, TypeBTableau):
        staircase = t.path.column_count
        violations = _validate_bit_tableau(t.rows, staircase, staircase)
    elif isinstance(t, TreeLikeTableau):
        violations = _validate_tree_like(t)
    else:  # pragma: no cover - defensive
        raise TypeError(f"not a tableau: {t!r}")
    return ValidationResult(tuple(violations))


def markers(t: PermutationTableau | TypeBTableau) -> MarkerMap:
    """Locate topmost 1s, restricted 0s, diagonal 0s and unrestricted rows
    of a 0/1 tableau, in one row-major scan."""
    diagonal_limit = t.path.column_count if isinstance(t, TypeBTableau) else 0
    topmost: dict[int, Cell] = {}
    restricted: list[Cell] = []
    rightmost: list[Cell] = []
    diagonal_zeros: list[Cell] = []
    unrestricted: list[int] = []
    for r, row in enumerate(t.rows, start=1):
        last_restricted = None
        for c, bit in enumerate(row, start=1):
            if bit:
                if c not in topmost:
                    topmost[c] = (r, c)
            elif c in topmost:  # a 1 in an earlier row, as the scan is row-major
                last_restricted = (r, c)
                restricted.append(last_restricted)
        diagonal_zero = r <= diagonal_limit and len(row) >= r and not row[r - 1]
        if diagonal_zero:
            diagonal_zeros.append((r, r))
        if last_restricted is not None:
            rightmost.append(last_restricted)
        elif not diagonal_zero:
            unrestricted.append(r)
    return MarkerMap(
        topmost_ones=frozenset(topmost.values()),
        restricted_zeros=frozenset(restricted),
        rightmost_restricted_zeros=frozenset(rightmost),
        diagonal_zeros=frozenset(diagonal_zeros),
        unrestricted_rows=tuple(unrestricted),
    )


def corner_stats(t: Tableau) -> CornerStats:
    """Corner count of the border path, plus pointed-corner count for the
    pointed families (``None`` for 0/1 fillings)."""
    count = t.path.corner_count()
    if isinstance(t, TreeLikeTableau):
        occupied = sum(1 for cell in t.path.corner_cells() if cell in t.points)
        return CornerStats(count, occupied)
    return CornerStats(count, None)


def _filling_bits(t: Tableau) -> tuple[int, ...]:
    if isinstance(t, TreeLikeTableau):
        return tuple(
            1 if (r, c) in t.points else 0
            for r, length in enumerate(t.row_lengths, start=1)
            for c in range(1, length + 1)
        )
    return tuple(chain.from_iterable(t.rows))


def canonical_key(t: Tableau) -> tuple[str, tuple[int, ...]]:
    """Sort key of the canonical enumeration order: border path first
    (lexicographic, S before W), then the filling read as a binary word."""
    return (t.path.steps, _filling_bits(t))


def to_record(t: Tableau) -> dict:
    """Serialize to the canonical JSON-friendly record."""
    return {
        "schema": "tableau/v1",
        "family": t.family.value,
        "path": t.path.steps,
        "rows": list(t.row_strings()),
    }


def from_record(record: dict) -> Tableau:
    """Rebuild a tableau from :func:`to_record` output."""
    if not isinstance(record, dict):
        raise InvalidTableauError(f"a tableau record is a JSON object, got {type(record).__name__}")
    if record.get("schema", "tableau/v1") != "tableau/v1":
        raise InvalidTableauError(f"a tableau record's schema must be 'tableau/v1', got {_excerpt(record['schema'])}")
    for key in ("family", "path", "rows"):
        if key not in record:
            raise InvalidTableauError(f"a tableau record needs the key {key!r}")
    family = Family.parse(record["family"])
    if not isinstance(record["path"], str):
        raise InvalidTableauError("a tableau record's path must be a string")
    rows = record["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, str) for row in rows):
        raise InvalidTableauError("a tableau record's rows must be a list of strings")
    path = BorderPath(record["path"])
    cls = _CLASS_OF[family]
    if not family.pointed:
        return cls.from_strings(path, rows)
    kind = f"character outside {(POINT_CHAR, EMPTY_CHAR)}"
    _check_rows(rows, path.row_lengths, "pointed filling", str, _POINT_SYMBOLS, kind)
    points = frozenset(
        (r, c)
        for r, row in enumerate(rows, start=1)
        for c, ch in enumerate(row, start=1)
        if ch == POINT_CHAR
    )
    return cls(path, points)
