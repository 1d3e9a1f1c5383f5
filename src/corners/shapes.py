"""Border paths: the one shape type of the package.

The southeast border of a Ferrers diagram with half-perimeter ``h`` is
encoded as a word of length ``h`` over the alphabet ``S`` (south step) and
``W`` (west step), read from the northeast end of the border.  Positions
are 1-based throughout the public API: position ``k`` is the step
``path.steps[k - 1]``, and position 1 the northeast-most border edge.

Geometry of the encoding:

* the i-th ``S`` of the word is the right edge of row ``i`` (rows are
  numbered top to bottom), whose length equals the number of ``W`` steps
  occurring later in the word;
* the j-th ``W`` of the word is the bottom edge of the j-th column counted
  from the *right*, whose height equals the number of ``S`` steps occurring
  earlier in the word.

Zero-length rows (trailing ``S`` steps) and zero-height columns (leading
``W`` steps) are legal.

The same path is the border of a shifted Ferrers diagram, the shape of a
type-B tableau: ``column_count`` staircase rows sit on top of the plain
diagram, and the diagonal cells are ``(r, r)`` for ``r <= column_count``.
``BorderPath.row_lengths`` and ``BorderPath.shifted_row_lengths`` give the
rows of the two diagrams.

A *corner* sits at position ``k`` whenever step ``k`` is South and step
``k + 1`` is West; the corner cell is the last cell of the row whose right
edge is step ``k``.

A path is immutable, so what it derives is cached on the path object
itself: row and column counts, row lengths, column heights,
self-conjugacy, the corner cells, and the two paths of the
symmetric/type-B fold (``folded_half`` and ``unfolded``).  Tableaux
built on one path object share all of it, and the cache lives exactly
as long as the path does.

Paths and tableaux are checked immutable values on the small base
``_Frozen``, not dataclasses: importing ``dataclasses`` loads
``inspect``, ``ast`` and ``dis``, and each dataclass generates its
methods when its module loads, which every command would pay at start-up.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Iterator

from .errors import (
    EmptyPathError,
    IllegalCharacterError,
    IndexOutOfRangeError,
    NotATreeLikeShapeError,
)

__all__ = [
    "SOUTH",
    "WEST",
    "Cell",
    "BorderPath",
    "all_paths",
]

SOUTH = "S"
WEST = "W"

#: A cell is a 1-based (row, column) pair; row 1 is the top row.
Cell = tuple[int, int]

_FLIP = str.maketrans(SOUTH + WEST, WEST + SOUTH)


class _Frozen:
    """An immutable value whose fields ``__init__`` checks and sets once.

    A subclass names its fields in ``_fields``, sets each in ``__init__``
    through ``_set_field``, and defines ``__eq__`` and ``__hash__`` on the
    field tuple, so that only instances of one class compare equal and
    the hash is ``hash(field tuple)``.  Assignment and deletion raise
    ``AttributeError``; ``repr`` reads ``Class(field=value, ...)``.
    A subclass may store its fields straight into ``__dict__`` to build
    an instance without ``__init__``'s checks, as the tableaux'
    ``_trusted`` does.
    """

    _fields: tuple[str, ...] = ()

    # the object's own setter, past the refusing ``__setattr__``; for
    # ``__init__`` only
    _set_field = object.__setattr__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class BorderPath(_Frozen):
    """An S/W word describing the southeast border of a diagram."""

    _fields = ("steps",)
    steps: str

    def __init__(self, steps: str) -> None:
        if not steps:
            raise EmptyPathError("a border path needs at least one step")
        for position, ch in enumerate(steps):
            if ch not in (SOUTH, WEST):
                raise IllegalCharacterError(steps, position)
        self._set_field("steps", steps)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.steps == other.steps
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.steps,))

    def __str__(self) -> str:
        return self.steps

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def half_perimeter(self) -> int:
        return len(self.steps)

    @cached_property
    def row_lengths(self) -> tuple[int, ...]:
        """Lengths of the rows, top to bottom (zero-length rows included)."""
        lengths: list[int] = []
        west_remaining = self.steps.count(WEST)
        for ch in self.steps:
            if ch == SOUTH:
                lengths.append(west_remaining)
            else:
                west_remaining -= 1
        return tuple(lengths)

    @cached_property
    def column_heights(self) -> tuple[int, ...]:
        """Heights of the columns, left to right (zero-height columns included)."""
        heights: list[int] = []
        south_seen = 0
        for ch in self.steps:
            if ch == SOUTH:
                south_seen += 1
            else:
                heights.append(south_seen)
        heights.reverse()  # the first W of the word is the rightmost column
        return tuple(heights)

    @cached_property
    def shifted_row_lengths(self) -> tuple[int, ...]:
        """Row lengths of the shifted diagram, staircase rows first.

        The shifted diagram glues ``column_count`` staircase rows on top
        of this one: row ``i <= column_count`` holds columns ``1..i`` and
        ends in the diagonal cell ``(i, i)``.  Both diagrams have this
        border path.
        """
        return tuple(range(1, self.column_count + 1)) + self.row_lengths

    @cached_property
    def row_count(self) -> int:
        return self.steps.count(SOUTH)

    @cached_property
    def column_count(self) -> int:
        return self.steps.count(WEST)

    def corner_positions(self) -> tuple[int, ...]:
        """1-based positions ``k`` with step k South and step k+1 West."""
        s = self.steps
        return tuple(
            k for k in range(1, len(s)) if s[k - 1] == SOUTH and s[k] == WEST
        )

    def corner_count(self) -> int:
        return self.steps.count(SOUTH + WEST)

    def corner_cell(self, k: int) -> Cell:
        """The cell whose right edge is step ``k`` and bottom edge step ``k+1``."""
        if k not in self.corner_positions():
            raise IndexOutOfRangeError(f"no corner at position {k}")
        row = self.steps[:k].count(SOUTH)
        return (row, self.row_lengths[row - 1])

    @cached_property
    def _corner_cells(self) -> tuple[Cell, ...]:
        return tuple(self.corner_cell(k) for k in self.corner_positions())

    def corner_cells(self) -> tuple[Cell, ...]:
        return self._corner_cells

    def conjugate(self) -> "BorderPath":
        """Reflect the diagram through its main diagonal."""
        return BorderPath(self.steps[::-1].translate(_FLIP))

    @cached_property
    def is_self_conjugate(self) -> bool:
        return self.steps[::-1].translate(_FLIP) == self.steps

    @cached_property
    def folded_half(self) -> "BorderPath":
        """The type-B path that a symmetric tableau of this shape folds
        to: of a self-conjugate tree-like path ``S + conj(q) + q + W``,
        the half ``q``."""
        return BorderPath(self.steps[len(self.steps) // 2 : -1])

    @cached_property
    def unfolded(self) -> "BorderPath":
        """The symmetric path that a type-B tableau of this shape unfolds
        to, ``S + conj(self) + self + W``."""
        return BorderPath(SOUTH + self.conjugate().steps + self.steps + WEST)

    @property
    def first_step_west(self) -> bool:
        return self.steps[0] == WEST

    @property
    def last_step_south(self) -> bool:
        return self.steps[-1] == SOUTH

    def is_tree_like_shape(self) -> bool:
        """True when every row and every column is non-empty."""
        return self.steps[0] == SOUTH and self.steps[-1] == WEST

    def require_tree_like(self) -> None:
        if not self.is_tree_like_shape():
            raise NotATreeLikeShapeError(
                f"path {self.steps!r} must start with S and end with W"
            )

    def is_permutation_shape(self) -> bool:
        """True when every column has at least one cell."""
        return self.steps[0] == SOUTH


def all_paths(half_perimeter: int) -> Iterator[BorderPath]:
    """All ``2**h`` border paths of the given half-perimeter, lexicographic
    with ``S`` before ``W``."""
    if half_perimeter < 1:
        raise EmptyPathError("half-perimeter must be at least 1")
    for word in product((SOUTH, WEST), repeat=half_perimeter):
        yield BorderPath("".join(word))
