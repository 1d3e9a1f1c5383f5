"""Corner-faithful correspondences between the tableau families.

Two maps carry all corner bookkeeping used elsewhere:

* dropping the final West step of a tree-like shape of size ``n`` yields
  a permutation shape of size ``n`` (the deleted edge is exactly the
  leftmost column), losing one corner precisely when the shortened path
  ends with a South step;
* a symmetric tree-like tableau of size ``2n + 1`` splits along its main
  diagonal into a type-B tableau of size ``n`` and its mirror image.

The second map (``symmetric_to_type_b``, inverse ``type_b_to_symmetric``)
works marker-wise.  Going down, one row-major pass over the points
reads the markers: a point in the first column marks an unrestricted
row, the topmost point of any other column turns into a 1, and every
other point (necessarily leftmost in its row) into its row's marked 0.
All remaining cells of the surviving lower-triangle diagram have forced
values, one mask per row: its 1s, its diagonal cell, and the columns
with a 1 higher up that lie right of its marked 0; a row with neither
mark is all 0.  Going up, 1s that are topmost in their column and 0s
that are rightmost restricted zeros turn back into points, a new first
column marks the unrestricted rows, and the result is mirrored.  That
marker-to-point rule lives in one place, ``_lower_points``: the fold
validates its result and checks that it unfolds back to the input, and
the unfold validates its result.  Any inconsistency raises
:class:`BijectionError`, with the input as witness, instead of returning
a wrong tableau.  ``_require_valid`` checks every input and result.
The fold builds its type-B tableau without the constructor's structure
check (``_trusted``): its rows are cut to the shifted row lengths, so
they fit the shape by construction.  The unfold keeps the checking
constructor, since :func:`validate` does not test that points lie inside
the shape, and a wrong marker rule could place one outside it.
``_lower_points`` keeps its last answer (one entry), since a round trip
reads the rule for a type-B tableau and then for an equal one.  A
tableau is an immutable value, so the cached answer is the one
recomputing would give, and the fold's unfold-back comparison still
runs on every fold.  The image's path is read from the source path
(``BorderPath.folded_half``, ``BorderPath.unfolded``), which caches it,
so every tableau of one shape maps to one shared path object; the
column count and the shifted row lengths of a type-B path are cached
on it too, and each folded row is the cached row of its mask
(``tableaux._cells``).  So per tableau a round trip reads the points or
rows themselves, and the facts of the shape once per path.
``round_trip`` composes the two maps, in the order the input's family
needs, for every round-trip check (``bijection roundtrip``, ``verify``).

The size-1 symmetric tableau has no representable type-B partner (it
would be the empty tableau of size 0, and border paths here are
non-empty), so both directions start at size 3 / size 1.

The corner total that the fold splits is checked at the chain level by
:func:`corners.chain.symmetric_corner_decomposition`, which reads only
chain counts; this module never loads the chain.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BijectionError, DomainError, InvalidTableauError
from .shapes import BorderPath, Cell
from .tableaux import (
    SymmetricTreeLikeTableau,
    TypeBTableau,
    _cells,
    markers,
    validate,
)

__all__ = [
    "tree_like_to_permutation_shape",
    "symmetric_to_type_b",
    "type_b_to_symmetric",
    "round_trip",
]


def tree_like_to_permutation_shape(path: BorderPath) -> BorderPath:
    """Drop the final West step (equivalently, the leftmost column).

    Corner counts satisfy ``corners(path) = corners(result) + 1`` when the
    result ends with a South step and are equal otherwise.
    """
    path.require_tree_like()
    return BorderPath(path.steps[:-1])


def _require_valid(t, what: str, witness=None) -> None:
    """Raise ``what`` and ``t``'s first broken rule, as an input error, or
    given a ``witness`` as a :class:`BijectionError` carrying it."""
    result = validate(t)
    if not result.ok:
        message = f"{what}: {result.violations[0].message}"
        raise InvalidTableauError(message) if witness is None else BijectionError(message, witness)


def symmetric_to_type_b(t: SymmetricTreeLikeTableau) -> TypeBTableau:
    """Fold a symmetric tree-like tableau of size ``2n + 1`` down to a
    type-B tableau of size ``n``.

    Point markers land on the lower triangle (column and row indices both
    shifted down by one after deleting row 1 and column 1); the remaining
    cells take their unique consistent values.  The result must be valid
    and unfold back to ``t``, or :class:`BijectionError` is raised.
    """
    _require_valid(t, "fold input")
    if not isinstance(t, SymmetricTreeLikeTableau):
        raise InvalidTableauError(f"fold expects a symmetric tree-like tableau, got a {type(t).__name__}")
    if t.size < 3:
        raise DomainError("size-1 tableaux fold to the empty tableau, which has no border path")
    return _fold(t)


def _fold(t: SymmetricTreeLikeTableau) -> TypeBTableau:
    """The fold of a valid symmetric tableau of size at least 3, with the
    checks on its result but none on ``t``.

    One row-major pass over the points classifies each point ``(r, c)``
    on or below the diagonal, which lands on type-B cell
    ``(r - 1, c - 1)``: in column 1 it makes row ``r - 1`` unrestricted,
    under an earlier point of its column it is that row's rightmost
    restricted 0, and otherwise it is a topmost 1.  Above the diagonal
    column ``c`` mirrors row ``c``, so the pass reads every point to
    learn which columns already hold one.  Each type-B row is then one
    mask: its topmost 1s, its diagonal cell, and the columns with a 1
    higher up that lie right of its marked 0.  A row with neither a
    column-1 point nor a marked 0 is all 0.
    """
    b_path = t.path.folded_half
    k = b_path.column_count
    lower: set[Cell] = set()
    seen = 0  # columns of t holding a point so far, bit c for column c
    ones: dict[int, int] = {}  # type-B row -> its topmost 1s
    right_of_mark: dict[int, int] = {}  # type-B row -> the columns right of its marked 0
    for r, c in sorted(t.points):
        if c <= r:
            lower.add((r, c))
            if c == 1:
                if r > 1:
                    right_of_mark[r - 1] = -1
            elif seen >> c & 1:
                right_of_mark[r - 1] = -1 << (c - 1)
            else:
                ones[r - 1] = ones.get(r - 1, 0) | 1 << (c - 2)
        seen |= 1 << c

    rows: list[tuple[int, ...]] = []
    above = 0  # columns holding a 1 in the rows filled so far
    for r, length in enumerate(b_path.shifted_row_lengths, start=1):
        bits = 0
        if r in right_of_mark:
            diagonal = 1 << (r - 1) if r <= k else 0
            bits = (ones.get(r, 0) | diagonal | above & right_of_mark[r]) & ((1 << length) - 1)
            above |= bits
        rows.append(_cells(bits, length))

    b = TypeBTableau._trusted(b_path, tuple(rows))
    _require_valid(b, "folded filling breaks type-B rules", t)
    # the path of a valid symmetric tableau is always S + conj(q) + q + W,
    # so b unfolds back to t exactly when the lower points agree
    if _lower_points(b) != lower:
        raise BijectionError("folded tableau does not unfold back to its input", witness=t)
    return b


@lru_cache(maxsize=1)
def _lower_points(b: TypeBTableau) -> frozenset[Cell]:
    """The points on and below the diagonal of ``b``'s unfolding: the root,
    ``(r+1, 1)`` for each unrestricted row, and ``(r+1, c+1)`` for each
    off-diagonal topmost 1 and each rightmost restricted 0 of a row
    without a diagonal 0.  The last answer is kept for a round trip's
    second read."""
    m = markers(b)
    k = b.path.column_count
    diag_zero_rows = {r for r, _ in m.diagonal_zeros}
    lower: set[Cell] = {(1, 1)}
    for r in m.unrestricted_rows:
        lower.add((r + 1, 1))
    for r, c in m.rightmost_restricted_zeros:
        if r not in diag_zero_rows:
            lower.add((r + 1, c + 1))
    for r, c in m.topmost_ones:
        if not r == c <= k:
            lower.add((r + 1, c + 1))
    return frozenset(lower)


def type_b_to_symmetric(b: TypeBTableau) -> SymmetricTreeLikeTableau:
    """Unfold a type-B tableau of size ``n`` into a symmetric tree-like
    tableau of size ``2n + 1``; inverse of :func:`symmetric_to_type_b`."""
    _require_valid(b, "unfold input")
    if not isinstance(b, TypeBTableau):
        raise InvalidTableauError(f"unfold expects a type-B tableau, got a {type(b).__name__}")
    return _unfold(b)


def _unfold(b: TypeBTableau) -> SymmetricTreeLikeTableau:
    """The unfolding of a valid type-B tableau, with the checks on its
    result but none on ``b``."""
    lower = _lower_points(b)
    t = SymmetricTreeLikeTableau(b.path.unfolded, lower | {(c, r) for r, c in lower})
    _require_valid(t, "unfolded tableau breaks tree-like rules", b)
    return t


def round_trip(t: TypeBTableau | SymmetricTreeLikeTableau) -> tuple:
    """``(partner, back)``: a type-B tableau's unfolding and that folded back,
    or a symmetric tableau's fold and that unfolded back.

    The maps are mutually inverse on ``t`` exactly when ``back == t``.
    The first map checks ``t``; the partner it returns has passed that
    map's checks on its result, so the second map is not asked to check
    it again.
    """
    if isinstance(t, TypeBTableau):
        partner = type_b_to_symmetric(t)
        return partner, _fold(partner)
    partner = symmetric_to_type_b(t)
    return partner, _unfold(partner)
