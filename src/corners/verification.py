"""Identity suites behind the ``verify`` subcommand, and the
enumeration-level push-forward check.

Each suite compares an enumerated or DP-computed quantity with its
closed form from :mod:`corners.chain` and reports one row per checked
instance.  Rows carry both sides pre-rendered as strings (decimal
integers, ``p/q`` rationals, or ``k:p/q`` position laws), so a failing
row is its own witness and the serialized report is byte-stable.

Each sweep is written once.  ``_census_rows`` checks a census statistic
against its closed form at every enumerated size of a family, and
``_chain_rows`` a DP quantity against its closed form at every ``n`` of
``_CHAIN_RANGE``; a suite names its identities as ``(name, lhs, rhs)``
checks.  The round-trip rows read :func:`corners.bijections.round_trip`,
as ``bijection roundtrip`` does.

The extension suite enumerates each permutation size once and extends
level ``n - 1`` into level ``n``; its push-forward rows and
:func:`pushforward_check` share ``_pushforward_sides``.

Enumeration-backed checks honor ``max_size`` and the per-family brute
budgets; chain-level checks run over fixed cheap ranges so the default
invocation stays well under a minute.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Union

from .bijections import round_trip, tree_like_to_permutation_shape
from .chain import (
    _closed_form_count,
    _corner_position_range,
    _fold_boundary_terms,
    _fraction_text,
    _transitions,
    corner_distribution,
    count_tableaux,
    expected_corners,
    first_step_west_probability,
    last_step_south_probability,
    rising_factorial_pgf,
    symmetric_corner_decomposition,
    total_corners,
    u_distribution,
    u_pgf,
)
from .enumerator import Census, census, enumerate_tableaux, extend_permutation, parent_permutation
from .errors import DomainError, _excerpt
from .families import SUITE_NAMES, Family
from .tableaux import PermutationTableau, _unrestricted_rows, canonical_key, corner_stats

__all__ = [
    "pushforward_check",
    "VerificationRow",
    "VerificationReport",
    "SUITES",
    "run_suite",
]

# census sweeps stay inside the ranges the acceptance checks exercise
_CENSUS_CAP = {
    Family.PERMUTATION: 8,
    Family.TREE_LIKE: 7,
    Family.TYPE_B: 6,
    Family.SYMMETRIC: 11,
}

_CHAIN_RANGE = range(2, 25)  # closed-form vs DP rows, enumeration-free

_census = lru_cache(maxsize=None)(census)


class VerificationRow(NamedTuple):
    identity: str
    parameters: str
    lhs: str
    rhs: str
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return self._asdict()


def _row(identity: str, parameters: str, lhs: object, rhs: object) -> VerificationRow:
    """A row of both sides as text: a law as ``k:p/q`` pairs, a fraction as ``p/q``."""
    left, right = (
        _law(x) if isinstance(x, dict) else _fraction_text(x) if isinstance(x, Fraction) else str(x)
        for x in (lhs, rhs)
    )
    return VerificationRow(identity, parameters, left, right, "pass" if left == right else "fail")


class VerificationReport(NamedTuple):
    suite: str
    rows: tuple[VerificationRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    def failures(self) -> tuple[VerificationRow, ...]:
        return tuple(row for row in self.rows if not row.ok)

    def to_json_dict(self) -> dict:
        return {
            "schema": "verification-report/v1",
            "suite": self.suite,
            "passed": self.passed,
            "rows": [row.to_json_dict() for row in self.rows],
        }


def _law(values: dict[int, Fraction]) -> str:
    return " ".join(f"{k}:{_fraction_text(v)}" for k, v in sorted(values.items()))


def _sizes(family: Family, max_size: int) -> range:
    cap = min(max_size, _CENSUS_CAP[family])
    if family is Family.SYMMETRIC:
        return range(3, cap + 1, 2)
    return range(1, cap + 1)


def _index(family: Family, size: int) -> int:
    """The ``n`` of the closed forms: the index for symmetric sizes ``2n + 1``."""
    return (size - 1) // 2 if family is Family.SYMMETRIC else size


def _census_rows(family: Family, max_size: int, *checks: tuple, least: int = 1) -> list[VerificationRow]:
    """Rows for each enumerated size of ``family`` whose index is at least
    ``least``, one per check ``(name, lhs, rhs)`` in turn:
    ``lhs(census)`` against ``rhs(index, family)``, as ``name/family``."""
    return [
        _row(
            f"{name}/{family.value}", f"size={size}",
            lhs(_census(size, family)), rhs(_index(family, size), family),
        )
        for size in _sizes(family, max_size)
        if _index(family, size) >= least
        for name, lhs, rhs in checks
    ]


def _chain_rows(*checks: tuple) -> list[VerificationRow]:
    """Rows for each ``n`` in ``_CHAIN_RANGE``, one per check
    ``(name, family, lhs, rhs)`` in turn: ``lhs(n, family)`` against
    ``rhs(n, family)``, as ``name/family``."""
    return [
        _row(f"{name}/{family.value}", f"n={n}", lhs(n, family), rhs(n, family))
        for n in _CHAIN_RANGE
        for name, family, lhs, rhs in checks
    ]


def suite_counts(max_size: int) -> list[VerificationRow]:
    rows = []
    for family in Family:
        rows += _census_rows(family, max_size, ("cardinality", attrgetter("cardinality"), _closed_form_count))
    for family in (f for f in Family if not f.pointed):
        rows += _chain_rows(("chain-count", family, count_tableaux, _closed_form_count))
    return rows


def _census_corner_law(c: Census) -> dict[int, Fraction]:
    support = _corner_position_range(_index(c.family, c.n), c.family)
    return {k: Fraction(c.corner_counts_by_k.get(k, 0), c.cardinality) for k in support}


def suite_corner_law(max_size: int) -> list[VerificationRow]:
    rows = []
    formula_law = partial(corner_distribution, method="formula")
    for family in Family:
        # closed forms start at index 2
        rows += _census_rows(family, max_size, ("corner-law-census", _census_corner_law, formula_law), least=2)
        rows += _chain_rows(("corner-law-dp", family, partial(corner_distribution, method="dp"), formula_law))
    return rows


def suite_corner_totals(max_size: int) -> list[VerificationRow]:
    rows = []
    for family in Family:
        rows += _census_rows(family, max_size, ("corner-total", attrgetter("total_corners"), total_corners), least=2)
        rows += _chain_rows((
            "expected-corners", family,
            lambda n, f: sum(corner_distribution(n, f, method="dp").values()), expected_corners,
        ))
    cap = min(max_size, _CENSUS_CAP[Family.TREE_LIKE])
    for n in range(2, cap + 1):
        rows.append(
            _row(
                "tree-like-extra-corners",
                f"n={n}",
                _census(n, Family.TREE_LIKE).total_corners,
                _census(n, Family.PERMUTATION).total_corners + factorial(n - 1),
            )
        )
    for n in range(1, 9):
        d = symmetric_corner_decomposition(n)
        rows.append(
            _row(
                "symmetric-corner-split",
                f"n={n}",
                d.total,
                d.twice_type_b + sum(_fold_boundary_terms(n)),
            )
        )
    return rows


def suite_boundary(max_size: int) -> list[VerificationRow]:
    south_end = ("south-end-count", attrgetter("last_step_south_count"), lambda n, f: _closed_form_count(n - 1, f))
    west_start = ("west-start-count", attrgetter("first_step_west_count"), lambda n, _: _fold_boundary_terms(n)[1])
    return [
        *_census_rows(Family.PERMUTATION, max_size, south_end, least=2),
        *_census_rows(Family.TYPE_B, max_size, south_end, west_start),
        *_chain_rows(
            ("south-end-probability", Family.PERMUTATION, last_step_south_probability, lambda n, _: Fraction(1, n)),
            ("south-end-probability", Family.TYPE_B, last_step_south_probability, lambda n, _: Fraction(1, 2 * n)),
            ("west-start-probability", Family.TYPE_B, first_step_west_probability, lambda n, _: Fraction(1, 2)),
        ),
    ]


def suite_extension(max_size: int) -> list[VerificationRow]:
    """The extension rows of each ``n`` in ``2..min(max_size, 7)``, then its
    push-forward rows, from one pass over the permutation levels."""
    statistics: list[tuple[str, Callable]] = [
        ("one", lambda t: 1),
        ("two-power-u", lambda t: 1 << len(_unrestricted_rows(t))),
        ("corner-count", lambda t: corner_stats(t).corner_count),
    ]
    extension: list[VerificationRow] = []
    pushforward: list[VerificationRow] = []
    level = list(enumerate_tableaux(1, Family.PERMUTATION))
    for n in range(2, min(max_size, 7) + 1):
        lower, level = level, list(enumerate_tableaux(n, Family.PERMUTATION))
        children: list[PermutationTableau] = []
        multiplicity_ok = transition_ok = True
        for t in lower:
            images = extend_permutation(t)
            u = len(_unrestricted_rows(t))
            multiplicity_ok &= len(images) == 1 << u and all(parent_permutation(c) == t for c in images)
            seen = Counter((c.path.steps[-1], len(_unrestricted_rows(c))) for c in images)
            transition_ok &= seen == {(s, v): w for s, v, w in _transitions(Family.PERMUTATION, u)}
            children += images
        # only images that are tableaux of the level count as distinct
        distinct = len(set(children) & set(level))
        extension += [
            _row("extension-partition", f"n={n}", f"{len(children)} images, {distinct} distinct",
                 f"{len(level)} images, {len(level)} distinct"),
            _row("extension-multiplicity", f"n={n}", multiplicity_ok, True),
            _row("extension-transition-law", f"n={n}", transition_ok, True),
        ]
        parents = [parent_permutation(t) for t in level]
        pushforward += [
            _row(f"pushforward/{name}", f"n={n}", *_pushforward_sides(n, stat, parents, lower))
            for name, stat in statistics
        ]
    return extension + pushforward


def suite_pgf(max_size: int) -> list[VerificationRow]:
    rows = []
    for m in range(1, 9):
        for z in range(1, 6):
            rows.append(
                _row("u-pgf-rising-factorial", f"m={m},z={z}", u_pgf(m, Family.PERMUTATION, z),
                     rising_factorial_pgf(z, m))
            )
        rows.append(_row("u-pgf-doubling", f"m={m}", u_pgf(m, Family.PERMUTATION, 2), Fraction(m + 1)))
    histogram = (
        "u-histogram",
        lambda c: {u: Fraction(v, c.cardinality) for u, v in c.u_histogram.items()},
        u_distribution,
    )
    for family in (f for f in Family if not f.pointed):
        rows += _census_rows(family, max_size, histogram)
    return rows


def suite_bijections(max_size: int) -> list[VerificationRow]:
    rows = []
    for family, cap, identity, size_name in (
        (Family.TYPE_B, 4, "unfold-fold-roundtrip/type-b", "n"),
        (Family.SYMMETRIC, 9, "fold-unfold-roundtrip/symmetric", "size"),
    ):
        for size in _sizes(family, min(max_size, cap)):
            total = 0
            good = 0
            partners = set()
            witness = ""
            for t in enumerate_tableaux(size, family):
                total += 1
                partner, back = round_trip(t)
                partners.add(partner)
                if back == t:
                    good += 1
                elif not witness:
                    witness = f" witness={canonical_key(t)}"
            rows.append(_row(identity, f"{size_name}={size}{witness}", f"{good}/{total}", f"{total}/{total}"))
            if family is Family.SYMMETRIC:
                count = _closed_form_count(_index(family, size), family)
                rows.append(_row("fold-bijectivity/symmetric", f"size={size}", len(partners), count))
    for n in range(2, min(max_size, 7) + 1):
        projected: Counter[str] = Counter()
        extra = 0
        for t in enumerate_tableaux(n, Family.TREE_LIKE):
            p_path = tree_like_to_permutation_shape(t.path)
            projected[p_path.steps] += 1
            extra += t.path.corner_count() - p_path.corner_count()
        shape_counts = Counter(t.path.steps for t in enumerate_tableaux(n, Family.PERMUTATION))
        rows.append(_row("shape-projection-multiset", f"n={n}", projected == shape_counts, True))
        rows.append(_row("shape-projection-extra-corners", f"n={n}", extra, factorial(n - 1)))
    for n in range(1, 9):
        d = symmetric_corner_decomposition(n)
        south, west = _fold_boundary_terms(n)
        rows.append(
            _row(
                "corner-decomposition",
                f"n={n}",
                f"{d.twice_type_b}+{d.south_term}+{d.west_term}",
                f"{2 * total_corners(n, Family.TYPE_B) if n >= 2 else 0}+{south}+{west}",
            )
        )
    return rows


def _pushforward_sides(n: int, statistic: Callable, parents: Iterable, lower: Iterable) -> tuple[Fraction, Fraction]:
    """Both sides of ``E_n[X(parent)] = (1/n) E_{n-1}[2**U X]``, exactly, from
    the parents of the size-``n`` tableaux and the size ``n - 1`` tableaux.

    Each side is summed as the statistic's own values (integers stay
    integers) and becomes one ``Fraction`` at the end."""
    left = sum(map(statistic, parents))
    right = sum(statistic(s) * (1 << len(_unrestricted_rows(s))) for s in lower)
    return Fraction(left, factorial(n)), Fraction(right, n * factorial(n - 1))


def pushforward_check(
    n: int,
    statistic: Callable[[PermutationTableau], Union[int, Fraction]],
) -> tuple[Fraction, Fraction]:
    """Both sides ``(left, right)`` of ``E_n[X(parent)] = (1/n) E_{n-1}[2**U X]``
    by enumeration.

    ``statistic`` is evaluated on size ``n - 1`` tableaux; both sides are
    exact rationals.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {_excerpt(n)}")
    parents = map(parent_permutation, enumerate_tableaux(n, Family.PERMUTATION))
    return _pushforward_sides(n, statistic, parents, enumerate_tableaux(n - 1, Family.PERMUTATION))


SUITES: dict[str, Callable[[int], list[VerificationRow]]] = dict(
    zip(
        SUITE_NAMES,
        (
            suite_counts,
            suite_corner_law,
            suite_corner_totals,
            suite_boundary,
            suite_extension,
            suite_pgf,
            suite_bijections,
        ),
        strict=True,
    )
)


def run_suite(name: str, max_size: int = 6) -> VerificationReport:
    """Run one named suite, or every suite with ``name='all'``."""
    if max_size < 1:
        raise DomainError(f"max size must be positive, got {_excerpt(max_size)}")
    if name == "all":
        rows: list[VerificationRow] = []
        for suite in SUITES.values():
            rows.extend(suite(max_size))
        return VerificationReport("all", tuple(rows))
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(['all', *SUITES])}")
    return VerificationReport(name, tuple(SUITES[name](max_size)))
