"""Exactly uniform random tableaux and Monte Carlo corner estimates.

Sampling is trajectory-first: the border path and its unrestricted-row
sequence are drawn step by step, choosing each transition with
probability (transition weight) x (backward completion weight) over the
total, which makes the resulting path carry exactly the law of a
uniformly random tableau.  Permutation tableaux are then realized
filling-level (the chosen column subsets are drawn uniformly among those
reaching the chosen next state); type-B sampling stays at the path
level, which determines every corner statistic.

One step table per family, shared by every size, holds for each visited
number of steps left ``m`` and state ``u`` the cumulative weights with
their rejection bound and the step and target of each transition.  A row
is built from two smaller stores of the family: each state's steps,
targets and weights, read once from the chain's plain ``(step, target,
weight)`` triples and shared by every ``m``, and each ``m``'s completion
weights ``d**m m! (m + 1)**t``, one list extended as rows of that ``m``
reach larger targets ``t``.  A draw is one loop over the table, from
``m = n - 1`` down to 0, with the rejection draw and the bisection
inlined.  Tableau growth reads the same table and tracks the unrestricted
rows as it goes, so it builds and validates one tableau at the end instead
of one per step; its column subsets come from one draw below a binomial,
with no list of weights.

Randomness contract (generator id ``sha256-stream/mt19937/v1``): sample
``i`` of a run seeded with ``seed`` uses a ``random.Random`` (Mersenne
Twister) seeded with the integer digest of ``SHA-256("<seed>|<i>")``.
Every sample is a pure function of ``(seed, index)``, so partitioning
samples across workers cannot change any estimate, and reports are
byte-identical across runs.  A report large enough to pay for it does
split: where the process can fork and has a second CPU, one forked child
tallies the upper half of the indices and sends its exact integer sums
back through a pipe, so the report has the same bytes on any CPU count.
Each process grows its own step table and stores.  Trajectory and
tableau lists are lazy iterators and stay in one process, since a
generator dropped halfway could leave a child running.

Integer draws use rejection below a power of two, so all categorical
choices are exact over the arbitrary-precision weights; no floating
point touches the sampling path.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import os
import random
import signal
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .chain import (
    _fraction_text,
    _require_chain,
    _suffix_weight,
    _transitions,
    corner_distribution,
    expected_corners,
)
from .errors import BudgetExceededError, DomainError, _excerpt
from .families import CHAIN_BUDGET, Family
from .shapes import SOUTH, WEST, BorderPath
from .tableaux import PermutationTableau

__all__ = [
    "GENERATOR_ID",
    "Trajectory",
    "sample_trajectory",
    "sample_trajectories",
    "sample_permutation_tableau",
    "sample_permutation_tableaux",
    "McStatistic",
    "McReport",
    "monte_carlo_corner_report",
]

GENERATOR_ID = "sha256-stream/mt19937/v1"


def substream(seed: int, index: int) -> random.Random:
    """The independent RNG owning sample ``index`` of a run."""
    digest = hashlib.sha256(f"{seed}|{index}".encode("ascii")).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _int_below(rng: random.Random, bound: int) -> int:
    """Uniform integer in [0, bound); exact for unbounded ``bound``."""
    bits = bound.bit_length()
    while True:
        x = rng.getrandbits(bits)
        if x < bound:
            return x


class Trajectory(NamedTuple):
    """One realization of the growth chain: states and steps in order.

    ``steps`` read left to right are the border path of the sampled
    tableau; ``u_sequence`` has length ``len(steps) + 1`` and starts at 0.
    """

    family: Family
    u_sequence: tuple[int, ...]
    steps: str


#: One row of a step table: the cumulative weights of the transitions out
#: of state ``u`` with ``m`` steps left, their total (the rejection bound)
#: and its bit length, and each transition's step and target state.
_StepRow = tuple[list[int], int, int, str, tuple[int, ...]]
#: ``table[m][u]``: a list per number of steps left, a dict per state.
_StepTable = list[dict[int, _StepRow]]

#: Each chain family's step table, shared by every size: a row depends
#: only on the family, ``m`` and ``u``.
_STEP_TABLES: dict[Family, _StepTable] = {}
#: ``_TRANSITIONS[family][u]``: the steps (one string), targets and weights
#: of the transitions out of state ``u``, shared by the rows of every ``m``.
_TRANSITIONS: dict[Family, dict[int, tuple[str, tuple[int, ...], tuple[int, ...]]]] = {}
#: ``_COMPLETIONS[family][m][t]``: the completion weight ``d**m m! (m + 1)**t``
#: of target ``t`` with ``m`` steps left, extended as rows need larger ``t``.
#: Rows exist only for ``m < n <= CHAIN_BUDGET.sample_size`` and targets
#: ``t <= n``, so neither store outgrows the step table's bound.
_COMPLETIONS: dict[Family, dict[int, list[int]]] = {}


def _step_table(n: int, family: Family) -> _StepTable:
    """Check a request for size-``n`` draws of ``family`` and return the
    family's step table, grown to at least ``n`` positions.  The size
    check keeps it within ``CHAIN_BUDGET.sample_size`` positions."""
    _require_chain(family, n)
    if n > CHAIN_BUDGET.sample_size:
        raise BudgetExceededError(
            n, family, CHAIN_BUDGET.sample_size, f"sampling {family.value} at n={_excerpt(n)}"
        )
    table = _STEP_TABLES.setdefault(family, [])
    table.extend({} for _ in range(len(table), n))
    return table


def _row(family: Family, m: int, u: int) -> _StepRow:
    """The row of state ``u`` with ``m`` steps left, built on first visit.

    Each transition weighs its chain weight times its completion weight
    ``m! (m + 1)**target`` (times ``2**m`` for type B).  The state's
    transitions come from ``_TRANSITIONS`` and the completion weights from
    ``_COMPLETIONS``, each filled on first need: a row costs one product
    and one running sum per transition.
    """
    rows = _STEP_TABLES[family][m]
    hit = rows.get(u)
    if hit is None:
        by_state = _TRANSITIONS.setdefault(family, {})
        transitions = by_state.get(u)
        if transitions is None:
            steps, targets, weights = zip(*_transitions(family, u))
            transitions = by_state[u] = ("".join(steps), targets, weights)
        step_of, targets, weights = transitions
        by_m = _COMPLETIONS.setdefault(family, {})
        completions = by_m.get(m)
        if completions is None:
            completions = by_m[m] = [_suffix_weight(family, m, 0)]
        while len(completions) <= u + 1:  # every target is at most u + 1
            completions.append(completions[-1] * (m + 1))
        cumulative = list(accumulate(map(mul, weights, map(completions.__getitem__, targets))))
        hit = rows[u] = (cumulative, cumulative[-1], cumulative[-1].bit_length(), step_of, targets)
    return hit


def _draw(rng: random.Random, n: int, family: Family, table: _StepTable) -> Trajectory:
    """One size-``n`` trajectory, walking ``m`` from ``n - 1`` down to 0."""
    getrandbits = rng.getrandbits
    u = 0
    states = [0]
    steps: list[str] = []
    for m in range(n - 1, -1, -1):
        cumulative, bound, bits, step_of, target_of = table[m].get(u) or _row(family, m, u)
        x = getrandbits(bits)
        while x >= bound:
            x = getrandbits(bits)
        i = bisect_right(cumulative, x)
        steps.append(step_of[i])
        u = target_of[i]
        states.append(u)
    return Trajectory(family, tuple(states), "".join(steps))


def sample_trajectory(n: int, family: Family, seed: int, index: int = 0) -> Trajectory:
    """Draw trajectory ``index`` of the run seeded with ``seed``."""
    table = _step_table(n, family)
    return _draw(substream(seed, index), n, family, table)


def _require_count(count: int, family: Family) -> None:
    if count < 0:
        raise DomainError(f"count must be non-negative, got {_excerpt(count)}")
    if count > CHAIN_BUDGET.sample_count:
        raise BudgetExceededError(
            count, family, CHAIN_BUDGET.sample_count, f"a run of {_excerpt(count)} samples"
        )


def sample_trajectories(n: int, family: Family, seed: int, count: int) -> Iterator[Trajectory]:
    _require_count(count, family)
    table = _step_table(n, family)
    for index in range(count):
        yield _draw(substream(seed, index), n, family, table)


def _draw_column_subset(rng: random.Random, unrest: Sequence[int], j: int) -> set[int]:
    """Uniform non-empty subset of the unrestricted rows landing on state ``j``.

    The resulting state is |A| plus the number of unrestricted rows above
    the topmost chosen one, so the topmost choice ``i`` (1-based among
    ``unrest``) has multiplicity C(u-i, j-i); the remaining ``j - i``
    members are uniform among the rows below ``i``.

    By the hockey-stick identity the multiplicities sum to C(u, j-1), so
    one draw ``x`` below that picks ``i``: walk the terms from ``i = 1``,
    each the one before times ``(j - i) / (u - i)``, and stop at the term
    that ``x`` falls in.  The rows are then chosen one by one, each with
    probability (members still needed) / (rows left), until none is needed.
    """
    u = len(unrest)
    x = _int_below(rng, math.comb(u, j - 1))
    i = 1
    term = math.comb(u - 1, j - 1)
    while x >= term:
        x -= term
        term = term * (j - i) // (u - i)
        i += 1
    chosen = {unrest[i - 1]}
    needed = j - i
    remaining = u - i
    while needed:
        if _int_below(rng, remaining) < needed:
            chosen.add(unrest[u - remaining])
            needed -= 1
        remaining -= 1
    return chosen


def _grow_tableau(rng: random.Random, n: int, table: _StepTable) -> PermutationTableau:
    """Grow one size-``n`` tableau along a trajectory drawn from the
    permutation step table, walking ``m`` from ``n - 2`` down to 0.

    The first step is always South.  The unrestricted rows are tracked as
    the tableau grows: a South step adds an empty, unrestricted bottom
    row; a West step with 1s in rows ``A`` puts a restricted 0 in every
    row below ``min(A)`` outside ``A``.  Columns are kept as ``(height,
    A)``, leftmost last, and the tableau is built once at the end.
    """
    steps = [SOUTH]
    height = 1
    unrest = [1]
    columns: list[tuple[int, set[int]]] = []
    u = 1
    for m in range(n - 2, -1, -1):
        cumulative, bound, bits, step_of, target_of = table[m].get(u) or _row(Family.PERMUTATION, m, u)
        x = rng.getrandbits(bits)
        while x >= bound:
            x = rng.getrandbits(bits)
        i = bisect_right(cumulative, x)
        step, u = step_of[i], target_of[i]
        steps.append(step)
        if step == SOUTH:
            height += 1
            unrest.append(height)
        else:
            chosen = _draw_column_subset(rng, unrest, u)
            columns.append((height, chosen))
            top = min(chosen)
            unrest = [r for r in unrest if r < top or r in chosen]
    rows: list[list[int]] = [[] for _ in range(height)]
    for column_height, chosen in reversed(columns):
        for r in range(column_height):
            rows[r].append(1 if r + 1 in chosen else 0)
    return PermutationTableau(BorderPath("".join(steps)), rows)


def sample_permutation_tableau(n: int, seed: int, index: int = 0) -> PermutationTableau:
    """Exactly uniform element of the size-``n`` permutation family."""
    table = _step_table(n, Family.PERMUTATION)
    return _grow_tableau(substream(seed, index), n, table)


def sample_permutation_tableaux(n: int, seed: int, count: int) -> Iterator[PermutationTableau]:
    _require_count(count, Family.PERMUTATION)
    table = _step_table(n, Family.PERMUTATION)
    for index in range(count):
        yield _grow_tableau(substream(seed, index), n, table)


class McStatistic(NamedTuple):
    """One estimated quantity next to its exact reference."""

    name: str
    estimate: float
    standard_error: float
    reference: Fraction
    z_score: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "estimate": _sig12(self.estimate),
            "standardError": _sig12(self.standard_error),
            "reference": _fraction_text(self.reference),
            "zScore": _sig12(self.z_score),
        }


class McReport(NamedTuple):
    """Monte Carlo corner estimates with exact references and z-scores."""

    family: Family
    n: int
    sample_count: int
    seed: int
    generator: str
    mean_corners: McStatistic
    per_position: tuple[McStatistic, ...]

    def to_json_dict(self) -> dict:
        return {
            "schema": "mc-report/v1",
            "family": self.family.value,
            "n": self.n,
            "sampleCount": self.sample_count,
            "seed": self.seed,
            "generator": self.generator,
            "meanCorners": self.mean_corners.to_json_dict(),
            "perPosition": [s.to_json_dict() for s in self.per_position],
        }


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _statistic(name: str, total: int, total_sq: int, count: int, reference: Fraction) -> McStatistic:
    mean = total / count
    variance = max(total_sq / count - mean * mean, 0.0) * count / max(count - 1, 1)
    se = math.sqrt(variance / count)
    z = (mean - float(reference)) / se if se > 0 else 0.0
    return McStatistic(name, mean, se, reference, z)


def _tally(n: int, family: Family, table: _StepTable, seed: int, start: int, stop: int) -> tuple[int, int, list[int]]:
    """The corner sum, the sum of its squares and the hits per position
    (index ``k - 1`` counts corners at position ``k``) of draws
    ``start .. stop - 1``."""
    total = 0
    total_sq = 0
    position_hits = [0] * n
    for index in range(start, stop):
        steps = _draw(substream(seed, index), n, family, table).steps
        corners = 0
        k = steps.find(SOUTH + WEST)
        while k >= 0:  # "SW" matches cannot overlap
            corners += 1
            position_hits[k] += 1
            k = steps.find(SOUTH + WEST, k + 2)
        total += corners
        total_sq += corners * corners
    return total, total_sq, position_hits


#: Draw work ``n * count`` from which a report forks a second process.  On
#: a 2-CPU host with Python 3.11 a fork, pipe and join costs about 1.5 ms;
#: at 10 000 a cold report took 13-40 ms in one process and 10-36 ms split
#: (n = 20 to 100), and below about 4 000 the split was the slower.
_SPLIT_WORK = 10_000


def _cpu_count() -> int:
    """The CPUs a report may spread its draws over: 1 where this process
    cannot fork, or should not because other threads run in it (a forked
    child could wait forever on a lock one of them held)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threading = sys.modules.get("threading")  # not loaded: no Thread can be running
    if threading is not None and threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _tallies(n: int, family: Family, table: _StepTable, seed: int, count: int) -> tuple[int, int, list[int]]:
    """``_tally`` of draws ``0 .. count - 1``, split between this process
    and one forked child when the work is large enough and a second CPU
    is free.  The sums are exact integers, so the split cannot change
    them."""
    if n * count < _SPLIT_WORK or _cpu_count() < 2:
        return _tally(n, family, table, seed, 0, count)
    mid = count // 2
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: draw them all here
        os.close(read_fd)
        os.close(write_fd)
        return _tally(n, family, table, seed, 0, count)
    if pid == 0:  # the child: tally the upper half, send it, leave at once
        status = 1
        try:
            os.close(read_fd)
            payload = memoryview(marshal.dumps(_tally(n, family, table, seed, mid, count)))
            while payload:
                payload = payload[os.write(write_fd, payload):]
            status = 0
        finally:
            # skips atexit handlers and the flush of inherited stdio buffers
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            total, total_sq, position_hits = _tally(n, family, table, seed, 0, mid)
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise ChildProcessError(f"the sampling child process exited with status {status}")
    upper_total, upper_sq, upper_hits = marshal.loads(payload)
    return (
        total + upper_total,
        total_sq + upper_sq,
        [a + b for a, b in zip(position_hits, upper_hits)],
    )


def monte_carlo_corner_report(
    n: int, family: Family, sample_count: int, seed: int
) -> McReport:
    """Estimate corner statistics from seeded trajectories and compare
    them with the exact closed forms."""
    _require_chain(family, n)
    if n < 2:
        raise DomainError(f"Monte Carlo reports need n >= 2, got {n}")
    if sample_count < 100:
        raise DomainError(f"sample count must be at least 100, got {_excerpt(sample_count)}")
    _require_count(sample_count, family)
    table = _step_table(n, family)
    total, total_sq, position_hits = _tallies(n, family, table, seed, sample_count)
    mean = _statistic("meanCorners", total, total_sq, sample_count, expected_corners(n, family))
    per_position = tuple(
        _statistic(
            f"corner@{k}",
            position_hits[k - 1],
            position_hits[k - 1],  # indicator: squares equal values
            sample_count,
            reference,
        )
        for k, reference in corner_distribution(n, family, method="formula").items()
    )
    return McReport(family, n, sample_count, seed, GENERATOR_ID, mean, per_position)
