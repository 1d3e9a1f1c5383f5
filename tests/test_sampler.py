"""Seeded sampling: exactness of the law, determinism, MC reports."""

import hashlib
import json
import math
import os
import random
import threading
import time
from bisect import bisect_right
from itertools import accumulate

import pytest

from conftest import cached_tableaux, chi_square_survival
from corners import chain, sampler
from corners.chain import count_tableaux
from corners.errors import BudgetExceededError, DomainError
from corners.families import CHAIN_BUDGET, Family
from corners.sampler import (
    GENERATOR_ID,
    Trajectory,
    monte_carlo_corner_report,
    sample_permutation_tableau,
    sample_permutation_tableaux,
    sample_trajectories,
    sample_trajectory,
    substream,
    _row,
    _step_table,
)
from corners.enumerator import parent_permutation
from corners.shapes import BorderPath
from corners.tableaux import (
    PermutationTableau,
    canonical_key,
    markers,
    to_record,
    validate,
)

P, B = Family.PERMUTATION, Family.TYPE_B
ALPHA = 1e-3


def all_trajectory_weights(n, family):
    out = {}

    def rec(k, u, steps, states, weight):
        if k == n:
            out[("".join(steps), tuple(states))] = weight
            return
        for step, target, w in chain._transitions(family, u):
            steps.append(step)
            states.append(target)
            rec(k + 1, target, steps, states, weight * w)
            steps.pop()
            states.pop()

    rec(0, 0, [], [0], 1)
    return out


def test_substreams_are_index_pure():
    assert substream(5, 2).getrandbits(64) == substream(5, 2).getrandbits(64)
    assert substream(5, 2).getrandbits(64) != substream(5, 3).getrandbits(64)
    assert substream(6, 2).getrandbits(64) != substream(5, 2).getrandbits(64)


def test_sample_is_a_pure_function_of_seed_and_index():
    batch = list(sample_trajectories(9, P, seed=42, count=6))
    assert batch[4] == sample_trajectory(9, P, seed=42, index=4)
    again = list(sample_trajectories(9, P, seed=42, count=6))
    assert batch == again


@pytest.mark.parametrize("family", (P, B))
def test_trajectories_are_chain_consistent(family):
    for tr in sample_trajectories(8, family, seed=3, count=300):
        assert tr.u_sequence[0] == 0
        assert len(tr.u_sequence) == 9 and len(tr.steps) == 8
        for k, step in enumerate(tr.steps):
            u, v = tr.u_sequence[k], tr.u_sequence[k + 1]
            if step == "S":
                assert v == u + 1
            else:
                assert 1 <= v <= (u if family is P else u + 1)
        if family is P:
            assert tr.steps[0] == "S"
        assert BorderPath(tr.steps).half_perimeter == 8


@pytest.mark.parametrize("family,n", [(P, 5), (B, 4)])
def test_trajectory_law_is_exact(family, n):
    draws = 100_000
    law = all_trajectory_weights(n, family)
    total = count_tableaux(n, family)
    assert sum(law.values()) == total
    counts = {}
    for tr in sample_trajectories(n, family, seed=11, count=draws):
        key = (tr.steps, tr.u_sequence)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(law)
    stat = sum(
        (counts.get(key, 0) - draws * w / total) ** 2 / (draws * w / total)
        for key, w in law.items()
    )
    assert chi_square_survival(stat, len(law) - 1) > ALPHA


def test_sampled_tableaux_are_uniform_at_3():
    draws = 60_000
    hits = {canonical_key(t): 0 for t in cached_tableaux(3, P)}
    assert len(hits) == 6
    for t in sample_permutation_tableaux(3, seed=5, count=draws):
        assert validate(t).ok
        hits[canonical_key(t)] += 1
    expected = draws / 6
    stat = sum((c - expected) ** 2 / expected for c in hits.values())
    assert chi_square_survival(stat, 5) > ALPHA


def test_sampled_tableau_growth_matches_its_path():
    t = sample_permutation_tableau(9, seed=17)
    assert validate(t).ok
    # peeling extensions off reproduces every prefix of the border path
    current = t
    while current.path.half_perimeter > 1:
        previous = parent_permutation(current)
        assert validate(previous).ok
        assert current.path.steps[:-1] == previous.path.steps
        current = previous


def test_report_is_byte_identical_and_annotated():
    a = monte_carlo_corner_report(10, P, 400, seed=9)
    b = monte_carlo_corner_report(10, P, 400, seed=9)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
    assert a.generator == GENERATOR_ID
    assert a.sample_count == 400
    assert len(a.per_position) == 9
    data = a.to_json_dict()
    assert data["schema"] == "mc-report/v1"
    assert all("/" in s["reference"] for s in data["perPosition"])


def test_report_z_scores_are_sane():
    report = monte_carlo_corner_report(15, B, 3000, seed=1)
    assert abs(report.mean_corners.z_score) < 5
    for stat in report.per_position:
        assert stat.standard_error > 0
        assert abs(stat.z_score) < 6


def test_report_preconditions():
    with pytest.raises(DomainError):
        monte_carlo_corner_report(1, P, 500, seed=0)
    with pytest.raises(DomainError):
        monte_carlo_corner_report(5, P, 99, seed=0)
    with pytest.raises(DomainError):
        monte_carlo_corner_report(5, Family.TREE_LIKE, 500, seed=0)
    with pytest.raises(DomainError):
        sample_trajectory(0, P, seed=1)
    with pytest.raises(DomainError):
        sample_permutation_tableau(0, seed=1)
    with pytest.raises(DomainError):
        list(sample_trajectories(5, P, seed=1, count=-1))
    with pytest.raises(DomainError):
        list(sample_permutation_tableaux(5, seed=1, count=-1))
    # the family is checked first, then the size
    with pytest.raises(DomainError, match="the growth chain is defined for"):
        sample_trajectory(0, Family.SYMMETRIC, 0)
    with pytest.raises(DomainError, match="the growth chain is defined for"):
        monte_carlo_corner_report(0, Family.TREE_LIKE, 500, seed=0)
    with pytest.raises(DomainError, match="size must be at least 1, got 0"):
        sample_trajectory(0, B, 0)
    with pytest.raises(DomainError, match="size must be at least 1, got 0"):
        monte_carlo_corner_report(0, P, 500, seed=0)
    with pytest.raises(DomainError, match="Monte Carlo reports need n >= 2, got 1"):
        monte_carlo_corner_report(1, P, 500, seed=0)


# sha256 of fixed-seed streams of ``sha256-stream/mt19937/v1``, recorded
# when the sampler still read tabulated completion weights.  Different
# digests mean a different sample stream, which needs a new GENERATOR_ID.
PINNED_STREAMS = {
    "trajectories/permutation": "38cbf0ac0286ff957d0f4b8dd5bd204ec2f928ed26d0aed9abe53068d59aff05",
    "trajectories/type-b": "ee70f6fffd3acf2a5bb20430885d3780d9425d0fd6267aee078dbd4731698bee",
    "tableaux/permutation": "70ecfeb428fe9926242a2e7e7b448c72e6c2b81b5a999151bdaaf03312e4eace",
}


def test_sample_stream_is_pinned():
    assert GENERATOR_ID == "sha256-stream/mt19937/v1"
    for family in (P, B):
        digest = hashlib.sha256()
        for tr in sample_trajectories(40, family, seed=20150, count=64):
            digest.update(f"{tr.steps} {' '.join(map(str, tr.u_sequence))}\n".encode())
        assert digest.hexdigest() == PINNED_STREAMS[f"trajectories/{family.value}"]
    digest = hashlib.sha256()
    for t in sample_permutation_tableaux(30, seed=20150, count=32):
        digest.update((json.dumps(to_record(t), sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == PINNED_STREAMS["tableaux/permutation"]


@pytest.mark.parametrize("family", (P, B))
def test_step_rows_match_rows_from_the_transitions(family):
    _step_table(30, family)
    for n in range(1, 31):
        for k in range(n):
            for u in range(k + 1):
                transitions, cumulative = _ref_options(n, family, k, u, {})
                assert _row(family, n - k - 1, u) == (
                    cumulative,
                    cumulative[-1],
                    cumulative[-1].bit_length(),
                    "".join(step for step, _, _ in transitions),
                    tuple(target for _, target, _ in transitions),
                ), (n, k, u)


def test_every_size_shares_one_step_table(monkeypatch):
    monkeypatch.setattr(sampler, "_STEP_TABLES", {})
    for n in range(1, 41):
        sample_trajectory(n, B, seed=7)
    assert list(sampler._STEP_TABLES) == [B]
    assert len(sampler._STEP_TABLES[B]) == 40
    test_sample_stream_is_pinned()


def test_chi_square_survival_reference_values():
    assert chi_square_survival(0.0, 4) == 1.0
    assert math.isclose(chi_square_survival(3.841458820694124, 1), 0.05, rel_tol=1e-9)
    assert math.isclose(chi_square_survival(18.307038053275146, 10), 0.05, rel_tol=1e-9)
    assert math.isclose(chi_square_survival(2.0, 2), math.exp(-1.0), rel_tol=1e-12)
    assert math.isclose(chi_square_survival(11.070497693516351, 5), 0.05, rel_tol=1e-9)
    with pytest.raises(ValueError):
        chi_square_survival(1.0, 0)


# Reference sampler: the straightforward per-step version the step table
# replaced.  Each step builds (or looks up) the transitions and their
# cumulative weights, draws an index with one call, and tableau growth
# rebuilds the tableau to find its unrestricted rows.


def _ref_int_below(rng, bound):
    bits = bound.bit_length()
    while True:
        x = rng.getrandbits(bits)
        if x < bound:
            return x


def _ref_choose_index(rng, cumulative):
    return bisect_right(cumulative, _ref_int_below(rng, cumulative[-1]))


def _ref_options(n, family, k, u, cache):
    if (k, u) not in cache:
        transitions = chain._transitions(family, u)
        m = n - k - 1
        cache[k, u] = (
            transitions,
            list(accumulate(w * chain._suffix_weight(family, m, v) for _, v, w in transitions)),
        )
    return cache[k, u]


def _ref_draw(n, family, rng, cache):
    u = 0
    states = [0]
    steps = []
    for k in range(n):
        transitions, cumulative = _ref_options(n, family, k, u, cache)
        step, u, _ = transitions[_ref_choose_index(rng, cumulative)]
        steps.append(step)
        states.append(u)
    return Trajectory(family, tuple(states), "".join(steps))


def _ref_draw_column_subset(rng, unrest, j):
    u = len(unrest)
    cumulative = []
    acc = 0
    for i in range(1, j + 1):
        acc += math.comb(u - i, j - i)
        cumulative.append(acc)
    i = 1 + _ref_choose_index(rng, cumulative)
    chosen = {unrest[i - 1]}
    needed = j - i
    for offset, row in enumerate(unrest[i:]):
        remaining = u - i - offset
        if needed and _ref_int_below(rng, remaining) < needed:
            chosen.add(row)
            needed -= 1
    return chosen


def _ref_grow_tableau(rng, n, cache):
    path = "S"
    rows = ((),)
    u = 1
    for k in range(1, n):
        transitions, cumulative = _ref_options(n, P, k, u, cache)
        step, target, _ = transitions[_ref_choose_index(rng, cumulative)]
        if step == "S":
            path += "S"
            rows = rows + ((),)
        else:
            unrest = markers(PermutationTableau(BorderPath(path), rows)).unrestricted_rows
            chosen = _ref_draw_column_subset(rng, unrest, target)
            path += "W"
            rows = tuple((1 if r in chosen else 0,) + row for r, row in enumerate(rows, start=1))
        u = target
    return PermutationTableau(BorderPath(path), rows)


@pytest.mark.parametrize("family", (P, B))
def test_step_table_draws_match_the_reference(family):
    for n in range(1, 31):
        cache = {}
        drawn = list(sample_trajectories(n, family, seed=n, count=20))
        assert drawn == [_ref_draw(n, family, substream(n, i), cache) for i in range(20)], n


def test_incremental_growth_matches_the_reference():
    for n in range(1, 31):
        cache = {}
        grown = list(sample_permutation_tableaux(n, seed=n, count=20))
        assert grown == [_ref_grow_tableau(substream(n, i), n, cache) for i in range(20)], n


@pytest.mark.parametrize("n", (5, CHAIN_BUDGET.sample_size + 1))
def test_sampling_checks_the_count_first_and_grows_no_table(monkeypatch, n):
    monkeypatch.setattr(sampler, "_STEP_TABLES", {})
    too_many = CHAIN_BUDGET.sample_count + 1
    for call in (
        lambda: list(sample_trajectories(n, P, seed=1, count=too_many)),
        lambda: list(sample_permutation_tableaux(n, seed=1, count=too_many)),
        lambda: monte_carlo_corner_report(n, B, too_many, seed=1),
    ):
        with pytest.raises(BudgetExceededError, match=f"a run of {too_many} samples"):
            call()
    assert sampler._STEP_TABLES == {}


_ROW_STORES = ("_STEP_TABLES", "_TRANSITIONS", "_COMPLETIONS")


def test_column_subset_draws_match_the_reference():
    # every state tableau growth can reach up to n = 60: the same set as
    # the listed, bisected weights, and the same use of the generator
    for u in range(1, 61):
        unrest = list(range(2, 2 * u + 2, 2))
        for j in range(1, u + 1):
            for seed in range(3):
                rng, ref_rng = substream(seed, 100 * u + j), substream(seed, 100 * u + j)
                drawn = sampler._draw_column_subset(rng, unrest, j)
                assert drawn == _ref_draw_column_subset(ref_rng, unrest, j), (u, j, seed)
                assert rng.getstate() == ref_rng.getstate(), (u, j, seed)


def test_step_rows_built_in_any_order_match_the_reference(monkeypatch):
    for store in _ROW_STORES:
        monkeypatch.setattr(sampler, store, {})
    n = 30
    requests = [(family, k, u) for family in (P, B) for k in range(n) for u in range(k + 1)]
    random.Random(3).shuffle(requests)  # families interleaved, m and u out of order
    for family in (P, B):
        _step_table(n, family)
    for family, k, u in requests + requests:  # built, then read back
        transitions, cumulative = _ref_options(n, family, k, u, {})
        assert _row(family, n - k - 1, u) == (
            cumulative,
            cumulative[-1],
            cumulative[-1].bit_length(),
            "".join(step for step, _, _ in transitions),
            tuple(target for _, target, _ in transitions),
        ), (family, k, u)
    for family in (P, B):
        assert sorted(sampler._TRANSITIONS[family]) == list(range(n))
        for m, completions in sampler._COMPLETIONS[family].items():
            # extended only as far as the largest target of that m
            assert len(completions) == n - m + 1, (family, m)
            assert completions == [chain._suffix_weight(family, m, t) for t in range(n - m + 1)]


def test_a_refused_request_fills_no_row_store(monkeypatch):
    for store in _ROW_STORES:
        monkeypatch.setattr(sampler, store, {})
    too_big, too_many = CHAIN_BUDGET.sample_size + 1, CHAIN_BUDGET.sample_count + 1
    for call in (
        lambda: list(sample_trajectories(5, P, seed=1, count=too_many)),
        lambda: list(sample_permutation_tableaux(5, seed=1, count=too_many)),
        lambda: monte_carlo_corner_report(5, B, too_many, seed=1),
        lambda: sample_trajectory(too_big, B, seed=1),
        lambda: sample_permutation_tableau(too_big, seed=1),
        lambda: list(sample_permutation_tableaux(too_big, seed=1, count=0)),
        lambda: monte_carlo_corner_report(too_big, P, 100, seed=1),
    ):
        with pytest.raises(BudgetExceededError):
            call()
    assert [getattr(sampler, store) for store in _ROW_STORES] == [{}, {}, {}]


def test_sampling_beyond_the_chain_budget_is_refused():
    too_big = CHAIN_BUDGET.sample_size + 1
    for call in (
        lambda: sample_trajectory(too_big, B, seed=1),
        lambda: sample_permutation_tableau(too_big, seed=1),
        lambda: list(sample_permutation_tableaux(too_big, seed=1, count=0)),
        lambda: monte_carlo_corner_report(too_big, P, 100, seed=1),
        lambda: list(sample_trajectories(5, P, seed=1, count=CHAIN_BUDGET.sample_count + 1)),
        lambda: list(sample_permutation_tableaux(5, seed=1, count=CHAIN_BUDGET.sample_count + 1)),
        lambda: monte_carlo_corner_report(5, B, CHAIN_BUDGET.sample_count + 1, seed=1),
    ):
        with pytest.raises(BudgetExceededError):
            call()
    assert len(sample_trajectory(CHAIN_BUDGET.sample_size, B, seed=1).steps) == CHAIN_BUDGET.sample_size


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="a report splits only where it can fork")


def _count_forks(monkeypatch):
    """Patch ``os.fork`` to count its calls in this process."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@needs_fork
@pytest.mark.parametrize("family", (P, B))
@pytest.mark.parametrize("seed", (4, 20150))
def test_split_and_serial_reports_are_identical(monkeypatch, family, seed):
    forks = _count_forks(monkeypatch)
    at = sampler._SPLIT_WORK
    # n = 10 meets the threshold at an even count, n = 7 first passes it
    # at an odd one; the counts sit just below, at and above it
    for n in (10, 7):
        first = -(-at // n)
        for count in (first - 1, first, first + 1):
            reports = {}
            for cpus in (1, 2):
                monkeypatch.setattr(sampler, "_cpu_count", lambda: cpus)
                before = len(forks)
                reports[cpus] = monte_carlo_corner_report(n, family, count, seed).to_json_dict()
                assert len(forks) - before == (cpus == 2 and n * count >= at), (n, count, cpus)
            assert reports[1] == reports[2], (n, count)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_failing_child_half_fails_the_report_and_is_reaped(monkeypatch):
    parent = os.getpid()
    tally = sampler._tally

    def child_raises(*args):
        if os.getpid() != parent:
            raise RuntimeError("half failed")
        return tally(*args)

    monkeypatch.setattr(sampler, "_cpu_count", lambda: 2)
    monkeypatch.setattr(sampler, "_tally", child_raises)
    with pytest.raises(ChildProcessError, match="status 1"):
        monte_carlo_corner_report(10, P, 2000, seed=3)
    _assert_no_child()


@needs_fork
def test_a_failing_parent_half_kills_and_reaps_the_child(monkeypatch):
    parent = os.getpid()
    tally = sampler._tally

    def parent_raises_child_hangs(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)  # the parent must kill this child, not wait for it
        return tally(*args)

    monkeypatch.setattr(sampler, "_cpu_count", lambda: 2)
    monkeypatch.setattr(sampler, "_tally", parent_raises_child_hangs)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        monte_carlo_corner_report(10, B, 2000, seed=3)
    assert time.monotonic() - start < 10
    _assert_no_child()


@needs_fork
def test_a_report_that_cannot_fork_draws_everything_itself(monkeypatch):
    monkeypatch.setattr(sampler, "_cpu_count", lambda: 1)
    serial = monte_carlo_corner_report(10, P, 2001, seed=8).to_json_dict()

    def no_fork():
        raise BlockingIOError("no process to spare")

    open_fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(sampler, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert monte_carlo_corner_report(10, P, 2001, seed=8).to_json_dict() == serial
    if open_fds is not None:  # both ends of the pipe were closed
        assert len(os.listdir("/proc/self/fd")) == open_fds


def test_the_cpu_count_helper_refuses_a_threaded_process():
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        assert sampler._cpu_count() == 1
    finally:
        release.set()
        worker.join()
