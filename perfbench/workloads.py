"""The benchmark's workloads: which ops one pass runs and how each op's
output is checked.

An op is one fresh interpreter.  CLI ops run ``corners.cli.main`` with
``PYTHONPATH=src``, so nothing needs installing.  Every check raises on a
wrong output; the runner counts that op as failed.  Deterministic payloads
are held to the sha256 recorded in ``golden.json`` (the byte-stability
contract), and counts and corner totals to ``closed_forms``.  Sampling ops
have no golden digest, so any seed works: they are checked on the
generator id, the exact reference strings, a |z| bound and, since every
pass of a run repeats its seed, on giving the same bytes each time.

Sizes were chosen so that one pass takes a few seconds on a 2-core VM:
large enough that interpreter start-up is not most of it, small enough
that a run holds several passes.  ``small`` gives the smoke-test sizes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from closed_forms import corner_probability, count, expected_corners, total_corners

CLI = ("-c", "from corners.cli import main; main()")
SWEEP = "perfbench/sweep.py"
GENERATOR_ID = "sha256-stream/mt19937/v1"
Z_BOUND = 6.0

GOLDEN: dict[str, str] = json.loads((Path(__file__).parent / "golden.json").read_text())["sha256"]

Facts = dict  # per-layer counts an op's output reveals, e.g. verify rows
Outputs = dict  # label -> stdout of the ops run earlier in the same pass
Check = Callable[[bytes, Facts, Outputs], None]


class Mismatch(Exception):
    """An op's output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]  # interpreter arguments of the untraced op
    items: int  # work units, the numerator of items_per_s
    check: Check
    stdin: Callable[[Outputs], bytes] | None = None


def _golden(key: str) -> Check:
    def check(out: bytes, facts: Facts, outputs: Outputs) -> None:
        expect(key in GOLDEN, f"no golden digest for {key!r}")
        expect(hashlib.sha256(out).hexdigest() == GOLDEN[key], f"payload digest differs from golden for {key!r}")
    return check


def _all(*checks: Check) -> Check:
    def check(out: bytes, facts: Facts, outputs: Outputs) -> None:
        for c in checks:
            c(out, facts, outputs)
    return check


def _cli(label: str, args: list, items: int, check: Check, stdin=None, golden: bool = True) -> Op:
    argv = CLI + tuple(str(a) for a in args)
    if golden:
        check = _all(_golden(" ".join(argv[2:])), check)
    return Op(label, argv, items, check, stdin)


def _frac(q) -> str:
    return f"{q.numerator}/{q.denominator}"


def _index(family: str, size: int) -> int:
    """Chain index of a CLI size: symmetric size 2m + 1 has index m."""
    return (size - 1) // 2 if family == "symmetric" else size


# chain-sample: chain ops ---------------------------------------------------

def _sweep_positions(top: int) -> int:
    # per n: n-1 positions each for permutation and type-B, n for tree-like, 2n+1 for symmetric
    return sum(5 * n - 1 for n in range(2, top + 1))


def _sweep_check(top: int) -> Check:
    def check(out: bytes, facts: Facts, outputs: Outputs) -> None:
        summary = json.loads(out.decode().splitlines()[-1])
        expect(summary["positions"] == _sweep_positions(top), "sweep checked the wrong number of positions")
        expect(summary["sha256"] == GOLDEN.get(f"sweep {top}"), "sweep laws differ from golden")
    return check


def _formula_check(n: int) -> Check:
    def check(out: bytes, facts: Facts, outputs: Outputs) -> None:
        values = json.loads(out)["values"]
        expect(list(values) == [str(k) for k in range(1, n)], "formula positions")
        for k in range(1, n):
            expect(values[str(k)] == _frac(corner_probability("type-b", n, k)), f"corner law at k={k}")
    return check


def _chain_ops(small: bool) -> list[Op]:
    top, n = (20, 20) if small else (128, 200)
    return [
        Op(f"sweep 2..{top}", (SWEEP, str(top)), _sweep_positions(top), _sweep_check(top)),
        _cli(f"formula dp type-b {n}",
             ["formula", "corners", "--method", "dp", "--family", "type-b", "--n", n, "--format", "json"],
             n - 1, _formula_check(n)),
    ]


# census-budget -------------------------------------------------------------

def _census_check(family: str, size: int) -> Check:
    def check(out: bytes, facts: Facts, outputs: Outputs) -> None:
        data = json.loads(out)
        m = _index(family, size)
        expect(data["family"] == family and data["n"] == size, "census family/size")
        expect(data["cardinality"] == str(count(family, m)), "census cardinality")
        expect(data["totalCorners"] == str(total_corners(family, m)), "census corner total")
    return check


def _verify_check(out: bytes, facts: Facts, outputs: Outputs) -> None:
    report = json.loads(out)
    rows = report["rows"]
    facts["verify.rows"] = len(rows)
    facts["verify.failed_rows"] = sum(r["status"] != "pass" for r in rows)
    expect(report["passed"] is True and facts["verify.failed_rows"] == 0, "verify has failing rows")


def census_budget(seed: int, small: bool) -> list[Op]:
    if small:
        runs = [("permutation", 5, "extension"), ("permutation", 4, "brute"),
                ("tree-like", 4, None), ("type-b", 3, None), ("symmetric", 7, None)]
        verify = ["verify", "--max-size", 3, "--format", "json"]
    else:
        runs = [("permutation", 7, "extension"), ("permutation", 7, "brute"),
                ("tree-like", 7, None), ("type-b", 6, None), ("symmetric", 11, None)]
        verify = ["verify", "--suite", "all", "--format", "json"]
    ops = []
    for family, size, method in runs:
        args = ["census", "--family", family, "--size", size, "--format", "json"]
        if method:
            args[5:5] = ["--method", method]
        ops.append(_cli(f"census {family} {size}" + (f" {method}" if method else ""), args,
                        count(family, _index(family, size)), _census_check(family, size)))
    ops.append(_cli("verify all", verify, 0, _verify_check))
    return ops


# materialise ---------------------------------------------------------------

def _roundtrip_check(family: str, size: int) -> Check:
    def check(out: bytes, facts: Facts, outputs: Outputs) -> None:
        data = json.loads(out)
        expect(data["checked"] == str(count(family, _index(family, size))), "roundtrip checked count")
        expect(data["failures"] == "0", "roundtrip failures")
    return check


def _enumerate_check(n: int) -> Check:
    def check(out: bytes, facts: Facts, outputs: Outputs) -> None:
        data = json.loads(out)
        expect(data["count"] == str(count("type-b", n)) and len(data["tableaux"]) == count("type-b", n),
               "enumerate count")
    return check


@functools.lru_cache(maxsize=1)
def _enumerated(payload: bytes) -> list:
    return json.loads(payload)["tableaux"]


def _picked_record(enumerate_label: str, index: int) -> Callable[[Outputs], bytes]:
    def stdin(outputs: Outputs) -> bytes:
        return json.dumps(_enumerated(outputs[enumerate_label])[index]).encode()
    return stdin


def _unfold_check(n: int) -> Check:
    def check(out: bytes, facts: Facts, outputs: Outputs) -> None:
        record = json.loads(out)
        expect(record["family"] == "symmetric" and len(record["path"]) == 2 * n + 2, "unfold image shape")
    return check


def _fold_check(enumerate_label: str, index: int) -> Check:
    def check(out: bytes, facts: Facts, outputs: Outputs) -> None:
        # the fold's input is the unfold's output; it must give back the picked record
        expect(json.loads(out) == json.loads(_picked_record(enumerate_label, index)(outputs)),
               "fold of unfold differs from the picked record")
    return check


def materialise(seed: int, small: bool) -> list[Op]:
    b, s, n, picks = (3, 7, 3, 2) if small else (5, 9, 6, 2)
    enum_label = f"enumerate type-b {n}"
    ops = [
        _cli(f"roundtrip type-b {b}", ["bijection", "roundtrip", "--family", "type-b", "--size", b, "--format", "json"],
             count("type-b", b), _roundtrip_check("type-b", b)),
        _cli(f"roundtrip symmetric {s}",
             ["bijection", "roundtrip", "--family", "symmetric", "--size", s, "--format", "json"],
             count("symmetric", _index("symmetric", s)), _roundtrip_check("symmetric", s)),
        _cli(enum_label, ["enumerate", "--family", "type-b", "--size", n, "--format", "json"],
             count("type-b", n), _enumerate_check(n)),
    ]
    for index in random.Random(seed).sample(range(count("type-b", n)), picks):
        unfold = f"unfold #{index}"
        ops.append(_cli(unfold, ["bijection", "unfold"], 1, _unfold_check(n),
                        stdin=_picked_record(enum_label, index), golden=False))
        ops.append(_cli(f"fold #{index}", ["bijection", "fold"], 1, _fold_check(enum_label, index),
                        stdin=lambda outputs, unfold=unfold: outputs[unfold], golden=False))
    return ops


# chain-sample: sampling ops ------------------------------------------------

def _report_check(family: str, n: int, draws: int, seed: int) -> Check:
    def check(out: bytes, facts: Facts, outputs: Outputs) -> None:
        r = json.loads(out)
        expect(r["generator"] == GENERATOR_ID, f"generator id {r['generator']!r}")
        expect((r["family"], r["n"], r["sampleCount"], r["seed"]) == (family, n, draws, seed), "report header")
        stats = [r["meanCorners"], *r["perPosition"]]
        references = [_frac(expected_corners(family, n))]
        references += [_frac(corner_probability(family, n, k)) for k in range(1, n)]
        expect([s["reference"] for s in stats] == references, "reference strings differ from the closed forms")
        expect(all(abs(s["zScore"]) <= Z_BOUND for s in stats), f"a |z| exceeds {Z_BOUND}")
    return check


def _is_permutation_tableau(record: dict, n: int) -> bool:
    """Independent rule check: every column holds a 1, and no 0 has both a
    1 above it and a 1 to its left."""
    path, rows = record["path"], record["rows"]
    if record["family"] != "permutation" or len(path) != n or not path.startswith("S"):
        return False
    lengths = [path[i + 1:].count("W") for i, step in enumerate(path) if step == "S"]
    if [len(r) for r in rows] != lengths or any(ch not in "01" for r in rows for ch in r):
        return False
    one_above = [False] * (lengths[0] if lengths else 0)
    for row in rows:
        for c, ch in enumerate(row):
            if ch == "0" and one_above[c] and "1" in row[:c]:
                return False
            one_above[c] = one_above[c] or ch == "1"
    return all(one_above)


def _tableaux_check(n: int, draws: int, seed: int) -> Check:
    def check(out: bytes, facts: Facts, outputs: Outputs) -> None:
        data = json.loads(out)
        expect((data["n"], data["seed"], data["count"]) == (n, seed, str(draws)), "tableau list header")
        expect(len(data["tableaux"]) == draws, "tableau list length")
        expect(all(_is_permutation_tableau(r, n) for r in data["tableaux"]), "a sampled tableau breaks the rules")
    return check


def _sampling_ops(seed: int, small: bool) -> list[Op]:
    n, draws, tn, tcount = (20, 200, 10, 20) if small else (100, 5000, 60, 300)
    ops = [
        _cli(f"report {family} {n}",
             ["sample", "--kind", "report", "--family", family, "--n", n, "--count", draws,
              "--seed", seed, "--format", "json"],
             draws, _report_check(family, n, draws, seed), golden=False)
        for family in ("permutation", "type-b")
    ]
    ops.append(_cli(f"tableaux permutation {tn}",
                    ["sample", "--kind", "tableaux", "--family", "permutation", "--n", tn, "--count", tcount,
                     "--seed", seed, "--format", "json"],
                    tcount, _tableaux_check(tn, tcount, seed), golden=False))
    return ops


def chain_sample(seed: int, small: bool) -> list[Op]:
    """The chain tables built (sweep, cold DP), then read by the sampler at a fixed n."""
    return _chain_ops(small) + _sampling_ops(seed, small)


WORKLOADS: dict[str, Callable[[int, bool], list[Op]]] = {
    "chain-sample": chain_sample,
    "census-budget": census_budget,
    "materialise": materialise,
}
