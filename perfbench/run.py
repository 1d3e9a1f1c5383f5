"""Benchmark of the corner-tableaux package, driven from outside.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run times set-up (interpreter start, ``import corners.cli`` and
``build_parser()``, no work) twice, then runs passes of the
workload's ops (see ``workloads.py``) while another pass still fits in
``--seconds``, timing set-up once more before each pass.  Each
op is a fresh interpreter, run one at a time: a closed loop with one
client, which leaves the second core of a 2-core host free.  Each op's
output is checked; a failed check or a nonzero exit counts as a failed op.

Per-op wall time and CPU time (user + sys from ``wait4``) are taken as
medians over the run's passes, and a pass's figures are the sums of those
medians.  Peak RSS is the median over passes of a pass's largest child
max-RSS.  An op's output must be the same bytes in every pass of a run,
traced or not.

The shared host runs the same op up to 1.6 times slower for tens of
seconds at a time, so raw seconds from two runs of the same code differ by
30% or more.  The reference op (``reference.py``, which does not use the
package) is therefore timed before each untraced op and set-up sample and
after a pass's last op, and the end-to-end times are reported at reference
speed: an op's raw seconds divided by the mean seconds of the reference
ops just before and after it (a set-up sample's by the one before it; CPU
time by the reference's CPU time), times ``REFERENCE_S``.
The medians above are taken over these ratios.  A change to the package
moves them as it moves raw seconds; the host's speed cancels.  Raw seconds
and the reference time go to stderr.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose ops run under ``tracer.py`` and reports
per-layer metrics rolled up from the spans, plus the tracing overhead.
The last line of stdout is one JSON object; a readable table, the host,
the load average and a calibration loop time go to stderr.

``--smoke`` runs every workload at tiny sizes and asserts the metric
names and units, that a corrupted payload or a wrong golden digest counts
as a failed op, that traced runs write well-formed, parented spans, and
that every per-layer metric is nonzero on some workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import CLI, Op

SETUP_ARGV = ("-c", "import corners.cli as cli; cli.build_parser()")
SETUP_REPEATS = 2  # at the start of a run; one more is taken before each pass
SCRATCH = ".perfbench_run"
REFERENCE_ARGV = ("perfbench/reference.py",)
REFERENCE_OUT = b"40320 29 (4, 1)\n"
# A round figure near the reference op's wall time on the 2-core Xeon VM
# the benchmark was written on, so the normalised times read as seconds.
REFERENCE_S = 0.25
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@dataclass
class OpResult:
    wall: float
    cpu: float
    rss_mb: float
    out: bytes
    failure: str | None
    facts: dict = field(default_factory=dict)
    spans: list | None = None
    reference: tuple[float, float] | None = None  # mean (wall, cpu) of the reference ops around it


class Runner:
    """Runs ops as child processes of the checkout at ``root``."""

    def __init__(self, root: Path):
        self.root = root
        self.scratch = root / SCRATCH
        self.scratch.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def spawn(self, argv: tuple[str, ...], stdin: bytes = b"") -> tuple[float, float, float, int, bytes, bytes]:
        """Run one child; return wall s, CPU s, max RSS MB, exit code, stdout, stderr."""
        paths = [self.scratch / name for name in ("stdin", "stdout", "stderr")]
        paths[0].write_bytes(stdin)
        with open(paths[0], "rb") as i, open(paths[1], "wb") as o, open(paths[2], "wb") as e:
            started = time.perf_counter()
            child = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                     stdin=i, stdout=o, stderr=e)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, child.returncode,
                paths[1].read_bytes(), paths[2].read_bytes())

    def run_op(self, op: Op, outputs: dict[str, bytes], traced: bool) -> OpResult:
        try:
            stdin = op.stdin(outputs) if op.stdin else b""
        except Exception as exc:  # an upstream op failed, so this one cannot run
            return OpResult(0.0, 0.0, 0.0, b"", f"no input: {exc!r}")
        argv = op.argv
        spans_path = self.scratch / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            argv = ("perfbench/tracer.py", str(spans_path), *argv)
        wall, cpu, rss, code, out, err = self.spawn(argv, stdin)
        result = OpResult(wall, cpu, rss, out, None)
        if code != 0:
            result.failure = f"exit {code}: {err.decode(errors='replace').strip()[-300:]}"
        else:
            result.failure = judge(op, out, result.facts, outputs)
        if traced and spans_path.exists():
            result.spans = json.loads(spans_path.read_text())
        return result

    def setup_time(self) -> float:
        wall, _, _, code, _, err = self.spawn(SETUP_ARGV)
        if code != 0:
            raise SystemExit(f"set-up failed: {err.decode(errors='replace').strip()[-500:]}")
        return wall

    def reference_time(self) -> tuple[float, float]:
        """Wall and CPU seconds of one reference op."""
        wall, cpu, _, code, out, err = self.spawn(REFERENCE_ARGV)
        if code != 0 or out != REFERENCE_OUT:
            raise SystemExit(f"reference op failed: exit {code}, {out!r}, {err.decode(errors='replace')[-500:]}")
        return wall, cpu

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def judge(op: Op, out: bytes, facts: dict, outputs: dict[str, bytes]) -> str | None:
    """Check one op's output; any exception is that op's failure, not a crash."""
    try:
        op.check(out, facts, outputs)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    outputs[op.label] = out
    return None


@dataclass
class Tally:
    """Per-op samples over the passes of one kind (traced or untraced)."""

    walls: dict[str, list[float]] = field(default_factory=dict)
    cpus: dict[str, list[float]] = field(default_factory=dict)
    wall_ratios: dict[str, list[float]] = field(default_factory=dict)  # untraced only
    cpu_ratios: dict[str, list[float]] = field(default_factory=dict)
    references: list[tuple[float, float]] = field(default_factory=list)
    pass_rss: list[float] = field(default_factory=list)
    layer: list[dict] = field(default_factory=list)

    def add(self, results: dict[str, OpResult]) -> None:
        for label, r in results.items():
            self.walls.setdefault(label, []).append(r.wall)
            self.cpus.setdefault(label, []).append(r.cpu)
            if r.reference:
                self.wall_ratios.setdefault(label, []).append(r.wall / r.reference[0])
                self.cpu_ratios.setdefault(label, []).append(r.cpu / r.reference[1])
                self.references.append(r.reference)
        self.pass_rss.append(max(r.rss_mb for r in results.values()))

    def wall(self) -> float:
        return sum(statistics.median(v) for v in self.walls.values())

    def cpu(self) -> float:
        return sum(statistics.median(v) for v in self.cpus.values())

    def wall_at_reference(self) -> float:
        return REFERENCE_S * sum(statistics.median(v) for v in self.wall_ratios.values())

    def cpu_at_reference(self) -> float:
        return REFERENCE_S * sum(statistics.median(v) for v in self.cpu_ratios.values())


def run_pass(runner: Runner, ops: list[Op], traced: bool, first_outputs: dict[str, bytes]) -> dict[str, OpResult]:
    """Run every op once.  An untraced pass also times the reference op
    before each op and after the last, and pairs each op with the mean of
    the two around it."""
    outputs: dict[str, bytes] = {}
    results = {}
    references = []
    for op in ops:
        if not traced:
            references.append(runner.reference_time())
        r = runner.run_op(op, outputs, traced)
        if r.failure is None and first_outputs.setdefault(op.label, r.out) != r.out:
            r.failure = "output differs from the run's first pass with the same seed"
        results[op.label] = r
    if not traced:
        references.append(runner.reference_time())
        for r, before, after in zip(results.values(), references, references[1:]):
            r.reference = ((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
    return results


# per-layer roll-up ------------------------------------------------------------

VERIFY_SUITES = ("counts", "corner-law", "corner-totals", "boundary", "extension", "pgf", "bijections")
FORMULA = ("chain.corner_event_probability_formula", "chain.expected_corners", "chain.total_corners")
ENUMERATE = ("enumerator.enumerate_tableaux", "enumerator.enumerate_shapes", "enumerator.extend_permutation")
RECORDS = ("tableaux.to_record", "tableaux.from_record")
FOLD, UNFOLD = "bijections.symmetric_to_type_b", "bijections.type_b_to_symmetric"
REPORT, TABLEAUX = "sampler.monte_carlo_corner_report", "sampler.sample_permutation_tableaux"


class SpanSums:
    """Per-name totals over the spans of one pass: inclusive and self
    seconds, call counts, items, plus the few ancestry-based counts."""

    def __init__(self, per_op_spans: list[list]):
        self.incl: Counter[str] = Counter()
        self.self_: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.items: Counter[str] = Counter()
        self.first_dp = 0.0
        self.census_objects = 0
        self.draws = 0
        for spans in per_op_spans:
            self._add(spans)

    def _add(self, spans: list) -> None:
        dur = [(s[3] - s[2]) / 1e9 for s in spans]
        own = dur[:]
        for i, (parent, name, _, _, items) in enumerate(spans):
            if parent >= 0:
                own[parent] -= dur[i]
        seen_dp = False
        for i, (parent, name, _, _, items) in enumerate(spans):
            self.incl[name] += dur[i]
            self.self_[name] += own[i]
            self.calls[name] += 1
            self.items[name] += items
            if name == "chain.corner_event_probability_dp" and not seen_dp:
                self.first_dp += dur[i]
                seen_dp = True
            elif name == "tableaux.corner_stats" and self._under(spans, parent, "enumerator.census"):
                self.census_objects += 1
            elif name == "sampler.substream" and parent >= 0 and spans[parent][1] == REPORT:
                self.draws += 1

    @staticmethod
    def _under(spans: list, parent: int, name: str) -> bool:
        while parent >= 0:
            if spans[parent][1] == name:
                return True
            parent = spans[parent][0]
        return False


def total(table: Counter, *names: str) -> float:
    return sum(table[n] for n in names)


def _per(seconds: float, count: int, scale: float = 1e6) -> float:
    return seconds / count * scale if count else 0.0


def layer_metrics(ops: list[Op], results: dict[str, OpResult]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    s = SpanSums([r.spans or [] for r in results.values()])
    enum_objects = total(s.items, "enumerator.enumerate_tableaux", "enumerator.extend_permutation")
    bij_calls = total(s.calls, FOLD, UNFOLD)
    tableaux = total(s.items, TABLEAUX)
    facts: Counter[str] = sum((Counter(r.facts) for r in results.values()), Counter())
    m = {
        "chain.dp_s": total(s.incl, "chain.corner_event_probability_dp"),
        "chain.dp_calls": total(s.calls, "chain.corner_event_probability_dp"),
        "chain.dp_first_call_s": s.first_dp,
        "chain.count_s": total(s.incl, "chain.count_tableaux"),
        "chain.u_law_s": total(s.incl, "chain.u_distribution"),
        "formula.s": total(s.self_, *FORMULA),
        "formula.calls": total(s.calls, *FORMULA),
        "enumerator.enumerate_s": total(s.self_, *ENUMERATE),
        "enumerator.objects": enum_objects,
        "enumerator.us_per_object": _per(total(s.self_, *ENUMERATE), enum_objects),
        "census.s": total(s.incl, "enumerator.census"),
        "census.objects": s.census_objects,
        "census.us_per_object": _per(total(s.incl, "enumerator.census"), s.census_objects),
        "tableaux.validate_s": total(s.incl, "tableaux.validate"),
        "tableaux.validate_calls": total(s.calls, "tableaux.validate"),
        "tableaux.stats_s": total(s.self_, "tableaux.corner_stats"),
        "tableaux.record_s": total(s.self_, *RECORDS),
        "tableaux.records": total(s.calls, *RECORDS),
        "bijections.fold_s": total(s.self_, FOLD),
        "bijections.unfold_s": total(s.self_, UNFOLD),
        "bijections.calls": bij_calls,
        "bijections.us_per_roundtrip": _per(total(s.incl, FOLD, UNFOLD), bij_calls / 2),
        "sampler.report_s": total(s.incl, REPORT),
        "sampler.tableaux_s": total(s.incl, TABLEAUX),
        "sampler.draws": s.draws,
        "sampler.us_per_draw": _per(total(s.incl, REPORT), s.draws),
        "sampler.us_per_tableau": _per(total(s.incl, TABLEAUX), tableaux),
    }
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}_s"] = total(s.incl, f"verify.{suite}")
    m["verify.rows"] = facts["verify.rows"]
    m["verify.failed_rows"] = facts["verify.failed_rows"]
    m["cli.self_s"] = total(s.self_, "cli.run_command")
    m["cli.bytes_out"] = sum(len(results[op.label].out) for op in ops if op.argv[:2] == CLI)
    return m


# a run ---------------------------------------------------------------------

@dataclass
class Measurement:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    setup_ratios: list[float] = field(default_factory=list)  # set-up seconds / reference seconds
    plain: Tally = field(default_factory=Tally)
    traced: Tally = field(default_factory=Tally)
    last_traced: dict[str, OpResult] = field(default_factory=dict)

    def time_setup(self, runner: Runner) -> None:
        reference, _ = runner.reference_time()
        self.setups.append(runner.setup_time())
        self.setup_ratios.append(self.setups[-1] / reference)


def measure(runner: Runner, ops: list[Op], seconds: float, trace: bool, min_passes: int = 1) -> Measurement:
    """Run passes while another one, as long as the last, still ends
    within ``seconds``; with ``trace`` each cycle is an untraced pass and
    then a traced one.
    Set-up is timed twice first and once before each cycle, so its
    samples span the run."""
    m = Measurement()
    for _ in range(SETUP_REPEATS):
        m.time_setup(runner)
    first_outputs: dict[str, bytes] = {}
    started = time.perf_counter()
    cycles = 0
    while True:
        cycle_started = time.perf_counter()
        m.time_setup(runner)
        for traced in (False, True) if trace else (False,):
            results = run_pass(runner, ops, traced, first_outputs)
            m.attempted += len(results)
            m.failures += [f"{label}: {r.failure}" for label, r in results.items() if r.failure]
            (m.traced if traced else m.plain).add(results)
            if traced:
                m.traced.layer.append(layer_metrics(ops, results))
                m.last_traced = results
        cycles += 1
        now = time.perf_counter()
        if cycles >= min_passes and now - started + (now - cycle_started) > seconds:
            return m


def end_to_end(m: Measurement, items: int) -> dict[str, float]:
    wall = m.plain.wall_at_reference()
    return {
        "wall_s": wall,
        "cpu_s": m.plain.cpu_at_reference(),
        "setup_s": REFERENCE_S * statistics.median(m.setup_ratios),
        "items_per_s": items / wall,
        "peak_rss_mb": statistics.median(m.plain.pass_rss),
        "success_rate": 1 - len(m.failures) / m.attempted,
    }


def per_layer(m: Measurement) -> dict[str, float]:
    out = {name: statistics.median(p[name] for p in m.traced.layer) for name in m.traced.layer[0]}
    out["trace.overhead_s"] = m.traced.wall() - m.plain.wall()
    return out


def host_record() -> dict:
    """nproc, Python version, load average and the time of a fixed
    pure-Python loop, reported beside a run and never used to rescale it."""
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_before": os.getloadavg(), "calibration_s": time.perf_counter() - started}


def report(metrics: dict[str, float], units: dict[str, str], m: Measurement, host: dict) -> None:
    err = sys.stderr
    print(f"host: {json.dumps(host)}", file=err)
    walls, cpus = zip(*m.plain.references)
    print(f"  reference op: wall {statistics.median(walls):.4f} s  cpu {statistics.median(cpus):.4f} s  "
          f"({len(walls)} runs); raw wall {m.plain.wall():.4f} s  cpu {m.plain.cpu():.4f} s  "
          f"setup {statistics.median(m.setups):.4f} s", file=err)
    for tally, kind in ((m.plain, "untraced"), (m.traced, "traced")):
        for label, walls in tally.walls.items():
            print(f"  {kind:8} {label:32} wall {statistics.median(walls):8.3f} s  "
                  f"cpu {statistics.median(tally.cpus[label]):8.3f} s  passes {len(walls)}", file=err)
    for name, value in metrics.items():
        print(f"  {name:32} {value:14.6g} {units[name]}", file=err)
    print(f"  {'error_rate':32} {len(m.failures) / m.attempted:14.6g} ratio "
          f"({len(m.failures)} of {m.attempted} ops)", file=err)
    for failure in m.failures[:20]:
        print(f"  FAILED {failure}", file=err)


def run(args: argparse.Namespace, root: Path) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed, False)
    runner = Runner(root)
    try:
        host = host_record()
        m = measure(runner, ops, args.seconds, bool(args.trace))
        host["loadavg_after"] = os.getloadavg()
    finally:
        runner.close()
    key = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in SPEC[key]}
    metrics = per_layer(m) if args.trace else end_to_end(m, sum(op.items for op in ops))
    report(metrics, units, m, host)
    print(json.dumps({
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


# smoke test ------------------------------------------------------------------

def _check_spans(spans: list, label: str) -> None:
    for i, span in enumerate(spans):
        parent, name, start, end, items = span
        assert isinstance(name, str) and "." in name, (label, span)
        assert start <= end and items >= 0, (label, span)
        if parent != -1:
            assert 0 <= parent < i, (label, i, span)
            assert spans[parent][2] <= start and end <= spans[parent][3], (label, i, span)


def smoke(root: Path) -> int:
    runner = Runner(root)
    seen: Counter[str] = Counter()
    try:
        for name, make in workloads.WORKLOADS.items():
            ops = make(7, True)
            m = measure(runner, ops, 0, trace=True, min_passes=2)
            assert not m.failures, (name, m.failures)
            e2e, layers = end_to_end(m, sum(op.items for op in ops)), per_layer(m)
            assert list(e2e) == [x["name"] for x in SPEC["end_to_end"]], (name, list(e2e))
            assert list(layers) == [x["name"] for x in SPEC["per_layer"]], (name, list(layers))
            seen.update(k for k, v in layers.items() if v)
            spans = [r.spans for r in m.last_traced.values()]
            assert all(spans), (name, "an op wrote no spans")
            for (label, r) in m.last_traced.items():
                _check_spans(r.spans, label)
            print(f"smoke: {name}: {m.attempted} ops, metrics and spans well-formed", file=sys.stderr)
        idle = [k for k in layers if not seen[k] and k not in ("verify.failed_rows", "trace.overhead_s")]
        assert not idle, f"per-layer metrics zero on every workload: {idle}"

        op = workloads.census_budget(7, True)[0]
        good = runner.run_op(op, {}, traced=False)
        assert good.failure is None, good.failure
        assert judge(op, good.out.replace(b'"cardinality"', b'"cardinalitx"'), {}, {}) is not None
        assert judge(op, good.out + b" ", {}, {}) is not None
        key = " ".join(op.argv[2:])
        saved = workloads.GOLDEN[key]
        workloads.GOLDEN[key] = "0" * 64
        try:
            results = run_pass(runner, [op], False, {})
        finally:
            workloads.GOLDEN[key] = saved
        assert results[op.label].failure is not None, "a wrong golden digest was not counted as a failure"
        print("smoke: corrupted payload and wrong golden digest count as failed ops", file=sys.stderr)
    finally:
        runner.close()
    print("smoke: ok", file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at tiny sizes and assert")
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "corners" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/corners/cli.py is missing", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if not args.workload:
        parser.error("--workload is required")
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
