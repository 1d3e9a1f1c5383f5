"""CLI surface: output formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from corners import bijections, verification
from corners.chain import total_corners
from corners.cli import _bit_row_text, _tableau_renderer, _trajectory_text, run_command
from corners.enumerator import enumerate_tableaux
from corners.errors import _excerpt
from corners.families import BRUTE_FORCE_BUDGET, CHAIN_BUDGET, SUITE_NAMES, Family
from corners.sampler import monte_carlo_corner_report, sample_permutation_tableaux, sample_trajectories
from corners.shapes import BorderPath
from corners.tableaux import (
    POINT_CHAR,
    PermutationTableau,
    TreeLikeTableau,
    TypeBTableau,
    canonical_key,
    to_record,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("census", "enumerate", "verify", "formula", "bijection", "sample")


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_json_golden(capsys):
    code, out, _ = run(capsys, "census", "--family", "type-b", "--size", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "census/v1"
    assert data["cardinality"] == "8"
    assert data["totalCorners"] == "3"


def test_census_table_and_csv(capsys):
    code, out, _ = run(capsys, "census", "--family", "permutation", "-n", "3")
    assert code == 0
    assert "cardinality" in out and "6" in out
    code, out, _ = run(capsys, "census", "--family", "permutation", "-n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "field,value"
    assert "cardinality,6" in out


def test_formula_domain_error_exits_2(capsys):
    code, _, err = run(capsys, "formula", "corners", "--family", "tree-like", "--n", "1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "family,n,method",
    [
        ("type-b", "-5", "dp"),
        ("permutation", "0", "dp"),
        ("symmetric", "-1", "dp"),
        ("type-b", "1", "formula"),
        ("permutation", "-5", "formula"),
    ],
)
def test_formula_corners_rejects_sizes_with_empty_range(capsys, family, n, method):
    code, out, err = run(capsys, "formula", "corners", "--family", family, "--n", n,
                         "--method", method, "--format", "json")
    assert code == 2
    assert out == "" and "error:" in err


def test_formula_corners_json(capsys):
    code, out, _ = run(
        capsys, "formula", "corners", "--family", "symmetric", "-n", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["values"] == {"1": "1/4", "2": "3/8", "3": "1/2", "4": "3/8", "5": "1/4"}


def test_formula_expected_and_total(capsys):
    code, out, _ = run(capsys, "formula", "expected", "--family", "tree-like", "-n", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "3/2"
    code, out, _ = run(capsys, "formula", "total", "--family", "tree-like", "-n", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "180"


def test_unknown_family_is_usage_error(capsys):
    for argv in (
        ["census", "--family", "martian", "--size", "2"],
        ["bijection", "roundtrip", "--family", "martian", "--size", "2"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            run_command(argv)
        assert excinfo.value.code == 2
        # the parse error names the four families
        err = capsys.readouterr().err
        assert "unknown family 'martian'; expected one of: tree-like, permutation, type-b, symmetric" in err


def test_verify_passes_and_reports(capsys):
    code, out, err = run(capsys, "verify", "--suite", "counts", "--max-size", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "verification-report/v1"
    assert data["passed"] is True
    assert all(row["status"] == "pass" for row in data["rows"])
    # timing goes to stderr so stdout stays byte-stable
    assert "elapsed" in err and "elapsed" not in out


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_command(["verify", "--suite", "nonsense"])
    assert excinfo.value.code == 2


def test_verify_reports_a_failing_row_and_exits_1(capsys, monkeypatch):
    failing = verification._row("made-up", "n=1", 1, 2)
    monkeypatch.setitem(verification.SUITES, "counts", lambda max_size: [failing])
    code, out, err = run(capsys, "verify", "--suite", "counts", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["rows"] == [failing.to_json_dict()]
    assert "FAIL made-up [n=1]: 1 != 2\n" in err


def test_suite_names_are_the_verification_suites():
    # the parser offers these names without importing the suites
    assert SUITE_NAMES == tuple(verification.SUITES)


def test_bijection_fold_unfold_pipe(capsys, monkeypatch, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--family", "symmetric", "--size", "5", "--format", "json")
    assert code == 0
    record = json.loads(out)["tableaux"][0]
    infile = tmp_path / "t.json"
    infile.write_text(json.dumps(record))
    code, folded, _ = run(capsys, "bijection", "fold", "--in", str(infile))
    assert code == 0
    b = json.loads(folded)
    assert b["family"] == "type-b"
    back = tmp_path / "b.json"
    back.write_text(folded)
    code, unfolded, _ = run(capsys, "bijection", "unfold", "--in", str(back))
    assert code == 0
    assert json.loads(unfolded) == record


def test_bijection_unfold_writes_its_record_in_every_format(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--family", "type-b", "--size", "3", "--format", "json")
    assert code == 0
    infile = tmp_path / "b.json"
    infile.write_text(json.dumps(json.loads(out)["tableaux"][-1]))
    # unfold writes the image's JSON record whatever --format says
    outputs = {
        fmt: run(capsys, "bijection", "unfold", "--in", str(infile), "--format", fmt)[:2]
        for fmt in ("table", "csv", "json")
    }
    assert outputs["table"] == outputs["csv"] == outputs["json"]
    code, text = outputs["json"]
    assert code == 0 and json.loads(text)["family"] == "symmetric"


def test_bijection_fold_wrong_family_is_domain_error(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--family", "type-b", "--size", "1", "--format", "json")
    record = json.loads(out)["tableaux"][0]
    infile = tmp_path / "b.json"
    infile.write_text(json.dumps(record))
    code, _, err = run(capsys, "bijection", "fold", "--in", str(infile))
    assert code == 2
    assert "error:" in err


def test_bijection_unfold_wrong_family_is_domain_error(capsys, monkeypatch):
    code, out, _ = run(capsys, "enumerate", "--family", "symmetric", "--size", "3", "--format", "json")
    record = json.loads(out)["tableaux"][0]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(record)))
    code, out, err = run(capsys, "bijection", "unfold")
    assert (code, out) == (2, "")
    assert "unfold expects" in err


@pytest.mark.parametrize("family", ['"' + "x" * 200_000 + '"', "[" * 900 + "]" * 900], ids=["long", "nested"])
def test_bijection_quotes_only_a_prefix_of_an_unknown_family(capsys, monkeypatch, family):
    # the family field of a record is any JSON value; the message quotes its start
    text = '{"family": ' + family + ', "path": "SW", "rows": ["0", "1"]}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "bijection", "fold")
    assert (code, out) == (2, "")
    assert "unknown family" in err and len(err.encode()) < 300


OVERSIZED_RECORDS = {
    "schema": {"schema": "x" * 200_000, "family": "type-b", "path": "SW", "rows": ["0", "1"]},
    "illegal-step": {"family": "type-b", "path": "S" * 199_999 + "X", "rows": ["0"]},
    "not-self-conjugate": {"family": "symmetric", "path": "S" * 50_000 + "W", "rows": ["."] * 50_000},
    "not-tree-like": {"family": "symmetric", "path": "WS" * 1000, "rows": ["." * (999 - i) for i in range(1000)]},
}


@pytest.mark.parametrize("direction", ("fold", "unfold"))
@pytest.mark.parametrize("record", OVERSIZED_RECORDS.values(), ids=OVERSIZED_RECORDS)
def test_bijection_quotes_only_a_prefix_of_an_oversized_field(capsys, monkeypatch, record, direction):
    # a rejected schema or path is quoted by its start, as an unknown family is
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(record)))
    code, out, err = run(capsys, "bijection", direction)
    assert (code, out) == (2, "")
    assert "..." in err and len(err.encode()) < 300


@pytest.mark.parametrize("direction", ("fold", "unfold"))
def test_bijection_names_the_broken_rule(capsys, monkeypatch, direction):
    # both points of the diagonal have an empty column above and an empty
    # row to their left, so the map's own input check rejects the record
    text = '{"family":"symmetric","path":"SSWW","rows":["\u25cf.",".\u25cf"]}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "bijection", direction)
    assert (code, out) == (2, "")
    assert "point (2, 2): column-above empty=True, row-left empty=True" in err


MALFORMED_RECORDS = (
    '"x"',
    "[1,2]",
    '{"family":"type-b","path":5,"rows":[]}',
    '{"family":"type-b","path":"SW","rows":[1]}',
    '{"schema":"tableau/v1","family":"symmetric","path":"SW","rows":5}',
    '{"schema":"census/v1","family":"type-b","path":"SW","rows":["0","1"]}',
    '{"family":"symmetric","path":"SSWW","rows":["●●xx1","●","junk"]}',
    '{"family":"type-b","path":"SW","rows":["\u0661","1"]}',
    '{"family":"type-b","path":"SW","rows":["x","1"]}',
    '{"family":"permutation","path":"SW","rows":["x"]}',
    '{"path":"SW","rows":["1","1"]}',
    '{"family":"type-b","rows":["1","1"]}',
    '{"family":"type-b","path":"SW"}',
)


@pytest.mark.parametrize("text", MALFORMED_RECORDS)
@pytest.mark.parametrize("direction", ("fold", "unfold"))
def test_bijection_rejects_malformed_records(capsys, monkeypatch, direction, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "bijection", direction)
    assert code == 2
    assert out == "" and "error:" in err


@pytest.mark.parametrize("source", ("stdin", "file"))
@pytest.mark.parametrize("direction", ("fold", "unfold"))
def test_bijection_rejects_too_deeply_nested_input(tmp_path, direction, source):
    text = "[" * 100_000
    argv = [sys.executable, "-m", "corners", "bijection", direction]
    if source == "file":
        infile = tmp_path / "deep.json"
        infile.write_text(text)
        argv += ["--in", str(infile)]
    proc = subprocess.run(
        argv, input=text if source == "stdin" else "",
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("direction", ("fold", "unfold"))
def test_bijection_refuses_a_huge_integer_quickly(capsys, monkeypatch, direction):
    # the CLI lifts Python's digit limit for exact totals, and parsing a long
    # integer literal without it takes quadratic time
    family = "symmetric" if direction == "fold" else "type-b"
    text = f'{{"family": "{family}", "path": "S", "rows": [""], "n": {"7" * 1_000_000}}}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    started = time.perf_counter()
    code, out, err = run(capsys, "bijection", direction)
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert "integer over 4300 digits" in err


def test_bijection_reads_a_record_with_a_small_extra_integer(capsys, monkeypatch):
    text = '{"family": "type-b", "path": "SW", "rows": ["1", "1"], "n": -12345}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "bijection", "unfold")
    assert code == 0
    assert json.loads(out)["family"] == "symmetric"


def _run_quietly(argv, stdin_text):
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_command(argv)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
_record_like = st.fixed_dictionaries(
    {
        "family": st.sampled_from(["tree-like", "permutation", "type-b", "symmetric"]) | _json_values,
        "path": st.text("SW", max_size=6) | _json_values,
        "rows": st.lists(st.text("01\u25cf.", max_size=4), max_size=4) | _json_values,
    }
)


@settings(max_examples=150, deadline=None)
@given(value=_record_like | _json_values, direction=st.sampled_from(("fold", "unfold")))
def test_bijection_exit_code_for_any_json(value, direction):
    assert _run_quietly(["bijection", direction], json.dumps(value)) in (0, 2)


def test_bijection_roundtrip_and_decompose(capsys):
    code, out, _ = run(
        capsys, "bijection", "roundtrip", "--family", "type-b", "--size", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["checked"] == "48"
    code, out, _ = run(capsys, "bijection", "decompose", "-n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["twiceB"], data["southTerm"], data["westTerm"], data["total"]) == (
        "6", "4", "4", "14"
    )


@pytest.fixture
def broken_round_trip(monkeypatch):
    """``round_trip`` with the partner in place of the way back, so no
    tableau comes back to itself."""
    real = bijections.round_trip

    def broken(t):
        partner, _ = real(t)
        return partner, partner

    monkeypatch.setattr(bijections, "round_trip", broken)
    monkeypatch.setattr(verification, "round_trip", broken)


def test_bijection_roundtrip_prints_the_witness_and_exits_1(capsys, broken_round_trip):
    code, out, err = run(capsys, "bijection", "roundtrip", "--family", "type-b", "--size", "2", "--format", "json")
    first = next(enumerate_tableaux(2, Family.TYPE_B))
    assert (code, out) == (1, "")
    assert err == "round-trip failure, witness:\n" + json.dumps(to_record(first)) + "\n"


def test_verify_bijections_names_a_round_trip_witness(capsys, broken_round_trip):
    code, out, err = run(capsys, "verify", "--suite", "bijections", "--max-size", "3", "--format", "json")
    assert code == 1
    expected = []
    for identity, family, size_name, size in (
        ("unfold-fold-roundtrip/type-b", Family.TYPE_B, "n", 1),
        ("unfold-fold-roundtrip/type-b", Family.TYPE_B, "n", 2),
        ("unfold-fold-roundtrip/type-b", Family.TYPE_B, "n", 3),
        ("fold-unfold-roundtrip/symmetric", Family.SYMMETRIC, "size", 3),
    ):
        tableaux = list(enumerate_tableaux(size, family))
        witness = canonical_key(tableaux[0])
        total = len(tableaux)
        expected.append([identity, f"{size_name}={size} witness={witness}", f"0/{total}", f"{total}/{total}", "fail"])
    rows = json.loads(out)["rows"]
    assert [list(row.values()) for row in rows if row["status"] == "fail"] == expected
    assert err.count("\nFAIL ") == len(expected)


def test_bijection_failure_exits_1(capsys, monkeypatch):
    record = to_record(next(enumerate_tableaux(5, Family.SYMMETRIC)))
    lower_points = bijections._lower_points
    monkeypatch.setattr(bijections, "_lower_points", lambda b: set(sorted(lower_points(b))[:-1]))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(record)))
    code, out, err = run(capsys, "bijection", "fold")
    assert (code, out) == (1, "")
    assert err.startswith("bijection failure: folded tableau does not unfold back")


def test_bijection_missing_flags_are_usage_errors(capsys):
    assert run(capsys, "bijection", "roundtrip", "--size", "3") == (
        2, "", "error: bijection roundtrip needs --family\n"
    )
    assert run(capsys, "bijection", "roundtrip", "--family", "type-b") == (
        2, "", "error: bijection roundtrip needs --size\n"
    )
    assert run(capsys, "bijection", "decompose") == (2, "", "error: bijection decompose needs --size\n")


def test_an_engine_key_error_is_not_a_usage_error(capsys, monkeypatch, tmp_path):
    # no input path raises KeyError, so one from inside a command is a fault
    def broken(max_size):
        raise KeyError("engine fault")

    monkeypatch.setitem(verification.SUITES, "counts", broken)
    with pytest.raises(KeyError, match="engine fault"):
        run_command(["verify", "--suite", "counts"])
    # bad input still exits 2: a missing file, a record without a key, bad JSON
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "bijection", "fold", "--in", str(missing))
    assert (code, out) == (2, "") and "No such file" in err
    for text in ('{"path":"SW","rows":["1","1"]}', "{"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, "bijection", "fold")
        assert (code, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize("kind", ("report", "tableaux", "trajectories"))
def test_sample_checks_the_count_before_the_size(capsys, kind):
    argv = f"sample --kind {kind} --n {_SIZE_CAP + 1} --count {_COUNT_CAP + 1}"
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == f"error: a run of {_COUNT_CAP + 1} samples exceeds the budget of {_COUNT_CAP}\n"


def test_sample_report_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = run_command(
            ["sample", "--size", "8", "--count", "200", "--seed", "4",
             "--format", "json", "--out", str(target)]
        )
        assert code == 0
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["schema"] == "mc-report/v1"
    assert data["sampleCount"] == 200


def test_sample_tableaux_and_trajectories(capsys):
    code, out, _ = run(
        capsys, "sample", "--size", "4", "--count", "3", "--seed", "2",
        "--kind", "tableaux", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["tableaux"]) == 3
    assert all(r["schema"] == "tableau/v1" for r in data["tableaux"])
    code, out, _ = run(
        capsys, "sample", "--family", "type-b", "--size", "4", "--count", "2",
        "--seed", "2", "--kind", "trajectories", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,steps,uSequence"
    assert len(lines) == 3


@pytest.mark.parametrize("kind", ("tableaux", "trajectories"))
def test_sample_rejects_negative_count(capsys, kind):
    code, out, err = run(capsys, "sample", "--kind", kind, "--n", "5", "--count", "-3")
    assert code == 2
    assert out == "" and "error:" in err


def test_sample_usage_errors(capsys):
    code, _, err = run(capsys, "sample", "--size", "5", "--count", "10", "--seed", "1")
    assert code == 2  # report needs at least 100 samples
    code, _, err = run(
        capsys, "sample", "--family", "type-b", "--size", "5", "--kind", "tableaux"
    )
    assert code == 2


def test_enumerate_matches_cardinality(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "tree-like", "--size", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,path,rows"
    assert len(lines) == 7


def _nested_text(record):
    """The text of ``record`` as it reads in the list of a list payload."""
    head, tail = '{\n  "items": [\n    ', "\n  ]\n}"
    text = json.dumps({"items": [record]}, indent=2)
    assert text.startswith(head) and text.endswith(tail)
    return text[len(head):-len(tail)]


def _assert_tableau_text(t):
    assert _tableau_renderer(t.family)(t) == _nested_text(to_record(t))


@pytest.mark.parametrize(
    "family,sizes",
    [
        (Family.PERMUTATION, range(1, 6)),
        (Family.TREE_LIKE, range(1, 6)),
        (Family.TYPE_B, range(1, 5)),
        (Family.SYMMETRIC, range(1, 10, 2)),
    ],
)
def test_record_text_equals_json_dumps_on_enumerated_records(family, sizes):
    for size in sizes:
        for t in enumerate_tableaux(size, family):
            _assert_tableau_text(t)


def test_record_text_equals_json_dumps_on_sampled_records():
    for t in sample_permutation_tableaux(30, 4, 20):
        _assert_tableau_text(t)
    for family in (Family.PERMUTATION, Family.TYPE_B):
        for n, count in ((1, 5), (7, 20), (40, 20), (CHAIN_BUDGET.sample_size, 2)):
            for tr in sample_trajectories(n, family, 4, count):
                record = {"steps": tr.steps, "uSequence": list(tr.u_sequence)}
                assert _trajectory_text(tr) == _nested_text(record)


@pytest.mark.parametrize(
    "t",
    [
        PermutationTableau.from_strings("SWSS", ["1", "", ""]),
        TypeBTableau.from_strings("SWSWS", ["1", "00", "01", "1", ""]),
        TreeLikeTableau(BorderPath("SSWW"), frozenset([(1, 1), (1, 2), (2, 1)])),
        PermutationTableau.from_strings("W", []),
    ],
)
def test_tableau_text_of_zero_length_and_point_rows(t):
    rows = to_record(t)["rows"]
    assert not rows or "" in rows or any(POINT_CHAR in row for row in rows)
    _assert_tableau_text(t)


def test_bit_row_text_cache_holds_every_row_within_the_budgets():
    longest = max(BRUTE_FORCE_BUDGET[Family.TYPE_B], BRUTE_FORCE_BUDGET[Family.PERMUTATION] - 1)
    assert _bit_row_text.cache_info().maxsize == 256 >= sum(2**length for length in range(longest + 1))


@pytest.mark.parametrize(
    "argv",
    [
        "enumerate --family type-b --size 3 --format json",
        "enumerate --family symmetric --size 5 --format json",
        "sample --kind trajectories --family type-b --size 7 --count 5 --seed 6 --format json",
        "sample --kind trajectories --size 7 --count 0 --format json",
        "sample --kind tableaux --size 6 --count 0 --format json",
    ],
)
def test_list_json_out_file_matches_stdout(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    target = tmp_path / "list.json"
    assert run(capsys, *argv.split(), "--out", str(target))[:2] == (0, "")
    assert target.read_bytes() == out.encode()


_TRACED_PEAK = """
import sys, tracemalloc
from corners.cli import run_command
warm, argv = sys.argv[1] == "warm", sys.argv[2:]
if warm and run_command(argv):
    sys.exit("warm-up run failed")
tracemalloc.start()
if run_command(argv):
    sys.exit("traced run failed")
print(tracemalloc.get_traced_memory()[1])
"""


def _traced_peak(argv, warm):
    """The traced peak of one ``run_command(argv)`` in a fresh interpreter,
    after an untraced first run of it when ``warm``.

    A tuple taken from CPython's free lists is not a traced allocation, so
    in this process the figure would depend on the tests that ran before.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_PEAK, "warm" if warm else "cold", *argv],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


_RETAINED_AFTER_DP_LAW = """
import tracemalloc
from corners.chain import corner_distribution
from corners.families import CHAIN_BUDGET, Family
tracemalloc.start()
corner_distribution(CHAIN_BUDGET.dp_size, Family.SYMMETRIC, method="dp")
print(tracemalloc.get_traced_memory()[0])
"""


def test_dp_law_holds_no_memory_after_it_returns():
    # the largest DP law reads its chain values from their closed form and
    # keeps no table of them, so once its result is dropped the traced size
    # (what is still held, not the allocator's peak) is back near zero
    proc = subprocess.run(
        [sys.executable, "-c", _RETAINED_AFTER_DP_LAW],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2**20


def test_enumerate_json_keeps_only_the_rendered_records(tmp_path):
    # each record becomes its text as the tableau is yielded, so the traced
    # peak stays near the output size: the tableaux, the record dicts and a
    # second copy of the whole text are never all held at once
    target = tmp_path / "b5.json"
    argv = ["enumerate", "--family", "type-b", "--size", "5", "--format", "json", "--out", str(target)]
    assert _traced_peak(argv, warm=False) < 4 * target.stat().st_size


def test_enumerate_table_keeps_no_second_copy_of_the_text(tmp_path):
    # the table is written line by line, so beside the items and their cell
    # strings it holds neither the list of padded lines nor their joined text;
    # a first run fills the row caches so the traced peak is the render's own
    target = tmp_path / "b5.txt"
    argv = ["enumerate", "--family", "type-b", "--size", "5", "--format", "table", "--out", str(target)]
    assert _traced_peak(argv, warm=True) < 12 * target.stat().st_size


def test_enumerate_table_keeps_no_copy_of_the_cells(tmp_path):
    # the widths come from a first pass over the rows and each line is
    # rendered from the row itself, so no string copy of the cells is held
    # beside the rows; a first run fills the row caches
    target = tmp_path / "b5.txt"
    argv = ["enumerate", "--family", "type-b", "--size", "5", "--format", "table", "--out", str(target)]
    assert _traced_peak(argv, warm=True) < 7 * target.stat().st_size


def test_enumerate_csv_keeps_no_copy_of_the_text(tmp_path):
    # the CSV is written line by line, so beside the rows it holds neither a
    # buffer of the lines nor their joined text; the writer's own buffer is
    # a fixed 128 KiB or so; a first run fills the row caches
    target = tmp_path / "b5.csv"
    argv = ["enumerate", "--family", "type-b", "--size", "5", "--format", "csv", "--out", str(target)]
    assert _traced_peak(argv, warm=True) < 9 * target.stat().st_size


# (argv, format) -> (exit code, sha256 of stdout) for every subcommand in
# every format: a refactor must leave each output byte for byte as it was.
PINNED_OUTPUTS = {
    ("census --family permutation --size 4", "table"): (0, "b81f1a3945d931c63c4314db1c7ec0cd3a6e8a26f8d2202a15057b0d14f210ba"),
    ("census --family permutation --size 4", "json"): (0, "dd1e257ea68ce63a2158c4faeb1bc742bc00c8dafd128b2ce73e6e0d82d615e2"),
    ("census --family permutation --size 4", "csv"): (0, "43c85742fa8a964c8cc53e404e378170df14a9b8b028543445cf1f3030937a32"),
    ("census --family tree-like --size 4", "table"): (0, "452130ec955b199fab9a6fae24202298cf49acad018d7744024ea9fd522110d1"),
    ("census --family tree-like --size 4", "json"): (0, "acb1a455340916b210f97cbc16ab8f7a5e129ff8f5774cf5e9a1d48d6739a889"),
    ("census --family tree-like --size 4", "csv"): (0, "dad977bded2a884127e1248e084e3205cae37afa4ed68f4ff69cbe81de0309a7"),
    ("census --family type-b --size 3", "table"): (0, "bbcb3803039c018989fcf0fff055815cb41a4b5401ec7a26f94492b99715e6f9"),
    ("census --family type-b --size 3", "json"): (0, "f77f40eb522d951c47b281bc4c517abe6122f27dc076f6c89d899a4b7aa5f21a"),
    ("census --family type-b --size 3", "csv"): (0, "c052f6df35eeae9fc785246fe055ed7b76ff745907402142bd424cf2afc88c0f"),
    ("census --family symmetric --size 7", "table"): (0, "c836e75f6bce566a17a626a13e5d25b3566f2a85388f9e8a8975d5988c6d476a"),
    ("census --family symmetric --size 7", "json"): (0, "b222f843974fbb10fcc2ad6aa1f2302079fe36114efddd0821494c151728444e"),
    ("census --family symmetric --size 7", "csv"): (0, "c51082a814e18c15eaf79009bce2f2bc810fa62ac255ac8f0ca6d9887ba1a039"),
    ("census --family permutation --size 4 --method brute", "table"): (0, "b81f1a3945d931c63c4314db1c7ec0cd3a6e8a26f8d2202a15057b0d14f210ba"),
    ("census --family permutation --size 4 --method brute", "json"): (0, "dd1e257ea68ce63a2158c4faeb1bc742bc00c8dafd128b2ce73e6e0d82d615e2"),
    ("census --family permutation --size 4 --method brute", "csv"): (0, "43c85742fa8a964c8cc53e404e378170df14a9b8b028543445cf1f3030937a32"),
    ("enumerate --family tree-like --size 3", "table"): (0, "70552fa2db51b02e7be17baf5393de8fd06ca8e2d9ed550fd885787b7489016f"),
    ("enumerate --family tree-like --size 3", "json"): (0, "cdbe40b9a14c4d7cb3e8708beb061d7bcd704adca37fb1e4df3b6d624b2f6985"),
    ("enumerate --family tree-like --size 3", "csv"): (0, "69fcba8b47763d4a66d197513b3ca761f2fe4d59cfb7c9798827d98a0efcaa9a"),
    ("verify --max-size 3", "table"): (0, "da90994f759cd8038cab727bab5fb399f989de8107c5fa7e27b883050c60d16e"),
    ("verify --max-size 3", "json"): (0, "0ee1801ddf5a1875ab17ae5bd94ecd4cc233b9e8a31c647ad3cabc9a38c412e7"),
    ("verify --max-size 3", "csv"): (0, "ab9473d40e5d587fc7be5cd20750f14a6538ef7107436a2f7827e0ccecc29674"),
    ("formula corners --family symmetric --n 6", "table"): (0, "4341e3505b67e9c7e0d4c731136cd5bbbee8eeb0535d2ecda44cec28b70cc16b"),
    ("formula corners --family symmetric --n 6", "json"): (0, "8ee0a2eac7f8496968ae95d12a96a89c529373d4ff3cce9af119361d2ed15244"),
    ("formula corners --family symmetric --n 6", "csv"): (0, "9c15a05da4885993b86645e01347fa666d6154aea1e4b5ad98385632e613ef45"),
    ("formula corners --family type-b --n 9 --method dp", "table"): (0, "9ce570d6487cbb2b53d0a1ce1f65473ab72895ba3f095309c70a181f990ad8e3"),
    ("formula corners --family type-b --n 9 --method dp", "json"): (0, "1b88c3d8aaa8d5d5a78077e3fb42a27f794f0eb36ebef3d35b05fe7c002be52a"),
    ("formula corners --family type-b --n 9 --method dp", "csv"): (0, "35f3095af2413ceb8855cfc6c96fab898c64a5c3f2bb9df761abf8022f03370b"),
    ("formula expected --family permutation --n 7", "table"): (0, "575aa960f0b0e327220f72841fa15d373bdcbf2104be537fe1d9ce72242f4df6"),
    ("formula expected --family permutation --n 7", "json"): (0, "811e7c0067dd149a530bfdef586fcf453546d6873bec3e270339b1b16d9295f2"),
    ("formula expected --family permutation --n 7", "csv"): (0, "4889fe2086785a954d9447c86456fe397145c61d2c2a3de0e6ce94ccd7d8f19f"),
    ("formula total --family symmetric --n 5", "table"): (0, "12488f25b308fb70c4a3c89d1efc3b6872ec36ee499a06ec5f6474e7bbed1548"),
    ("formula total --family symmetric --n 5", "json"): (0, "2408156370327f77ad7169eb132ecebbab4eddaaf38ac56630f47b8d904eac97"),
    ("formula total --family symmetric --n 5", "csv"): (0, "beb79564e6c1cf67cc63a98cf238ab7a336c6dd6c501b6bdc3675b7532e7474d"),
    ("formula total --family permutation --n 30", "table"): (0, "0799d6e59469a77c2c68713f861a1428c772db52e0bb52d05d6702e01861bc00"),
    ("formula total --family permutation --n 30", "json"): (0, "1203756ed8e7862207a65cb6842f42df0bb11b62afde41f471792fd4dce15ef8"),
    ("formula total --family permutation --n 30", "csv"): (0, "c5a98f1c64a9f2e74f986db41cda9eb4521b3de47534e332daa20845ad328daa"),
    ("formula total --family type-b --n 12", "table"): (0, "62448ca4a49e64b14ca6485df89e2ee014e250dacaa7d6405b7b63cb09ad1980"),
    ("formula total --family type-b --n 12", "json"): (0, "1e71e228ccdc958aec82f3347696ef8422a214d3b9d32e5ad7411c9597187905"),
    ("formula total --family type-b --n 12", "csv"): (0, "2279611bd1a812d24e1903bb8220d8bb94a461c2a56d9b203d04d64274f0fb54"),
    ("formula corners --family tree-like --n 1", "table"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("formula corners --family tree-like --n 1", "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("formula corners --family tree-like --n 1", "csv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bijection roundtrip --family type-b --size 2", "table"): (0, "aa8e4fc022a2d8706f39a5cd68ffd691985446d5cc1f5a50032b04c92c2095f2"),
    ("bijection roundtrip --family type-b --size 2", "json"): (0, "8ed0588aa0ac61d47340de3e24d7f3d24ef1b946f08067b03723e91dc4a981eb"),
    ("bijection roundtrip --family type-b --size 2", "csv"): (0, "661167b34a2e06f6e8372fc575665cd27c7452d3d60ec914c733709034075199"),
    ("bijection decompose --size 4", "table"): (0, "b6f9bdbfbd35a18989ed2d2d38b61443712cc73ba85a3e315c52f4eec1cbd9ed"),
    ("bijection decompose --size 4", "json"): (0, "45ba93ece4af4606c6306ffad66947f160a7290f9edd3deeae58bc9885081d8c"),
    ("bijection decompose --size 4", "csv"): (0, "a6fe30cd79a1f102c3f823cba9df994739771002644503987f3dca1b1d64be66"),
    ("sample --family type-b --size 9 --count 150 --seed 3", "table"): (0, "be8e869b360528d0a9b28e300f1d345e259e18381d3d33ebb9f408455749a93a"),
    ("sample --family type-b --size 9 --count 150 --seed 3", "json"): (0, "d0e86f551b5d3a4c4cf04ba52754d74f91983059f95f1b74d69ade8e65ad4bc6"),
    ("sample --family type-b --size 9 --count 150 --seed 3", "csv"): (0, "9c01d85777ed44b56a5d54e3fa8dc5245c0c469f5404d3fa582781264286e034"),
    ("sample --kind tableaux --size 6 --count 4 --seed 5", "table"): (0, "fe247257e08d3130b9e29a86ad0263a60614724ef6c6ad1538c946ad13fa430f"),
    ("sample --kind tableaux --size 6 --count 4 --seed 5", "json"): (0, "38c309e0eff02ecc1518839a23f26bdf590c2c01cca7f29a792dd0fa42a575f6"),
    ("sample --kind tableaux --size 6 --count 4 --seed 5", "csv"): (0, "cbb8f0050ddff8d157607d0d9c1795a1392a288e8a8b389d07af00d44e36b0ee"),
    ("sample --kind trajectories --family type-b --size 7 --count 5 --seed 6", "table"): (0, "427f85986e5dd02c9df0a96a704f2c0f426bf4ba4db6dd5a249ce4988c7bf75b"),
    ("sample --kind trajectories --family type-b --size 7 --count 5 --seed 6", "json"): (0, "3bd3931ebfa6dffc49ac9988db44dead52d83477df2e3ab7faf4b0bc8899c8ba"),
    ("sample --kind trajectories --family type-b --size 7 --count 5 --seed 6", "csv"): (0, "0e7a6bc4b282a0f03d430bad5016017b87c855506a470f3d990208abb1a936aa"),
    ("enumerate --family type-b --size 4", "table"): (0, "e3da52feb42b293abbbe8f5bb057f2a9753799e5520235c2ddb5875c4e5c77c8"),
    ("enumerate --family type-b --size 4", "json"): (0, "971dad061cc1c487b235aead538e4b4b6d3b25190483571d0dd29f5b522ac7dc"),
    ("enumerate --family type-b --size 4", "csv"): (0, "d324fc1dff5fcb994170a755ad79b47b3b11717d1dcb63ada07097fefae6d1ff"),
    ("enumerate --family type-b --size 6", "json"): (0, "4c5109c02fc94932b5662d59825fe4d8e5fa65376d8fb271adc3b0ba5ce38553"),
    ("bijection roundtrip --family type-b --size 5", "json"): (0, "975c377c047a11df8be5e2067f46a9e4f2ee505cab5351117df812e6758a5f66"),
    ("verify --suite all", "table"): (0, "b64f04ec5d2a762384939d1bd4947fff805a775475419677decb8f4752421246"),
    ("verify --suite all", "json"): (0, "9ff42964c6f9fb3c2b115c891307788d94bd6468f29a51535465f297a96327c9"),
    ("verify --suite all", "csv"): (0, "b5b1293ec955408295c9e7c7e91bbe4862747d29bf3da14c722232c4af365d15"),
    ("bijection roundtrip --family symmetric --size 9", "table"): (0, "f88536cb15f30f55b085ff5979dcaa46aa09d5f418dfabefd7ec6db72efc3072"),
    ("bijection roundtrip --family symmetric --size 9", "json"): (0, "8f85b4f6a78101403933958af54d2fa1cc88740560b7e63625bc4c2f59c9e70a"),
    ("bijection roundtrip --family symmetric --size 9", "csv"): (0, "cfd9b8d3df4fc1b22bba71a982f7f850b7aa22aa7aa9a8a7f6ce6af7dc739d97"),
    ("verify --suite all --max-size 11", "json"): (0, "237cff517fc3505920fd3f19382cd462a1e44da8ec356f0441bda35e1cde4c72"),
}


@pytest.mark.parametrize("argv,fmt", sorted(PINNED_OUTPUTS))
def test_outputs_are_pinned(capsys, argv, fmt):
    code, out, _ = run(capsys, *argv.split(), "--format", fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_OUTPUTS[argv, fmt]


# argv -> (exit code, sha256 of stdout) for censuses past the reach of the
# tests' brute-force cross-check, recorded with ``--method brute``; the sizes
# one past the budget must still be refused
PINNED_CENSUSES = {
    "census --family type-b --size 7 --format json": (0, "ce6bdee793f45fdf115d0dc3ad7b20c9c7e511070a8ab88d274eda0c97385e84"),
    "census --family permutation --size 8 --format json": (0, "d1f481b817e0a4de98e120fa7b1be226bee4fc27bf38239e655d411b4278a25f"),
    "census --family type-b --size 8 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "census --family permutation --size 9 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "census --family tree-like --size 8 --format json": (0, "e3f5bb3202a34176664feb25c0de5adfbb8dc1ba7d5c66f1338ded97df2aba78"),
    "census --family symmetric --size 13 --format json": (0, "bd46237b95565a78bcd41155fb163d4fb846d9b472079e3081da2e87b2aff03c"),
    "census --family tree-like --size 9 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "census --family symmetric --size 15 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("argv", sorted(PINNED_CENSUSES))
def test_census_at_budget_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_CENSUSES[argv]


# argv -> sha256 of stdout for DP laws far past enumeration, recorded when
# the DP still Horner-evaluated coefficient rows
PINNED_DP_LAWS = {
    "formula corners --method dp --family permutation --n 400 --format json": "ef3304a076e8b9fb205778ad785c4d25fbb520c31b7ac5d93a1bef14fc7afb9f",
    "formula corners --method dp --family symmetric --n 300 --format json": "071231690ed5514bfa55d76450d6097d5a4bec45bde36b5fed69799c5b0e5224",
}


@pytest.mark.parametrize("argv", sorted(PINNED_DP_LAWS))
def test_large_dp_laws_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, PINNED_DP_LAWS[argv])


_DP_CAP = CHAIN_BUDGET.dp_size
_SIZE_CAP = CHAIN_BUDGET.sample_size
_COUNT_CAP = CHAIN_BUDGET.sample_count
_FORMULA_CAP = CHAIN_BUDGET.formula_size

# argv at a chain budget (accepted) and one past it (exit 2, empty stdout)
CHAIN_BUDGET_RUNS = [
    (f"formula corners --method dp --family permutation --n {_DP_CAP}", 0),
    (f"formula corners --method dp --family permutation --n {_DP_CAP + 1}", 2),
    (f"formula corners --method dp --family symmetric --n {_DP_CAP + 1}", 2),
    (f"formula corners --family symmetric --n {_DP_CAP + 1}", 0),  # closed forms have their own cap
    (f"formula corners --family symmetric --n {_FORMULA_CAP}", 0),
    (f"formula corners --family symmetric --n {_FORMULA_CAP + 1}", 2),
    (f"formula corners --family permutation --n {_FORMULA_CAP + 1}", 2),
    (f"formula total --family type-b --n {_DP_CAP}", 0),
    (f"formula total --family type-b --n {_DP_CAP + 1}", 2),
    (f"bijection decompose --size {_DP_CAP + 1}", 2),
    (f"sample --kind trajectories --family type-b --n {_SIZE_CAP} --count 1", 0),
    (f"sample --kind tableaux --n {_SIZE_CAP} --count 1", 0),
    (f"sample --kind trajectories --family type-b --n {_SIZE_CAP + 1} --count 1", 2),
    (f"sample --kind tableaux --n {_SIZE_CAP + 1} --count 1", 2),
    (f"sample --kind report --n {_SIZE_CAP + 1} --count 100", 2),
    (f"sample --kind report --n 2 --count {_COUNT_CAP}", 0),
    (f"sample --kind report --n 2 --count {_COUNT_CAP + 1}", 2),
    (f"sample --kind trajectories --n 2 --count {_COUNT_CAP + 1}", 2),
    (f"sample --kind tableaux --n 2 --count {_COUNT_CAP + 1}", 2),
]


@pytest.mark.parametrize("argv,expected", CHAIN_BUDGET_RUNS)
def test_chain_budget_at_cap_and_one_past(capsys, argv, expected):
    code, out, err = run(capsys, *argv.split(), "--format", "json")
    assert code == expected
    if expected == 0:
        assert json.loads(out)
    else:
        assert out == "" and "exceeds the budget" in err


# argv one past an enumeration budget, for the commands that
# test_census_at_budget_is_pinned does not run
ENUMERATION_BUDGET_RUNS = [
    *(f"enumerate --family {f.value} --size {BRUTE_FORCE_BUDGET[f] + 1}" for f in Family),
    *(
        f"bijection roundtrip --family {f.value} --size {BRUTE_FORCE_BUDGET[f] + 1}"
        for f in (Family.TYPE_B, Family.SYMMETRIC)
    ),
]


@pytest.mark.parametrize("argv", ENUMERATION_BUDGET_RUNS)
def test_enumeration_budget_one_past(capsys, argv):
    code, out, err = run(capsys, *argv.split(), "--format", "json")
    assert (code, out) == (2, "")
    assert "exceeds the budget" in err


_HUGE = "9" * 5000

# argv whose number is far past its cap or below its least value, one per
# command whose refusal echoes that number
OVERSIZED_RUNS = {
    "census-size": f"census --family type-b --size {_HUGE}",
    "enumerate-size": f"enumerate --family type-b --size {_HUGE}",
    "census-negative-size": f"census --family type-b --size -{_HUGE}",
    "formula-total-n": f"formula total --family type-b --n {_HUGE}",
    "sample-n": f"sample --kind trajectories --family type-b --n {_HUGE}",
    "sample-count": f"sample --kind trajectories --family type-b --n 5 --count {_HUGE}",
    "verify-negative-max-size": f"verify --suite counts --max-size -{_HUGE}",
}


@pytest.mark.parametrize("argv", OVERSIZED_RUNS.values(), ids=OVERSIZED_RUNS.keys())
def test_a_refusal_quotes_only_a_prefix_of_an_oversized_number(capsys, argv):
    code, out, err = run(capsys, *argv.split(), "--format", "json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200


def test_an_excerpt_of_a_large_integer_is_the_cut_repr():
    # integers past 200 bits are quoted from their leading digits alone;
    # the text must still be the cut ``repr``, at every digit count
    def cut_repr(value):
        shown = repr(value)
        return shown if len(shown) <= 40 else shown[:40] + "..."

    values = [v for k in range(301) for v in (10**k - 1, 10**k, 10**k + 1)]
    values += [v for b in range(190, 1100) for v in (2**b - 1, 2**b)]
    for value in values:
        assert _excerpt(value) == cut_repr(value), value
        assert _excerpt(-value) == cut_repr(-value), -value


def test_verify_max_size_stops_at_the_census_caps(capsys):
    # every family's census sweep stops at verification._CENSUS_CAP (at
    # most 11), so a larger --max-size changes nothing
    outputs = [run(capsys, "verify", "--suite", "counts", "--max-size", m, "--format", "json")
               for m in ("11", "99")]
    assert outputs[0][:2] == outputs[1][:2]
    assert outputs[0][0] == 0


def test_formula_total_prints_big_integers(capsys):
    # 5 700 digits, past the interpreter's default limit of 4 300
    code, out, _ = run(capsys, "formula", "total", "--family", "permutation", "--n", "2000", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == str(total_corners(2000, Family.PERMUTATION))


def _src_env():
    """The environment with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def _stdout_env(unbuffered):
    """``_src_env`` with stdout buffered, or not, whatever this process runs with."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
def test_a_stdout_closed_after_one_line_exits_141_without_a_message(unbuffered):
    # the listing is over 64 KB, more than the pipe holds, so the writer
    # meets the closed pipe
    argv = [sys.executable, "-m", "corners", "enumerate", "--family", "type-b", "--size", "5"]
    env = _stdout_env(unbuffered)
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"index")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
def test_a_stdout_closed_before_a_short_output_exits_141_without_a_message(unbuffered):
    # buffered, the few bytes of a census meet the closed pipe only when
    # stdout is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "corners", "census", "--family", "permutation", "--size", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=_stdout_env(unbuffered), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("to_file", (False, True), ids=("stdout", "out-file"))
def test_a_write_error_exits_2_with_one_error_line(unbuffered, to_file):
    argv = [sys.executable, "-m", "corners", "census", "--family", "permutation", "--size", "3"]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            argv + ["--out", "/dev/full"] if to_file else argv,
            stdout=subprocess.DEVNULL if to_file else full, stderr=subprocess.PIPE,
            env=_stdout_env(unbuffered), timeout=60,
        )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.decode().splitlines() == ["error: [Errno 28] No space left on device"]


# Writes a line to the buffered stdout, runs a report that forks, then
# checks that the report reaped its child.
_SPLIT_PROBE = """
import os, sys
from corners.cli import run_command
from corners import sampler
sys.stdout.write("before\\n")
assert sampler._cpu_count() >= 2 and 20 * 1001 >= sampler._SPLIT_WORK
code = run_command(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit("a child process outlived the report")
"""


@pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the report forks only with two CPUs",
)
def test_a_split_report_prints_once_and_leaves_no_process():
    argv = ["sample", "--kind", "report", "--family", "type-b", "--size", "20",
            "--count", "1001", "--seed", "5", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", _SPLIT_PROBE, *argv],
        capture_output=True, env=_stdout_env(False), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    head, report = proc.stdout.decode().split("\n", 1)
    assert head == "before"
    serial = monte_carlo_corner_report(20, Family.TYPE_B, 1001, seed=5)
    assert json.loads(report) == serial.to_json_dict()
    assert report.count('"schema"') == 1


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert "census" in proc.stdout
    usage = proc.stdout.splitlines()[0]
    assert usage.startswith("usage: corners")
    # the subcommand choices on the usage line, not just words in help text
    assert set(re.search(r"\{(.*)\}", usage).group(1).split(",")) == set(SUBCOMMANDS)


def test_console_script_is_installed():
    """The script declared in pyproject.toml starts the CLI.

    Runs the declared ``module:function`` the way pip's generated wrapper
    does, in a fresh interpreter with ``src`` on the path, so no install is
    needed.  The declaration is read from pyproject.toml and not from
    package metadata, which a stale ``*.egg-info`` under ``src`` can fake.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, func = scripts["corners"].partition(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    _assert_help(proc)


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "corners", "--help"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    _assert_help(proc)


@pytest.mark.skipif(
    shutil.which("corners") is None,
    reason="no corners script on PATH; install the package with pip install -e .",
)
def test_console_script_on_path():
    proc = subprocess.run(["corners", "--help"], capture_output=True, text=True, timeout=60)
    _assert_help(proc)


# Prints the exit code, the loaded ``corners.*`` modules, whether
# ``fractions`` is loaded and which of ``dataclasses`` and ``inspect`` are,
# after ``run_command(argv)`` or, with no arguments, after ``build_parser()``.
_IMPORT_PROBE = """
import json, sys
from corners.cli import build_parser, run_command
if len(sys.argv) > 1:
    code = run_command(sys.argv[1:])
else:
    build_parser()
    code = 0
loaded = sorted(m for m in sys.modules if m.startswith("corners."))
heavy = [m for m in ("dataclasses", "inspect") if m in sys.modules]
print(json.dumps([code, loaded, "fractions" in sys.modules, heavy]))
"""

_PARSE_MODULES = {"corners.cli", "corners.errors", "corners.families"}


@pytest.mark.parametrize("argv, engines", [
    ((), ()),
    (("formula", "corners", "--family", "type-b", "--size", "4"), ("chain", "shapes")),
    (("census", "--family", "permutation", "--size", "3"), ("enumerator", "tableaux", "shapes")),
    (("sample", "--kind", "report", "--size", "4", "--count", "100"),
     ("sampler", "chain", "tableaux", "shapes")),
    (("bijection", "unfold", "--in", "{record}"), ("bijections", "tableaux", "shapes")),
    (("bijection", "decompose", "--size", "3"), ("chain", "shapes")),
    (("verify", "--suite", "counts", "--max-size", "2"),
     ("verification", "bijections", "chain", "enumerator", "tableaux", "shapes")),
], ids=["build_parser", "formula", "census", "sample", "bijection-unfold", "bijection-decompose", "verify"])
def test_each_command_imports_only_the_modules_it_runs(tmp_path, argv, engines):
    record = tmp_path / "b.json"
    record.write_text('{"schema":"tableau/v1","family":"type-b","path":"SW","rows":["0","1"]}')
    argv = [a.format(record=record) for a in argv]
    if argv:
        argv += ["--out", str(tmp_path / "out.txt")]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded, fractions_loaded, heavy = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    assert set(loaded) == _PARSE_MODULES | {f"corners.{m}" for m in engines}
    if "chain" not in engines:
        assert not fractions_loaded
    # no command loads the dataclass machinery (``inspect``, ``ast``, ``dis``)
    assert heavy == []


def test_bijection_closes_its_input_file(tmp_path):
    infile = tmp_path / "b.json"
    infile.write_text('{"schema":"tableau/v1","family":"type-b","path":"SW","rows":["0","1"]}')
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "corners", "bijection", "unfold", "--in", str(infile)],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["family"] == "symmetric"
    assert "ResourceWarning" not in proc.stderr
