"""CLI surface: output formats, exit codes, determinism."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from corners.cli import run_command

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
    with pytest.raises(SystemExit) as excinfo:
        run_command(["census", "--family", "martian", "--size", "2"])
    assert excinfo.value.code == 2


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


def test_bijection_fold_wrong_family_is_domain_error(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--family", "type-b", "--size", "1", "--format", "json")
    record = json.loads(out)["tableaux"][0]
    infile = tmp_path / "b.json"
    infile.write_text(json.dumps(record))
    code, _, err = run(capsys, "bijection", "fold", "--in", str(infile))
    assert code == 2
    assert "error:" in err


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


def test_bijection_missing_flags_are_usage_errors(capsys):
    code, _, err = run(capsys, "bijection", "roundtrip", "--size", "3")
    assert code == 2
    code, _, err = run(capsys, "bijection", "decompose")
    assert code == 2


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


def _src_env():
    """The environment with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


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
