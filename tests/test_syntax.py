"""Every source file parses as the oldest Python that ``pyproject.toml`` supports."""

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _oldest_python() -> tuple[int, int]:
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


OLDEST = _oldest_python()
SOURCES = sorted(
    path.relative_to(REPO_ROOT).as_posix()
    for folder in ("src", "tests", "perfbench")
    for path in (REPO_ROOT / folder).rglob("*.py")
)


@pytest.mark.parametrize("source", SOURCES)
def test_source_parses_as_the_oldest_supported_python(source):
    text = (REPO_ROOT / source).read_text(encoding="utf-8")
    ast.parse(text, filename=source, feature_version=OLDEST)


def test_the_check_rejects_newer_syntax():
    # except* came in Python 3.11
    assert SOURCES
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
