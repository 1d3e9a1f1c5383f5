"""The verify suites: their input guards and how a row renders its sides."""

from fractions import Fraction

import pytest

from corners.errors import DomainError
from corners.verification import _row, run_suite


@pytest.mark.parametrize("args, message", [
    (("counts", 0), "max size must be positive, got 0"),
    (("all", -1), "max size must be positive, got -1"),
    (("nonsense", 3), "unknown suite 'nonsense'; choose from all, counts, corner-law,"),
], ids=["zero", "negative", "unknown"])
def test_run_suite_guards(args, message):
    with pytest.raises(DomainError) as excinfo:
        run_suite(*args)
    assert type(excinfo.value) is DomainError
    assert message in str(excinfo.value)


def test_row_renders_laws_fractions_and_the_rest_as_text():
    row = _row("law", "n=2", {2: Fraction(1, 2), 1: Fraction(1)}, "1:1/1 2:1/2")
    assert (row.lhs, row.status) == ("1:1/1 2:1/2", "pass")
    # a fraction is p/q even when whole, an int its decimal digits
    assert (_row("x", "", Fraction(3), 3).lhs, _row("x", "", Fraction(3), 3).rhs) == ("3/1", "3")
    assert _row("x", "", True, True).lhs == "True"
    assert _row("x", "", Fraction(1, 2), "1/2").ok
    assert not _row("x", "", 1, 2).ok
