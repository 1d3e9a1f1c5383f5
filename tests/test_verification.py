"""The verify suites: their input guards, how a row renders its sides,
and the extension suite's single pass over the permutation levels."""

from collections import Counter
from fractions import Fraction

import pytest

from corners import verification
from corners.errors import DomainError
from corners.families import Family
from corners.tableaux import PermutationTableau
from corners.verification import _row, run_suite, suite_extension


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


@pytest.mark.parametrize("max_size", (1, 6, 11))
def test_suite_extension_enumerates_each_size_once(monkeypatch, max_size):
    calls: Counter = Counter()
    enumerate_tableaux = verification.enumerate_tableaux

    def counting(n, family):
        calls[n, family] += 1
        return enumerate_tableaux(n, family)

    monkeypatch.setattr(verification, "enumerate_tableaux", counting)
    rows = suite_extension(max_size)
    sizes = range(1, min(max_size, 7) + 1)
    assert calls == {(n, Family.PERMUTATION): 1 for n in sizes}
    assert len(rows) == 6 * (len(sizes) - 1) and all(row.ok for row in rows)


def test_extension_partition_misses_an_image_outside_the_level(monkeypatch):
    # swap one image of SSW (rows 1/0) for a same-parent, same-u filling
    # that breaks the rules: its 0 at (2,2) has a 1 above and to its left
    parent = PermutationTableau.from_strings("SSW", ["1", "0"])
    good = PermutationTableau.from_strings("SSWW", ["11", "00"])
    bad = PermutationTableau.from_strings("SSWW", ["01", "10"])
    extend = verification.extend_permutation

    def swapped(t):
        images = extend(t)
        return tuple(bad if c == good else c for c in images) if t == parent else images

    monkeypatch.setattr(verification, "extend_permutation", swapped)
    rows = {row.identity: row for row in suite_extension(4) if row.parameters == "n=4"}
    assert rows["extension-partition"].lhs == "24 images, 23 distinct"
    assert not rows["extension-partition"].ok
    assert rows["extension-multiplicity"].ok and rows["extension-transition-law"].ok
