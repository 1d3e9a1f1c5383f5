"""Shared enumeration caches so repeated censuses cost one pass per size,
and the chi-square tail the uniformity tests read."""

from __future__ import annotations

import math
from functools import lru_cache

from corners.enumerator import census, enumerate_tableaux
from corners.families import Family


@lru_cache(maxsize=None)
def cached_census(n: int, family: Family, method: str = "auto"):
    return census(n, family, method=method)


@lru_cache(maxsize=None)
def cached_tableaux(n: int, family: Family):
    return tuple(enumerate_tableaux(n, family))


def assert_rebuilds(t) -> None:
    """``t`` equals, and hashes as, the tableau its class's checking
    constructor builds from its fields, so a tableau built without the
    checks holds what they would have let through."""
    rebuilt = type(t)(*(getattr(t, name) for name in t._fields))
    assert rebuilt == t and hash(rebuilt) == hash(t), t


def chi_square_survival(statistic: float, dof: int) -> float:
    """P(X >= statistic) for a chi-square variable with integer ``dof``.

    With ``h = statistic / 2`` the tail is the Poisson sum
    ``e**-h sum_{i < dof/2} h**i / i!`` for even ``dof``, and
    ``erfc(sqrt(h)) + e**-h sum_{i < dof/2} h**(i + 1/2) / Gamma(i + 3/2)``
    for odd ``dof``; each term is formed in log space.
    """
    if dof < 1:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    h = statistic / 2.0
    if h == 0:
        return 1.0
    odd = dof % 2
    head = math.erfc(math.sqrt(h)) if odd else 0.0
    terms = (i + 0.5 * odd for i in range(dof // 2))
    return head + sum(math.exp(a * math.log(h) - h - math.lgamma(a + 1)) for a in terms)
