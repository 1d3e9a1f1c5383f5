"""Shared enumeration caches so repeated censuses cost one pass per size."""

from __future__ import annotations

from functools import lru_cache

from corners.enumerator import census, enumerate_tableaux
from corners.families import Family


@lru_cache(maxsize=None)
def cached_census(n: int, family: Family, method: str = "auto"):
    return census(n, family, method=method)


@lru_cache(maxsize=None)
def cached_tableaux(n: int, family: Family):
    return tuple(enumerate_tableaux(n, family))
