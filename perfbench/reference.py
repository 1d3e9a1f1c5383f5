"""The reference op: a fixed pure-Python job that the benchmark times
next to every untraced op, to measure how fast the host runs right now.

It imports nothing from ``src/``, so no change to the package moves it.
Like the package's ops it is a fresh interpreter that builds and sorts
many small tuples and tallies them in a dict.  It prints one line that
``run.py`` checks.
"""

import collections
import itertools


def main() -> None:
    kept = []
    tally = collections.Counter()
    for p in itertools.permutations(range(8)):
        descents = sum(a > b for a, b in zip(p, p[1:]))
        top, records = -1, 0
        for x in p:
            if x > top:
                top, records = x, records + 1
        kept.append((descents, records, p))
        tally[descents, records] += 1
    kept.sort()
    print(len(kept), len(tally), kept[len(kept) // 2][:2])


if __name__ == "__main__":
    main()
