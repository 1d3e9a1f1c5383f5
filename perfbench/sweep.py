"""Library op of the chain-sample workload: the DP corner law against the
closed-form law for all four families at every size 2..TOP, ascending.

Usage: ``PYTHONPATH=src python3 perfbench/sweep.py TOP``

The ascending order makes the chain tables grow on demand, so they are
rebuilt at each cap doubling on the way to TOP.  Each law must also sum to
the expected corner count written in ``closed_forms``, not the package's.
Prints ``{"positions": P, "sha256": D}``, where D digests every law.
"""

from __future__ import annotations

import hashlib
import json
import sys

from corners.chain import corner_distribution
from corners.families import Family

from closed_forms import FAMILIES, expected_corners


def main(top: int) -> int:
    digest = hashlib.sha256()
    positions = 0
    for n in range(2, top + 1):
        for name in FAMILIES:
            family = Family(name)
            law = corner_distribution(n, family, method="dp")
            if law != corner_distribution(n, family, method="formula"):
                print(f"DP law differs from the closed form: {name} n={n}", file=sys.stderr)
                return 1
            if sum(law.values()) != expected_corners(name, n):
                print(f"law does not sum to the expected corner count: {name} n={n}", file=sys.stderr)
                return 1
            positions += len(law)
            for k, p in law.items():
                digest.update(f"{name} {n} {k} {p.numerator}/{p.denominator}\n".encode())
    print(json.dumps({"positions": positions, "sha256": digest.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
