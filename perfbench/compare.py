"""Compare two benchmark runs: largest matrix difference and per-layer counts.

    python3 perfbench/compare.py A B

A and B are distance CSV files or benchmark run directories holding
``distances.csv`` (as written under ``.perfbench_runs/<workload>/seed<n>-trace<t>/``).
Prints max |D_A - D_B| over the off-diagonal entries, which a solver change
quotes as its agreement with the build before it.  When both are traced run
directories, it also prints whether their per-layer counts are identical,
and exits 1 when they are not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from randers.boundary import load  # noqa: E402
from tracing import COUNTS  # noqa: E402


def _matrix_path(path):
    return os.path.join(path, "distances.csv") if os.path.isdir(path) else path


def _per_layer(path):
    result = os.path.join(path, "result.json")
    if not os.path.isfile(result):
        return None
    with open(result) as fh:
        return json.load(fh).get("per_layer")


def main(argv=None):
    ap = argparse.ArgumentParser(description="compare two benchmark runs")
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    code = None
    pa, pb = _matrix_path(args.a), _matrix_path(args.b)
    if os.path.isfile(pa) and os.path.isfile(pb):
        da, db = load(pa), load(pb)
        if da.n != db.n or not np.array_equal(da.angles, db.angles):
            print("the two matrices use different boundary samples", file=sys.stderr)
            return 2
        off = ~np.eye(da.n, dtype=bool)
        print(f"n={da.n} max|dD|={float(np.abs(da.matrix - db.matrix)[off].max()):.3e}")
        code = 0
    la, lb = _per_layer(args.a), _per_layer(args.b)
    if la is not None and lb is not None:
        differ = [c for c in COUNTS if la[c] != lb[c]]
        print(f"per-layer counts identical: {not differ}"
              + (f" (differ: {', '.join(differ)})" if differ else ""))
        code = 1 if differ else 0
    if code is None:
        print("found neither two distance matrices nor two traced runs", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
