"""One workload process: set up, then (in run mode) time operations and check them.

Started by ``run.py``; not meant to be run by hand.  Prints ``READY`` on
standard output once set-up is done, so the parent can time set-up from
process start, and writes its result to ``<out>/worker.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRACE_BUDGET_S = 150.0    # a traced run starts no operation it cannot end by then


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mode", choices=("probe", "run"), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.out)
    tracer = tracing.Tracer()
    instr = tracing.Instrumentation(tracer)
    traced_setup = args.trace and args.mode == "run"
    if traced_setup:
        instr.install()
    wl.setup()
    if traced_setup:
        instr.uninstall()
    print("READY", flush=True)
    if args.mode == "probe":
        return 0

    # The number of operations is fixed by --seconds and the workload's
    # nominal operation time, so that it does not depend on the machine's
    # speed of the moment.  A traced run alternates traced and untraced
    # operations, starting and ending with a traced one (T U T ...): the two
    # kinds see the same drift, and the counts of two traced operations can
    # be compared.
    ops = max(1, round(args.seconds / wl.nominal_op_s))
    if args.trace:
        ops = max(3, ops | 1)
    times = {False: [], True: []}     # keyed by "traced"
    traced_ops = []
    attempted = failed = 0
    start = time.perf_counter()
    for k in range(ops):
        traced = bool(args.trace) and k % 2 == 0
        if args.trace and k > 0 and (time.perf_counter() - start
                                     + statistics.median(times[False] + times[True])
                                     > TRACE_BUDGET_S):
            print(f"trace: stopped after {k} operations to stay within "
                  f"{TRACE_BUDGET_S:.0f} s", file=sys.stderr)
            break
        if traced:
            tracer.op = f"op{k}"
            instr.install(specs=[wl.spec] if hasattr(wl, "spec") else [])
        t0 = time.perf_counter()
        try:
            try:
                out = wl.op()
            finally:
                times[traced].append(time.perf_counter() - t0)
                if traced:
                    instr.uninstall()
            if k == 0 and hasattr(wl, "save"):
                wl.save(out)
            a, f = wl.check(out)
        except Exception:   # a raise fails every entry of its operation
            traceback.print_exc(file=sys.stderr)
            attempted += wl.ops_if_raised
            failed += wl.ops_if_raised
            break
        if traced:
            traced_ops.append(tracer.op)
        attempted += a
        failed += f

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "op_metric": wl.op_metric,
        "op_times_s": times[False], "traced_op_times_s": times[True],
        "attempted": attempted, "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "matrix_path": wl.matrix_path,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        metrics, repeat, resolved = tracing.run_metrics(tracer, traced_ops, times[True],
                                                        times[False])
        result["per_layer"] = metrics
        result["counts_repeat"] = repeat
        result["overhead_resolved"] = resolved
        result["spans"] = os.path.join(args.out, "spans.csv")
        tracer.write_csv(result["spans"])
    with open(os.path.join(args.out, "worker.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
