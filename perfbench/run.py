"""Travel-time benchmark: the command that runs one workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each workload runs in fresh single-threaded
worker processes (``worker.py``) with BLAS threads pinned to 1.  Set-up is
timed from process start to the worker's ``READY`` line, in SETUP_SAMPLES
processes, and reported as the median (a traced run starts one process).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
Everything else, with versions, thread settings and the seed, goes to the
lines before it and to ``.perfbench_runs/<workload>/seed<n>-trace<t>/result.json``,
next to the saved distance matrix that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wind_cli_n32", "bump_n96", "inverse_n256")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """A worker failed or ran out of time; no result is printed."""


def _worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_worker(args, mode, out, deadline, procs):
    """Start one worker; return (process, seconds from start to READY)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--out", out]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)
    procs.append(proc)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(timeout=left):
                raise BenchError(f"{mode} worker did not finish set-up in time")
            line = proc.stdout.readline()
            if line.strip() == "READY":
                return proc, time.perf_counter() - t0
            if not line:
                raise BenchError(f"{mode} worker exited during set-up "
                                 f"(code {proc.wait()})")


def _finish(proc, deadline):
    try:
        proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def _run(args):
    deadline = time.monotonic() + DEADLINE_S
    out = os.path.join(ROOT, ".perfbench_runs", args.workload,
                       f"seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    setups = []
    procs = []
    try:
        for k in range(0 if args.trace else SETUP_SAMPLES - 1):
            probe_out = os.path.join(out, f"probe{k}")
            proc, setup_s = _start_worker(args, "probe", probe_out, deadline, procs)
            _finish(proc, deadline)
            setups.append(setup_s)
            shutil.rmtree(probe_out, ignore_errors=True)
        proc, setup_s = _start_worker(args, "run", out, deadline, procs)
        _finish(proc, deadline)
        setups.append(setup_s)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    with open(os.path.join(out, "worker.json")) as fh:
        res = json.load(fh)
    res["setup_samples_s"] = setups
    res["nproc"] = os.cpu_count()
    res["threads"] = {"distance_matrix": 1, **{v: "1" for v in THREAD_VARS}}
    return out, res


def _report(args, out, res):
    v = res["versions"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={v['python']} numpy={v['numpy']} scipy={v['scipy']} "
          f"nproc={res['nproc']} threads=1 (distance_matrix and BLAS)")
    times = res["op_times_s"]
    setups = res["setup_samples_s"]
    attempted, failed = res["attempted"], res["failed"]
    if times:
        print(f"{res['op_metric']} (op_s): median {statistics.median(times):.4f} s, "
              f"max {max(times):.4f} s over {len(times)} untraced operations")
    print(f"setup_s: median {statistics.median(setups):.4f} s, "
          f"max {max(setups):.4f} s over {len(setups)} processes")
    print(f"fail_share: {failed}/{attempted} operations failed = {failed / attempted:.3g} "
          f"(base: checked entries and recovered values)")
    print(f"peak_rss_mb: {res['peak_rss_mb']:.1f} MB")
    if res["matrix_path"]:
        print(f"matrix: {os.path.relpath(res['matrix_path'], ROOT)}")
    correct = failed == 0
    if args.trace:
        traced = res["traced_op_times_s"]
        if traced:
            print(f"traced {res['op_metric']}: median {statistics.median(traced):.4f} s, "
                  f"range {max(traced) - min(traced):.4f} s over {len(traced)} operations; "
                  f"spans in {os.path.relpath(res['spans'], ROOT)}")
        overhead = res["per_layer"]["trace.overhead_s"]
        print(f"trace.overhead_s: {overhead:.4f} s, "
              + ("resolved" if res["overhead_resolved"] else
                 "unresolved (not larger than the range of the traced times)"))
        repeat = res["counts_repeat"]
        print("per-layer counts repeat across traced operations: "
              + ("not checked (fewer than two traced operations)" if repeat is None
                 else str(repeat)))
        correct = correct and repeat is not False
        metrics = {k: {"value": val, "unit": _unit(k)} for k, val in res["per_layer"].items()}
    else:
        metrics = {
            "op_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_share": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    res["metrics"] = metrics
    res["correct"] = correct
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _unit(name):
    if name.endswith("rows_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_share", "_per_exit", "_per_bracket")):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "randers", "__init__.py")):
        print(f"perfbench: no randers sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        out, res = _run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _report(args, out, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
