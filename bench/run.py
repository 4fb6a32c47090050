"""numsemi benchmark: run one workload for one seed and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads are ``sweep``, ``point``, ``enumerate`` and ``scan`` (see
workloads.py and RATIONALE.md); ``all`` runs the four in turn and prints a
table.  Each measured run is a fresh single-threaded interpreter
(worker.py) importing numsemi from ``src/``.

``--trace 0`` reports the end-to-end metrics: setup_s is the median over
SETUP_RUNS fresh interpreters of the time to import numsemi and numsemi.cli
and finish the warm-up; the others come from the measured run.  Times are
in reference seconds, because the host's speed drifts between runs: each
operation's wall time is scaled by a host-speed probe run next to it
(probe.py), and each set-up time by the start of a bare interpreter run
just before it (BARE_START_REF_S).  The wall figures are printed on a ``#``
line before the result.  ``--trace 1`` runs the workload once untraced and
once traced and reports the per-layer metrics, including the tracing
overhead and the untraced run's wall figures.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import probe

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep", "point", "enumerate", "scan")
SETUP_RUNS = 10         # set-up-only interpreters whose median is setup_s
TIMEOUT_S = 150         # per interpreter; a run must end within 180 s
# The start of an interpreter that imports nothing, on a 2-vCPU Xeon KVM guest
# at its usual speed.  Set-up times are scaled by it, because set-up drifts
# with the host the way a bare start does, not the way the in-process probe
# of probe.py does.
BARE_START_REF_S = 0.060
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def environment():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def bare_start():
    """Seconds for a fresh interpreter that imports nothing to start and exit."""
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child at intervals of up to
    # 50 ms, and the poll, not the start-up, would set the time
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=environment(),
                   check=True)
    return time.perf_counter() - t0


def start(workload, seed, seconds, trace=0, setup_only=False):
    """Run worker.py once; return (seconds until ready, its result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=environment(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker for {workload} exited with code {code}")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def end_to_end(workload, seed, seconds):
    setups, wall_setups = [], []
    for _ in range(SETUP_RUNS):
        bare = bare_start()
        setup = start(workload, seed, seconds, setup_only=True)[0]
        wall_setups.append(setup)
        setups.append(setup * BARE_START_REF_S / bare)
    res = start(workload, seed, seconds)[1]
    values = {"setup_s": statistics.median(setups), "ops_per_s": res["ops_per_s"],
              "latency_p50_ms": res["latency_p50_ms"],
              "latency_p90_ms": res["latency_p90_ms"], "peak_rss_mb": res["peak_rss_mb"]}
    print(f"# {workload} seed={seed}: {res['attempted']} ops in {res['busy_s']:.2f} s "
          f"busy; latency samples = {res['attempted']}; setup_s is the median of "
          f"{len(setups)} interpreters; times are in reference seconds (probe.py)")
    print(f"# wall clock: ops_per_s = {res['wall_ops_per_s']:.6g}, latency_p50_ms = "
          f"{res['wall_latency_p50_ms']:.6g}, latency_p90_ms = "
          f"{res['wall_latency_p90_ms']:.6g}, setup_s = {statistics.median(wall_setups):.6g}"
          f"; probe median {res['probe_ms']:.4g} ms (reference {probe.REF_S * 1e3:g} ms)")
    return res, {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def per_layer(workload, seed, seconds):
    _, plain = start(workload, seed, seconds)
    _, traced = start(workload, seed, seconds, trace=1)
    metrics = traced["per_layer"]
    metrics["trace.overhead_ratio"] = {
        "value": plain["ops_per_s"] / traced["ops_per_s"], "unit": "ratio"}
    metrics["wall.ops_per_s"] = {"value": plain["wall_ops_per_s"], "unit": "1/s"}
    metrics["wall.latency_p50_ms"] = {"value": plain["wall_latency_p50_ms"], "unit": "ms"}
    metrics["host.probe_ms"] = {"value": plain["probe_ms"], "unit": "ms"}
    res = {"attempted": plain["attempted"] + traced["attempted"],
           "failed": plain["failed"] + traced["failed"]}
    print(f"# {workload} seed={seed}: {traced['attempted']} traced ops, spans in "
          f"{traced['spans_file']}; untraced run {plain['attempted']} ops")
    return res, metrics


def report(res, metrics):
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description="numsemi benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "numsemi" / "__init__.py").is_file():
        print(f"error: no numsemi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        if args.workload != "all":
            print(json.dumps(report(*measure(args.workload, args.seed, args.seconds))))
            return 0
        table = {}
        for workload in WORKLOADS:
            res, metrics = measure(workload, args.seed, args.seconds)
            table[workload] = report(res, metrics)
            print(f"{workload:<10} fail_ratio = {res['failed'] / res['attempted']} "
                  f"({res['failed']}/{res['attempted']})")
            for name, m in metrics.items():
                print(f"{workload:<10} {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(table))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
