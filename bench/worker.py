"""One benchmark process: import numsemi, warm up, then run one workload.

run.py starts this file in a fresh interpreter.  It prints ``ready`` once
numsemi and numsemi.cli are imported and the workload's warm-up has run
(run.py times the start-up up to that line).  Unless ``--setup-only``, it
then runs the workload's largest-memory inputs once (``PEAK_INPUTS``), runs
the timed loop, and prints one JSON line with the figures of the run.

The run is a closed loop with one client: the next operation starts when
the previous one has returned and its output has been checked.  Only the
operations themselves are timed; input generation, checks and the
host-speed probes are not.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import probe
import tracing
import workloads

MIN_OPS = 100      # at least ten latency samples lie beyond p90
SHOWN_FAILURES = 3
PROBE_EVERY_S = 0.25   # busy seconds between two host-speed probes


def percentiles_ms(latencies):
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return statistics.median(latencies) * 1e3, deciles[8] * 1e3


def measure(ops, seconds, tracer=None, min_ops=MIN_OPS):
    """Run operations until ``seconds`` of busy time and ``min_ops`` are done.

    A host-speed probe runs before the first operation and again after every
    ``PROBE_EVERY_S`` of busy time.  Each operation's wall latency is scaled
    to reference seconds by the probes around it (probe.py); the reported
    figures use the scaled latencies, and the wall ones are kept beside
    them.
    """
    wall = array("d")
    probes = [probe.probe()]
    ends = []           # operations done when each probe after the first ran
    failed = 0
    busy = segment = 0.0
    while True:
        kind, args = next(ops)
        if tracer:
            tracer.begin_op(len(wall))
        t0 = time.perf_counter()
        try:
            out = workloads.run(kind, args)
        except Exception as exc:        # a raising operation is a failed one
            out, problem = None, exc
        else:
            problem = None
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        busy += dt
        segment += dt
        wall.append(dt)
        if problem is None:
            try:
                workloads.check(kind, args, out)
            except Exception as exc:    # a malformed output fails its check too
                problem = exc
        if problem is not None:
            failed += 1
            if failed <= SHOWN_FAILURES:
                print(f"failed {kind} {args!r}: {type(problem).__name__}: {problem}",
                      file=sys.stderr)
        done = busy >= seconds and len(wall) >= min_ops
        if done or segment >= PROBE_EVERY_S:
            probes.append(probe.probe())
            ends.append(len(wall))
            segment = 0.0
        if done:
            break
    # before the percentiles sort copies of the latencies
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = probe.scaled(wall, probes, ends)
    p50, p90 = percentiles_ms(scaled)
    wall_p50, wall_p90 = percentiles_ms(wall)
    return {"attempted": len(wall), "failed": failed, "busy_s": busy,
            "ops_per_s": len(wall) / sum(scaled),
            "latency_p50_ms": p50, "latency_p90_ms": p90,
            "wall_ops_per_s": len(wall) / busy,
            "wall_latency_p50_ms": wall_p50, "wall_latency_p90_ms": wall_p90,
            "probe_ms": statistics.median(probes) * 1e3, "probes": len(probes),
            "peak_rss_mb": peak_rss_mb}


def run_checked(ops):
    for kind, args in ops:
        workloads.check(kind, args, workloads.run(kind, args))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.INPUTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    run_checked(workloads.WARM_UP[args.workload])
    print("ready", flush=True)
    if args.setup_only:
        return 0
    run_checked(workloads.PEAK_INPUTS[args.workload])
    tracer = tracing.Tracer().install() if args.trace else None
    result = measure(workloads.operations(args.workload, args.seed), args.seconds, tracer)
    if tracer:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics(result["attempted"])
        out = Path(__file__).resolve().parent.parent / ".bench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans_{args.workload}.csv.gz"
        tracer.write(spans, f"workload={args.workload} seed={args.seed}")
        result["spans_file"] = str(spans.relative_to(out.parent))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
