"""Self-tests of the benchmark: its checks pass right answers and catch wrong ones.

From the root of a checkout:

    python3 bench/selftest.py

Runs a few operations of every workload in-process, injects wrong answers
through the same module attributes the benchmark calls, checks that the
traced run nests spans as designed, and runs run.py once end to end.
Exits non-zero if any test fails.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numsemi  # noqa: E402
import numsemi.core  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL = {"sweep": 40, "point": 32, "enumerate": 18, "scan": 4}


def small_run(workload, seed=7, tracer=None):
    ops = workloads.operations(workload, seed)
    return worker.measure(ops, 0, tracer=tracer, min_ops=SMALL[workload])


@contextlib.contextmanager
def injected(original, wrong):
    """Every numsemi reference to ``original`` calls ``wrong`` inside the block."""
    undo = tracing.replace_everywhere(original, wrong)
    try:
        yield
    finally:
        for mod, key, value in undo:
            setattr(mod, key, value)


def test_small_runs_pass():
    for workload in SMALL:
        res = small_run(workload)
        assert res["failed"] == 0, (workload, res)
        assert res["attempted"] == SMALL[workload], (workload, res)


def test_wrong_frobenius_fails_sweep_and_point():
    frob = numsemi.frobenius3

    def off_by_one(g, A=None):
        cf = frob(g, A)
        return replace(cf, F=cf.F + 1)

    with injected(frob, off_by_one):
        for workload in ("sweep", "point"):
            res = small_run(workload)
            assert res["failed"] > 0, (workload, res)
    # only the frob, bounds and paper-triple queries go through frobenius3
    with injected(frob, off_by_one):
        ops = workloads.operations("point", 7)
        for _ in range(12):
            kind, args = next(ops)
            out = workloads.run(kind, args)
            try:
                workloads.check(kind, args, out)
            except workloads.CheckFailed:
                assert kind in ("frob", "bounds", "falsify_triple"), kind
            else:
                assert kind in ("falsify_l", "relation"), kind


def test_wrong_gaps_fail_enumerate():
    gap_set = numsemi.core.gap_set

    def one_gap_short(g):
        gs = gap_set(g)
        return replace(gs, gaps=gs.gaps[:-1])

    with injected(gap_set, one_gap_short):
        res = small_run("enumerate")
    # gap_set, hilbert (deg Q), genera (g_0) and the deep delta3 check all see it
    assert res["failed"] >= 4, res


def test_wrong_scan_hit_fails_scan():
    scan = numsemi.scan_uniform
    with_hits = []

    def shifted(a, d3_max, threads=1):
        records = scan(a, d3_max, threads)
        with_hits.append(bool(records))
        return [replace(r, G=r.G + 1) for r in records]

    with injected(scan, shifted):
        res = small_run("scan")
    assert res["failed"] == sum(with_hits) > 0, (res, with_hits)


def test_raising_operation_counts_as_failed():
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    with injected(numsemi.lower_bounds, broken):
        res = small_run("sweep")
    assert res["failed"] == res["attempted"], res


def test_probe_scales_to_reference_seconds():
    ref = probe.REF_S
    assert list(probe.scaled([1.0, 2.0], [ref, ref], [2])) == [1.0, 2.0]
    # a host at half speed runs the probe in twice the time; the median of
    # the probes near a segment sets its scale, so one outlier does not
    probes = [2 * ref, 2 * ref, 2 * ref, 50 * ref, 2 * ref, 2 * ref]
    assert list(probe.scaled([1.0] * 5, probes, [1, 2, 3, 4, 5])) == [0.5] * 5
    assert probe.probe() > 0
    res = small_run("sweep")
    assert res["probes"] >= 2, res
    # scaling moves a run's figures by the host's speed, not by orders of magnitude
    assert 0.1 < res["ops_per_s"] / res["wall_ops_per_s"] < 10, res


def test_trace_nests_spans():
    tracer = tracing.Tracer().install()
    try:
        res = small_run("sweep", tracer=tracer)
    finally:
        tracer.uninstall()
    m = tracer.metrics(res["attempted"])
    assert m["relation.classify.cross_check_ratio"]["value"] == 1.0, m
    assert m["core.gap_set.calls"]["value"] == 1.0, m
    self_s = {k: v["value"] for k, v in m.items() if k.endswith(".self_s")}
    assert all(v >= 0 for v in self_s.values()), self_s
    assert numsemi.relation.gap_set is numsemi.core.gap_set  # uninstalled

    tracer = tracing.Tracer().install()
    try:
        res = small_run("point", tracer=tracer)
    finally:
        tracer.uninstall()
    m = tracer.metrics(res["attempted"])
    assert m["core.gap_set.calls"]["value"] == 0, m
    assert m["cli.main.calls"]["value"] == 1.0, m


def test_run_py_end_to_end():
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "sweep",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in spec["end_to_end"]}, result
    assert all(m["value"] > 0 for m in result["metrics"].values()), result


def main():
    if not __debug__:
        print("the self-tests use assert; run them without -O")
        return 2
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except Exception as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
