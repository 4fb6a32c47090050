"""Host-speed probe: a fixed pure-Python computation timed between operations.

The benchmark shares a few cores of a host whose speed drifts by up to a
factor of two over minutes, and the drift shows in CPU time as much as in
wall time.  A probe timed next to the work measures that drift, and
``scaled()`` turns wall-clock times measured between probes into reference
seconds: the time they would take at the speed at which the probe takes
``REF_S``.

The probe touches no numsemi code, so a change to numsemi moves the scaled
times exactly as it moves wall times.  It mixes the three kinds of work the
workloads do: interpreted integer arithmetic, dict stores and shifts of
integers of tens of thousands of bits.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter

REF_S = 0.0076     # the probe's time on a 2-vCPU Xeon KVM guest at its usual speed
REPEATS = 3        # a probe is the fastest of three, which drops a preempted one
WINDOW = 3         # probes on each side of the times they scale
MASK = (1 << 60_000) - 1


def _kernel():
    s, d, m = 0, {}, 1
    for i in range(45_000):
        s += i * i % 7
        d[i & 1023] = s
    for _ in range(900):
        m |= (m << 13) & MASK
    return s + m.bit_length()


def probe():
    """Seconds the kernel takes now, the fastest of ``REPEATS`` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def scaled(times, probes, ends):
    """Wall times scaled to reference seconds.

    ``probes[0]`` ran before the first time and ``probes[k + 1]`` after
    ``times[:ends[k]]``.  The times between two probes are scaled by the
    median of the ``WINDOW`` probes on each side of them, which smooths out
    the probe's own noise but still follows drifts of a second or more.
    """
    out = array("d")
    start = 0
    for k, end in enumerate(ends):
        near = probes[max(0, k + 1 - WINDOW):k + 1 + WINDOW]
        factor = REF_S / statistics.median(near)
        out.extend(t * factor for t in times[start:end])
        start = end
    return out
