"""The four benchmark workloads: seeded inputs, the timed call and its check.

Each workload is an endless stream of operations made from a seed.  An
operation is a ``(kind, args)`` pair; ``run(kind, args)`` is the timed call
into numsemi and ``check(kind, args, output)`` verifies the output by a route
that does not share the timed one, raising ``CheckFailed`` on a wrong answer.

Input sizes are drawn stratified: each block of ``STRATA`` draws takes one
value from each of ``STRATA`` equal slices of the range, in a seeded order.
Every seed therefore covers the whole range in the same proportions, which
keeps the latency percentiles of two seeds comparable.  ``scan``, whose
range is a small grid, runs the whole grid in each block instead.

numsemi is always reached through module attributes (``ns.gap_set``,
``numsemi.cli.main``) at call time, so the traced run's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from heapq import heappop, heappush

import numsemi as ns
import numsemi.cli

STRATA = 8
NU = Fraction(5, 8)
# the two falsifying triples of the paper and their Frobenius numbers
PAPER_TRIPLES = {(10001, 10003, 20003): 50014999,
                 (100001, 100003, 200003): 5000149999}


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


# --- independent oracle ------------------------------------------------------

def apery(gens):
    """Apery set of gens[0]: least semigroup element in each residue class.

    Dijkstra over the residues mod d1.  It shares no code with numsemi, so
    it is the benchmark's own route to F, G and the gap list.
    """
    d1 = gens[0]
    w = [None] * d1
    w[0] = 0
    heap = [(0, 0)]
    while heap:
        cost, r = heappop(heap)
        if cost != w[r]:
            continue
        for g in gens[1:]:
            c = cost + g
            s = c % d1
            if w[s] is None or c < w[s]:
                w[s] = c
                heappush(heap, (c, s))
    return w


def frobenius_genus(gens):
    w = apery(gens)
    return max(w) - gens[0], sum(x // gens[0] for x in w)


def gap_list(gens):
    d1 = gens[0]
    return sorted(x for r, wr in enumerate(apery(gens)) for x in range(r, wr, d1))


# --- seeded inputs -----------------------------------------------------------

def stratified(rng, lo, hi, log=False):
    """Endless integers in [lo, hi], one per slice in each block of STRATA."""
    a, b = (math.log(lo), math.log(hi + 1)) if log else (lo, hi + 1)
    while True:
        order = list(range(STRATA))
        rng.shuffle(order)
        for s in order:
            x = a + (b - a) * (s + rng.random()) / STRATA
            yield min(hi, max(lo, int(math.exp(x) if log else x)))


def is_minimal_triple(d):
    """gcd 1 and no element a non-negative combination of the other two."""
    if math.gcd(*d) != 1:
        return False
    for i, x in enumerate(d):
        a, b = (y for j, y in enumerate(d) if j != i)
        if any((x - k * a) % b == 0 for k in range(x // a + 1)):
            return False
    return True


def above_d1(rng, d1, m, symmetric_ok=True):
    """A valid m-tuple with least element d1 and the rest in (d1, 2*d1).

    Elements below 2*d1 cannot be sums of two others, so gcd 1 is the only
    condition for minimality.
    """
    while True:
        d = (d1,) + tuple(sorted(rng.sample(range(d1 + 1, 2 * d1), m - 1)))
        if math.gcd(*d) != 1:
            continue
        if not symmetric_ok:
            F, G = frobenius_genus(d)
            if 2 * G == F + 1:
                continue
        return d


def sweep_inputs(rng):
    """Distinct valid triples with d3 in [60, 300]; one in eight deep-checked."""
    # a fixed-size bitmap rather than a set, so the benchmark's own memory
    # does not grow with the number of operations a run completes
    seen = bytearray(301 ** 3 // 8 + 1)
    for d3 in stratified(rng, 60, 300):
        while True:
            d1, d2 = sorted(rng.sample(range(3, d3), 2))
            key = (d3 * 301 + d2) * 301 + d1
            if not seen[key >> 3] >> (key & 7) & 1 and is_minimal_triple((d1, d2, d3)):
                break
        seen[key >> 3] |= 1 << (key & 7)
        yield "sweep", ((d1, d2, d3), rng.random() < 1 / 8)


def point_inputs(rng):
    family = stratified(rng, 1200, 50_000, log=True)
    member = stratified(rng, 1200, 1_000_000, log=True)
    rel = stratified(rng, 3000, 100_000)
    paper = list(PAPER_TRIPLES)
    for r in itertools.count():
        for cmd in ("frob", "bounds", "frob", "bounds"):
            l = next(family)
            yield cmd, (l, [cmd, *map(str, (2 * l + 1, 2 * l + 3, 4 * l + 3))])
        l = next(member)
        yield "falsify_l", (l, ["falsify", "--nu", "5/8", "--l", str(l)])
        d = above_d1(rng, next(rel), 3)
        yield "relation", (d, ["relation", *map(str, d)])
        # The two paper triples are fixed inputs.  Kept to one query in four
        # rounds, their latencies stay off the p50 and p90 of the mix, which
        # then fall in the continuous family range.
        if r % 4 == 0:
            triple = paper[r // 4 % 2]
            yield "falsify_triple", (triple, ["falsify", "--nu", "5/8", "--triple",
                                              *map(str, triple)])


ENUMERATE_RANGES = {           # kind: (m, d1 range)
    "gap_set": (3, (100, 700)),
    "hilbert3": (3, (100, 700)),
    "genera": (3, (100, 700)),
    "hilbert4": (4, (50, 400)),
    "sparsity4": (4, (50, 400)),
    "hilbert5": (5, (30, 200)),
    "sparsity5": (5, (30, 200)),
    "delta3": (3, (40, 150)),
    "lambda_svg": (3, (100, 400)),
}


def enumerate_inputs(rng):
    sizes = {k: stratified(rng, *r) for k, (_, r) in ENUMERATE_RANGES.items()}
    while True:
        for kind, (m, _) in ENUMERATE_RANGES.items():
            # m = 3 checks use the non-symmetric closed forms (g_1, Lambda)
            d = above_d1(rng, next(sizes[kind]), m, symmetric_ok=m != 3)
            yield kind, (d, rng.random() < 1 / 4)


def scan_inputs(rng):
    """Each (a, d3_max) of the range once per block of 96, in a seeded order.

    A run holds only about 200 scans and their cost grows steeply with
    d3_max, so a whole grid per block keeps the latency percentiles of two
    seeds comparable where independent draws would not.
    """
    grid = [(a, d3_max) for a in range(3, 9) for d3_max in range(25, 41)]
    while True:
        rng.shuffle(grid)
        for a, d3_max in grid:
            yield "scan", (a, d3_max)


# --- timed calls -------------------------------------------------------------

def cli(argv):
    """One CLI query in-process; the console script is not on PATH in a checkout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = numsemi.cli.main(argv + ["--json"])
    return code, out.getvalue()


def sweep_op(d):
    g = ns.validate_generators(d)
    cf = ns.frobenius3(g)
    report = ns.lower_bounds(g, cf.F, cf.G, cf.symmetric)
    return g, cf, report, ns.conjecture_bound_check(g, cf.F, 1, NU)


def run(kind, args):
    if kind == "sweep":
        return sweep_op(args[0])
    if kind in ("frob", "bounds", "falsify_triple", "falsify_l", "relation"):
        return cli(args[1])
    if kind == "scan":
        return ns.scan_uniform(*args)
    g = ns.validate_generators(args[0])
    if kind == "gap_set":
        return ns.gap_set(g)
    if kind.startswith("hilbert"):
        return ns.hilbert_numerator(g)
    if kind == "genera":
        return ns.genera(g, 3)
    if kind.startswith("sparsity"):
        return ns.sparsity_check(g)
    if kind == "delta3":
        return ns.delta3_via_diagram(g)
    if kind == "lambda_svg":
        return ns.render_diagram(ns.lambda_set(g), "svg")
    raise ValueError(f"unknown operation kind {kind!r}")


# --- checks ------------------------------------------------------------------

def closed_q(g):
    """frobenius3(g).Q without classify's own oracle cross-check."""
    A = ns.relation_matrix(g)
    cls = ns.classify(g, A, cross_check=False)
    closed = ns.symmetric_closed if cls.symmetric else ns.closed_form
    return closed(g, A, cls).Q


def check_sweep(args, out):
    d, deep = args
    g, cf, report, power = out
    expect(g.elements == d, f"validated {g.elements} != {d}")
    expect(report.all_hold, f"lower bounds fail for {d}")
    if deep:
        gs = ns.gap_set(g)
        expect((gs.frobenius, gs.genus) == (cf.F, cf.G),
               f"(F, G) = {(cf.F, cf.G)}, oracle {(gs.frobenius, gs.genus)} for {d}")
    holds = (cf.F + sum(d)) ** NU.denominator <= math.prod(d) ** NU.numerator
    expect(power.holds == holds, f"power bound verdict wrong for {d}")


def family_F(l):
    return 2 * l * l + 3 * l - 1


def check_cli(kind, args, out):
    code, text = out
    expect(code == 0, f"{args[1]} exited {code}")
    env = json.loads(text)
    expect(env["schema_version"] == "1", f"schema_version {env['schema_version']!r}")
    res = env["result"]
    if kind in ("frob", "bounds", "falsify_l"):
        l = args[0]
        expect(res["F"] == str(family_F(l)), f"F = {res['F']} for family l = {l}")
    if kind == "bounds":
        expect(res["all_hold"] is True, f"bounds fail for family l = {args[0]}")
    if kind == "falsify_l":
        expect(res["triple"] == [str(x) for x in (2 * args[0] + 1, 2 * args[0] + 3,
                                                 4 * args[0] + 3)], "wrong family triple")
    if kind == "falsify_triple":
        expect(res["F"] == str(PAPER_TRIPLES[args[0]]), f"F = {res['F']} for {args[0]}")
        expect(res["violated"] is True, f"{args[0]} should violate nu = 5/8")
    if kind == "relation":
        d = args[0]
        rows = [[int(x) for x in r] for r in res["rows"]]
        for j, row in enumerate(rows):
            expect(row[j] >= 2 and all(x <= 0 for i, x in enumerate(row) if i != j),
                   f"row {j + 1} of {d} has the wrong signs")
            expect(sum(x * di for x, di in zip(row, d)) == 0,
                   f"row {j + 1} identity fails for {d}")


def check_enumerate(kind, args, out):
    d, deep = args
    g = ns.validate_generators(d)
    if kind == "gap_set":
        expect(list(out.gaps) == gap_list(d), f"gap list of {d} differs")
    elif kind == "hilbert3":
        expect(out == closed_q(g), f"Q of {d} differs from the closed form")
    elif kind == "genera":
        expect(len(out) == 4, f"genera returned {len(out)} values")
        expect(out[0] == frobenius_genus(d)[1], f"g_0 of {d} != genus")
        expect(out[1] == ns.genus1_closed_3d(g), f"g_1 of {d} != closed form")
    elif kind in ("hilbert4", "hilbert5"):
        expect(out.eval_at(1) == 0, f"Q(1) != 0 for {d}")
        expect(out.degree == frobenius_genus(d)[0] + sum(d), f"deg Q != F + sum d for {d}")
    elif kind in ("sparsity4", "sparsity5"):
        expect((out.m, out.d1) == (len(d), d[0]), f"sparsity report for the wrong {d}")
        expect(out.holds and out.count <= out.bound, f"sparsity bound fails for {d}")
    elif kind == "delta3":
        expect((out.frobenius, out.genus) == frobenius_genus(d), f"(F, G) of {d} differ")
        if deep:
            expect(out.gaps == ns.gap_set(g).gaps, f"carved gaps of {d} differ")
    elif kind == "lambda_svg":
        root = ET.fromstring(out)
        expect(root.tag.endswith("svg"), "root element is not <svg>")
        cells = [e for e in root.iter() if e.tag.endswith("rect")]
        expect(len(cells) == d[0], f"{len(cells)} cells, want d1 = {d[0]}")


def check_scan(args, out):
    a, d3_max = args
    expect([r.triple for r in out] == sorted(r.triple for r in out), "hits not sorted")
    for r in out:
        expect(r.matrix.diag == (a, a, a), f"{r.triple} has diagonal {r.matrix.diag}")
        expect(r.triple[2] <= d3_max, f"{r.triple} exceeds d3_max = {d3_max}")
        gs = ns.gap_set(ns.validate_generators(r.triple))
        expect((r.F, r.G) == (gs.frobenius, gs.genus), f"(F, G) of {r.triple} differ")


def check(kind, args, out):
    if kind == "sweep":
        check_sweep(args, out)
    elif kind == "scan":
        check_scan(args, out)
    elif kind in ENUMERATE_RANGES:
        check_enumerate(kind, args, out)
    else:
        check_cli(kind, args, out)


# --- the workloads -----------------------------------------------------------

INPUTS = {"sweep": sweep_inputs, "point": point_inputs,
          "enumerate": enumerate_inputs, "scan": scan_inputs}

# small fixed inputs that touch every code path before timing starts
WARM_UP = {
    "sweep": [("sweep", ((23, 29, 44), True)), ("sweep", ((4, 5, 6), True))],
    "point": [("frob", (10, ["frob", "21", "23", "43"])),
              ("bounds", (10, ["bounds", "21", "23", "43"])),
              ("falsify_l", (10, ["falsify", "--nu", "5/8", "--l", "10"])),
              ("relation", ((5, 7, 8), ["relation", "5", "7", "8"]))],
    "enumerate": [(kind, ({3: (23, 29, 44), 4: (23, 29, 31, 37),
                           5: (23, 29, 31, 37, 41)}[m], True))
                  for kind, (m, _) in ENUMERATE_RANGES.items()],
    "scan": [("scan", (3, 12))],
}


# Run once before timing, in the measured process only.  Peak RSS is set by
# the largest gap set a run meets, and arithmetic-progression triples are
# rare draws with gap sets many times the typical size.  Running the range's
# largest one up front makes peak_rss_mb the memory the range needs, whether
# or not a seed happens to draw such a triple.  (298, 299, 300) has the
# largest genus of any valid triple with d3 <= 300; (699, 1048, 1397) has the
# largest genus of the non-symmetric m = 3 progressions in the enumerate range.
PEAK_INPUTS = {
    "sweep": [("sweep", ((298, 299, 300), True))],
    "point": [],
    "enumerate": [(kind, ((699, 1048, 1397), True))
                  for kind in ("gap_set", "hilbert3", "genera")],
    "scan": [],
}


def operations(workload, seed):
    return INPUTS[workload](random.Random(f"{workload}:{seed}"))
