"""Independent references the tests compare numsemi's fast routes against.

gap_set_bitmask: numsemi reads gap sets off the Apéry set of d_1.  This
route shares nothing with it but numsemi.reachable_mask: mark every
representable integer up to a bound past the Frobenius number and list the
unmarked ones.

diagonal_coefficient_walk: numsemi finds a_jj of a triple on the Klein sail
in O(log d_j) steps.  This route tries v = 2, 3, ... in turn and shares
nothing with it but numsemi.representable_pair.

scan_uniform_bruteforce: numsemi enumerates the (a-1)^3 candidate relation
matrices with diagonal (a, a, a).  This route tries every triple with
d3 <= d3_max and keeps those whose relation matrix has that diagonal.
"""

import math

from numsemi import (
    GapSet,
    UniformDiagonalRecord,
    classify,
    closed_form,
    reachable_mask,
    relation_matrix,
    representable_pair,
    uniform_closed,
    validate_generators,
)
from numsemi.errors import InternalMismatch, ValidationError


def _gap_bound(elems):
    """Sylvester bound d_i*d_j - d_i - d_j from the best coprime pair, else None."""
    best = None
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            a, b = elems[i], elems[j]
            if math.gcd(a, b) == 1:
                f = a * b - a - b
                if best is None or f < best:
                    best = f
    return best


def gap_set_bitmask(g) -> GapSet:
    """Exact gap set of validated generators by reachability DP."""
    elems = g.elements
    bound = _gap_bound(elems)
    if bound is not None:
        mask = reachable_mask(elems, bound) if bound >= 0 else 1
        # one linear pass over a bit string; per-n shifts would be quadratic
        bits = format(mask, "b")[::-1].ljust(bound + 2, "0")
        gaps = [n for n in range(1, bound + 1) if bits[n] == "0"]
        return GapSet(tuple(gaps))
    # No coprime pair: grow until d_1 consecutive representable integers
    # appear; from there on everything is representable (keep adding d_1).
    d1 = elems[0]
    hi = 4 * elems[-1] ** 2
    while True:
        mask = reachable_mask(elems, hi)
        bits = format(mask, "b")[::-1]
        idx = bits.find("1" * d1)
        if idx >= 0:
            gaps = [n for n in range(1, idx) if bits[n] == "0"]
            return GapSet(tuple(gaps))
        hi *= 2


def diagonal_coefficient_walk(g, j: int) -> int:
    """a_jj of a triple: the least v >= 2 with v*d_j in <d_i, d_k> (j 1-based).

    v = d_i/gcd(d_i, d_j) always works, so the walk stops by min of those.
    """
    d = g.elements
    dj = d[j - 1]
    a, b = d[:j - 1] + d[j:]
    cap = min(o // math.gcd(o, dj) for o in (a, b))
    for v in range(2, cap + 1):
        if representable_pair(v * dj, a, b):
            return v
    raise AssertionError(f"no relation found for d_{j} of {g}")


def scan_uniform_bruteforce(a: int, d3_max: int) -> list:
    """scan_uniform by trying all 3 <= d1 < d2 < d3 <= d3_max, with its checks."""
    out = []
    for d3 in range(5, d3_max + 1):
        for d2 in range(3, d3):
            for d1 in range(3, d2):
                try:
                    g = validate_generators((d1, d2, d3))
                except ValidationError:
                    continue
                A = relation_matrix(g)
                if A.diag != (a, a, a):
                    continue
                cls = classify(g, A, cross_check=False)
                if cls.symmetric:
                    raise InternalMismatch(f"uniform diagonal yet symmetric: {g}")
                cf = closed_form(g, A, cls)
                F, G = uniform_closed(a, g.elements)
                if (F, G) != (cf.F, cf.G):
                    raise InternalMismatch(f"uniform closed form disagrees for {g}")
                out.append(UniformDiagonalRecord(g.elements, a, F, G, A))
    return sorted(out, key=lambda r: r.triple)
