"""Independent reference for gap sets: the bitmask reachability DP.

numsemi reads gap sets off the Apéry set of d_1.  The tests compare that
route against this one, which shares nothing with it but
numsemi.reachable_mask: mark every representable integer up to a bound past
the Frobenius number and list the unmarked ones.
"""

import math

from numsemi import GapSet, reachable_mask


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
