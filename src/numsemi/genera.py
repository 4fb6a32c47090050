"""Higher genera g_n = sum of n-th powers of the gaps.

Closed forms exist for two coprime generators (g_1, g_2, g_3) and for the
first genus of a non-symmetric triple.  genera reads every g_n off the Apéry
set of d_1 and checks it against those closed forms; no gap is listed.
"""

from __future__ import annotations

from operator import add, mul

from .core import Generators, apery_set, sylvester_closed
from .errors import InternalMismatch, InvalidInput, NonIntegerResult, SymmetricInput
from .relation import relation_matrix


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise NonIntegerResult(f"{what} = {num}/{den} is not an integer")
    return q


def genera2_closed(d1: int, d2: int):
    """(g_1, g_2, g_3) for two coprime generators, exact."""
    F, G, _, _ = sylvester_closed(d1, d2)
    a, b = d1, d2
    g3 = G * ((1 + a * b) * (1 + a * a + b * b + 6 * a * a * b * b)
              + (a + b) * (1 + a * a + b * b - 9 * a * a * b * b))
    return (_exact_div(G * (2 * a * b - a - b - 1), 6, "g_1"),
            _exact_div(a * b * G * F, 6, "g_2"), _exact_div(g3, 60, "g_3"))


def genus1_closed_3d(g: Generators) -> int:
    """g_1 for a non-symmetric triple, straight from the relation matrix."""
    A = relation_matrix(g)
    if A.collision(g):
        raise SymmetricInput(f"{g} generates a symmetric semigroup")
    d, a = g.elements, A.entry
    quad = sum((a(i, i) - 1) * (2 * a(i, i) - 1) * d[i - 1] ** 2 for i in range(1, 4))
    mixed = sum((3 * (a(i, i) - 1) * (a(j, j) - 1) - a(i, i) * a(j, j))
                * d[i - 1] * d[j - 1]
                for i in range(1, 4) for j in range(1, i))
    diag_prod = a(1, 1) * a(2, 2) * a(3, 3)
    linear = sum((2 * a(j, j) - 3) * d[j - 1] for j in range(1, 4))
    return _exact_div(-1 + d[0] * d[1] * d[2] + quad + mixed - diag_prod * linear, 12, "g_1")


# genera answers only when its work estimate
#     (n + 1) * (d_1 * (4096 + (n + 1) * b) + (n + 1)^3 * b * L / 128),
# with b and L the bit lengths of max Ap and of d_1, is at most GENERA_WORK.
# The first term counts the d_1*(n + 1) power-sum steps, each a fixed
# interpreter cost worth 4096 units plus a product of up to (n + 1)*b bits.
# The second counts the O(n^2) products of the two recurrences, each of an
# O(n*L)-bit binomial term by an O(n*b)-bit power sum, at 1/128 unit per pair
# of bits.  With 2^33 units the largest admitted n takes at most about 0.25 s
# (CPython 3.11 on a Xeon server core) for pairs such as (2, 3), (3, 5) and
# (5, 7), for the paper triple and for d_1 up to 10^5; n = 3 passes for
# d_1 < 460,000 while max Ap < 2^134.
GENERA_WORK = 2 ** 33


def genera(g: Generators, n_max: int = 3) -> list:
    """Power sums g_0..g_n over the gaps, read off the Apéry set of d_1 in
    O(n*d_1) steps, with closed-form cross-checks where they exist (two
    coprime generators; first genus of a non-symmetric triple).

    Residue r holds the gaps x = r, r + d, ..., w[r] - d (d = d_1), over which
    (x + d)^(n+1) - x^(n+1) telescopes to w[r]^(n+1) - r^(n+1).  Expanding
    binomially and summing over r gives
    D_(n+1) = sum_r (w[r]^(n+1) - r^(n+1)) = sum_{i<=n} C(n+1, i) d^(n+1-i) g_i,
    so g_n is one exact division by (n+1)*d; no gap is listed.  Raises
    InvalidInput for n < 0 or past the budget, before any power is taken.
    """
    if n_max < 0:
        raise InvalidInput(f"need n >= 0, got {n_max}")
    d = g.elements[0]
    w = apery_set(g).w
    k, b = n_max + 1, max(w).bit_length()
    if k * (d * (4096 + k * b) + k ** 3 * b * d.bit_length() // 128) > GENERA_WORK:
        raise InvalidInput(f"g_0..g_{n_max} of {g} exceed the genera budget")
    W = [0] * (n_max + 2)           # W_e = sum_r w[r]^e
    for lo in range(0, d, 4096):    # slices keep the power lists short for large d_1
        ws = pw = w[lo:lo + 4096]
        for e in range(1, n_max + 2):
            if e > 1:
                pw = [p * x for p, x in zip(pw, ws)]
            W[e] += sum(pw)
    # R_e = sum_{r<d} r^e telescopes the same way: d^(e+1) = sum_{i<=e} C(e+1, i) R_i
    R, row = [d], [1, 1]            # step e makes row e + 1 of Pascal's triangle
    for e in range(1, n_max + 2):
        row = [1, *map(add, row, row[1:]), 1]
        R.append(_exact_div(d ** (e + 1) - sum(map(mul, row, R)), e + 1, f"R_{e}"))
    vals = []
    for n in range(n_max + 1):
        t, rest = (n + 1) * d, W[n + 1] - R[n + 1]
        for k in range(2, n + 2):
            t = t * (n + 2 - k) * d // k        # C(n+1, k) * d^k
            rest -= t * vals[n + 1 - k]
        vals.append(_exact_div(rest, (n + 1) * d, f"g_{n}"))
    closed = ()
    if g.m == 2:
        closed = genera2_closed(*g.elements)
    elif g.m == 3 and n_max >= 1 and relation_matrix(g).collision(g) is None:
        closed = (genus1_closed_3d(g),)
    for n, c in enumerate(closed[:n_max], 1):
        if c != vals[n]:
            raise InternalMismatch(f"closed g_{n} = {c} != power sum {vals[n]} for {g}")
    return vals
