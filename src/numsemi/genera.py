"""Higher genera g_n = sum of n-th powers of the gaps.

Closed forms exist for two coprime generators (g_1, g_2, g_3) and for the
first genus of a non-symmetric triple.  genera reads every g_n off one
identity between the gaps and a numerator of the Hilbert series, given the
Apéry set of d_1 or, for m <= 3, the closed-form Q, and checks them against
those closed forms; no gap is listed.
"""

from __future__ import annotations

import math
from operator import add, mul

from .core import Generators, apery_set, hilbert_numerator, sylvester_closed
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


# genera estimates the work of solving off each numerator it may read as
#     (n + 1) * (s * (4096 + (n + 1) * b) + (n + 1)^3 * b * (L + 1) / 288),
# with b the bit length of max Ap = F + d_1 and L that of h = 1 + sum(J)
# (see _moment_solve), solves off the cheaper one, and answers only when its
# estimate is at most GENERA_WORK.  s counts the entries of the power lists:
# d_1 for the Apéry set (J = (d_1,)), and 2^m plus Q's terms for Q
# (J = all generators, m <= 3).  The first term counts the s*(n + 1) power
# steps, each a fixed interpreter cost worth 4096 units plus a product of up
# to (n + 1)*b bits.  The second counts the O(n^2) products of the solve,
# each of an O(n*b)-bit gamma or U by an O(n*L)-bit moment of D or an
# O(n)-bit binomial of the sum over U, at 1/288 unit per pair of bits.  So
# for m <= 3 the Apéry set is built only when d_1 is below Q's 6 to 14 list
# entries, or when the products dominate and its smaller h wins, as for
# (23, 29, 44) from n = 92.  With 2^33 units the largest admitted n answers
# in at most about 0.25 s (CPython 3.11 on a Xeon server core): n = 800 for
# (2, 3), 625 for (3, 5) and 591 for (5, 7), 460 for (23, 29, 44) and 259
# for (3, 10^40 + 1, 10^40 + 3), all off Ap; 272 for (10001, 10003, 20003),
# 323 for (563, 775, 903), 80 for the family member (2l + 1, 2l + 3, 4l + 3)
# at l = 10^50 and 223 for (1999999, 2000001), all off Q.  n = 3 passes
# off Ap for m >= 4 while d_1 < 460,000 and max Ap < 2^134.
GENERA_WORK = 2 ** 33


def genera(g: Generators, n_max: int = 3) -> list:
    """Power sums g_0..g_n over the gaps, with no gap listed, and with
    closed-form cross-checks where they exist (two coprime generators; first
    genus of a non-symmetric triple).  They are solved off the Apéry set of
    d_1 or, for m <= 3, off Q, with no step of size d_1, whichever the work
    estimate above finds cheaper.  Raises InvalidInput for n < 0 or past the
    budget, before any power is taken.
    """
    if n_max < 0:
        raise InvalidInput(f"need n >= 0, got {n_max}")
    d1 = g.elements[0]
    q = hilbert_numerator(g).items() if g.m <= 3 else None
    F = apery_set(g).frobenius if q is None else q[-1][0] - g.sum()
    b = (F + d1).bit_length()
    work = _work(n_max, d1, b, (1 + d1).bit_length())
    via_q = False
    if q is not None:
        q_work = _work(n_max, 2 ** g.m + len(q), b, (1 + g.sum()).bit_length())
        via_q, work = q_work <= work, min(q_work, work)
    if work > GENERA_WORK:
        raise InvalidInput(f"g_0..g_{n_max} of {g} exceed the genera budget")
    if via_q:
        vals = _moment_solve(g.elements, *zip(*q), n_max)
    else:
        vals = _moment_solve((d1,), apery_set(g).w, None, n_max)
    closed = ()
    if g.m == 2:
        closed = genera2_closed(*g.elements)
    elif g.m == 3 and n_max >= 1 and relation_matrix(g).collision(g) is None:
        closed = (genus1_closed_3d(g),)
    for n, c in enumerate(closed[:n_max], 1):
        if c != vals[n]:
            raise InternalMismatch(f"closed g_{n} = {c} != power sum {vals[n]} for {g}")
    return vals


def _work(n_max: int, s: int, b: int, L: int) -> int:
    k = n_max + 1
    return k * (s * (4096 + k * b) + k ** 3 * b * (L + 1) // 288)


def _moment_solve(J: tuple, exps, coeffs, n_max: int) -> list:
    """g_0..g_n off H = N/D, with D = prod_{c in J} (1 - z^c) and N the sum
    of coeffs[i] * z^exps[i] (every coefficient 1 when coeffs is None), in
    len(exps)*(n + |J|) power steps and O(n^2) big-integer products.

    With Gamma the sum of z^x over the gaps, 1/(1 - z) = Gamma + N/D, so
    Gamma*(1 - z)*D = D - (1 - z)*N.  Multiply both sides by z^(-h/2),
    h = 1 + sum(J), and put z = e^(2t): a sum of c*z^s becomes one of
    c*e^((2s - h)t), whose e-th Taylor coefficient times e! is its moment
    sum c*(2s - h)^e; Gamma's is gamma_e = 2^e g_e.  (1 - z)D becomes the
    product of the k = |J| + 1 odd functions e^(-ct) - e^(ct), c in {1} + J,
    so its moments tau_e vanish for e < k and for odd e - k.  As
    z^(h-1) D(1/z) = (-1)^|J| D, the terms of -zD mirror D's, so each other
    tau_e is twice D's moment mu_e.  A term c*z^s of N sits at
    u = 2s + 1 - h, and -(1 - z)*c*z^s has the moments
    c*((u + 1)^e - (u - 1)^e) = 2c * sum_{j odd} C(e, j) u^(e-j); with U_i
    the sums of c*u^i over N the right side's moments are
        pi_e = mu_e + 2 * sum_{j odd} C(e, j) U_(e-j).
    At t^(n+k) this leaves
        pi_(n+k) = sum_{i <= n, i = n mod 2} C(n+k, i) gamma_i tau_(n+k-i),
    so gamma_n is one exact division by C(n+k, k) tau_k.
    """
    k, h = len(J) + 1, 1 + sum(J)
    top = n_max + k
    vs, cs = [-h], [1]              # D's terms c*z^s as v = 2s - h and c
    for c in J:
        vs += [v + 2 * c for v in vs]
        cs += [-x for x in cs]
    mu = _moments(vs, [c * v ** k for v, c in zip(vs, cs)], n_max + 1)  # mu[n] = mu_(k+n)
    U, c0 = [0] * top, 1 - h        # U_i, in slices that keep the power lists short
    for lo in range(0, len(exps), 4096):
        U = list(map(add, U, _moments([2 * s + c0 for s in exps[lo:lo + 4096]],
                                      coeffs and coeffs[lo:lo + 4096], top)))
    vals, gamma = [], []
    row = [math.comb(k, j) for j in range(k + 1)]   # row n + k of Pascal's triangle
    for n in range(n_max + 1):
        e, p = n + k, n % 2
        pi = mu[n] + 2 * sum(map(mul, row[1::2], U[e - 1::-2]))
        rest = pi - 2 * sum(map(mul, map(mul, row[p:n:2], gamma[p::2]), mu[n - p:0:-2]))
        vals.append(_exact_div(rest, 2 * row[k] * mu[0] << n, f"g_{n}"))
        gamma.append(vals[n] << n)
        row = [1, *map(add, row, row[1:]), 1]
    return vals


def _moments(xs: list, cs, count: int) -> list:
    """[sum_i cs[i] * xs[i]^e for e < count], with every cs[i] = 1 when cs
    is None."""
    out, pw = ([len(xs)], xs) if cs is None else ([], cs)
    while len(out) < count:
        out.append(sum(pw))
        if len(out) < count:
            pw = list(map(mul, pw, xs))
    return out
