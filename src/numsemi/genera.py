"""Higher genera g_n = sum of n-th powers of the gaps.

Closed forms exist for two coprime generators (g_1, g_2, g_3) and for the
first genus of a non-symmetric triple.  genera reads every g_n off the Apéry
set of d_1 or, for a triple, off its Hilbert numerator Q, and checks them
against those closed forms; no gap is listed.
"""

from __future__ import annotations

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


# genera estimates the work of each route it may take as
#     (n + 1) * (s * (4096 + (n + 1) * b) + (n + 1)^3 * b * L / c),
# with b the bit length of max Ap = F + d_1, takes the cheaper route, and
# answers only when its estimate is at most GENERA_WORK.  Off Ap(S, d_1),
# s = d_1, L is the bit length of d_1 and c = 128.  The first term counts
# the d_1*(n + 1) power-sum steps, each a fixed interpreter cost worth 4096
# units plus a product of up to (n + 1)*b bits.  The second counts the
# O(n^2) products of the two recurrences, each of an O(n*L)-bit binomial
# term by an O(n*b)-bit power sum, at 1/128 unit per pair of bits.  Off Q
# (triples only), s counts the at most 28 monomials whose moments are taken,
# L is the bit length of 1 + d_1 + d_2 + d_3, which bounds the shifted
# exponents, and c = 256, as half of the solve's products vanish.  So a
# triple's genera take a step of size d_1 only when d_1 is below about 30
# or d_3 is far above d_1^2, where those steps cost less than the solve.
# With 2^33 units the largest admitted n takes at most about 0.25 s
# (CPython 3.11 on a Xeon server core) for pairs such as (2, 3), (3, 5) and
# (5, 7) and for d_1 up to 10^5; n = 3 passes for d_1 < 460,000 while
# max Ap < 2^134.  For triples it is 267 for (10001, 10003, 20003), 430 for
# (23, 29, 44), 320 for (563, 775, 903) and 77 for the family member
# (2l + 1, 2l + 3, 4l + 3) at l = 10^50, all off Q, and 252 for
# (3, 10^40 + 1, 10^40 + 3) off Ap.
GENERA_WORK = 2 ** 33


def genera(g: Generators, n_max: int = 3) -> list:
    """Power sums g_0..g_n over the gaps, with no gap listed, and with
    closed-form cross-checks where they exist (two coprime generators; first
    genus of a non-symmetric triple).  They are read off the Apéry set of
    d_1 (_genera_from_apery) or, for a triple, off its numerator Q
    (_genera_from_numerator), with no step of size d_1, whichever the work
    estimate above finds cheaper.  Raises InvalidInput for n < 0 or past the
    budget, before any power is taken.
    """
    if n_max < 0:
        raise InvalidInput(f"need n >= 0, got {n_max}")
    d1 = g.elements[0]
    q = hilbert_numerator(g) if g.m == 3 else None
    F = apery_set(g).frobenius if q is None else q.degree - g.sum()
    b = (F + d1).bit_length()
    work = _work(n_max, d1, b, d1.bit_length(), 128)
    via_q = False
    if q is not None:
        q_work = _work(n_max, 16 + 2 * q.nonzero_count(), b, (1 + g.sum()).bit_length(), 256)
        via_q, work = q_work < work, min(q_work, work)
    if work > GENERA_WORK:
        raise InvalidInput(f"g_0..g_{n_max} of {g} exceed the genera budget")
    vals = _genera_from_numerator(g, q, n_max) if via_q else _genera_from_apery(g, n_max)
    closed = ()
    if g.m == 2:
        closed = genera2_closed(*g.elements)
    elif g.m == 3 and n_max >= 1 and relation_matrix(g).collision(g) is None:
        closed = (genus1_closed_3d(g),)
    for n, c in enumerate(closed[:n_max], 1):
        if c != vals[n]:
            raise InternalMismatch(f"closed g_{n} = {c} != power sum {vals[n]} for {g}")
    return vals


def _work(n_max: int, s: int, b: int, L: int, c: int) -> int:
    k = n_max + 1
    return k * (s * (4096 + k * b) + k ** 3 * b * L // c)


def _genera_from_apery(g: Generators, n_max: int) -> list:
    """g_0..g_n off the Apéry set of d_1 in O(n*d_1) steps.

    Residue r holds the gaps x = r, r + d, ..., w[r] - d (d = d_1), over which
    (x + d)^(n+1) - x^(n+1) telescopes to w[r]^(n+1) - r^(n+1).  Expanding
    binomially and summing over r gives
    D_(n+1) = sum_r (w[r]^(n+1) - r^(n+1)) = sum_{i<=n} C(n+1, i) d^(n+1-i) g_i,
    so g_n is one exact division by (n+1)*d.
    """
    d = g.elements[0]
    w = apery_set(g).w
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
    return vals


def _genera_from_numerator(g: Generators, q, n_max: int) -> list:
    """g_0..g_n of a triple off its numerator q alone, in O(n^2) big-integer
    products.

    With D = (1 - z^{d_1})(1 - z^{d_2})(1 - z^{d_3}) and Gamma the sum of z^x
    over the gaps, 1/(1 - z) = Gamma + Q/D, so Gamma*T = P with T = (1 - z)D
    and P = D - (1 - z)Q, sums of at most 16 and 20 monomials.  Multiply both
    sides by z^(-h/2), h = 1 + d_1 + d_2 + d_3, and put z = e^(2t): a sum
    of c*z^s becomes one of c*e^((2s - h)t), whose e-th Taylor coefficient
    times e! is sum c*(2s - h)^e; Gamma's is gamma_e = 2^e g_e.  T becomes
    the product of the four odd functions e^(-ct) - e^(ct), c in
    {1, d_1, d_2, d_3}, so its coefficients tau_e vanish for odd e and for
    e < 4, and tau_4 = 4! * 16 * d_1 d_2 d_3.  As D = -z^(h-1) D(1/z), the
    term of -zD at s + 1 has the coefficient of D's term at h - 1 - s and
    the opposite shifted exponent, so tau_2k is twice D's moment of the
    squares (2s - h)^2.  At t^(n+4) this leaves, with pi_e
    the coefficients of P,
        pi_(n+4) = sum_{i <= n, i = n mod 2} C(n+4, i) gamma_i tau_(n+4-i),
    so gamma_n is one exact division by C(n+4, 4) tau_4.
    """
    d = g.elements
    h = 1 + sum(d)
    xs, cs = [-h], [1]              # D's monomials c*z^s as x = 2s - h and c
    for dj in d:
        xs += [x + 2 * dj for x in xs]
        cs += [-c for c in cs]
    ps, pc = list(xs), list(cs)     # P's, uncancelled
    for s, c in q.items():
        ps += [2 * s - h, 2 * s + 2 - h]
        pc += [-c, c]
    # tau_(4+2k) and pi_(4+k): the lower ones vanish or go unused
    even = _moments([x * x for x in xs], [2 * c * x ** 4 for x, c in zip(xs, cs)],
                    n_max // 2 + 1)
    pi = _moments(ps, [c * x ** 4 for x, c in zip(ps, pc)], n_max + 1)
    gamma, row = [], [1, 4, 6, 4, 1]   # row n + 4 of Pascal's triangle
    for n in range(n_max + 1):
        p = n % 2
        rest = pi[n] - sum(map(mul, map(mul, row[p:n:2], gamma[p::2]), even[n // 2:0:-1]))
        gamma.append(_exact_div(rest, row[4] * even[0], f"2^{n} g_{n}"))
        row = [1, *map(add, row, row[1:]), 1]
    return [_exact_div(x, 1 << n, f"g_{n}") for n, x in enumerate(gamma)]


def _moments(xs: list, cs: list, count: int) -> list:
    """[sum_i cs[i] * xs[i]^e for e < count]."""
    out = []
    for _ in range(count):
        out.append(sum(cs))
        cs = list(map(mul, cs, xs))
    return out
