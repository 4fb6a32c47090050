"""Higher genera g_n = sum of n-th powers of the gaps.

Closed forms exist for two coprime generators (g_1, g_2, g_3) and for the
first genus of a non-symmetric triple.  genera reads every g_n off the Apéry
set of d_1; power_sums and derivative_genera work on a listed gap set.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .core import Generators, GapSet, apery_set, sylvester_closed
from .errors import InternalMismatch, InvalidInput, NonIntegerResult, SymmetricInput
from .polynomial import SparsePolynomial
from .relation import RelationMatrix, relation_matrix


def power_sums(gs: GapSet, n_max: int) -> list:
    """[g_0, ..., g_n] with g_0 = genus."""
    out = []
    for n in range(n_max + 1):
        out.append(sum(s ** n for s in gs.gaps))
    return out


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise NonIntegerResult(f"{what} = {x} is not an integer")
    return int(x)


def genera2_closed(d1: int, d2: int):
    """(g_1, g_2, g_3) for two coprime generators, exact."""
    F, G, _, _ = sylvester_closed(d1, d2)
    a, b = Fraction(d1), Fraction(d2)
    g1 = Fraction(G) * (2 * a * b - a - b - 1) / 6
    g2 = a * b * G * F / 6
    g3 = (Fraction(G, 60)
          * ((1 + a * b) * (1 + a * a + b * b + 6 * a * a * b * b)
             + (a + b) * (1 + a * a + b * b - 9 * a * a * b * b)))
    return (_as_int(g1, "g_1"), _as_int(g2, "g_2"), _as_int(g3, "g_3"))


def genus1_closed_3d(g: Generators, A: Optional[RelationMatrix] = None) -> int:
    """g_1 for a non-symmetric triple, straight from the relation matrix."""
    if A is None:
        A = relation_matrix(g)
    if len(set(A.products(g))) < 3:
        raise SymmetricInput(f"{g} generates a symmetric semigroup")
    d1, d2, d3 = g.elements
    a = A.entry
    d = (d1, d2, d3)
    quad = sum((a(i, i) - 1) * (2 * a(i, i) - 1) * d[i - 1] ** 2
               for i in range(1, 4))
    mixed = sum((3 * (a(i, i) - 1) * (a(j, j) - 1) - a(i, i) * a(j, j))
                * d[i - 1] * d[j - 1]
                for i in range(1, 4) for j in range(1, i))
    diag_prod = a(1, 1) * a(2, 2) * a(3, 3)
    linear = sum((2 * a(j, j) - 3) * d[j - 1] for j in range(1, 4))
    total = Fraction(-1 + d1 * d2 * d3 + quad + mixed - diag_prod * linear, 12)
    return _as_int(total, "g_1")


def derivative_genera(gs: GapSet, n_max: int = 3) -> list:
    """g_n from derivatives of Phi at z = 1:
    g_1 = Phi', g_2 = Phi'' + Phi', g_3 = Phi''' + 3 Phi'' + Phi'."""
    if not 0 <= n_max <= 3:
        raise InvalidInput(f"derivative route implemented for n <= 3, got {n_max}")
    phi = SparsePolynomial.from_exponents(gs.gaps)
    d1 = phi.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
    vals = [gs.genus,
            d1.eval_at(1),
            d2.eval_at(1) + d1.eval_at(1),
            d3.eval_at(1) + 3 * d2.eval_at(1) + d1.eval_at(1)]
    return vals[:n_max + 1]


def _bernoulli(n: int) -> list:
    """B_0..B_n with B_1 = -1/2, from sum_{j<=k} C(k+1, j) B_j = 0."""
    B = [Fraction(1)]
    for k in range(1, n + 1):
        B.append(-sum(math.comb(k + 1, j) * B[j] for j in range(k)) / (k + 1))
    return B


def genera(g: Generators, n_max: int = 3) -> list:
    """Power sums g_0..g_n over the gaps, read off the Apéry set of d_1 in
    O(n*d_1) steps, with closed-form cross-checks where they exist (two
    coprime generators; first genus of a non-symmetric triple).

    Residue r holds the gaps r, r + d, ..., w[r] - d (d = d_1), and
    Faulhaber's formula sums a progression through Bernoulli polynomials:
    sum_{k<K} (r + k*d)^n = d^n (B_{n+1}(r/d + K) - B_{n+1}(r/d)) / (n+1).
    Expanding B_{n+1} binomially leaves only D_e = sum_r (w[r]^e - r^e), so
    no gap is listed.
    """
    d = g.elements[0]
    w = apery_set(g).w
    D = [sum(x ** e for x in w) - sum(r ** e for r in range(d))
         for e in range(n_max + 2)]
    B = _bernoulli(n_max)
    vals = []
    for n in range(n_max + 1):
        total = sum(math.comb(n + 1, j) * B[j] * Fraction(d) ** (j - 1) * D[n + 1 - j]
                    for j in range(n + 1))
        vals.append(_as_int(total / (n + 1), f"g_{n}"))
    if g.m == 2 and n_max >= 1:
        closed = genera2_closed(g.elements[0], g.elements[1])
        for n in range(1, min(n_max, 3) + 1):
            if closed[n - 1] != vals[n]:
                raise InternalMismatch(
                    f"closed g_{n} = {closed[n - 1]} != power sum {vals[n]} for {g}")
    if g.m == 3 and n_max >= 1:
        A = relation_matrix(g)
        if len(set(A.products(g))) == 3:
            closed1 = genus1_closed_3d(g, A)
            if closed1 != vals[1]:
                raise InternalMismatch(
                    f"closed g_1 = {closed1} != power sum {vals[1]} for {g}")
    return vals
