"""First minimal relation matrices and the symmetric / non-symmetric split.

Row j of the matrix encodes a_jj * d_j = sum_{i != j} a_ji * d_i with a_jj
minimal >= 2.  Witnesses (the off-diagonal vectors) are unique for m = 3;
for m >= 4 ties are broken lexicographically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .core import MAX_GAPS, Generators, apery_set, is_representable, pair_witness
from .errors import (
    DimensionUnsupported,
    InternalMismatch,
    StandardFormViolation,
    SymmetricInput,
)


@dataclass(frozen=True)
class RelationMatrix:
    m: int
    diag: tuple          # a_jj, j = 1..m
    off: tuple           # row j: full-length tuple, 0 at position j

    def entry(self, i: int, j: int) -> int:
        """a_ij with 1-based indices (off-diagonals as positive integers)."""
        return self.diag[i - 1] if i == j else self.off[i - 1][j - 1]

    def signed_rows(self):
        """Rows as printed: +a_jj on the diagonal, -a_ji off it."""
        rows = []
        for j in range(self.m):
            rows.append(tuple(self.diag[j] if i == j else -self.off[j][i]
                              for i in range(self.m)))
        return rows

    def products(self, g: Generators) -> tuple:
        return tuple(self.diag[i] * g.elements[i] for i in range(self.m))

    def collision(self, g: Generators) -> Optional[tuple]:
        """First 1-based (i, k), i < k, with a_ii*d_i = a_kk*d_k, or None.
        For m = 3 a collision is Herzog's symmetry criterion."""
        prods = self.products(g)
        for i, k in itertools.combinations(range(self.m), 2):
            if prods[i] == prods[k]:
                return i + 1, k + 1
        return None

    def failing_row(self, g: Generators) -> Optional[tuple]:
        """(j, lhs, rhs) for the first row j whose identity
        a_jj*d_j = sum_{i != j} a_ji*d_i fails, or None when every row holds."""
        for j, (ajj, row) in enumerate(zip(self.diag, self.off), 1):
            lhs = ajj * g.elements[j - 1]
            rhs = sum(a * d for a, d in zip(row, g.elements))
            if lhs != rhs:
                return j, lhs, rhs
        return None


@dataclass(frozen=True)
class Classification:
    symmetric: bool
    pair: Optional[tuple] = None       # 1-based colliding indices (i, k)
    collision: Optional[int] = None    # a_ii d_i = a_kk d_k = lcm(d_i, d_k)

    @property
    def kind(self) -> str:
        return "symmetric" if self.symmetric else "non-symmetric"


def _least_multiple_in_pair(c: int, a: int, b: int) -> int:
    """Least u >= 1 with u*c in <a, b> for coprime a, b, in O(log c) steps.

    With h = gcd(a, c), every x*a + y*b divisible by c has h | y, so u*c is
    the least f(x, y) = x*a + y*h*b over the nonzero points x, y >= 0 of the
    lattice x = sigma*y (mod n), n = c/h.  f is linear with positive
    coefficients, so its minimum lies at a vertex of the Klein sail, the
    boundary of the convex hull of those points.  Rødseth's ceiling
    continued fraction of n/sigma lists the lattice points on that boundary
    from (n, 0) and (sigma, 1) down to x = 0.  A run of partial quotients 2
    walks along one edge; it is taken in a single jump to the edge's last
    point, or sigma = n - 1 would cost n steps.
    """
    h = math.gcd(a, c)
    n = c // h
    hb = h * b
    sigma = -b * pow(a // h, -1, n) % n
    px, py, x, y = n, 0, sigma, 1
    best = min(n * a, sigma * a + hb)
    while x:
        q = -(-px // x)
        if q == 2:
            dx, dy = px - x, y - py
            t = x // dx
            px, py = x - (t - 1) * dx, y + (t - 1) * dy
            x, y = x - t * dx, y + t * dy
        else:
            px, py, x, y = x, y, q * x - px, q * y - py
        best = min(best, x * a + y * hb)
    return best // c


def diagonal_coefficient(g: Generators, j: int) -> int:
    """Smallest v >= 2 with v*d_j representable by the other generators (j 1-based).

    O(1) for m = 2 and O(log d_j) steps for m = 3.  For m >= 4 it is the least
    v >= 2 with v*d_j - d_i in S for some i != j, read off Ap(S, d_1): then
    v*d_j = d_i + s has a factorisation f with f_i >= 1, so f_j < v,
    (v - f_j)*d_j lies in <others> and, d_j being minimal, v - f_j >= 2.
    """
    d = g.elements
    dj = d[j - 1]
    others = d[:j - 1] + d[j:]
    # v = lcm(d_j, d_i)/d_j = d_i/gcd is always achievable using d_i alone
    cap = min(o // math.gcd(o, dj) for o in others)
    if len(others) == 1:
        return cap
    if len(others) == 2:
        # Johnson: k = gcd(a, b) is prime to d_j, so k | v, and v = k*u with
        # u*d_j in <a/k, b/k>; u = 1 is possible only when k > 1
        k = math.gcd(*others)
        return k * _least_multiple_in_pair(dj, others[0] // k, others[1] // k)
    ap = apery_set(g)
    for v in range(2, cap + 1):
        for o in others:
            if v * dj - o in ap:
                return v
    raise InternalMismatch(f"no relation found for d_{j} of {g}")  # unreachable on valid input


def _lex_witness(t: int, gens, suffixes: dict) -> Optional[tuple]:
    """Lexicographically smallest (v_1..v_k) >= 0 with sum v_i*gens[i] == t.

    Tries v_1 = 0, 1, ... and recurses on the remainder.  Past three
    generators, when those loops would take more steps than building
    Ap(gens[1:], gens[1]) and that set stays within MAX_GAPS, the set
    (infinite where gens[1:] has gcd > 1) is built once, kept in suffixes
    for the other rows, and screens the remainders first.
    """
    if len(gens) == 1:
        return (t // gens[0],) if t % gens[0] == 0 else None
    if len(gens) == 2:
        return pair_witness(t, *gens)
    rest_gens = gens[1:]
    sub = suffixes.get(rest_gens)
    if (sub is None and len(gens) > 3 and gens[1] - 1 <= MAX_GAPS
            and math.prod(t // g + 1 for g in gens[:-2]) > len(rest_gens) * gens[1]):
        sub = suffixes[rest_gens] = Generators(rest_gens)
    for v in range(t // gens[0] + 1):
        rest = t - v * gens[0]
        if sub is not None and not is_representable(rest, sub):
            continue
        w = _lex_witness(rest, rest_gens, suffixes)
        if w is not None:
            return (v,) + w
    return None


def relation_matrix(g: Generators) -> RelationMatrix:
    """The first minimal relation matrix with lex-smallest witnesses, built
    at most once per Generators."""
    if g._relation is not None:
        return g._relation
    d = g.elements
    m = len(d)
    suffixes = {}
    diag = []
    off = []
    for j in range(1, m + 1):
        ajj = diagonal_coefficient(g, j)
        others = d[:j - 1] + d[j:]
        w = _lex_witness(ajj * d[j - 1], others, suffixes)
        if w is None:
            raise InternalMismatch(f"witness vanished for row {j} of {g}")
        row = list(w[:j - 1]) + [0] + list(w[j - 1:])
        diag.append(ajj)
        off.append(tuple(row))
    object.__setattr__(g, "_relation", RelationMatrix(m, tuple(diag), tuple(off)))
    return g._relation


def _complete_intersection(d: tuple) -> bool:
    """Herzog's second symmetry criterion for a minimal triple: some pair
    shares a factor f > 1 and the third generator lies in <d_i/f, d_j/f>."""
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        f = math.gcd(d[i], d[j])
        if f > 1 and pair_witness(d[k], d[i] // f, d[j] // f) is not None:
            return True
    return False


def classify(g: Generators, A: Optional[RelationMatrix] = None,
             cross_check: bool = True) -> Classification:
    """Symmetric iff some diagonal products a_ii*d_i collide; unless
    cross_check is False, checked against the complete-intersection test,
    O(log d_3) steps on the generators alone (Herzog, Manuscripta Math. 3)."""
    if g.m != 3:
        raise DimensionUnsupported(f"classify needs m=3, got m={g.m}")
    if A is None:
        A = relation_matrix(g)
    pair = A.collision(g)
    collision = None
    if pair is not None:
        i, k = pair
        di, dk = g.elements[i - 1], g.elements[k - 1]
        collision = A.entry(i, i) * di
        if collision != math.lcm(di, dk):
            raise InternalMismatch(
                f"collision {collision} != lcm({di},{dk}) = {math.lcm(di, dk)}")
    symmetric = pair is not None
    if cross_check and _complete_intersection(g.elements) != symmetric:
        raise InternalMismatch(f"matrix/complete-intersection symmetry disagree for {g}")
    return Classification(symmetric, pair, collision)


def verify_standard_form(g: Generators, A: RelationMatrix) -> dict:
    """Check every identity of the non-symmetric m=3 standard form.

    Returns {check_name: True} for all checks; raises StandardFormViolation
    naming the first identity that fails.
    """
    if g.m != 3 or A.m != 3:
        raise DimensionUnsupported("standard form is defined for m=3")
    if classify(g, A).symmetric:
        raise SymmetricInput(f"{g} generates a symmetric semigroup")
    d1, d2, d3 = g.elements
    a = A.entry
    checks = {}

    def need(name, ok, detail):
        if not ok:
            raise StandardFormViolation(f"{name}: {detail} for {g}")
        checks[name] = True

    bad = A.failing_row(g)
    need("row_identities", bad is None, bad and "row {}: {} != {}".format(*bad))
    need("positivity", all(a(i, j) >= 1 for i in range(1, 4) for j in range(1, 4)),
         "zero off-diagonal entry")
    for j in range(1, 4):
        row = [a(j, i) for i in range(1, 4)]
        need("row_gcd", math.gcd(*row) == 1, f"row {j} gcd != 1")
    need("column_sums",
         a(1, 1) == a(2, 1) + a(3, 1) and a(2, 2) == a(1, 2) + a(3, 2)
         and a(3, 3) == a(1, 3) + a(2, 3), "Johnson column identity fails")
    need("cofactors",
         a(2, 2) * a(3, 3) - a(2, 3) * a(3, 2) == d1
         and a(1, 1) * a(3, 3) - a(1, 3) * a(3, 1) == d2
         and a(1, 1) * a(2, 2) - a(1, 2) * a(2, 1) == d3,
         "2x2 cofactor determinants != (d1, d2, d3)")
    r = A.signed_rows()
    det = (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
           - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
           + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
    need("determinant", det == 0, f"det = {det}")
    need("ordering",
         a(1, 1) > a(1, 2) + a(1, 3) and a(2, 2) > a(2, 3)
         and a(3, 3) < a(3, 1) + a(3, 2), "ordering inequalities fail")
    need("diag_sandwich",
         a(2, 2) + a(3, 3) <= d1 + 1 <= a(2, 2) * a(3, 3)
         and a(3, 3) + a(1, 1) <= d2 + 1 <= a(3, 3) * a(1, 1)
         and a(1, 1) + a(2, 2) <= d3 + 1 <= a(1, 1) * a(2, 2),
         "sum/product sandwich of diagonal pairs fails")
    return checks
