"""First minimal relation matrices and the symmetric / non-symmetric split.

Row j of the matrix encodes a_jj * d_j = sum_{i != j} a_ji * d_i with a_jj
minimal >= 2.  Witnesses (the off-diagonal vectors) are unique for m = 3;
for m >= 4 ties are broken lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    Generators,
    apery_set,
    reachable_mask,
    representable_pair,
)
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


@dataclass(frozen=True)
class Classification:
    symmetric: bool
    pair: Optional[tuple] = None       # 1-based colliding indices (i, k)
    collision: Optional[int] = None    # a_ii d_i = a_kk d_k = lcm(d_i, d_k)

    @property
    def kind(self) -> str:
        return "symmetric" if self.symmetric else "non-symmetric"


def _subset_oracle(others):
    """Representability tester over a fixed tuple, cheap to query repeatedly."""
    if len(others) == 2:
        a, b = others
        return lambda t: representable_pair(t, a, b)
    state = {"bound": -1, "mask": 1}

    def query(t):
        if t < 0:
            return False
        if t > state["bound"]:
            state["bound"] = max(2 * t, 1024)
            state["mask"] = reachable_mask(others, state["bound"])
        return bool(state["mask"] >> t & 1)

    return query


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

    O(1) for m = 2 and O(log d_j) steps for m = 3; for m >= 4 it tries
    v = 2, 3, ... in turn.
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
    can = _subset_oracle(others)
    for v in range(2, cap + 1):
        if can(v * dj):
            return v
    raise InternalMismatch(f"no relation found for d_{j} of {g}")  # unreachable on valid input


def _lex_witness(t: int, gens) -> Optional[tuple]:
    """Lexicographically smallest (v_1..v_k) >= 0 with sum v_i*gens[i] == t."""
    if not gens:
        return () if t == 0 else None
    if len(gens) == 1:
        return (t // gens[0],) if t % gens[0] == 0 else None
    if len(gens) == 2:
        a, b = gens
        gcd_ab = math.gcd(a, b)
        if t % gcd_ab:
            return None
        tr, ar, br = t // gcd_ab, a // gcd_ab, b // gcd_ab
        # smallest v_a with v_a*a == t (mod b)
        va = (tr % br) * pow(ar, -1, br) % br if br > 1 else 0
        rest = t - va * a
        return (va, rest // b) if rest >= 0 else None
    can_rest = _subset_oracle(gens[1:])
    for v in range(t // gens[0] + 1):
        rest = t - v * gens[0]
        if can_rest(rest):
            tail = _lex_witness(rest, gens[1:])
            if tail is not None:
                return (v,) + tail
    return None


def relation_matrix(g: Generators) -> RelationMatrix:
    """The first minimal relation matrix with lex-smallest witnesses."""
    d = g.elements
    m = len(d)
    diag = []
    off = []
    for j in range(1, m + 1):
        ajj = diagonal_coefficient(g, j)
        others = d[:j - 1] + d[j:]
        w = _lex_witness(ajj * d[j - 1], others)
        if w is None:
            raise InternalMismatch(f"witness vanished for row {j} of {g}")
        row = list(w[:j - 1]) + [0] + list(w[j - 1:])
        diag.append(ajj)
        off.append(tuple(row))
    return RelationMatrix(m, tuple(diag), tuple(off))


def classify(g: Generators, A: Optional[RelationMatrix] = None,
             cross_check: Optional[bool] = None) -> Classification:
    """Symmetric iff some diagonal products a_ii*d_i collide.

    The matrix verdict is cross-checked against the definition-based Apéry
    symmetry test whenever _cheap_gap_bound(g) <= 5*10^6 (or
    cross_check=True).
    """
    if g.m != 3:
        raise DimensionUnsupported(f"classify needs m=3, got m={g.m}")
    if A is None:
        A = relation_matrix(g)
    prods = A.products(g)
    pair = None
    collision = None
    for i in range(3):
        for k in range(i + 1, 3):
            if prods[i] == prods[k]:
                pair = (i + 1, k + 1)
                collision = prods[i]
                break
        if pair:
            break
    symmetric = pair is not None
    if symmetric:
        di, dk = g.elements[pair[0] - 1], g.elements[pair[1] - 1]
        if collision != math.lcm(di, dk):
            raise InternalMismatch(
                f"collision {collision} != lcm({di},{dk}) = {math.lcm(di, dk)}")
    if cross_check is None:
        cross_check = _cheap_gap_bound(g) <= 5_000_000
    if cross_check:
        if apery_set(g).is_symmetric() != symmetric:
            raise InternalMismatch(f"matrix/definition symmetry disagree for {g}")
    return Classification(symmetric, pair, collision)


def _cheap_gap_bound(g: Generators) -> int:
    best = None
    d = g.elements
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if math.gcd(d[i], d[j]) == 1:
                f = d[i] * d[j]
                best = f if best is None else min(best, f)
    return best if best is not None else 4 * d[-1] ** 2


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

    for j in range(1, 4):
        lhs = a(j, j) * g.elements[j - 1]
        rhs = sum(a(j, i) * g.elements[i - 1] for i in range(1, 4) if i != j)
        need("row_identities", lhs == rhs, f"row {j}: {lhs} != {rhs}")
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
