"""Triples whose first minimal relation matrix has a uniform diagonal (a, a, a).

F and G then follow from the elementary symmetric functions of (d1, d2, d3);
the scan checks that route against the closed form.  It enumerates matrices,
not triples.  A symmetric triple has a_ii*d_i = a_jj*d_j for some i != j
(Herzog, Manuscripta Math. 3, 1970), which a uniform diagonal rules out.  So
every hit is in the non-symmetric standard form (`verify_standard_form`):
positive off-diagonal entries, columns summing to zero (a_ii = a_ji + a_ki)
and d_i the cofactor a_jj*a_kk - a_jk*a_kj.  With a_ii = a, the entries
a12, a13, a21 in [1, a-1] fix the rest: (a-1)^3 candidates, each with
d_i = a^2 - a_jk*a_kj in [2a-1, a^2-1].  A candidate counts only if the
relation matrix of its cofactors has diagonal (a, a, a), which rejects
cofactors that share a factor or are not minimal.  The cost is O(a^3),
whatever d3_max is, and a scan of more than SCAN_CANDIDATES matrices is
refused before the first one is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closedform import frobenius3
from .core import validate_generators
from .errors import InternalMismatch, InvalidInput, NonIntegerResult, ValidationError
from .relation import RelationMatrix, relation_matrix


# Most candidate matrices scan_uniform forms: a = 31 with no pruning by
# d3_max, about 0.4 s on a Xeon server core.  The bound (a - 2*lo + 1)^3 is
# checked before the first matrix, so a = 60 (1.3 s) is refused at once.
SCAN_CANDIDATES = 30 ** 3


@dataclass(frozen=True)
class UniformDiagonalRecord:
    triple: tuple
    a: int
    F: int
    G: int
    matrix: RelationMatrix


def uniform_closed(a: int, d) -> tuple:
    """(F, G) when the relation diagonal is (a, a, a)."""
    d1, d2, d3 = d
    e1 = d1 + d2 + d3
    e2 = d1 * d2 + d1 * d3 + d2 * d3
    e3 = d1 * d2 * d3
    disc = (e1 * e1 - 4 * e2) * a * a + 4 * e3
    root = math.isqrt(disc)
    if root * root != disc:
        raise NonIntegerResult(f"discriminant {disc} is not a perfect square")
    if ((a - 2) * e1 + root) % 2:
        raise NonIntegerResult("Frobenius expression is odd")
    F = ((a - 2) * e1 + root) // 2
    if (1 + (a - 1) * e1 - a ** 3) % 2:
        raise NonIntegerResult("genus expression is odd")
    G = (1 + (a - 1) * e1 - a ** 3) // 2
    return F, G


def scan_uniform(a: int, d3_max: int):
    """All uniform-diagonal triples with d3 <= d3_max, sorted."""
    if a < 3:
        raise InvalidInput(f"need a >= 3, got {a}")
    # d_i <= d3_max iff a_jk*a_kj >= t; a partner is at most a - 1, so no
    # entry lies below lo = ceil(t/(a-1)), and every range keeps products >= t
    t = a * a - d3_max
    lo = max(1, -(-t // (a - 1)))
    span = a - 2 * lo + 1           # each entry a12, a21, a13 takes at most span values
    if span > 0 and span ** 3 > SCAN_CANDIDATES:
        raise InvalidInput(f"a = {a} with d3_max = {d3_max} leaves up to {span ** 3} "
                           f"candidate matrices, more than {SCAN_CANDIDATES}")
    triples = set()  # permuting a matrix's indices permutes its triple
    for a12 in range(lo, a - lo + 1):
        a32 = a - a12
        for a21 in range(max(lo, -(-t // a12)), a - lo + 1):
            a31 = a - a21
            for a13 in range(max(lo, -(-t // a31)), a - max(lo, -(-t // a32)) + 1):
                a23 = a - a13
                triples.add(tuple(sorted((a * a - a23 * a32, a * a - a13 * a31,
                                          a * a - a12 * a21))))
    records = []
    for d in sorted(triples):
        try:
            g = validate_generators(d)
        except ValidationError:
            continue
        A = relation_matrix(g)
        if A.diag != (a, a, a):
            continue
        # a uniform diagonal has no collision: the checked non-symmetric form
        cf = frobenius3(g, A)
        F, G = uniform_closed(a, g.elements)
        if (F, G) != (cf.F, cf.G):
            raise InternalMismatch(
                f"uniform closed form disagrees for {g}: "
                f"({F}, {G}) != ({cf.F}, {cf.G})")
        records.append(UniformDiagonalRecord(g.elements, a, F, G, A))
    return records
