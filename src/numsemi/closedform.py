"""Closed-form Frobenius numbers, genera and Hilbert-series numerators, m = 3.

Every quantity is computed in exact integer arithmetic from the first minimal
relation matrix; redundant routes (square root of the discriminant vs. the
antisymmetric product difference, element-weighted vs. matrix-only Frobenius
expressions) are evaluated and compared, so a silent inconsistency cannot
escape as a wrong number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    Generators,
    apery_set,
    is_representable,
    sylvester_closed,
    validate_generators,
)
from .errors import (
    InternalMismatch,
    InvalidInput,
    NonSymmetricInput,
    NotPrimitive,
    SymmetricInput,
)
from .polynomial import SparsePolynomial
from .relation import Classification, RelationMatrix, classify, relation_matrix


@dataclass(frozen=True)
class ClosedForm3:
    symmetric: bool
    inner: int    # <a, d> = sum a_ii d_i
    J: int        # |a_12 a_23 a_31 - a_13 a_32 a_21|  (= a_jj d_j when symmetric)
    L1: int       # a_12 d_2 + a_33 d_3; positive numerator exponents z^L1 + z^L2
    L2: int       # a_22 d_2 + a_13 d_3; either may be the larger
    F: int
    G: int
    Q: SparsePolynomial


def _inner_cross_j(g: Generators, A: RelationMatrix) -> tuple:
    """(<a, d>, cross, J): L1 and L2 are the roots of z^2 - <a, d> z + cross,
    and J, the square root of their discriminant, is cross-checked against
    the antisymmetric product difference."""
    d1, d2, d3 = g.elements
    a = A.entry
    inner = a(1, 1) * d1 + a(2, 2) * d2 + a(3, 3) * d3
    cross = (a(2, 2) * a(1, 1) * d2 * d1 + a(3, 3) * a(1, 1) * d3 * d1
             + a(3, 3) * a(2, 2) * d3 * d2) - d1 * d2 * d3
    disc = inner * inner - 4 * cross
    root = math.isqrt(disc)
    alt = abs(a(1, 2) * a(2, 3) * a(3, 1) - a(1, 3) * a(3, 2) * a(2, 1))
    if root * root != disc or root != alt:
        raise InternalMismatch(
            f"J disagreement for {g}: disc={disc}, isqrt={root}, product diff={alt}")
    return inner, cross, root


def j_invariant(g: Generators, A: Optional[RelationMatrix] = None) -> int:
    """J = |L1 - L2|, checked two ways (see _inner_cross_j)."""
    if A is None:
        A = relation_matrix(g)
    return _inner_cross_j(g, A)[2]


def closed_form(g: Generators, A: Optional[RelationMatrix] = None,
                cls: Optional[Classification] = None) -> ClosedForm3:
    """Non-symmetric closed forms: F, G and the six-term numerator Q."""
    if A is None:
        A = relation_matrix(g)
    if cls is None:
        cls = classify(g, A)
    if cls.symmetric:
        raise SymmetricInput(f"{g} generates a symmetric semigroup")
    d1, d2, d3 = g.elements
    a = A.entry
    inner, cross, J = _inner_cross_j(g, A)
    L1 = a(1, 2) * d2 + a(3, 3) * d3
    L2 = a(2, 2) * d2 + a(1, 3) * d3
    if L1 + L2 != inner or L1 * L2 != cross:
        raise InternalMismatch(f"L1, L2 are not the roots they should be for {g}")
    total = d1 + d2 + d3
    if (inner + J) % 2:
        raise InternalMismatch(f"<a,d> + J odd for {g}")
    F = (inner + J) // 2 - total
    diag_prod = a(1, 1) * a(2, 2) * a(3, 3)
    if (1 + inner - diag_prod - total) % 2:
        raise InternalMismatch(f"genus numerator odd for {g}")
    G = (1 + inner - diag_prod - total) // 2
    # matrix-only expressions must agree
    p1 = a(1, 2) * a(2, 3) * a(3, 1)
    p2 = a(1, 3) * a(3, 2) * a(2, 1)
    if F + total != diag_prod + max(p1, p2) or 2 * G + total != 1 + diag_prod + p1 + p2:
        raise InternalMismatch(f"matrix-only F/G expressions disagree for {g}")
    Q = (SparsePolynomial.one()
         - SparsePolynomial.from_exponents([a(1, 1) * d1, a(2, 2) * d2, a(3, 3) * d3])
         + SparsePolynomial.from_exponents([L1, L2]))
    return ClosedForm3(False, inner, J, L1, L2, F, G, Q)


def symmetric_closed(g: Generators, A: Optional[RelationMatrix] = None,
                     cls: Optional[Classification] = None) -> ClosedForm3:
    """Symmetric closed forms: Q = (1 - z^lcm)(1 - z^{a_jj d_j})."""
    if A is None:
        A = relation_matrix(g)
    if cls is None:
        cls = classify(g, A)
    if not cls.symmetric:
        raise NonSymmetricInput(f"{g} generates a non-symmetric semigroup")
    i, k = cls.pair
    j = ({1, 2, 3} - {i, k}).pop()
    lcm = cls.collision
    dj_term = A.entry(j, j) * g.elements[j - 1]
    total = g.sum()
    F = lcm + dj_term - total
    if F % 2 == 0:
        raise InternalMismatch(f"symmetric Frobenius number {F} is even for {g}")
    G = (1 + F) // 2
    Q = SparsePolynomial.one_minus_z(lcm) * SparsePolynomial.one_minus_z(dj_term)
    return ClosedForm3(True, 2 * lcm + dj_term, dj_term, lcm + dj_term, lcm, F, G, Q)


def frobenius3(g: Generators, A: Optional[RelationMatrix] = None) -> ClosedForm3:
    """Dispatch on the symmetry classification."""
    if A is None:
        A = relation_matrix(g)
    cls = classify(g, A)
    if cls.symmetric:
        return symmetric_closed(g, A, cls)
    return closed_form(g, A, cls)


def frobenius_matrix_only(A: RelationMatrix, g: Generators) -> int:
    """F + sum d_i = a_11 a_22 a_33 + max of the two antisymmetric products."""
    a = A.entry
    return (a(1, 1) * a(2, 2) * a(3, 3)
            + max(a(1, 2) * a(2, 3) * a(3, 1), a(1, 3) * a(3, 2) * a(2, 1))
            - g.sum())


def genus_matrix_only(A: RelationMatrix, g: Generators) -> int:
    """2G + sum d_i = 1 + a_11 a_22 a_33 + both antisymmetric products."""
    a = A.entry
    num = (1 + a(1, 1) * a(2, 2) * a(3, 3)
           + a(1, 2) * a(2, 3) * a(3, 1) + a(1, 3) * a(3, 2) * a(2, 1) - g.sum())
    if num % 2:
        raise InternalMismatch("matrix-only genus numerator is odd")
    return num // 2


def pythagorean(k1: int, k2: int):
    """Semigroup generated by the Pythagorean triple of (k1, k2).

    Returns (generators, closed form); the generic m=3 machinery is run and
    then checked against the parametric expressions in k1, k2.
    """
    if not (isinstance(k1, int) and isinstance(k2, int) and k1 > k2 >= 1):
        raise InvalidInput(f"need integers k1 > k2 >= 1, got ({k1}, {k2})")
    if math.gcd(k1, k2) != 1 or (k1 - k2) % 2 == 0:
        raise NotPrimitive(f"({k1}, {k2}) does not give a primitive triple")
    triple = (k1 * k1 - k2 * k2, 2 * k1 * k2, k1 * k1 + k2 * k2)
    g = validate_generators(triple)
    cf = frobenius3(g)
    if cf.symmetric:
        raise InternalMismatch(f"Pythagorean semigroup {g} classified symmetric")
    F = k1 * (k1 * k1 - k2 * k2 + 2 * (k1 * k2 - k1 - k2))
    G = (1 + k1 ** 3 - k2 ** 3) // 2 + k1 * (k1 * k2 - k1 - k2)
    J = k2 * (k1 - k2) ** 2
    inner = (2 * k1 - k2) * (k1 + k2) ** 2
    if (cf.F, cf.G, cf.J, cf.inner) != (F, G, J, inner):
        raise InternalMismatch(
            f"parametric/matrix closed forms disagree for ({k1}, {k2}): "
            f"{(cf.F, cf.G, cf.J, cf.inner)} != {(F, G, J, inner)}")
    return g, cf


def frobenius_any(elements) -> int:
    """Frobenius number of an arbitrary gcd-1 tuple (no minimality required)."""
    elems = sorted(set(int(e) for e in elements))
    if not elems or elems[0] <= 0:
        raise InvalidInput(f"need positive integers, got {elements}")
    if math.gcd(*elems) != 1:
        raise InvalidInput(f"gcd of {elements} is not 1")
    # strip reducible members so the closed forms see a minimal system
    changed = True
    while changed and len(elems) > 1:
        changed = False
        for idx in range(len(elems) - 1, -1, -1):
            rest = Generators(tuple(elems[:idx] + elems[idx + 1:]))
            if is_representable(elems[idx], rest):
                elems.pop(idx)
                changed = True
                break
    if elems[0] == 1:
        return -1
    g = Generators(tuple(elems))
    if len(elems) == 2:
        return sylvester_closed(elems[0], elems[1]).F
    if len(elems) == 3:
        return frobenius3(g).F
    return apery_set(g).frobenius


def johnson_reduce(d1: int, d2: int, d3: int) -> int:
    """F(d1, d2, d3) = k*F(d1/k, d2/k, d3) + (k-1)*d3 with k = gcd(d1, d2)."""
    if min(d1, d2, d3) <= 0 or math.gcd(d1, d2, d3) != 1:
        raise InvalidInput(f"need positive integers with gcd 1, got {(d1, d2, d3)}")
    k = math.gcd(d1, d2)
    return k * frobenius_any((d1 // k, d2 // k, d3)) + (k - 1) * d3
