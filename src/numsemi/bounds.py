"""Lower bounds on F and G, admissibility screening, and the machinery that
falsifies power-law upper-bound conjectures F <= C * (d1 d2 d3)^nu - sum d.

All comparisons are exact: power-law checks are cleared of denominators and
compared as integers, never as floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Generators, representable_pair, validate_generators
from .errors import (
    DimensionUnsupported,
    InvalidInput,
    NuTooLarge,
)
from .relation import RelationMatrix, relation_matrix


@dataclass(frozen=True)
class BoundCheck:
    name: str
    relation: str   # ">=", "<=", "=="
    lhs: int
    rhs: int
    holds: bool


@dataclass(frozen=True)
class BoundReport:
    kind: str
    checks: tuple

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def _check(name, relation, lhs, rhs) -> BoundCheck:
    ok = {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[relation]
    return BoundCheck(name, relation, lhs, rhs, ok)


def lower_bounds(g: Generators, F: int, G: int, symmetric: bool) -> BoundReport:
    """Exact lower-bound checks for a triple, keyed by symmetry kind."""
    if g.m != 3:
        raise DimensionUnsupported(f"bounds are stated for m=3, got m={g.m}")
    d3prod = g.product()
    total = g.sum()
    checks = [_check("davison", ">=", (F + total) ** 2, 3 * d3prod)]
    if symmetric:
        checks += [
            _check("frobenius_square_symmetric", ">=", (F + total) ** 2, 4 * d3prod),
            _check("genus_is_half", "==", 2 * G, F + 1),
            _check("genus_square_symmetric", ">=", (2 * G - 1 + total) ** 2, 4 * d3prod),
        ]
    else:
        checks += [
            _check("frobenius_square", ">=", (F + total) ** 2, 3 * (d3prod + 1)),
            _check("genus_vs_frobenius", ">=", 2 * G, F + 2),
            _check("genus_square", ">=", (2 * G - 2 + total) ** 2, 3 * (d3prod + 1)),
        ]
    return BoundReport("symmetric" if symmetric else "non-symmetric", tuple(checks))


def admissible(d1: int, d2: int, d3: int):
    """(ok, reason): screens out triples whose Frobenius number is already
    known to satisfy the conjectured power bounds.

    Rejected: a common factor in some pair, a redundant generator, an element
    dividing the sum of the other two, and almost-arithmetic triples
    (d1, a*d1 + b, a*d1 + 2b) with gcd(d1, b) = 1.
    """
    d = sorted((d1, d2, d3))
    if len(set(d)) < 3 or d[0] < 2:
        return False, "degenerate triple"
    for i in range(3):
        for j in range(i + 1, 3):
            if math.gcd(d[i], d[j]) != 1:
                return False, f"common factor gcd({d[i]}, {d[j]}) = {math.gcd(d[i], d[j])}"
    for i in range(3):
        others = [d[j] for j in range(3) if j != i]
        if representable_pair(d[i], others[0], others[1]):
            return False, f"{d[i]} is representable by the other two"
    for i in range(3):
        s = sum(d) - d[i]
        if s % d[i] == 0:
            return False, f"{d[i]} divides the sum {s} of the other two"
    b = d[2] - d[1]
    if (2 * d[1] - d[2]) % d[0] == 0:
        a = (2 * d[1] - d[2]) // d[0]
        if a >= 1 and math.gcd(d[0], b) == 1:
            return False, f"almost arithmetic: ({d[0]}, {a}*{d[0]}+{b}, {a}*{d[0]}+2*{b})"
    return True, None


# Most bits conjecture_bound_check lets either side of its comparison reach,
# and critical_l lets l_cr reach
MAX_POWER_BITS = 1 << 22


def conjecture_bound_check(g: Generators, F: int, C: Fraction, nu: Fraction) -> BoundCheck:
    """Does F <= C * (d1...dm)^nu - sum d hold?  Cleared of denominators:
    ((F + sum d) * c_d)^q  vs  c_n^q * (prod d)^p with nu = p/q, C = c_n/c_d.
    Raises InvalidInput before powering when a side would pass MAX_POWER_BITS."""
    C = Fraction(C)
    nu = Fraction(nu)
    if C <= 0 or nu <= 0 or nu >= 1:
        raise InvalidInput(f"need C > 0 and 0 < nu < 1, got C={C}, nu={nu}")
    p, q = nu.numerator, nu.denominator
    base, prod = (F + g.sum()) * C.denominator, g.product()
    if max(q * base.bit_length(),
           q * C.numerator.bit_length() + p * prod.bit_length()) > MAX_POWER_BITS:
        raise InvalidInput(f"a side of the bound would pass {MAX_POWER_BITS} bits")
    lhs = base ** q
    rhs = C.numerator ** q * prod ** p
    return BoundCheck("conjectured_power_bound", "<=", lhs, rhs, lhs <= rhs)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12: the least odd composite that is a strong pseudoprime to every base
# above, 399165290221 * 798330580441 (Sorenson & Webster, Math. Comp. 86, 2017)
MR_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the bases 2..37, exact for n < MR_LIMIT.

    Raises InvalidInput for n >= MR_LIMIT, where those bases no longer decide.
    """
    if n >= MR_LIMIT:
        raise InvalidInput(f"bases 2..37 do not decide the primality of {n} >= {MR_LIMIT}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FamilyMember:
    l: int
    generators: Generators
    matrix: RelationMatrix
    F: int
    admissible: bool
    reason: Optional[str]
    d1_prime: Optional[bool]


def counterexample_family(l: int) -> FamilyMember:
    """Member (2l+1, 2l+3, 4l+3) of the family with F = 2l^2 + 3l - 1.

    The relation matrix is g's own, read off the Klein sail in O(log l)
    steps.  Admissibility holds for l >= 2 with l not divisible by 3 (for
    l = 3j the outer pair shares the factor 3); primality of 2l+1 is
    reported as extra information, it is not required, and is None where
    2l+1 >= MR_LIMIT and is_prime cannot decide it.
    """
    if l < 1:
        raise InvalidInput(f"need l >= 1, got {l}")
    g = validate_generators((2 * l + 1, 2 * l + 3, 4 * l + 3))
    ok, reason = admissible(*g.elements)
    d1 = 2 * l + 1
    d1_prime = is_prime(d1) if d1 < MR_LIMIT else None
    return FamilyMember(l, g, relation_matrix(g), 2 * l * l + 3 * l - 1, ok, reason, d1_prime)


@dataclass(frozen=True)
class CriticalL:
    C: Fraction
    nu: Fraction
    exact: Optional[Fraction]   # lg2(l_cr) when representable exactly
    low: Fraction               # otherwise lg2(l_cr) in [low, high]
    high: Fraction
    l_cr: Optional[int]         # 2**exact when that is a non-negative integer


def _floor_lg2_64(C: Fraction) -> tuple:
    """(k, exact) with 2^k <= C^64 < 2^(k+1); exact iff C^64 == 2^k."""
    N = C.numerator ** 64
    D = C.denominator ** 64
    # 2^(nb - 1) <= N < 2^nb and 2^(db - 1) <= D < 2^db put N/D strictly
    # between 2^(k - 1) and 2^(k + 1) for k = nb - db
    k = N.bit_length() - D.bit_length()
    lhs, rhs = (D << k, N) if k >= 0 else (D, N << -k)    # 2^k * D vs N
    if lhs > rhs:
        return k - 1, False
    return k, lhs == rhs


def critical_l(C, nu) -> CriticalL:
    """Scale beyond which the family (2l+1, 2l+3, 4l+3) outgrows
    C * (d1 d2 d3)^nu: lg2(l_cr) = ((4 nu - 1) + lg2 C) / (2 - 3 nu).

    Exact when lg2 C is exactly representable (C a power of two); otherwise
    a 1/64-granular bracket from integer comparisons of C^64 against powers
    of two.  Raises InvalidInput, before powering, when an exact integer
    lg2(l_cr) passes MAX_POWER_BITS.
    """
    C = Fraction(C)
    nu = Fraction(nu)
    if C <= 0 or nu <= 0:
        raise InvalidInput(f"need C > 0 and nu > 0, got C={C}, nu={nu}")
    if nu >= Fraction(2, 3):
        raise NuTooLarge(f"nu = {nu} >= 2/3: the family growth l^3nu dominates")
    k, exact_pow = _floor_lg2_64(C)
    denom = 2 - 3 * nu
    base = 4 * nu - 1
    if exact_pow:
        lg = (base + Fraction(k, 64)) / denom
        powered = lg.denominator == 1 and lg >= 0
        if powered and lg > MAX_POWER_BITS:
            raise InvalidInput(f"lg2(l_cr) = {lg} passes {MAX_POWER_BITS}")
        l_cr = 2 ** int(lg) if powered else None
        return CriticalL(C, nu, lg, lg, lg, l_cr)
    low = (base + Fraction(k, 64)) / denom
    high = (base + Fraction(k + 1, 64)) / denom
    return CriticalL(C, nu, None, low, high, None)
