"""Generator tuples, representability, Apéry sets, gap sets, and
Hilbert-series numerators.

Everything this package enumerates about S = <d_1, ..., d_m> is read off one
structure, the Apéry set of d_1: w[r], the least element of S congruent to r
mod d_1.  The round-robin algorithm builds it in O(m*d_1) steps, and F, the
genus, the gap list, the numerator Q and the symmetry test all follow from
it.  Bitmask reachability (reachable_mask) answers the membership questions
of validation and, for m >= 4 only, the relation-matrix search (m = 3 has
its own O(log d) route in relation); the test suite keeps a bitmask gap-set
DP as the independent reference the Apéry route is compared against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .errors import (
    ContainsUnit,
    InternalMismatch,
    InvalidInput,
    NotCoprime,
    NotMinimal,
    TooManyGaps,
    TooShort,
)
from .polynomial import SparsePolynomial


@dataclass(frozen=True)
class Generators:
    """A validated minimal generating tuple d_1 < ... < d_m, gcd 1."""

    elements: tuple

    @property
    def m(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def sum(self) -> int:
        return sum(self.elements)

    def product(self) -> int:
        return math.prod(self.elements)

    def __repr__(self):
        return f"Generators{self.elements}"


@dataclass(frozen=True)
class GapSet:
    """The finite set of non-representable positive integers."""

    gaps: tuple

    @property
    def frobenius(self) -> int:
        return self.gaps[-1] if self.gaps else -1

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def conductor(self) -> int:
        return self.frobenius + 1


# --- representability primitives -------------------------------------------

def reachable_mask(gens: Iterable[int], bound: int) -> int:
    """Bitmask of integers in [0, bound] representable over gens.

    Doubling shifts: OR-ing shifted copies with offsets g, 2g, 4g, ... closes
    the mask under +g because every multiple k*g is a sum of distinct
    power-of-two multiples (binary expansion of k).
    """
    full = (1 << (bound + 1)) - 1
    mask = 1
    for g in gens:
        step = g
        while step <= bound:
            mask |= (mask << step) & full
            step <<= 1
    return mask


def representable_pair(t: int, a: int, b: int) -> bool:
    """t == x*a + y*b with x, y >= 0, in O(log) time via modular inverse."""
    if t < 0:
        return False
    g = math.gcd(a, b)
    if t % g:
        return False
    t, a, b = t // g, a // g, b // g
    if a == 1 or b == 1:
        return True
    # smallest x >= 0 with x*a == t (mod b); representable iff x*a <= t
    x = (t % b) * pow(a, -1, b) % b
    return x * a <= t


def _representable(t: int, gens) -> bool:
    """t representable over an arbitrary positive-integer tuple."""
    if t == 0:
        return True
    if t < 0:
        return False
    usable = [g for g in gens if g <= t]
    if not usable:
        return False
    if len(usable) == 1:
        return t % usable[0] == 0
    if len(usable) == 2:
        return representable_pair(t, usable[0], usable[1])
    return bool(reachable_mask(usable, t) >> t & 1)


def is_representable(n: int, g: Generators) -> bool:
    """Membership of n in the semigroup generated by g."""
    return _representable(n, g.elements)


# --- validation -------------------------------------------------------------

def validate_generators(raw) -> Generators:
    """Sort, deduplicate, and check: all >1, gcd 1, minimal."""
    elems = sorted(raw)
    if not elems:
        raise TooShort("empty generator list")
    if elems[0] <= 1:
        raise ContainsUnit(f"element {elems[0]} <= 1")
    for i in range(1, len(elems)):
        if elems[i] == elems[i - 1]:
            raise NotMinimal(elems[i], f"duplicate element {elems[i]}")
    if len(elems) < 2:
        raise TooShort("need at least 2 generators")
    if math.gcd(*elems) != 1:
        raise NotCoprime(f"gcd{tuple(elems)} = {math.gcd(*elems)}")
    for i, e in enumerate(elems):
        if _representable(e, elems[:i] + elems[i + 1:]):
            raise NotMinimal(e)
    return Generators(tuple(elems))


# --- Apéry sets and gap sets -----------------------------------------------

# Largest genus gap_set lists.  Above it gap_set raises TooManyGaps; F, the
# genus and the higher genera of such semigroups still come from apery_set in
# O(m*d_1).  apery_set itself refuses d_1 - 1 > MAX_GAPS before it allocates
# anything: every residue r != 0 holds the gap r.  The largest gap set the
# tests and the benchmark build, for (699, 1048, 1397), has 243,602 gaps.
MAX_GAPS = 2_000_000


@dataclass(frozen=True)
class AperySet:
    """Ap(S, d_1): w[r] is the least element of S congruent to r mod d_1."""

    w: tuple

    @property
    def frobenius(self) -> int:
        return max(self.w) - len(self.w)

    @property
    def genus(self) -> int:
        # residue r holds the gaps r, r + d_1, ..., w[r] - d_1 (Selmer)
        d1 = len(self.w)
        return sum(x // d1 for x in self.w)

    def is_symmetric(self) -> bool:
        """Definition-based: max(w) - x lies in Ap for every x in Ap."""
        top = max(self.w)
        members = set(self.w)
        return all(top - x in members for x in self.w)


def apery_set(g: Generators) -> AperySet:
    """Round-robin algorithm (Böcker & Lipták 2007), O(m*d_1) steps.

    Adding generator b to the semigroup of d_1 and the earlier generators
    splits the residues mod d_1 into gcd(d_1, b) cycles of r -> r + b.  Each
    cycle is walked once around from its least entry, relaxing
    w[r + b] <= w[r] + b, which settles it.

    Raises TooManyGaps when d_1 - 1 > MAX_GAPS.
    """
    d1 = g.elements[0]
    if d1 - 1 > MAX_GAPS:
        raise TooManyGaps(f"{g} has at least {d1 - 1} gaps, more than {MAX_GAPS}")
    w = [math.inf] * d1
    w[0] = 0
    for b in g.elements[1:]:
        cycles = math.gcd(d1, b)
        for p in range(cycles):
            n = min(w[p::cycles])
            if n == math.inf:
                continue
            for _ in range(d1 // cycles - 1):
                n += b
                r = n % d1
                if w[r] < n:
                    n = w[r]
                else:
                    w[r] = n
    return AperySet(tuple(w))


def gap_set(g: Generators) -> GapSet:
    """Exact gap set read off the Apéry set, in time linear in the genus.

    Raises TooManyGaps when the genus exceeds MAX_GAPS.
    """
    d1 = g.elements[0]
    ap = apery_set(g)
    genus = ap.genus
    if genus > MAX_GAPS:
        raise TooManyGaps(f"{g} has {genus} gaps, more than {MAX_GAPS}")
    runs = (range(r, w, d1) for r, w in enumerate(ap.w))
    return GapSet(tuple(sorted(itertools.chain.from_iterable(runs))))


def is_symmetric_gapset(gs: GapSet) -> bool:
    """Definition-based test: s in S  <=>  F-s not in S."""
    gaps = set(gs.gaps)
    f = gs.frobenius
    if f < 0:
        return False
    if 2 * gs.genus != f + 1:
        return False
    # the reflection t -> F-t must send every gap to a non-gap; counting then
    # forces it to be a bijection between gaps and non-gaps in [0, F]
    return all(f - t not in gaps for t in gaps)


# --- generating functions ---------------------------------------------------

def phi_polynomial(gs: GapSet) -> SparsePolynomial:
    """Phi = sum of z^s over the gap set."""
    return SparsePolynomial.from_exponents(gs.gaps)


class SylvesterResult(NamedTuple):
    F: int
    G: int
    Q: SparsePolynomial
    milnor: int  # Milnor number of the plane monomial curve, = 2G


def sylvester_closed(d1: int, d2: int) -> SylvesterResult:
    """Two-generator closed forms: F, G, Q = 1 - z^(d1 d2)."""
    if d1 < 2 or d2 <= d1:
        raise InvalidInput(f"need 1 < d1 < d2, got ({d1}, {d2})")
    if math.gcd(d1, d2) != 1:
        raise NotCoprime(f"gcd({d1}, {d2}) = {math.gcd(d1, d2)}")
    F = d1 * d2 - d1 - d2
    G = (d1 - 1) * (d2 - 1) // 2
    return SylvesterResult(F, G, SparsePolynomial.one_minus_z(d1 * d2), 2 * G)


def hilbert_numerator(g: Generators, ap: Optional[AperySet] = None) -> SparsePolynomial:
    """Q with H = Q / prod(1 - z^d_j), from the Apéry set of d_1:

        Q = prod_{j=2}^{m} (1 - z^{d_j}) * sum_r z^{w[r]}

    ap, when given, must be apery_set(g); it is not built again.
    """
    if ap is None:
        ap = apery_set(g)
    q = SparsePolynomial.from_exponents(ap.w)
    for dj in g.elements[1:]:
        q = q * SparsePolynomial.one_minus_z(dj)
    if q.degree != ap.frobenius + g.sum():
        raise InternalMismatch(
            f"deg Q = {q.degree} != F + sum(d) = {ap.frobenius + g.sum()} for {g}"
        )
    return q


def verify_hilbert_identity(g: Generators, gs: Optional[GapSet] = None) -> bool:
    """Check both series identities exactly, truncated where finite:

    (1-z)(Phi + S_trunc) == 1 - z^(N+1)   and   trunc(prod(1-z^d_j) * S_trunc) == Q.
    """
    if gs is None:
        gs = gap_set(g)
    q = hilbert_numerator(g)
    n = q.degree
    mask = reachable_mask(g.elements, n)
    s_trunc = SparsePolynomial({k: 1 for k in range(n + 1) if mask >> k & 1})
    phi = phi_polynomial(gs)
    lhs = SparsePolynomial.one_minus_z(1) * (phi + s_trunc)
    if lhs != SparsePolynomial({0: 1, n + 1: -1}):
        return False
    prod = SparsePolynomial.one()
    for dj in g.elements:
        prod = prod * SparsePolynomial.one_minus_z(dj)
    full = prod * s_trunc
    truncated = SparsePolynomial({d: c for d, c in full.items() if d <= n})
    return truncated == q
