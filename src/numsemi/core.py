"""Generator tuples, representability, Apéry sets, gap sets, and
Hilbert-series numerators.

Everything enumerated about S = <d_1, ..., d_m> is read off one structure,
the Apéry set of d_1: w[r], the least element of S congruent to r mod d_1
(Selmer 1977).  The round-robin algorithm (Böcker & Lipták, Algorithmica 48,
2007) builds it in O(m*d_1) steps, once per Generators; for m >= 4 it is
built by validation.  F, the genus, the gap list, Q, the symmetry test,
membership and the m >= 4 relation matrix follow from it.  For m <= 3,
F, the genus and Q are closed forms (Sylvester's for m = 2, the relation
matrix's for m = 3), read with no step of size d_1.  Pairs are tested in
O(log) steps; the tests keep a bitmask DP as the independent reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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
    # Ap(S, d_1) and the relation matrix once built (by validation, apery_set
    # or relation.relation_matrix); not part of the value
    _apery: Optional["AperySet"] = field(default=None, init=False, compare=False,
                                         repr=False)
    _relation: Optional["RelationMatrix"] = field(default=None, init=False,
                                                  compare=False, repr=False)

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

def pair_witness(t: int, a: int, b: int) -> Optional[tuple]:
    """Lexicographically smallest (x, y) >= 0 with x*a + y*b == t, or None,
    in O(log) time via a modular inverse."""
    k = math.gcd(a, b)
    if t < 0 or t % k:
        return None
    # smallest x >= 0 with x*a == t (mod b); a witness exists iff x*a <= t
    x = t // k % (b // k) * pow(a // k, -1, b // k) % (b // k)
    rest = t - x * a
    return (x, rest // b) if rest >= 0 else None


def representable_pair(t: int, a: int, b: int) -> bool:
    """t == x*a + y*b with x, y >= 0."""
    return pair_witness(t, a, b) is not None


def is_representable(n: int, g: Generators) -> bool:
    """Membership of n in the semigroup generated by g (any positive tuple)."""
    d = g.elements
    if n < d[0]:
        return n == 0
    if len(d) == 1:
        return n % d[0] == 0
    if len(d) == 2:
        return representable_pair(n, *d)
    return n in apery_set(g)


# --- validation -------------------------------------------------------------

def sift_generators(elems, drop: bool) -> Generators:
    """Test each of the sorted positive elems against the semigroup of the
    kept smaller ones (larger ones cannot help); a redundant one raises
    NotMinimal, or is dropped when drop is set.  While fewer than three are
    kept the pair test decides; after that e is redundant iff w[e mod d_1] <= e
    on Ap(<kept>, d_1), grown one round-robin step per kept element and left
    on the result.  That set raises TooManyGaps when d_1 - 1 > MAX_GAPS.
    """
    kept, w = [elems[0]], None
    for e in elems[1:]:
        if w is None and len(kept) == 3:
            w = _apery_w(kept)
        if (w[e % kept[0]] <= e if w is not None
                else is_representable(e, Generators(tuple(kept)))):
            if drop:
                continue
            raise NotMinimal(e)
        kept.append(e)
        if w is not None:
            _round_robin(w, e)
    g = Generators(tuple(kept))
    if w is not None:
        object.__setattr__(g, "_apery", AperySet(tuple(w)))
    return g


def validate_generators(raw) -> Generators:
    """Sort, deduplicate, and check: all >1, gcd 1, minimal (sift_generators)."""
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
    return sift_generators(elems, drop=False)


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

    def __contains__(self, n: int) -> bool:
        """n lies in S."""
        return n >= 0 and self.w[n % len(self.w)] <= n

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

    def numerator(self, g: Generators) -> SparsePolynomial:
        """Q = prod_{j=2}^{m} (1 - z^{d_j}) * sum_r z^{w[r]}, with H = Q / prod(1 - z^d_j)."""
        q = SparsePolynomial.from_exponents(self.w)
        for dj in g.elements[1:]:
            q = q.times_one_minus_z(dj)
        return q


def _round_robin(w: list, b: int) -> None:
    """Add generator b to Ap in place (Böcker & Lipták 2007).

    The residues mod d_1 = len(w) split into gcd(d_1, b) cycles of
    r -> r + b.  Each cycle is walked once around from its least entry,
    relaxing w[r + b] <= w[r] + b, which settles it.
    """
    d1 = len(w)
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


def _apery_w(gens) -> list:
    """Ap(<gens>, gens[0]); TooManyGaps before allocating if gens[0] - 1 > MAX_GAPS."""
    d1 = gens[0]
    if d1 - 1 > MAX_GAPS:
        raise TooManyGaps(
            f"Generators{tuple(gens)} has at least {d1 - 1} gaps, more than {MAX_GAPS}")
    w = [math.inf] * d1
    w[0] = 0
    for b in gens[1:]:
        _round_robin(w, b)
    return w


def apery_set(g: Generators) -> AperySet:
    """Ap(S, d_1) in O(m*d_1) steps, built at most once per Generators.
    Entries are infinite where g has gcd > 1.

    Raises TooManyGaps when d_1 - 1 > MAX_GAPS.
    """
    if g._apery is None:
        object.__setattr__(g, "_apery", AperySet(tuple(_apery_w(g.elements))))
    return g._apery


def gap_set(g: Generators) -> GapSet:
    """Exact gap set read off the Apéry set, in time linear in the genus.

    Raises TooManyGaps when the genus exceeds MAX_GAPS.
    """
    return _list_gaps(g, apery_set(g))


def _list_gaps(g: Generators, ap: AperySet) -> GapSet:
    """The gaps of g off ap = Ap(S, b), b = len(ap.w), for any generator b.

    Residue r holds the gaps r, r + b, ..., w[r] - b.  Row k of these runs
    holds the gaps in [k*b, (k+1)*b) in ascending order, so reading the rows
    one after another lists them sorted in O(b + F) steps, with no sort.
    Raises TooManyGaps, before listing, when the genus exceeds MAX_GAPS.
    """
    genus = ap.genus
    if genus > MAX_GAPS:
        raise TooManyGaps(f"{g} has {genus} gaps, more than {MAX_GAPS}")
    b = len(ap.w)
    # zip_longest pads the short runs with None; gaps are positive, so
    # filter(None, ...) drops exactly the padding.  Both tuples are built from
    # lists: tuple() of an iterator of unknown length grows by repeated
    # reallocation, and over many listings that raised peak RSS step by step.
    rows = itertools.zip_longest(*[range(r, w, b) for r, w in enumerate(ap.w)])
    return GapSet(tuple(list(filter(None, itertools.chain.from_iterable(rows)))))


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


def _closed_forms(g: Generators) -> Optional[tuple]:
    """(F, G, Q) in closed form with no step of size d_1: Sylvester's for
    m = 2, `frobenius3`'s, whose verdict `classify` checks, for m = 3, and
    None for m >= 4, which have none."""
    if g.m == 2:
        return sylvester_closed(*g.elements)[:3]
    if g.m != 3:
        return None
    from .closedform import frobenius3  # closedform imports this module
    cf = frobenius3(g)
    return cf.F, cf.G, cf.Q


def frobenius_genus(g: Generators) -> tuple:
    """(F, G): the closed forms for m <= 3, Ap(S, d_1) for m >= 4."""
    closed = _closed_forms(g)
    if closed is not None:
        return closed[:2]
    ap = apery_set(g)
    return ap.frobenius, ap.genus


def hilbert_numerator(g: Generators) -> SparsePolynomial:
    """Q with H = Q / prod(1 - z^d_j): the closed form for m <= 3, with no
    step of size d_1, and AperySet.numerator for m >= 4.
    """
    closed = _closed_forms(g)
    if closed is not None:
        F, _, q = closed
    else:
        ap = apery_set(g)
        F, q = ap.frobenius, ap.numerator(g)
    if q.degree != F + g.sum():
        raise InternalMismatch(
            f"deg Q = {q.degree} != F + sum(d) = {F + g.sum()} for {g}"
        )
    return q
