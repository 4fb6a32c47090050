"""Independent references the tests compare numsemi's fast routes against.

reachable_mask: bitmask reachability by doubling shifts.  numsemi answers
membership from Apéry sets and the O(log) pair test; the references below
that need membership use this instead.

gap_set_bitmask: numsemi reads gap sets off the Apéry set of d_1.  This
route marks every representable integer up to a bound past the Frobenius
number and lists the unmarked ones.

diagonal_coefficient_walk: numsemi finds a_jj of a triple on the Klein sail
in O(log d_j) steps.  This route tries v = 2, 3, ... in turn and shares
nothing with it but numsemi.representable_pair.

relation_matrix_walk: numsemi reads the m >= 4 relation matrix off Apéry
sets.  This route tries v = 2, 3, ... for each row and searches the
lex-smallest witness with bitmask membership, sharing nothing with it but
numsemi.representable_pair for two remaining generators.

scan_uniform_bruteforce: numsemi enumerates the (a-1)^3 candidate relation
matrices with diagonal (a, a, a).  This route tries every triple with
d3 <= d3_max and keeps those whose relation matrix has that diagonal.

phi_polynomial: Phi = sum of z^s over a gap set, built term by term from the
listed gaps; it needs no Apéry set, only the gap set it is given.

power_sums: numsemi.genera solves for g_n from the moments of a Hilbert
numerator.  This route raises every listed gap to every power and adds.

derivative_genera: g_1..g_3 as derivatives of Phi at z = 1, the paper's
route.  It differentiates Phi with its own derivative and shares neither the
power sums nor the recurrence.

verify_hilbert_identity: numsemi multiplies Q by each (1 - z^d_j) in one pass
(SparsePolynomial.times_one_minus_z).  This check rebuilds the product with
the generic SparsePolynomial product, a second kernel, and checks
(1 - z)(Phi + S) = 1 - z^(N+1) with Phi from a gap set found another way.
"""

import itertools
import math

from numsemi import (
    GapSet,
    RelationMatrix,
    SparsePolynomial,
    UniformDiagonalRecord,
    apery_set,
    classify,
    closed_form,
    hilbert_numerator,
    relation_matrix,
    representable_pair,
    uniform_closed,
    validate_generators,
)
from numsemi.errors import InternalMismatch, InvalidInput, ValidationError


def reachable_mask(gens, bound: int) -> int:
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


def _gap_bound(elems):
    """Sylvester bound d_i*d_j - d_i - d_j from the best coprime pair, else None."""
    best = None
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            a, b = elems[i], elems[j]
            if math.gcd(a, b) == 1:
                f = a * b - a - b
                if best is None or f < best:
                    best = f
    return best


def gap_set_bitmask(g) -> GapSet:
    """Exact gap set of validated generators by reachability DP."""
    elems = g.elements
    bound = _gap_bound(elems)
    if bound is not None:
        mask = reachable_mask(elems, bound) if bound >= 0 else 1
        # one linear pass over a bit string; per-n shifts would be quadratic
        bits = format(mask, "b")[::-1].ljust(bound + 2, "0")
        gaps = [n for n in range(1, bound + 1) if bits[n] == "0"]
        return GapSet(tuple(gaps))
    # No coprime pair: grow until d_1 consecutive representable integers
    # appear; from there on everything is representable (keep adding d_1).
    d1 = elems[0]
    hi = 4 * elems[-1] ** 2
    while True:
        mask = reachable_mask(elems, hi)
        bits = format(mask, "b")[::-1]
        idx = bits.find("1" * d1)
        if idx >= 0:
            gaps = [n for n in range(1, idx) if bits[n] == "0"]
            return GapSet(tuple(gaps))
        hi *= 2


def diagonal_coefficient_walk(g, j: int) -> int:
    """a_jj of a triple: the least v >= 2 with v*d_j in <d_i, d_k> (j 1-based).

    v = d_i/gcd(d_i, d_j) always works, so the walk stops by min of those.
    """
    d = g.elements
    dj = d[j - 1]
    a, b = d[:j - 1] + d[j:]
    cap = min(o // math.gcd(o, dj) for o in (a, b))
    for v in range(2, cap + 1):
        if representable_pair(v * dj, a, b):
            return v
    raise AssertionError(f"no relation found for d_{j} of {g}")


def _subset_oracle(gens):
    """Membership tester over a fixed tuple; the mask grows on demand."""
    if len(gens) == 2:
        return lambda t: representable_pair(t, *gens)
    state = {"bound": -1, "mask": 1}

    def query(t):
        if t < 0:
            return False
        if t > state["bound"]:
            state["bound"] = max(2 * t, 1024)
            state["mask"] = reachable_mask(gens, state["bound"])
        return bool(state["mask"] >> t & 1)

    return query


def _lex_witness_walk(t: int, gens):
    """Lexicographically smallest (v_1..v_k) >= 0 with sum v_i*gens[i] == t."""
    if len(gens) == 1:
        return (t // gens[0],) if t % gens[0] == 0 else None
    can_rest = _subset_oracle(gens[1:])
    for v in range(t // gens[0] + 1):
        rest = t - v * gens[0]
        if can_rest(rest):
            return (v,) + _lex_witness_walk(rest, gens[1:])
    return None


def relation_matrix_walk(g) -> RelationMatrix:
    """First minimal relation matrix, m >= 3: row j takes the least v >= 2
    with v*d_j in <others> by trying v = 2, 3, ..., and the lex-smallest
    witness of v*d_j."""
    d = g.elements
    diag, off = [], []
    for j in range(len(d)):
        others = d[:j] + d[j + 1:]
        can = _subset_oracle(others)
        v = next(v for v in itertools.count(2) if can(v * d[j]))
        w = _lex_witness_walk(v * d[j], others)
        diag.append(v)
        off.append(w[:j] + (0,) + w[j:])
    return RelationMatrix(len(d), tuple(diag), tuple(off))


def scan_uniform_bruteforce(a: int, d3_max: int) -> list:
    """scan_uniform by trying all 3 <= d1 < d2 < d3 <= d3_max, with its checks."""
    out = []
    for d3 in range(5, d3_max + 1):
        for d2 in range(3, d3):
            for d1 in range(3, d2):
                try:
                    g = validate_generators((d1, d2, d3))
                except ValidationError:
                    continue
                A = relation_matrix(g)
                if A.diag != (a, a, a):
                    continue
                cls = classify(g, A, cross_check=False)
                if cls.symmetric:
                    raise InternalMismatch(f"uniform diagonal yet symmetric: {g}")
                cf = closed_form(g, A, cls)
                F, G = uniform_closed(a, g.elements)
                if (F, G) != (cf.F, cf.G):
                    raise InternalMismatch(f"uniform closed form disagrees for {g}")
                out.append(UniformDiagonalRecord(g.elements, a, F, G, A))
    return sorted(out, key=lambda r: r.triple)


def phi_polynomial(gs: GapSet) -> SparsePolynomial:
    """Phi = sum of z^s over the gap set."""
    return SparsePolynomial.from_exponents(gs.gaps)


def power_sums(gs: GapSet, n_max: int) -> list:
    """[g_0, ..., g_n] with g_0 = genus."""
    return [sum(s ** n for s in gs.gaps) for n in range(n_max + 1)]


def derivative(p: SparsePolynomial) -> SparsePolynomial:
    return SparsePolynomial({d - 1: c * d for d, c in p.items() if d})


def derivative_genera(gs: GapSet, n_max: int = 3) -> list:
    """g_n from derivatives of Phi at z = 1:
    g_1 = Phi', g_2 = Phi'' + Phi', g_3 = Phi''' + 3 Phi'' + Phi'."""
    if not 0 <= n_max <= 3:
        raise InvalidInput(f"derivative route implemented for n <= 3, got {n_max}")
    d1 = derivative(phi_polynomial(gs))
    d2 = derivative(d1)
    d3 = derivative(d2)
    vals = [gs.genus,
            d1.eval_at(1),
            d2.eval_at(1) + d1.eval_at(1),
            d3.eval_at(1) + 3 * d2.eval_at(1) + d1.eval_at(1)]
    return vals[:n_max + 1]


def verify_hilbert_identity(g, gs: GapSet) -> bool:
    """Check both series identities exactly, truncated where finite:

    (1-z)(Phi + S_trunc) == 1 - z^(N+1)   and   trunc(prod(1-z^d_j) * S_trunc) == Q,

    with S_trunc from the Apéry set and Phi from gs, a gap set found another way.
    The products here are generic, so Q is checked by a second kernel.
    """
    ap = apery_set(g)
    q = hilbert_numerator(g)
    n = q.degree
    s_trunc = SparsePolynomial({k: 1 for k in range(n + 1) if k in ap})
    lhs = SparsePolynomial.one_minus_z(1) * (phi_polynomial(gs) + s_trunc)
    if lhs != SparsePolynomial({0: 1, n + 1: -1}):
        return False
    prod = SparsePolynomial.one()
    for dj in g.elements:
        prod = prod * SparsePolynomial.one_minus_z(dj)
    full = prod * s_trunc
    truncated = SparsePolynomial({d: c for d, c in full.items() if d <= n})
    return truncated == q
