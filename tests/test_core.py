"""Apéry sets and gap sets against the bitmask oracle, representability,
validation, and Hilbert numerators."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from numsemi import (
    MAX_GAPS,
    Generators,
    SparsePolynomial,
    apery_set,
    classify,
    frobenius_any,
    gap_set,
    genera,
    hilbert_numerator,
    is_representable,
    is_symmetric_gapset,
    phi_polynomial,
    reachable_mask,
    representable_pair,
    sylvester_closed,
    validate_generators,
    verify_hilbert_identity,
)
from numsemi.errors import ContainsUnit, NotCoprime, NotMinimal, TooManyGaps, TooShort
from oracle import gap_set_bitmask


def test_validate_sorts_and_normalizes():
    g = validate_generators([44, 23, 29])
    assert g.elements == (23, 29, 44)
    assert g.m == 3
    assert g.sum() == 96
    assert g.product() == 29348


def test_validate_rejections():
    with pytest.raises(TooShort):
        validate_generators([])
    with pytest.raises(TooShort):
        validate_generators([7])
    with pytest.raises(ContainsUnit):
        validate_generators([1, 3])
    with pytest.raises(ContainsUnit):
        validate_generators([0, 5, 7])
    with pytest.raises(NotCoprime):
        validate_generators([9, 21, 24])
    with pytest.raises(NotMinimal) as exc:
        validate_generators([3, 4, 5, 6])
    assert exc.value.element == 6
    with pytest.raises(NotMinimal):
        validate_generators([4, 4, 5])
    with pytest.raises(NotMinimal) as exc2:
        validate_generators([2, 4, 7])
    assert exc2.value.element == 4


def test_reachable_mask_small():
    # over {3, 5}: reachable in [0, 7] are 0, 3, 5, 6
    assert reachable_mask((3, 5), 7) == 0b01101001


def test_gap_set_goldens():
    assert gap_set(validate_generators((3, 4, 5))).gaps == (1, 2)
    assert gap_set(validate_generators((4, 5, 6))).gaps == (1, 2, 3, 7)
    assert gap_set(validate_generators((4, 6, 9))).gaps == (1, 2, 3, 5, 7, 11)
    gs = gap_set(validate_generators((2, 3)))
    assert gs.gaps == (1,)
    assert gs.frobenius == 1 and gs.genus == 1 and gs.conductor == 2


def test_gap_set_without_coprime_pair():
    # all pairwise gcds exceed 1: the Apéry walk splits the residues mod 6
    # into several cycles per generator, and the bitmask oracle has to detect
    # the conductor from a run of representables
    g = validate_generators((6, 10, 15))
    gs = gap_set(g)
    assert gs.frobenius == 29
    assert gs.genus == 15
    assert 30 not in gs.gaps and 29 in gs.gaps
    assert gs == gap_set_bitmask(g)


def test_apery_set_goldens():
    ap = apery_set(validate_generators((4, 5, 6)))
    assert ap.w == (0, 5, 6, 11)
    assert (ap.frobenius, ap.genus) == (7, 4) and ap.is_symmetric()
    ap = apery_set(validate_generators((6, 10, 15)))
    assert ap.w == (0, 25, 20, 15, 10, 35)
    assert (ap.frobenius, ap.genus) == (29, 15) and ap.is_symmetric()
    ap = apery_set(validate_generators((3, 4, 5)))
    assert ap.w == (0, 4, 5)
    assert (ap.frobenius, ap.genus) == (2, 2) and not ap.is_symmetric()


def test_gap_set_refuses_oversized_listings():
    # the largest gap set the test suite and the benchmark list
    assert gap_set(validate_generators((699, 1048, 1397))).genus == 243_602 <= MAX_GAPS
    # genus 25,010,000, read off the Apéry set without listing a gap
    g = validate_generators((10001, 10003, 20003))
    assert apery_set(g).genus == 25_010_000
    with pytest.raises(TooManyGaps):
        gap_set(g)
    # d1 - 1 > MAX_GAPS is refused before the Apéry set is built
    huge = validate_generators((MAX_GAPS + 2, MAX_GAPS + 3))
    for route in (gap_set, apery_set, genera):
        with pytest.raises(TooManyGaps):
            route(huge)


def test_sylvester_matches_oracle():
    for d1 in range(2, 40):
        for d2 in range(d1 + 1, 41):
            if math.gcd(d1, d2) != 1:
                continue
            res = sylvester_closed(d1, d2)
            gs = gap_set(validate_generators((d1, d2)))
            assert res.F == gs.frobenius
            assert res.G == gs.genus
            assert res.milnor == 2 * gs.genus
            assert res.Q == SparsePolynomial.one_minus_z(d1 * d2)


def test_arithmetic_progression_three_term_formula():
    # F(d, d+p, d+2p) = d*floor((d-2)/2) + (d-1)*p for gcd(d, p) = 1, d >= 3
    checked = 0
    for d in range(3, 26):
        for p in range(1, 26):
            if math.gcd(d, p) != 1:
                continue
            expected = d * ((d - 2) // 2) + (d - 1) * p
            assert frobenius_any((d, d + p, d + 2 * p)) == expected
            checked += 1
    assert checked == 361


def test_gaps_closed_under_generator_subtraction(sweep30_gaps):
    # if s is a gap and s - d_k > 0 then s - d_k is a gap
    for entry, gs in sweep30_gaps:
        gaps = set(gs.gaps)
        for s in gs.gaps:
            for d in entry.g.elements:
                if s - d > 0:
                    assert s - d in gaps, (entry.g, s, d)


def test_is_symmetric_gapset():
    assert is_symmetric_gapset(gap_set(validate_generators((4, 5, 6))))
    assert is_symmetric_gapset(gap_set(validate_generators((6, 10, 15))))
    assert not is_symmetric_gapset(gap_set(validate_generators((3, 4, 5))))
    assert not is_symmetric_gapset(gap_set(validate_generators((23, 29, 44))))


def test_phi_polynomial():
    phi = phi_polynomial(gap_set(validate_generators((4, 5, 6))))
    assert phi.items() == [(1, 1), (2, 1), (3, 1), (7, 1)]


def test_hilbert_numerator_goldens():
    g = validate_generators((4, 5, 6))
    q = hilbert_numerator(g)
    assert q.format() == "1 - z^10 - z^12 + z^22"
    assert q.degree == gap_set(g).frobenius + g.sum()

    g2 = validate_generators((6, 10, 15))
    assert hilbert_numerator(g2).format() == "1 - 2*z^30 + z^60"
    assert hilbert_numerator(g2).nonzero_count() == 4


def test_hilbert_numerator_four_generators():
    g = validate_generators((4, 21, 26, 43))
    q = hilbert_numerator(g)
    assert q.nonzero_count() == 18
    assert q.degree == 39 + 94  # F + sum(d)
    assert q.coeff(90) == 2


def test_verify_hilbert_identity(sweep30_gaps):
    for entry, gs in sweep30_gaps[::7]:
        assert verify_hilbert_identity(entry.g, gs)
    for elems in ((2, 3), (4, 21, 26, 43), (4, 31, 37, 50), (5, 6, 7, 8, 9)):
        assert verify_hilbert_identity(validate_generators(elems))


@settings(deadline=None, max_examples=300)
@given(st.integers(2, 60), st.integers(2, 60), st.integers(0, 400))
def test_representable_pair_matches_mask(a, b, t):
    fast = representable_pair(t, a, b)
    slow = bool(reachable_mask((a, b), t) >> t & 1)
    assert fast == slow


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.integers(2, 40), min_size=2, max_size=4, unique=True),
    st.integers(0, 200),
)
def test_membership_is_additively_closed(elems, t):
    g = Generators(tuple(sorted(elems)))
    if is_representable(t, g):
        for d in g.elements:
            assert is_representable(t + d, g)


@st.composite
def generator_tuples(draw):
    """Minimal generating tuples with m = 3..6 and d1 up to 300.

    Half of the later generators share a factor with d1, so the Apéry walk
    meets gcd(d1, d_j) > 1; redundant elements are dropped before m is checked.
    """
    m = draw(st.integers(3, 6))
    d1 = draw(st.integers(3, 300))
    factors = [k for k in range(1, d1) if d1 % k == 0]
    elems = {d1}
    for _ in range(m - 1):
        k = draw(st.sampled_from(factors)) if draw(st.booleans()) else 1
        elems.add(k * draw(st.integers(d1 // k + 1, 4 * d1 // k)))
    kept = []
    for e in sorted(elems):  # only smaller elements can represent e
        if not reachable_mask(kept, e) >> e & 1:
            kept.append(e)
    assume(len(kept) >= 3 and math.gcd(*kept) == 1)
    return validate_generators(kept)


@settings(deadline=None, max_examples=200)
@given(generator_tuples())
@example(validate_generators((6, 10, 15)))  # no coprime pair
def test_apery_route_matches_bitmask_oracle(g):
    oracle = gap_set_bitmask(g)
    ap = apery_set(g)
    assert gap_set(g) == oracle
    assert (ap.frobenius, ap.genus) == (oracle.frobenius, oracle.genus)
    assert ap.is_symmetric() == is_symmetric_gapset(oracle)
    if g.m == 3:
        assert classify(g, cross_check=False).symmetric == is_symmetric_gapset(oracle)
