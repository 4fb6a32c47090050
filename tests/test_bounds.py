"""Lower bounds, admissibility, the counterexample family, critical scale."""

import time
from fractions import Fraction

import pytest

from numsemi import (
    RelationMatrix,
    admissible,
    conjecture_bound_check,
    counterexample_family,
    critical_l,
    frobenius3,
    frobenius_any,
    is_prime,
    lower_bounds,
    relation_matrix,
    validate_generators,
    verify_standard_form,
)
from numsemi.bounds import MAX_POWER_BITS, MR_LIMIT
from numsemi.errors import DimensionUnsupported, InvalidInput, NuTooLarge


def test_lower_bounds_non_symmetric_golden():
    g = validate_generators((23, 29, 44))
    report = lower_bounds(g, 239, 122, symmetric=False)
    assert report.kind == "non-symmetric"
    assert report.all_hold
    by_name = {c.name: c for c in report.checks}
    assert set(by_name) == {
        "davison", "frobenius_square", "genus_vs_frobenius", "genus_square"}
    assert by_name["davison"].lhs == 335 ** 2
    assert by_name["davison"].rhs == 3 * 29348
    assert by_name["genus_vs_frobenius"].lhs == 244


def test_lower_bounds_symmetric_golden():
    g = validate_generators((4, 5, 6))
    report = lower_bounds(g, 7, 4, symmetric=True)
    assert report.kind == "symmetric"
    assert report.all_hold
    by_name = {c.name: c for c in report.checks}
    assert by_name["davison"].lhs == 484 and by_name["davison"].rhs == 360
    assert by_name["genus_is_half"].relation == "=="
    assert by_name["frobenius_square_symmetric"].rhs == 480


def test_lower_bounds_dimension_guard():
    with pytest.raises(DimensionUnsupported):
        lower_bounds(validate_generators((3, 5)), 7, 4, symmetric=False)


def test_admissible_goldens():
    assert admissible(10001, 10003, 20003) == (True, None)
    assert admissible(5, 7, 11) == (True, None)

    ok, reason = admissible(3, 4, 5)
    assert not ok and reason == "3 divides the sum 9 of the other two"

    ok, reason = admissible(7, 9, 15)
    assert not ok and reason == "common factor gcd(9, 15) = 3"

    ok, reason = admissible(3, 7, 10)
    assert not ok and reason == "10 is representable by the other two"

    ok, reason = admissible(5, 11, 12)
    assert not ok and reason == "almost arithmetic: (5, 2*5+1, 2*5+2*1)"

    ok, reason = admissible(4, 4, 9)
    assert not ok and reason == "degenerate triple"


def test_conjecture_bound_goldens():
    # the two appendix counterexamples, via exact 8th-power comparison
    g = validate_generators((10001, 10003, 20003))
    cx = conjecture_bound_check(g, 50014999, Fraction(1), Fraction(5, 8))
    assert not cx.holds
    assert cx.lhs == (50014999 + 40007) ** 8
    assert cx.rhs == (10001 * 10003 * 20003) ** 5

    g2 = validate_generators((100001, 100003, 200003))
    cx2 = conjecture_bound_check(g2, 5000149999, Fraction(1), Fraction(5, 8))
    assert not cx2.holds

    # a modest triple satisfies the same bound comfortably
    g3 = validate_generators((23, 29, 44))
    assert conjecture_bound_check(g3, 239, Fraction(1), Fraction(5, 8)).holds


def test_conjecture_bound_rejections():
    g = validate_generators((3, 4, 5))
    with pytest.raises(InvalidInput):
        conjecture_bound_check(g, 2, Fraction(0), Fraction(1, 2))
    with pytest.raises(InvalidInput):
        conjecture_bound_check(g, 2, Fraction(1), Fraction(1))
    # refused before powering: (F + sum d)^(10^6) of the paper triple would
    # have about 2.6*10^7 bits, more than MAX_POWER_BITS = 2^22
    big = validate_generators((10001, 10003, 20003))
    with pytest.raises(InvalidInput):
        conjecture_bound_check(big, 50014999, Fraction(1), Fraction(1, 10 ** 6))
    assert not conjecture_bound_check(big, 50014999, Fraction(1), Fraction(1, 10 ** 4)).holds


def test_family_member_goldens():
    m = counterexample_family(2)
    assert m.generators.elements == (5, 7, 11)
    assert m.F == 13
    assert m.admissible and m.reason is None
    assert m.d1_prime

    m1 = counterexample_family(1)
    assert m1.generators.elements == (3, 5, 7)
    assert m1.F == 4
    assert not m1.admissible and "divides the sum" in m1.reason

    m3 = counterexample_family(3)
    assert not m3.admissible and "common factor" in m3.reason

    m200 = counterexample_family(200)
    assert m200.generators.elements == (401, 403, 803)
    assert m200.F == 80599

    with pytest.raises(InvalidInput):
        counterexample_family(0)


def test_family_admissibility_pattern():
    for l in range(1, 201):
        m = counterexample_family(l)
        assert m.admissible == (l >= 2 and l % 3 != 0), l


def test_family_frobenius_matches_oracle():
    for l in range(1, 201):
        m = counterexample_family(l)
        assert m.F == frobenius_any(m.generators.elements), l


def test_family_matrix_is_the_relation_matrix():
    # the paper's closed-form matrix of the family, against the sail walk
    for l in [*range(1, 41), *(10 ** k for k in range(2, 51))]:
        g = validate_generators((2 * l + 1, 2 * l + 3, 4 * l + 3))
        assert relation_matrix(g) == RelationMatrix(
            3, (l + 3, l + 1, 2), ((0, l, 1), (l, 0, 1), (3, 1, 0))), l
        m = counterexample_family(l)
        assert m.matrix == relation_matrix(g), l
        assert all(verify_standard_form(m.generators, m.matrix).values()), l
        cf = frobenius3(m.generators, m.matrix)
        assert cf.F == m.F


def test_family_outgrows_conjectured_bound_at_critical_scale():
    crit = critical_l(Fraction(1), Fraction(5, 8))
    assert crit.exact == 12
    assert crit.l_cr == 4096

    below = counterexample_family(2 ** 10)
    above = counterexample_family(2 ** 13)
    assert conjecture_bound_check(
        below.generators, below.F, Fraction(1), Fraction(5, 8)).holds
    assert not conjecture_bound_check(
        above.generators, above.F, Fraction(1), Fraction(5, 8)).holds
    assert above.generators.elements == (16385, 16387, 32771)
    assert above.F == 134242303


def test_critical_l_values():
    c = critical_l(Fraction(2), Fraction(5, 8))
    assert c.exact == 20 and c.l_cr == 2 ** 20

    c2 = critical_l(Fraction(1), Fraction(1, 2))
    assert c2.exact == 2 and c2.l_cr == 4

    # lg2(3) is irrational: expect a 1/64-wide bracket and no exact answer
    c3 = critical_l(Fraction(3), Fraction(1, 2))
    assert c3.exact is None and c3.l_cr is None
    assert c3.low == Fraction(165, 32) and c3.high == Fraction(83, 16)
    assert c3.low < c3.high
    # C^64 = 2^-37.4...: the guess 2^-37 from the bit lengths is one too high
    c4 = critical_l(Fraction(2, 3), Fraction(1, 2))
    assert c4.exact is None
    assert c4.low == Fraction(13, 16) and c4.high == Fraction(27, 32)

    with pytest.raises(NuTooLarge):
        critical_l(Fraction(1), Fraction(2, 3))
    with pytest.raises(InvalidInput):
        critical_l(Fraction(0), Fraction(1, 2))


def test_critical_l_refuses_a_huge_power_before_building_it():
    # C = 2 and nu = 2L/(3L + 4) put lg2(l_cr) at exactly L
    c = critical_l(Fraction(2), Fraction(2 * 300, 3 * 300 + 4))
    assert c.exact == 300 and c.l_cr == 2 ** 300
    at_edge = critical_l(Fraction(2), Fraction(2 * MAX_POWER_BITS, 3 * MAX_POWER_BITS + 4))
    assert at_edge.l_cr == 2 ** MAX_POWER_BITS
    L = 2 ** 26
    t0 = time.monotonic()
    with pytest.raises(InvalidInput, match="passes"):
        critical_l(Fraction(2), Fraction(2 * L, 3 * L + 4))
    assert time.monotonic() - t0 < 0.1
    # an inexact lg2 builds nothing, so it is still answered
    c3 = critical_l(Fraction(3), Fraction(2 * L, 3 * L + 4))
    assert c3.l_cr is None and c3.low > MAX_POWER_BITS


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(561)       # Carmichael number
    assert is_prime(2 ** 31 - 1)   # Mersenne prime
    assert not is_prime(10001)     # 73 * 137
    assert is_prime(10007)


def test_is_prime_refuses_past_the_strong_pseudoprime_limit():
    # psi_12 is a strong pseudoprime to all twelve bases: Miller-Rabin with
    # them would call it prime
    assert MR_LIMIT == 318665857834031151167461 == 399165290221 * 798330580441
    assert not is_prime(MR_LIMIT - 2)
    for n in (MR_LIMIT, MR_LIMIT + 2, 10 ** 50 + 151):
        with pytest.raises(InvalidInput):
            is_prime(n)


def test_family_d1_prime_undecided_past_the_limit():
    below = counterexample_family((MR_LIMIT - 3) // 2)
    assert below.generators.elements[0] == MR_LIMIT - 2
    assert below.d1_prime is False
    # 2l+1 = psi_12 itself, which is composite
    at = counterexample_family((MR_LIMIT - 1) // 2)
    assert at.generators.elements[0] == MR_LIMIT
    assert at.d1_prime is None
    assert at.F == 2 * at.l ** 2 + 3 * at.l - 1
    assert counterexample_family(10 ** 50).d1_prime is None
