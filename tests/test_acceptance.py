"""Acceptance criteria, one test per criterion, all comparisons exact.

Each test stamps a summary line (see conftest) and enforces its runtime
budget with a wall clock, so a regression in either correctness or speed
turns the criterion red.
"""

import math
import time
from fractions import Fraction

from numsemi import (
    SparsePolynomial,
    apery_set,
    classify,
    conjecture_bound_check,
    counterexample_family,
    critical_l,
    delta3_via_diagram,
    diagonal_sum_check,
    frobenius3,
    frobenius_any,
    gap_set,
    genera2_closed,
    genus1_closed_3d,
    hilbert_numerator,
    is_symmetric_gapset,
    j_invariant,
    lambda_set,
    lower_bounds,
    min_element_check,
    numerator_via_diagram,
    random_valid_tuples,
    scan_uniform,
    shift_difference_identity,
    sparsity_check,
    sylvester_closed,
    uniform_closed,
    validate_generators,
    verify_standard_form,
)
from oracle import gap_set_bitmask, power_sums


def test_criterion_1_golden_examples(acceptance):
    t0 = time.monotonic()

    # first triple: gap set, inner product, J, numerator, F, G
    g = validate_generators((3, 4, 5))
    gs = gap_set(g)
    cf = frobenius3(g)
    assert gs.gaps == (1, 2)
    assert (cf.inner, cf.J, cf.F, cf.G) == (27, 1, 2, 2)
    assert cf.Q.format() == "1 - z^8 - z^9 - z^10 + z^13 + z^14"

    # three larger non-symmetric triples: J, Q, F, G, all against the oracle
    mids = {
        (23, 29, 44): (239, 122, 86,
                       ((0, 1), (161, -1), (203, -1), (220, -1),
                        (249, 1), (335, 1))),
        (137, 251, 256): (4948, 2562, 1049,
                          ((0, 1), (3263, -1), (3288, -1), (3584, -1),
                           (4543, 1), (5592, 1))),
        (1563, 2275, 2503): (273033, 138470, 10646,
                             ((0, 1), (35949, -1), (252803, -1), (259350, -1),
                              (268728, 1), (279374, 1))),
    }
    for elems, (F, G, J, q_items) in mids.items():
        g = validate_generators(elems)
        cf = frobenius3(g)
        assert (cf.F, cf.G, cf.J) == (F, G, J), elems
        assert tuple(cf.Q.items()) == q_items, elems
        gs = gap_set(g)
        assert (gs.frobenius, gs.genus) == (F, G), elems
        assert hilbert_numerator(g) == cf.Q, elems

    # symmetric triple: gap set, numerator, F, G
    g = validate_generators((4, 5, 6))
    cf = frobenius3(g)
    assert gap_set(g).gaps == (1, 2, 3, 7)
    assert cf.symmetric and (cf.F, cf.G) == (7, 4)
    assert cf.Q == SparsePolynomial.one_minus_z(12) * SparsePolynomial.one_minus_z(10)

    # four-generator examples: full gap lists, 18-term numerators, genera
    g4a = validate_generators((4, 21, 26, 43))
    gs4a = gap_set(g4a)
    assert gs4a.gaps == (1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 17, 18, 19,
                         22, 23, 27, 31, 35, 39)
    assert gs4a.genus == 21
    q4a = hilbert_numerator(g4a)
    assert q4a.nonzero_count() == 18
    assert q4a == SparsePolynomial({
        0: 1, 42: -1, 47: -1, 52: -1, 64: -1, 68: 1, 69: -1, 73: 1, 85: 1,
        86: -1, 90: 2, 95: 1, 107: 1, 111: -1, 112: 1, 116: -1, 133: -1})

    g4b = validate_generators((4, 31, 37, 50))
    gs4b = gap_set(g4b)
    assert gs4b.gaps == (1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 17, 18, 19,
                         21, 22, 23, 25, 26, 27, 29, 30, 33, 34, 38, 42, 46)
    assert gs4b.genus == 28
    q4b = hilbert_numerator(g4b)
    assert q4b.nonzero_count() == 18
    assert q4b == SparsePolynomial({
        0: 1, 62: -1, 68: -1, 74: -1, 81: -1, 87: -1, 99: 1, 100: -1, 105: 1,
        112: 1, 118: 2, 124: 1, 131: 1, 137: 1, 149: -1, 155: -1, 168: -1})

    # first-genus closed form for the three non-symmetric triples
    expected_g1 = {(23, 29, 44): 9526, (137, 251, 256): 3890976,
                   (1563, 2275, 2503): 12178811815}
    for elems, g1 in expected_g1.items():
        g = validate_generators(elems)
        assert genus1_closed_3d(g) == g1
        assert power_sums(gap_set(g), 1)[1] == g1

    elapsed = time.monotonic() - t0
    assert elapsed < 10
    acceptance(1, f"6 example families, {elapsed:.1f} s")


def test_criterion_2_uniform_scan_tables(acceptance):
    t0 = time.monotonic()
    expected = {
        3: [((5, 7, 8), 11, 7)],
        4: [((7, 13, 15), 38, 21), ((10, 13, 14), 45, 24)],
        5: [((9, 22, 23), 83, 46), ((13, 17, 24), 83, 46),
            ((13, 19, 23), 86, 48), ((13, 21, 22), 93, 50),
            ((13, 21, 23), 100, 52), ((16, 17, 23), 93, 50),
            ((16, 19, 21), 87, 50), ((17, 19, 22), 103, 54),
            ((17, 21, 22), 113, 58)],
    }
    for a, table in expected.items():
        records = scan_uniform(a, 30)
        assert [(r.triple, r.F, r.G) for r in records] == table
        for r in records:
            # the scan itself equates the symmetric-function form with the
            # generic closed form; re-check both against direct enumeration
            g = validate_generators(r.triple)
            gs = gap_set(g)
            assert uniform_closed(a, r.triple) == (gs.frobenius, gs.genus)
            assert r.triple != (9, 21, 24)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    acceptance(2, f"1/2/9 triples for a=3/4/5, {elapsed:.1f} s")


def test_criterion_3_conjecture_falsification(acceptance):
    t0 = time.monotonic()

    # two explicit violations, compared through exact 8th powers
    for elems, F in (((10001, 10003, 20003), 50014999),
                     ((100001, 100003, 200003), 5000149999)):
        g = validate_generators(elems)
        cf = frobenius3(g)
        assert cf.F == F, elems
        check = conjecture_bound_check(g, cf.F, Fraction(1), Fraction(5, 8))
        assert not check.holds
        assert check.lhs == (F + g.sum()) ** 8
        assert check.rhs == g.product() ** 5

    # the parametric family: closed F against the oracle
    for l in range(1, 201):
        member = counterexample_family(l)
        assert member.F == 2 * l * l + 3 * l - 1
        assert member.F == frobenius_any(member.generators.elements), l

    # critical scale: the bound still holds at l = 2^10 and is violated at
    # l = 2^13 (the crossover near l_cr itself need not be sharp)
    crit = critical_l(Fraction(1), Fraction(5, 8))
    assert crit.l_cr == 2 ** 12
    below = counterexample_family(2 ** 10)
    above = counterexample_family(2 ** 13)
    assert conjecture_bound_check(below.generators, below.F,
                                  Fraction(1), Fraction(5, 8)).holds
    assert not conjecture_bound_check(above.generators, above.F,
                                      Fraction(1), Fraction(5, 8)).holds

    elapsed = time.monotonic() - t0
    assert elapsed < 60
    acceptance(3, f"2 violations, family l<=200, l_cr=4096, {elapsed:.1f} s")


def test_criterion_4_oracle_sweep(acceptance, sweep60):
    t0 = time.monotonic()
    checked = 0
    for e in sweep60:
        gs = gap_set_bitmask(e.g)
        assert gap_set(e.g) == gs, e.g
        # the matrix verdict against the complete-intersection test, and
        # against the definition on the oracle's gap set
        classify(e.g, e.A, cross_check=True)
        assert e.cls.symmetric == is_symmetric_gapset(gs), e.g
        assert (gs.frobenius, gs.genus) == (e.cf.F, e.cf.G), e.g
        # hilbert_numerator reads the matrix's closed form; the round-robin
        # set's Q is the one comparison of it that does not use the matrix
        assert apery_set(e.g).numerator(e.g) == e.cf.Q, e.g
        assert hilbert_numerator(e.g) == e.cf.Q, e.g
        assert delta3_via_diagram(e.g).gaps == gs.gaps, e.g
        if not e.cls.symmetric:
            lambda_set(e.g, e.A, verify=True)  # rectangle-count + identity
            assert shift_difference_identity(e.g), e.g
            assert numerator_via_diagram(e.g) == e.cf.Q, e.g
            assert genus1_closed_3d(e.g) == sum(gs.gaps), e.g
        checked += 1
    assert checked > 15000
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    acceptance(4, f"{checked} triples with d3 <= 60, {elapsed:.1f} s")


def test_criterion_5_property_suites(acceptance, sweep60, sweep30_gaps):
    t0 = time.monotonic()

    # two-generator closed forms against the oracle
    pairs = 0
    for d1 in range(2, 25):
        for d2 in range(d1 + 1, 26):
            if math.gcd(d1, d2) != 1:
                continue
            gs = gap_set(validate_generators((d1, d2)))
            res = sylvester_closed(d1, d2)
            assert (res.F, res.G) == (gs.frobenius, gs.genus)
            assert genera2_closed(d1, d2) == tuple(power_sums(gs, 3)[1:])
            pairs += 1

    # arithmetic-progression triples (d, d+p, d+2p) against the oracle
    ap = 0
    for d in range(3, 26):
        for p in range(1, 26):
            if math.gcd(d, p) != 1:
                continue
            assert frobenius_any((d, d + p, d + 2 * p)) \
                == d * ((d - 2) // 2) + (d - 1) * p
            ap += 1
    assert ap == 361

    # gap sets closed under generator subtraction
    for entry, gs in sweep30_gaps:
        gaps = set(gs.gaps)
        for s in gs.gaps:
            for d in entry.g.elements:
                if s - d > 0:
                    assert s - d in gaps, (entry.g, s)

    # matrix inequalities, numerator-exponent inequalities, J and L facts,
    # and every lower bound, across the full sweep
    for e in sweep60:
        assert lower_bounds(e.g, e.cf.F, e.cf.G, e.cls.symmetric).all_hold, e.g
        if e.cls.symmetric:
            assert e.cf.F % 2 == 1 and 2 * e.cf.G == e.cf.F + 1, e.g
            continue
        d1, d2, d3 = e.g.elements
        a = e.A.entry
        assert all(verify_standard_form(e.g, e.A).values()), e.g
        assert a(2, 2) + a(3, 3) <= d1 + 1 <= a(2, 2) * a(3, 3), e.g
        assert a(3, 3) + a(1, 1) <= d2 + 1 <= a(3, 3) * a(1, 1), e.g
        assert a(1, 1) + a(2, 2) <= d3 + 1 <= a(1, 1) * a(2, 2), e.g
        assert j_invariant(e.g) == e.cf.J >= 1, e.g
        L1, L2 = e.cf.L1, e.cf.L2
        assert L1 != L2, e.g
        assert L1 >= a(1, 1) * d1 + d3 and L2 >= a(1, 1) * d1 + d2, e.g
        assert L1 >= a(2, 2) * d2 + d1 and L2 >= a(2, 2) * d2 + d3, e.g
        assert L1 >= a(3, 3) * d3 + d2 and L2 >= a(3, 3) * d3 + d1, e.g

    # sparsity, diagonal-sum and minimal-element theorems on a seeded sample
    tuples = random_valid_tuples(200, 4, 200, seed=20260815)
    assert len(tuples) == 200
    for g in tuples:
        rep = sparsity_check(g)
        assert rep.holds, g
        assert diagonal_sum_check(g), g
        assert min_element_check(g), g

    elapsed = time.monotonic() - t0
    assert elapsed < 300
    acceptance(5, f"{pairs} pairs, {ap} progressions, {len(sweep60)} triples, "
                  f"200 random 4-tuples, {elapsed:.1f} s")


def test_criterion_6_structural_numerators(acceptance, sweep60):
    t0 = time.monotonic()
    for e in sweep60:
        coeffs = sorted(c for _, c in e.cf.Q.items())
        if e.cls.symmetric:
            assert e.cf.Q.nonzero_count() == 4, e.g
            assert coeffs in ([-2, 1, 1], [-1, -1, 1, 1]), e.g
        else:
            assert coeffs == [-1, -1, -1, 1, 1, 1], e.g
        assert e.cf.Q.degree - e.g.sum() == e.cf.F, e.g
        assert e.cf.Q.coeff(0) == 1 and e.cf.Q.eval_at(1) == 0, e.g

    # the same structure facts for the four-generator examples
    for elems in ((4, 21, 26, 43), (4, 31, 37, 50)):
        g = validate_generators(elems)
        gs = gap_set(g)
        q = hilbert_numerator(g)
        assert q.degree - g.sum() == gs.frobenius
        assert q.coeff(0) == 1 and q.eval_at(1) == 0

    elapsed = time.monotonic() - t0
    assert elapsed < 60
    acceptance(6, f"{len(sweep60)} numerators, {elapsed:.1f} s")
