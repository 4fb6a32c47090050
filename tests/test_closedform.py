"""Closed-form F, G, Q for three generators, plus reductions and families."""

import math

import pytest

from numsemi import (
    SparsePolynomial,
    closed_form,
    frobenius3,
    frobenius_any,
    frobenius_matrix_only,
    gap_set,
    genus_matrix_only,
    j_invariant,
    johnson_reduce,
    pythagorean,
    relation_matrix,
    symmetric_closed,
    validate_generators,
)
from numsemi.errors import InvalidInput, NotPrimitive, NonSymmetricInput, SymmetricInput
from oracle import gap_set_bitmask


def test_non_symmetric_goldens():
    cf = frobenius3(validate_generators((3, 4, 5)))
    assert not cf.symmetric
    assert (cf.inner, cf.J, cf.F, cf.G) == (27, 1, 2, 2)
    assert (cf.L1, cf.L2) == (14, 13)
    assert cf.Q.format() == "1 - z^8 - z^9 - z^10 + z^13 + z^14"

    cf = frobenius3(validate_generators((23, 29, 44)))
    assert (cf.F, cf.G, cf.J, cf.inner) == (239, 122, 86, 584)
    assert (cf.L1, cf.L2) == (249, 335)
    assert cf.Q.items() == [
        (0, 1), (161, -1), (203, -1), (220, -1), (249, 1), (335, 1)]

    cf = frobenius3(validate_generators((137, 251, 256)))
    assert (cf.F, cf.G, cf.J) == (4948, 2562, 1049)
    assert cf.Q.items() == [
        (0, 1), (3263, -1), (3288, -1), (3584, -1), (4543, 1), (5592, 1)]

    cf = frobenius3(validate_generators((1563, 2275, 2503)))
    assert (cf.F, cf.G, cf.J) == (273033, 138470, 10646)
    assert cf.Q.items() == [
        (0, 1), (35949, -1), (252803, -1), (259350, -1),
        (268728, 1), (279374, 1)]


def test_l_exponents_follow_matrix_not_size():
    # L1 = a_12 d_2 + a_33 d_3 and L2 = a_22 d_2 + a_13 d_3 as written;
    # (3,4,5) has L1 > L2 while (23,29,44) has L1 < L2
    cf = frobenius3(validate_generators((5, 7, 8)))
    assert (cf.L1, cf.L2) == (31, 29)
    assert cf.Q.items() == [(0, 1), (15, -1), (21, -1), (24, -1), (29, 1), (31, 1)]


def test_symmetric_goldens():
    cf = frobenius3(validate_generators((4, 5, 6)))
    assert cf.symmetric
    assert (cf.F, cf.G) == (7, 4)
    assert cf.Q == SparsePolynomial.one_minus_z(12) * SparsePolynomial.one_minus_z(10)

    # triple collision: every diagonal product is 30
    cf = frobenius3(validate_generators((6, 10, 15)))
    assert cf.symmetric
    assert (cf.F, cf.G) == (29, 15)
    assert cf.Q.items() == [(0, 1), (30, -2), (60, 1)]
    assert cf.Q.nonzero_count() == 4


def test_dispatch_guards():
    g_sym = validate_generators((4, 5, 6))
    g_non = validate_generators((3, 4, 5))
    with pytest.raises(SymmetricInput):
        closed_form(g_sym)
    with pytest.raises(NonSymmetricInput):
        symmetric_closed(g_non)


def test_matrix_only_expressions():
    for elems in ((3, 4, 5), (5, 7, 8), (23, 29, 44), (137, 251, 256)):
        g = validate_generators(elems)
        A = relation_matrix(g)
        cf = frobenius3(g, A)
        assert frobenius_matrix_only(A, g) == cf.F
        assert genus_matrix_only(A, g) == cf.G


def test_j_invariant():
    assert j_invariant(validate_generators((3, 4, 5))) == 1
    assert j_invariant(validate_generators((23, 29, 44))) == 86
    assert j_invariant(validate_generators((1563, 2275, 2503))) == 10646


def test_pythagorean_goldens():
    g, cf = pythagorean(2, 1)
    assert g.elements == (3, 4, 5)
    assert (cf.F, cf.G) == (2, 2)

    g, cf = pythagorean(3, 2)
    assert g.elements == (5, 12, 13)
    assert (cf.F, cf.G) == (21, 13)
    assert cf.F == gap_set(g).frobenius


def test_pythagorean_rejections():
    with pytest.raises(InvalidInput):
        pythagorean(2, 2)
    with pytest.raises(InvalidInput):
        pythagorean(1, 2)
    with pytest.raises(NotPrimitive):
        pythagorean(3, 1)  # k1, k2 both odd
    with pytest.raises(NotPrimitive):
        pythagorean(6, 2)


def test_pythagorean_parametric_scan():
    # the constructor cross-checks parametric F, G, J, <a,d> internally
    for k1 in range(2, 13):
        for k2 in range(1, k1):
            if math.gcd(k1, k2) == 1 and (k1 - k2) % 2:
                g, cf = pythagorean(k1, k2)
                assert not cf.symmetric
                assert cf.J == k2 * (k1 - k2) ** 2


def test_frobenius_any():
    assert frobenius_any((2, 3, 7)) == 1
    assert frobenius_any((6, 10, 15)) == 29
    assert frobenius_any((1, 5)) == -1
    assert frobenius_any((4, 6, 7, 8)) == 9  # reduces to (4, 6, 7)
    with pytest.raises(InvalidInput):
        frobenius_any((4, 6))
    with pytest.raises(InvalidInput):
        frobenius_any((0, 3))


def test_frobenius_any_drops_redundant_members_in_one_pass():
    # the ascending pass keeps e unless it lies in <kept smaller ones>;
    # from the fourth kept element on that test reads the Apéry set
    for elems, kept in (((4, 6, 7, 8, 9, 10, 11), (4, 6, 7, 9)),
                        ((11, 12, 14, 16, 18, 23, 25, 26), (11, 12, 14, 16, 18)),
                        ((5, 7, 9, 10, 11, 12, 13), (5, 7, 9, 11, 13))):
        assert frobenius_any(elems) == gap_set_bitmask(validate_generators(kept)).frobenius


def test_johnson_reduce():
    assert johnson_reduce(4, 6, 7) == 9
    assert johnson_reduce(6, 9, 20) == 43
    assert johnson_reduce(2, 4, 5) == 3
    assert johnson_reduce(2, 3, 7) == 1
    with pytest.raises(InvalidInput):
        johnson_reduce(2, 4, 6)


def test_johnson_reduce_matches_oracle():
    for d1 in range(2, 16):
        for d2 in range(d1 + 1, 20):
            for d3 in range(d2 + 1, 24):
                if math.gcd(math.gcd(d1, d2), d3) != 1:
                    continue
                assert johnson_reduce(d1, d2, d3) == frobenius_any((d1, d2, d3))
