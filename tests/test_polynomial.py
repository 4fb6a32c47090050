"""Sparse integer polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numsemi import SparsePolynomial


def test_constructors():
    assert SparsePolynomial.zero().is_zero()
    assert SparsePolynomial.zero().degree == -1
    assert SparsePolynomial.one().items() == [(0, 1)]
    assert SparsePolynomial.monomial(5, -2).items() == [(5, -2)]
    assert SparsePolynomial.one_minus_z(7).items() == [(0, 1), (7, -1)]
    assert SparsePolynomial.one_minus_z(0).is_zero()
    geo = SparsePolynomial.geometric(4)
    assert geo.items() == [(0, 1), (1, 1), (2, 1), (3, 1)]


def test_monomial_zero_coefficient_collapses():
    assert SparsePolynomial.monomial(3, 0).is_zero()
    assert (SparsePolynomial.monomial(3, 1) - SparsePolynomial.monomial(3, 1)).is_zero()


def test_from_exponents_counts_multiplicity():
    p = SparsePolynomial.from_exponents([5, 2, 5])
    assert p.items() == [(2, 1), (5, 2)]
    assert p.num_monomials() == 2
    assert p.nonzero_count() == 3  # multiplicity-weighted


def test_product_golden():
    p = SparsePolynomial.one_minus_z(10) * SparsePolynomial.one_minus_z(12)
    assert p.items() == [(0, 1), (10, -1), (12, -1), (22, 1)]
    assert p.degree == 22
    assert p.coeff(10) == -1
    assert p.coeff(11) == 0
    assert (3 * p).items() == [(0, 3), (10, -3), (12, -3), (22, 3)] and (p * 0).is_zero()
    assert bool(p) and not SparsePolynomial.zero()
    assert hash(p) == hash(SparsePolynomial({22: 1, 12: -1, 10: -1, 0: 1}))


def test_geometric_telescopes():
    # (1 - z) * (1 + z + ... + z^{n-1}) == 1 - z^n
    for n in (1, 2, 5, 9):
        assert SparsePolynomial.one_minus_z(1) * SparsePolynomial.geometric(n) \
            == SparsePolynomial.one_minus_z(n)


def test_eval_at():
    p = SparsePolynomial({0: 1, 2: -3, 5: 2})
    assert p.eval_at(1) == 0
    assert p.eval_at(2) == 1 - 12 + 64
    assert p.eval_at(Fraction(1, 2)) == Fraction(1) - Fraction(3, 4) + Fraction(2, 32)


def test_format_strings():
    assert SparsePolynomial.zero().format() == "0"
    assert SparsePolynomial.one().format() == "1"
    p = SparsePolynomial({0: 1, 8: -1, 90: 2})
    assert p.format() == "1 - z^8 + 2*z^90"
    q = SparsePolynomial({0: -1, 1: 1, 2: -4})
    assert q.format() == "-1 + z - 4*z^2"


def test_eval_fraction_is_exact():
    p = SparsePolynomial({0: 1, 3: -2})
    v = p.eval_at(Fraction(1, 3))
    assert isinstance(v, Fraction)
    assert v == 1 - Fraction(2, 27)


_poly = st.dictionaries(st.integers(0, 30), st.integers(-9, 9), max_size=8).map(
    SparsePolynomial
)


@settings(deadline=None, max_examples=200)
@given(_poly, _poly, st.integers(-5, 5))
def test_eval_is_ring_homomorphism(p, q, x):
    assert (p + q).eval_at(x) == p.eval_at(x) + q.eval_at(x)
    assert (p - q).eval_at(x) == p.eval_at(x) - q.eval_at(x)
    assert (p * q).eval_at(x) == p.eval_at(x) * q.eval_at(x)


@settings(deadline=None, max_examples=200)
@given(_poly, _poly)
def test_multiplication_commutes(p, q):
    assert p * q == q * p
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree == p.degree + q.degree


@settings(deadline=None, max_examples=300)
@given(_poly, st.integers(0, 12))
@example(SparsePolynomial({4: 1, 5: 1, 6: 1}), 1)         # collisions cancel inside
@example(SparsePolynomial({0: 1, 3: 2, 6: 1}), 3)         # telescoping collisions
@example(SparsePolynomial({5: -7}), 0)                    # k = 0: the result is zero
@example(SparsePolynomial.zero(), 4)
def test_times_one_minus_z_matches_the_product(p, k):
    before = dict(p._terms)
    assert p.times_one_minus_z(k) == p * SparsePolynomial.one_minus_z(k)
    assert p._terms == before    # the factor is applied to a copy
    if p.is_zero() or k == 0:
        assert p.times_one_minus_z(k).is_zero()


def test_times_one_minus_z_golden():
    p = SparsePolynomial({0: 1, 3: 2, 6: 1}).times_one_minus_z(3)
    assert p.items() == [(0, 1), (3, 1), (6, -1), (9, -1)]
    with pytest.raises(ValueError):
        p.times_one_minus_z(-1)
