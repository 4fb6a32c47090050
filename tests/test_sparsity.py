"""Numerator sparsity bounds for many generators."""

import pytest

from numsemi import (
    diagonal_sum_check,
    min_element_check,
    random_valid_tuples,
    sparsity_check,
    validate_generators,
)
from numsemi.errors import DimensionUnsupported, InvalidInput


def test_sparsity_goldens_m4():
    rep = sparsity_check(validate_generators((4, 21, 26, 43)))
    assert (rep.m, rep.d1, rep.diag) == (4, 4, (13, 2, 2, 2))
    assert rep.count == 18
    assert rep.bound == 26 and rep.weak_bound == 26
    assert rep.holds

    rep2 = sparsity_check(validate_generators((4, 31, 37, 50)))
    assert rep2.count == 18 and rep2.holds

    rep3 = sparsity_check(validate_generators((4, 13, 15, 18)))
    assert rep3.count == 18 and rep3.holds


def test_sparsity_m3_exact_counts():
    non = sparsity_check(validate_generators((3, 4, 5)))
    assert (non.count, non.bound, non.holds) == (6, 6, True)
    sym = sparsity_check(validate_generators((4, 5, 6)))
    assert (sym.count, sym.bound, sym.holds) == (4, 4, True)
    tri = sparsity_check(validate_generators((6, 10, 15)))
    assert (tri.count, tri.bound, tri.holds) == (4, 4, True)


def test_dimension_guards():
    with pytest.raises(DimensionUnsupported):
        sparsity_check(validate_generators((3, 5)))
    with pytest.raises(DimensionUnsupported):
        diagonal_sum_check(validate_generators((3, 4, 5)))


def test_min_element_check():
    assert min_element_check(validate_generators((4, 21, 26, 43)))  # d1 = m
    assert min_element_check(validate_generators((3, 4, 5)))


def test_five_generators():
    g = validate_generators((5, 6, 7, 8, 9))
    rep = sparsity_check(g)
    assert rep.m == 5
    assert rep.holds
    assert diagonal_sum_check(g)
    assert min_element_check(g)


def test_random_valid_tuples_deterministic():
    sample = random_valid_tuples(5, 4, 100, seed=20260815)
    assert [g.elements for g in sample] == [
        (12, 66, 91, 98),
        (9, 73, 89, 97),
        (43, 52, 62, 92),
        (6, 65, 76, 87),
        (61, 68, 79, 93),
    ]
    again = random_valid_tuples(5, 4, 100, seed=20260815)
    assert [g.elements for g in again] == [g.elements for g in sample]


def test_random_valid_tuples_needs_m_integers_to_draw_from():
    # [4, 7] holds exactly four integers, [4, 6] three
    assert [g.elements for g in random_valid_tuples(1, 4, 7, seed=0)] == [(4, 5, 6, 7)]
    with pytest.raises(InvalidInput):
        random_valid_tuples(3, 4, 6, seed=0)
    with pytest.raises(InvalidInput):
        random_valid_tuples(3, -1, 100, seed=0)


def test_random_valid_tuples_refusals():
    assert random_valid_tuples(0, 4, 100, seed=0) == []
    for count, m, d_max in ((-1, 4, 100), (3, 1, 100), (3, 0, 1),
                            (3, 4, 10 ** 33), (1, 37, 2000)):
        with pytest.raises(InvalidInput):
            random_valid_tuples(count, m, d_max, seed=0)
    # within the budget, but [30, 1100] holds too few minimal 30-tuples
    # for a draw to find one
    with pytest.raises(InvalidInput, match="in a row"):
        random_valid_tuples(1, 30, 1100, seed=0)


def test_bounds_hold_on_random_sample():
    for g in random_valid_tuples(60, 4, 150, seed=7):
        rep = sparsity_check(g)
        assert rep.holds, g
        assert rep.count <= rep.bound <= rep.weak_bound
        assert diagonal_sum_check(g), g
        assert min_element_check(g), g


def test_bounds_hold_far_beyond_small_generators():
    # the m >= 4 matrix costs O(m*d1) per tuple, so d_max = 10^4 is cheap
    for m, count in ((4, 20), (5, 10), (6, 5)):
        for g in random_valid_tuples(count, m, 10_000, seed=m):
            assert sparsity_check(g).holds, g
            assert diagonal_sum_check(g), g
