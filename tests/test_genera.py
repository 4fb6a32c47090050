"""Higher genera: power sums, closed forms, derivative route."""

import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from numsemi import (
    GapSet,
    SparsePolynomial,
    apery_set,
    gap_set,
    genera,
    genera2_closed,
    genus1_closed_3d,
    hilbert_numerator,
    validate_generators,
)
from numsemi.errors import InvalidInput, SymmetricInput
from numsemi.genera import _moment_solve
from oracle import derivative, derivative_genera, gap_set_bitmask, power_sums


def test_power_sums():
    gs = gap_set(validate_generators((3, 5)))
    assert gs.gaps == (1, 2, 4, 7)
    assert power_sums(gs, 3) == [4, 14, 70, 416]
    assert power_sums(GapSet(()), 2) == [0, 0, 0]


def test_genera2_closed_golden():
    assert genera2_closed(3, 5) == (14, 70, 416)
    assert genera2_closed(2, 3) == (1, 1, 1)


def test_genera2_closed_matches_power_sums():
    for d1 in range(2, 25):
        for d2 in range(d1 + 1, 41):
            if math.gcd(d1, d2) != 1:
                continue
            gs = gap_set(validate_generators((d1, d2)))
            assert genera2_closed(d1, d2) == tuple(power_sums(gs, 3)[1:])


def test_genus1_closed_3d_goldens():
    assert genus1_closed_3d(validate_generators((23, 29, 44))) == 9526
    assert genus1_closed_3d(validate_generators((137, 251, 256))) == 3890976
    assert genus1_closed_3d(validate_generators((1563, 2275, 2503))) == 12178811815


def test_genus1_closed_3d_rejects_symmetric():
    with pytest.raises(SymmetricInput):
        genus1_closed_3d(validate_generators((4, 5, 6)))


def test_genera_matches_power_sums_over_oracle_gaps(sweep30_gaps):
    # genera sums along the Apéry progressions; the oracle lists every gap
    for entry, gs in sweep30_gaps:
        assert genera(entry.g, 3) == power_sums(gs, 3), entry.g
    for elems in ((3, 5), (7, 11), (4, 21, 26, 43), (5, 6, 7, 8, 9), (6, 10, 15)):
        g = validate_generators(elems)
        assert genera(g, 6) == power_sums(gap_set_bitmask(g), 6), elems


def test_derivative_route(sweep30_gaps):
    # the paper's route on the oracle's gap sets against the package's genera
    for entry, gs in sweep30_gaps[::8]:
        assert derivative_genera(gs) == genera(entry.g, 3), entry.g
    for elems in ((2, 3), (4, 21, 26, 43), (4, 31, 37, 50)):
        g = validate_generators(elems)
        gs = gap_set_bitmask(g)
        assert derivative_genera(gs) == genera(g, 3), elems
    with pytest.raises(InvalidInput):
        derivative_genera(gs, 4)


def test_oracle_derivative():
    assert derivative(SparsePolynomial({0: 1, 3: 1})).items() == [(2, 3)]
    assert derivative(SparsePolynomial({2: -2, 5: 1})).items() == [(1, -4), (4, 5)]
    assert derivative(SparsePolynomial.one()).is_zero()


def test_genera_dispatcher():
    g2 = validate_generators((3, 5))
    assert genera(g2) == [4, 14, 70, 416]
    assert genera(g2, 0) == [4]
    assert genera(g2, 1) == [4, 14]
    with pytest.raises(InvalidInput):
        genera(g2, -1)

    g3 = validate_generators((23, 29, 44))
    assert genera(g3, 3) == [122, 9526, 1111746, 157610476]

    # symmetric triples have no m=3 closed form; the power sums still come out
    assert genera(validate_generators((4, 5, 6)), 1) == [4, 13]

    g4 = validate_generators((4, 21, 26, 43))
    assert genera(g4, 1)[0] == 21


@st.composite
def _tuples(draw):
    """Valid m-tuples, m = 2..5: d_1 and m - 1 elements of (d_1, 2*d_1), none
    of which is a sum of two generators, so the tuple is minimal once coprime."""
    m = draw(st.integers(2, 5))
    d1 = draw(st.integers(m, 40))
    rest = draw(st.lists(st.integers(d1 + 1, 2 * d1 - 1), min_size=m - 1,
                         max_size=m - 1, unique=True))
    elems = (d1, *sorted(rest))
    assume(math.gcd(*elems) == 1)
    return elems


@settings(deadline=None, max_examples=200)
@given(_tuples(), st.integers(0, 40))
def test_genera_recurrence_matches_bitmask_power_sums(elems, n):
    # genera solves off one numerator per request; each is also solved on its
    # own, Ap(S, d_1) on every tuple and Q for m <= 3
    g = validate_generators(elems)
    want = power_sums(gap_set_bitmask(g), n)
    assert genera(g, n) == want
    assert _moment_solve((g[0],), apery_set(g).w, None, n) == want
    if g.m <= 3:
        assert _moment_solve(g.elements, *zip(*hilbert_numerator(g).items()), n) == want


def test_genera_budget_counts_the_recurrences():
    # at small d_1 the O(n^2) big-integer products of the solve dominate; the
    # largest n the budget admits still answers well inside half a second
    for elems, n in (((2, 3), 800), ((3, 5), 625), ((5, 7), 591)):
        g = validate_generators(elems)
        with pytest.raises(InvalidInput):
            genera(g, n + 1)
        t0 = time.monotonic()
        assert len(genera(g, n)) == n + 1
        assert time.monotonic() - t0 < 0.5, elems


def test_genera_of_a_triple_takes_the_cheaper_route():
    # the two large triples are solved off Q, with no step of size d_1; at
    # (23, 29, 44) the O(n^2) products dominate and the Apéry set's smaller
    # h = 1 + d_1 wins, and for a tiny d_1 and a huge d_3 the d_1 steps are
    # cheaper.  Each still answers well inside half a second
    for elems, n, via_q in (((10001, 10003, 20003), 272, True), ((23, 29, 44), 460, False),
                            ((563, 775, 903), 323, True),
                            ((3, 10 ** 40 + 1, 10 ** 40 + 3), 259, False)):
        g = validate_generators(elems)
        with pytest.raises(InvalidInput):
            genera(g, n + 1)
        t0 = time.monotonic()
        assert len(genera(g, n)) == n + 1
        assert time.monotonic() - t0 < 0.5, elems
        assert (g._apery is None) == via_q, elems


def test_genera_budget():
    # refused before any power: n = 3000 for (3, 5), n = 1000 for the paper
    # triple, and (3, 2^64 + 1) at n = 1000, which the d_1 steps alone admit
    for elems, n in (((3, 5), 3000), ((10001, 10003, 20003), 1000), ((3, 2 ** 64 + 1), 1000)):
        with pytest.raises(InvalidInput):
            genera(validate_generators(elems), n)
    assert len(genera(validate_generators((100001, 100003)), 3)) == 4
