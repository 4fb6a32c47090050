"""Higher genera: power sums, closed forms, derivative route."""

import math

import pytest

from numsemi import (
    GapSet,
    derivative_genera,
    gap_set,
    genera,
    genera2_closed,
    genus1_closed_3d,
    power_sums,
    validate_generators,
)
from numsemi.errors import InvalidInput, SymmetricInput
from oracle import gap_set_bitmask


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


def test_genus1_closed_matches_oracle(sweep30_gaps):
    for entry, gs in sweep30_gaps:
        if not entry.cls.symmetric:
            assert genus1_closed_3d(entry.g, entry.A) == sum(gs.gaps), entry.g


def test_genera_matches_power_sums_over_oracle_gaps(sweep30_gaps):
    # genera sums along the Apéry progressions; the oracle lists every gap
    for entry, gs in sweep30_gaps:
        assert genera(entry.g, 3) == power_sums(gs, 3), entry.g
    for elems in ((3, 5), (7, 11), (4, 21, 26, 43), (5, 6, 7, 8, 9), (6, 10, 15)):
        g = validate_generators(elems)
        assert genera(g, 6) == power_sums(gap_set_bitmask(g), 6), elems


def test_derivative_route(sweep30_gaps):
    for entry, gs in sweep30_gaps[::8]:
        assert derivative_genera(gs) == power_sums(gs, 3)
    for elems in ((2, 3), (4, 21, 26, 43), (4, 31, 37, 50)):
        gs = gap_set(validate_generators(elems))
        assert derivative_genera(gs) == power_sums(gs, 3)
    with pytest.raises(InvalidInput):
        derivative_genera(gs, 4)


def test_genera_dispatcher():
    g2 = validate_generators((3, 5))
    assert genera(g2) == [4, 14, 70, 416]
    assert genera(g2, 0) == [4]
    assert genera(g2, 1) == [4, 14]

    g3 = validate_generators((23, 29, 44))
    assert genera(g3, 3) == [122, 9526, 1111746, 157610476]

    # symmetric triples have no m=3 closed form; the power sums still come out
    assert genera(validate_generators((4, 5, 6)), 1) == [4, 13]

    g4 = validate_generators((4, 21, 26, 43))
    assert genera(g4, 1)[0] == 21
