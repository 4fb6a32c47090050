"""Uniform-diagonal triples and their elementary-symmetric closed forms."""

import time

import pytest

from numsemi import (
    gap_set,
    scan_uniform,
    uniform_closed,
    validate_generators,
    verify_standard_form,
)
from numsemi.errors import InvalidInput
from oracle import gap_set_bitmask, scan_uniform_bruteforce


def test_uniform_closed_goldens():
    assert uniform_closed(3, (5, 7, 8)) == (11, 7)
    assert uniform_closed(4, (7, 13, 15)) == (38, 21)
    assert uniform_closed(4, (10, 13, 14)) == (45, 24)


def test_scan_a3():
    records = scan_uniform(3, 30)
    assert [(r.triple, r.F, r.G) for r in records] == [((5, 7, 8), 11, 7)]
    assert records[0].matrix.signed_rows() == [
        (3, -1, -1), (-1, 3, -2), (-2, -2, 3)]


def test_scan_a4():
    records = scan_uniform(4, 30)
    assert [(r.triple, r.F, r.G) for r in records] == [
        ((7, 13, 15), 38, 21),
        ((10, 13, 14), 45, 24),
    ]


def test_scan_a5():
    records = scan_uniform(5, 30)
    assert [(r.triple, r.F, r.G) for r in records] == [
        ((9, 22, 23), 83, 46),
        ((13, 17, 24), 83, 46),
        ((13, 19, 23), 86, 48),
        ((13, 21, 22), 93, 50),
        ((13, 21, 23), 100, 52),
        ((16, 17, 23), 93, 50),
        ((16, 19, 21), 87, 50),
        ((17, 19, 22), 103, 54),
        ((17, 21, 22), 113, 58),
    ]


def test_scan_agrees_with_oracle():
    for a in (3, 4, 5):
        for rec in scan_uniform(a, 30):
            gs = gap_set(validate_generators(rec.triple))
            assert (gs.frobenius, gs.genus) == (rec.F, rec.G), rec.triple
            assert rec.matrix.diag == (a, a, a)


@pytest.mark.parametrize("a", range(3, 8))
def test_scan_matches_bruteforce(a):
    # every hit has d3 <= a^2 - 1, so the brute force to a^2 is the whole table
    table = scan_uniform_bruteforce(a, a * a)
    assert len(table) == {3: 1, 4: 2, 5: 9, 6: 10, 7: 33}[a]
    for d3_max in range(5, a * a + 1):
        assert scan_uniform(a, d3_max) == [
            r for r in table if r.triple[2] <= d3_max], d3_max


def test_scan_a12_golden():
    records = scan_uniform(12, 10 ** 9)
    assert len(records) == 91
    assert max(r.triple[2] for r in records) < 144
    for rec in records:
        g = validate_generators(rec.triple)
        gs = gap_set_bitmask(g)
        assert (gs.frobenius, gs.genus) == (rec.F, rec.G), rec.triple
        assert rec.matrix.diag == (12, 12, 12)
        assert all(verify_standard_form(g, rec.matrix).values()), rec.triple


def test_scan_bounds_prune_by_d3_max():
    # every d_i >= 2a - 1 = 19999, and no matrix puts all three near that
    t0 = time.monotonic()
    assert scan_uniform(10 ** 4, 2 * 10 ** 4 + 10) == []
    assert scan_uniform(10 ** 6, 30) == []
    assert time.monotonic() - t0 < 0.5


def test_scan_refuses_past_the_candidate_limit():
    # a = 60 forms 59^3 candidates unpruned; the refusal comes before any
    t0 = time.monotonic()
    for a, d3_max in ((60, 3600), (1953, 10 ** 10 + 4), (658148, 10 ** 60)):
        with pytest.raises(InvalidInput):
            scan_uniform(a, d3_max)
    assert time.monotonic() - t0 < 0.1


def test_scan_edge_cases():
    assert scan_uniform(3, 4) == []
    with pytest.raises(InvalidInput):
        scan_uniform(2, 30)
