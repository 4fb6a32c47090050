"""First minimal relation matrices: construction, classification, standard form."""

import math

import pytest

import numsemi.relation
from numsemi import (
    Generators,
    RelationMatrix,
    classify,
    diagonal_coefficient,
    gap_set,
    is_representable,
    is_symmetric_gapset,
    relation_matrix,
    validate_generators,
    verify_standard_form,
)
from numsemi.errors import (
    DimensionUnsupported,
    InternalMismatch,
    StandardFormViolation,
    SymmetricInput,
)


def test_matrix_goldens_three_generators():
    cases = {
        (3, 4, 5): [(3, -1, -1), (-1, 2, -1), (-2, -1, 2)],
        (4, 5, 6): [(3, 0, -2), (-1, 2, -1), (-3, 0, 2)],
        (5, 7, 8): [(3, -1, -1), (-1, 3, -2), (-2, -2, 3)],
        (5, 7, 11): [(5, -2, -1), (-2, 3, -1), (-3, -1, 2)],
        (6, 10, 15): [(5, 0, -2), (0, 3, -2), (0, -3, 2)],
        (23, 29, 44): [(7, -1, -3), (-5, 7, -2), (-2, -6, 5)],
    }
    for elems, rows in cases.items():
        A = relation_matrix(validate_generators(elems))
        assert A.signed_rows() == rows, elems


def test_matrix_goldens_four_generators():
    A = relation_matrix(validate_generators((4, 21, 26, 43)))
    assert A.signed_rows() == [
        (13, 0, -2, 0),
        (-4, 2, -1, 0),
        (-13, 0, 2, 0),
        (-2, 0, -3, 2),
    ]
    B = relation_matrix(validate_generators((4, 31, 37, 50)))
    assert B.signed_rows() == [
        (17, -1, -1, 0),
        (-3, 2, 0, -1),
        (-3, -2, 2, 0),
        (-8, -1, -1, 2),
    ]


def test_witnesses_are_lex_smallest_not_unique():
    # 2*43 = 44 + 42 = 11*4 + 2*21 are both relations for the last row of
    # (4, 21, 26, 43); the builder must pick the lex-smaller witness (2,0,3).
    g = validate_generators((4, 21, 26, 43))
    A = relation_matrix(g)
    assert A.off[3] == (2, 0, 3, 0)
    alt = (11, 2, 0, 0)
    assert sum(v * d for v, d in zip(alt, g.elements)) == A.diag[3] * g.elements[3]
    assert alt > A.off[3]  # valid but lex-greater


def test_entry_and_products():
    g = validate_generators((4, 5, 6))
    A = relation_matrix(g)
    assert A.entry(1, 1) == 3 and A.entry(1, 3) == 2 and A.entry(2, 1) == 1
    assert A.products(g) == (12, 10, 12)


def test_diagonal_coefficients_are_minimal(sweep30_gaps):
    for entry, _ in sweep30_gaps[::11]:
        d = entry.g.elements
        for j in (1, 2, 3):
            ajj = entry.A.diag[j - 1]
            assert ajj == diagonal_coefficient(entry.g, j)
            others = Generators(d[:j - 1] + d[j:])
            assert is_representable(ajj * d[j - 1], others)
            for v in range(2, ajj):
                assert not is_representable(v * d[j - 1], others), (d, j, v)


def test_row_identities_hold(sweep30_gaps):
    for entry, _ in sweep30_gaps[::5]:
        d = entry.g.elements
        for j in range(entry.A.m):
            total = sum(entry.A.off[j][i] * d[i] for i in range(entry.A.m))
            assert entry.A.diag[j] * d[j] == total
            assert math.gcd(entry.A.diag[j], *entry.A.off[j]) == 1


def test_classify_goldens():
    sym = classify(validate_generators((4, 5, 6)))
    assert sym.symmetric and sym.kind == "symmetric"
    assert sym.pair == (1, 3) and sym.collision == 12

    tri = classify(validate_generators((6, 10, 15)))
    assert tri.symmetric and tri.pair == (1, 2) and tri.collision == 30

    non = classify(validate_generators((5, 7, 8)))
    assert not non.symmetric and non.kind == "non-symmetric"
    assert non.pair is None and non.collision is None


def test_classify_agrees_with_definition(sweep30_gaps):
    for entry, gs in sweep30_gaps[::3]:
        assert entry.cls.symmetric == is_symmetric_gapset(gs)


def test_classify_cross_check_catches_a_wrong_verdict():
    # (3, 4, 5) is not symmetric, but this matrix makes a_11*d_1 and a_22*d_2
    # collide at lcm(3, 4) = 12
    g = validate_generators((3, 4, 5))
    fake_sym = RelationMatrix(3, (4, 3, 2), ((0, 1, 1), (1, 0, 1), (2, 1, 0)))
    assert classify(g, fake_sym, cross_check=False).symmetric
    with pytest.raises(InternalMismatch):
        classify(g, fake_sym, cross_check=True)
    # (4, 5, 6) is symmetric; a diagonal without a collision says it is not
    g = validate_generators((4, 5, 6))
    fake_non = RelationMatrix(3, (3, 3, 3), ((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    assert not classify(g, fake_non, cross_check=False).symmetric
    with pytest.raises(InternalMismatch):
        classify(g, fake_non, cross_check=True)
    with pytest.raises(InternalMismatch):
        classify(g, fake_non)  # below the gate the check runs by default


def test_classify_cross_check_gate(monkeypatch):
    # by default the check runs iff the smallest coprime product d_i*d_j
    # (4*d_3^2 without a coprime pair) is at most 5*10^6
    checked = []
    apery_set = numsemi.relation.apery_set

    def spy(g):
        checked.append(g.elements)
        return apery_set(g)

    monkeypatch.setattr(numsemi.relation, "apery_set", spy)
    expected = {
        (2235, 2237, 2239): True,    # 2235*2237 = 4,999,695
        (2237, 2239, 2241): False,   # 2237*2239 = 5,008,643
        (1000, 1002, 4999): True,    # gcd(d1, d2) = 2; 1000*4999 = 4,999,000
        (1000, 1002, 5001): False,   # 1000*5001 = 5,001,000
        (6, 74, 111): True,          # no coprime pair; 4*111^2 = 49,284
        (6, 802, 1203): False,       # no coprime pair; 4*1203^2 = 5,788,836
    }
    for elems, runs in expected.items():
        checked.clear()
        classify(validate_generators(elems))
        assert bool(checked) == runs, elems


def test_classify_dimension_guard():
    with pytest.raises(DimensionUnsupported):
        classify(validate_generators((3, 5)))
    with pytest.raises(DimensionUnsupported):
        classify(validate_generators((4, 21, 26, 43)))


def test_verify_standard_form_passes():
    g = validate_generators((3, 4, 5))
    checks = verify_standard_form(g, relation_matrix(g))
    assert checks == {name: True for name in (
        "row_identities", "positivity", "row_gcd", "column_sums",
        "cofactors", "determinant", "ordering", "diag_sandwich",
    )}
    g2 = validate_generators((23, 29, 44))
    assert all(verify_standard_form(g2, relation_matrix(g2)).values())


def test_verify_standard_form_rejects_symmetric():
    g = validate_generators((4, 5, 6))
    with pytest.raises(SymmetricInput):
        verify_standard_form(g, relation_matrix(g))


def test_verify_standard_form_catches_tampering():
    g = validate_generators((5, 7, 8))
    A = relation_matrix(g)
    # breaking one off-diagonal entry must trip the row-identity check
    bad_off = (A.off[0], (2, 0, 1), A.off[2])
    bad = RelationMatrix(3, A.diag, bad_off)
    with pytest.raises(StandardFormViolation) as exc:
        verify_standard_form(g, bad)
    assert "row" in str(exc.value)


def test_standard_form_over_sweep(sweep30_gaps):
    for entry, _ in sweep30_gaps:
        if not entry.cls.symmetric:
            assert all(verify_standard_form(entry.g, entry.A).values()), entry.g
