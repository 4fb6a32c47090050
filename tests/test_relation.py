"""First minimal relation matrices: construction, classification, standard form."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    ValidationError,
)
from oracle import diagonal_coefficient_walk


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


def test_diagonal_coefficients_match_the_walk(sweep60):
    for entry in sweep60:
        walk = tuple(diagonal_coefficient_walk(entry.g, j) for j in (1, 2, 3))
        assert entry.A.diag == walk, entry.g


@st.composite
def triples_with_shared_factors(draw):
    """Valid triples up to 10^5 as (k*h*x, k*y, h*z).

    In about half the draws each of k = gcd(a, b) and h = gcd(a/k, d_j) is
    forced above 1 for the row of d_j = h*z, so both Johnson's reduction and
    the lattice index n = d_j/h < d_j are exercised.
    """
    k = draw(st.integers(2, 30)) if draw(st.booleans()) else 1
    h = draw(st.integers(2, 30)) if draw(st.booleans()) else 1
    assume(math.gcd(k, h) == 1)
    a = k * h * draw(st.integers(1, 10 ** 5 // (k * h)))
    b = k * draw(st.integers(1, 10 ** 5 // k))
    c = h * draw(st.integers(1, 10 ** 5 // h))
    try:
        return validate_generators((a, b, c))
    except ValidationError:
        assume(False)


@settings(deadline=None, max_examples=300)
@given(triples_with_shared_factors())
@example(validate_generators((6, 10, 15)))
def test_diagonal_coefficient_matches_the_walk_on_large_triples(g):
    for j in (1, 2, 3):
        assert diagonal_coefficient(g, j) == diagonal_coefficient_walk(g, j), j


def _sigma(g, j):
    """(n, sigma) of the lattice x = sigma*y (mod n) on which row j is solved."""
    d = g.elements
    a, b = d[:j - 1] + d[j:]
    k = math.gcd(a, b)
    a, b = a // k, b // k
    h = math.gcd(a, d[j - 1])
    n = d[j - 1] // h
    return n, -b * pow(a // h, -1, n) % n


def test_diagonal_coefficient_goldens():
    # no coprime pair: every row has u = 1 after Johnson's reduction
    assert relation_matrix(validate_generators((6, 10, 15))).diag == (5, 3, 2)
    assert relation_matrix(validate_generators((4, 5, 6))).diag == (3, 2, 2)
    # m = 2: a_11 = d_2 and a_22 = d_1
    assert relation_matrix(validate_generators((3, 5))).diag == (5, 3)
    # (2m, 2m+1, 2m+2): row 3 has n = m + 1 and sigma = n - 1, so the sail
    # is one edge of m partial quotients 2, taken in a single jump
    for m in (5000, 10 ** 40):
        g = validate_generators((2 * m, 2 * m + 1, 2 * m + 2))
        assert _sigma(g, 3) == (m + 1, m)
        assert relation_matrix(g).diag == (m + 1, 2, m)
        if m < 10 ** 6:
            assert [diagonal_coefficient_walk(g, j) for j in (1, 2, 3)] == [m + 1, 2, m]
    # 50-digit members of the family (2l+1, 2l+3, 4l+3)
    for l in (10 ** 49, 10 ** 49 + 1, 4 * 10 ** 49 + 7):
        g = validate_generators((2 * l + 1, 2 * l + 3, 4 * l + 3))
        assert relation_matrix(g).diag == (l + 3, l + 1, 2), l


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
