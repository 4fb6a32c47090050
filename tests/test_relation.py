"""First minimal relation matrices: construction, classification, standard form."""

import inspect
import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numsemi
import numsemi.core
import numsemi.relation
from numsemi import (
    Generators,
    RelationMatrix,
    apery_set,
    classify,
    closed_form,
    diagonal_coefficient,
    frobenius3,
    frobenius_genus,
    genera,
    hilbert_numerator,
    is_representable,
    is_symmetric_gapset,
    lambda_set,
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
from numsemi.genera import _moment_solve
from oracle import (
    diagonal_coefficient_walk,
    gap_set_bitmask,
    power_sums,
    reachable_mask,
    relation_matrix_walk,
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


def test_diagonal_coefficients_match_the_walk(sweep60):
    for entry in sweep60:
        walk = tuple(diagonal_coefficient_walk(entry.g, j) for j in (1, 2, 3))
        assert entry.A.diag == walk, entry.g


@st.composite
def triples_with_shared_factors(draw, limit=10 ** 5):
    """Valid triples up to limit as (k*h*x, k*y, h*z).

    In about half the draws each of k = gcd(a, b) and h = gcd(a/k, d_j) is
    forced above 1 for the row of d_j = h*z, so both Johnson's reduction and
    the lattice index n = d_j/h < d_j are exercised.
    """
    top = min(30, math.isqrt(limit))
    k = draw(st.integers(2, top)) if draw(st.booleans()) else 1
    h = draw(st.integers(2, top)) if draw(st.booleans()) else 1
    assume(math.gcd(k, h) == 1)
    a = k * h * draw(st.integers(1, limit // (k * h)))
    b = k * draw(st.integers(1, limit // k))
    c = h * draw(st.integers(1, limit // h))
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


@settings(deadline=None, max_examples=300)
@given(triples_with_shared_factors())
@example(validate_generators((6, 10, 15)))
def test_closed_forms_match_the_round_robin_set_on_large_triples(g):
    # Q, F and the genus of a triple read the relation matrix alone; the
    # round-robin Apéry set is the independent route to the same values
    ap = apery_set(g)
    assert hilbert_numerator(g) == ap.numerator(g)
    assert frobenius_genus(g) == (ap.frobenius, ap.genus)
    assert classify(g, cross_check=False).symmetric == ap.is_symmetric()


@settings(deadline=None, max_examples=150)
@given(triples_with_shared_factors(limit=300))
@example(validate_generators((9, 10, 15)))
@example(validate_generators((100, 150, 151)))
def test_triple_readers_match_the_bitmask_oracle(g):
    # F, the genus, the lambda cells' residue runs and genera's moment solve
    # off either numerator agree with the listed gaps
    oracle = gap_set_bitmask(g)
    assert frobenius_genus(g) == (oracle.frobenius, oracle.genus)
    if relation_matrix(g).collision(g) is None:
        d1 = g.elements[0]
        values = lambda_set(g, verify=False).values
        assert sorted(x for w in values for x in range(w % d1, w, d1)) == list(oracle.gaps)
    want = power_sums(oracle, 6)
    assert genera(g, 6) == want
    assert _moment_solve(g.elements, *zip(*hilbert_numerator(g).items()), 6) == want
    assert _moment_solve((g[0],), apery_set(g).w, None, 6) == want


def test_m4_matrices_match_the_walk_exhaustively():
    # every minimal 4-tuple with d4 <= 40: diagonal and lex-smallest witnesses
    checked = 0
    for elems in itertools.combinations(range(4, 41), 4):
        try:
            g = validate_generators(elems)
        except ValidationError:
            continue
        assert relation_matrix(g) == relation_matrix_walk(g), elems
        checked += 1
    assert checked == 28106


@st.composite
def tuples_with_shared_factors(draw):
    """Minimal 4- to 7-tuples up to 200.

    In half the draws every generator but d_1 is a multiple of some f prime
    to d_1.  Then every generator set the witness search tests against
    without d_1 has gcd > 1, so its Apéry set has infinite entries.
    """
    m = draw(st.integers(4, 7))
    d1 = draw(st.integers(m, 80))
    f = draw(st.integers(2, 7)) if draw(st.booleans()) else 1
    assume(math.gcd(d1, f) == 1)
    rest = draw(st.lists(st.integers(d1 // f + 1, 200 // f), min_size=m - 1,
                         max_size=m - 1, unique=True))
    kept = []
    for e in sorted({d1, *(f * x for x in rest)}):  # only smaller ones can represent e
        if not reachable_mask(kept, e) >> e & 1:
            kept.append(e)
    assume(len(kept) >= 4 and math.gcd(*kept) == 1)
    return validate_generators(kept)


@settings(deadline=None, max_examples=200)
@given(tuples_with_shared_factors())
@example(validate_generators((11, 12, 14, 16, 18)))
@example(validate_generators((13, 15, 18, 21, 24, 27)))
def test_m4_to_m7_matrices_match_the_walk(g):
    assert relation_matrix(g) == relation_matrix_walk(g)


def test_m4_builds_one_apery_set(monkeypatch):
    # validation, the diagonal, membership and Q share one round-robin pass
    added = []
    real = numsemi.core._round_robin

    def counted(w, b):
        added.append(b)
        real(w, b)
    monkeypatch.setattr(numsemi.core, "_round_robin", counted)
    g = validate_generators((20001, 20003, 20007, 60001))
    assert relation_matrix(g).diag == (4, 3, 6001, 2001)
    assert is_representable(60001 + 20003, g)
    hilbert_numerator(g)
    assert added == [20003, 20007, 60001]


def test_witness_suffix_sets_are_shared_by_the_rows(monkeypatch):
    # rows that test remainders against the same suffix read one Apéry set
    built = []
    real = numsemi.relation.Generators

    def counted(elems):
        built.append(elems)
        return real(elems)
    monkeypatch.setattr(numsemi.relation, "Generators", counted)
    g = validate_generators((316, 318, 397, 423, 554, 817, 990))
    assert relation_matrix(g) == relation_matrix_walk(g)
    suffix_sets = [s for s in built if len(s) > 2]
    assert len(suffix_sets) == 3 and len(set(suffix_sets)) == 3


@pytest.mark.parametrize("elems", [
    (11, 12, 14, 16, 18), (13, 15, 18, 21, 24, 27), (316, 318, 397, 423, 554, 817, 990),
    (253, 286, 343, 445, 645, 723), (17, 19, 23, 29, 31)])
def test_witness_search_without_suffix_sets(elems, monkeypatch):
    # where a suffix's Apéry set would exceed MAX_GAPS, the search decides
    # membership itself; with the limit at 0 it does so at every level
    monkeypatch.setattr(numsemi.relation, "MAX_GAPS", 0)
    added = []
    real = numsemi.core._round_robin

    def counted(w, b):
        added.append(b)
        real(w, b)
    monkeypatch.setattr(numsemi.core, "_round_robin", counted)
    g = validate_generators(elems)
    assert relation_matrix(g) == relation_matrix_walk(g)
    assert added == list(g.elements[1:])  # only validation's pass


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
        classify(g, fake_non)  # the check runs by default
    # the discriminant of that matrix is negative: a typed error, not ValueError
    with pytest.raises(InternalMismatch, match="J disagreement"):
        closed_form(g, fake_non, classify(g, fake_non, cross_check=False))
    # every m = 3 reader goes through the checked classification; unchecked,
    # the closed forms would take fake_odd's collision at lcm(3, 4) = 12 and
    # return F = 15 for (3, 4, 5)
    fake_odd = RelationMatrix(3, (4, 3, 3), ((0, 1, 1), (1, 0, 1), (2, 1, 0)))
    for elems, fake in (((4, 5, 6), fake_non), ((3, 4, 5), fake_odd)):
        planted = validate_generators(elems)
        object.__setattr__(planted, "_relation", fake)
        for reader in (hilbert_numerator, frobenius_genus, frobenius3):
            with pytest.raises(InternalMismatch):
                reader(planted)
    # at any size: a symmetric 41-digit triple whose fake diagonal has no collision
    g = validate_generators((2 * (10 ** 40 + 1), 2 * (10 ** 40 + 3), 3 * 10 ** 40 + 7))
    fake_big = RelationMatrix(3, (3, 3, 3), ((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    assert not classify(g, fake_big, cross_check=False).symmetric
    with pytest.raises(InternalMismatch):
        classify(g, fake_big)


def test_classify_cross_check_builds_no_apery_set(monkeypatch):
    # the complete-intersection test reads the generators alone, at any size
    def refuse(*args):
        raise AssertionError("classify built an Apéry set")

    monkeypatch.setattr(numsemi.relation, "apery_set", refuse)
    monkeypatch.setattr(numsemi.core, "_round_robin", refuse)
    l = 10 ** 49
    expected = {
        (2235, 2237, 2239): False,
        (2237, 2239, 2241): False,
        (1000, 1002, 4999): False,
        (1000, 1002, 5001): True,
        (6, 74, 111): True,
        (6, 802, 1203): True,
        (2 * (10 ** 40 + 1), 2 * (10 ** 40 + 3), 3 * 10 ** 40 + 7): True,
        (2 * l + 1, 2 * l + 3, 4 * l + 3): False,
    }
    for elems, symmetric in expected.items():
        assert classify(validate_generators(elems)).symmetric == symmetric, elems


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


def test_collision_is_the_first_equal_pair_of_diagonal_products():
    sym = validate_generators((4, 5, 6))
    assert relation_matrix(sym).collision(sym) == (1, 3) == classify(sym).pair
    g = validate_generators((3, 4, 5))
    assert relation_matrix(g).collision(g) is None
    # products (60, 60, 60): every pair collides, the first one is reported
    every = RelationMatrix(3, (20, 15, 12), ((0, 0, 0),) * 3)
    assert every.collision(g) == (1, 2)
    later = RelationMatrix(3, (2, 5, 4), ((0, 0, 0),) * 3)   # (6, 20, 20)
    assert later.collision(g) == (2, 3)


def test_relation_matrix_is_built_once_per_generators(monkeypatch):
    g = validate_generators((23, 29, 44))
    assert g._relation is None
    built = relation_matrix(g)
    calls = []
    monkeypatch.setattr(numsemi.relation, "diagonal_coefficient",
                        lambda *a: calls.append(a))
    assert relation_matrix(g) is built and calls == []


def test_cached_matrix_is_not_part_of_the_value():
    cached, fresh = validate_generators((5, 7, 8)), validate_generators((5, 7, 8))
    relation_matrix(cached)
    assert cached._relation is not None and fresh._relation is None
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh) == "Generators(5, 7, 8)"


def test_an_explicit_matrix_never_enters_the_cache():
    g = validate_generators((23, 29, 44))
    real = relation_matrix(validate_generators((23, 29, 44)))
    fake = RelationMatrix(3, (4, 3, 2), ((0, 1, 1), (1, 0, 1), (2, 1, 0)))
    bad = RelationMatrix(3, (7, 7, 4), ((0, 2, 3), real.off[1], real.off[2]))
    classify(g, fake, cross_check=False)
    lambda_set(g, bad, verify=False)
    assert g._relation is None
    assert relation_matrix(g) == real


def test_only_the_kept_functions_take_a_matrix_argument():
    takes_a, optional_a = set(), set()
    for name in numsemi.__all__:
        obj = getattr(numsemi, name)
        if not inspect.isfunction(obj):
            continue
        param = inspect.signature(obj).parameters.get("A")
        if param is not None:
            takes_a.add(name)
            if param.default is None:
                optional_a.add(name)
    # g's own matrix comes from relation_matrix(g); A is for a matrix that
    # may be another one (a tampered matrix in a test, or a family's
    # closed-form matrix), and frobenius3 keeps it for callers that pass it on
    assert optional_a == {"classify", "closed_form", "symmetric_closed",
                          "lambda_set", "frobenius3"}
    assert takes_a == optional_a | {"verify_standard_form",
                                    "frobenius_matrix_only", "genus_matrix_only"}
