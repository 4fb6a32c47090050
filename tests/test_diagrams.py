"""Gap diagrams: sigma grids, carved boxes, lambda sets, rendering."""

import math
import time
import xml.etree.ElementTree as ET

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import numsemi.core
import numsemi.diagrams
from numsemi import (
    DiagramGrid,
    LambdaSet,
    RelationMatrix,
    SparsePolynomial,
    associated_set,
    coprime_base,
    delta2_grid,
    delta3_via_diagram,
    gap_set,
    hilbert_numerator,
    lambda_set,
    numerator_via_diagram,
    pq_of,
    relation_matrix,
    render_diagram,
    sylvester_closed,
    validate_generators,
)
from numsemi.errors import (
    IdentityViolation,
    IndexOutOfRange,
    InvalidInput,
    NoCoprimeBasePair,
    NotAGap,
    NotCoprime,
    SymmetricInput,
    TooManyGaps,
    ValidationError,
)
from oracle import gap_set_bitmask


def test_pq_of_goldens():
    assert pq_of(7, 3, 5) == (1, 1)
    assert pq_of(4, 3, 5) == (2, 1)
    with pytest.raises(NotAGap):
        pq_of(6, 3, 5)
    with pytest.raises(NotAGap):
        pq_of(-2, 3, 5)
    with pytest.raises(NotCoprime):
        pq_of(1, 4, 6)


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 12), st.integers(3, 30), st.data())
def test_pq_of_inverts_sigma(d1, d2, data):
    assume(d1 < d2 and math.gcd(d1, d2) == 1)
    q = data.draw(st.integers(1, d1 - 1))
    p = data.draw(st.integers(1, (d2 * (d1 - q)) // d1))
    t = d1 * d2 - p * d1 - q * d2
    assert pq_of(t, d1, d2) == (p, q)


def test_delta2_grid_golden():
    grid = delta2_grid(3, 5)
    assert grid.cells == {(1, 1): 7, (2, 1): 4, (3, 1): 1, (1, 2): 2}
    assert {v for _, v in grid.bottom_layer.values()} == {1, 2}
    assert grid.top_layer[1] == (1, 7)
    assert grid.values() == frozenset({1, 2, 4, 7})

    assert delta2_grid(3, 4).values() == frozenset({1, 2, 5})


def test_delta2_grid_rejections():
    with pytest.raises(InvalidInput):
        delta2_grid(5, 3)
    with pytest.raises(InvalidInput):
        delta2_grid(1, 4)
    with pytest.raises(NotCoprime):
        delta2_grid(4, 6)


def test_grid_layers():
    # bottom-layer sigma values are exactly {1, ..., d1-1}; the top layer
    # holds the largest gap of each column, including F itself at q=1
    for d1 in range(2, 9):
        for d2 in range(d1 + 1, 30):
            if math.gcd(d1, d2) != 1:
                continue
            grid = delta2_grid(d1, d2)
            assert {v for _, v in grid.bottom_layer.values()} == set(range(1, d1))
            assert grid.top_layer[1][1] == sylvester_closed(d1, d2).F
            assert grid.values() == frozenset(gap_set(validate_generators((d1, d2))).gaps)


def test_associated_set_goldens():
    assert associated_set(validate_generators((3, 4, 5)), 1) == (5,)
    g = validate_generators((5, 7, 8))
    assert associated_set(g, 1) == (8, 13, 18, 23)
    assert associated_set(g, 2) == (16, 23)
    with pytest.raises(IndexOutOfRange):
        associated_set(g, 0)
    with pytest.raises(IndexOutOfRange):
        associated_set(g, 3)  # a33 = 3
    with pytest.raises(NotCoprime):
        associated_set(validate_generators((4, 6, 9)), 1)
    with pytest.raises(InvalidInput, match="m=4"):
        associated_set(validate_generators((4, 21, 26, 43)), 1)


def test_associated_sets_contain_pair_frobenius(sweep30_gaps):
    for entry, _ in sweep30_gaps[::9]:
        d1, d2, d3 = entry.g.elements
        if math.gcd(d1, d2) != 1:
            continue
        f2 = d1 * d2 - d1 - d2
        a33 = entry.A.diag[2]
        base_gaps = frozenset(delta2_grid(d1, d2).cells.values())
        for k in range(1, a33):
            omega = associated_set(entry.g, k)
            assert f2 in omega
            assert set(omega) <= base_gaps


def test_delta3_goldens():
    assert delta3_via_diagram(validate_generators((3, 4, 5))).gaps == (1, 2)
    gs = delta3_via_diagram(validate_generators((5, 7, 8)))
    assert gs.gaps == (1, 2, 3, 4, 6, 9, 11)
    assert gs.frobenius == 11 and gs.genus == 7
    assert delta3_via_diagram(validate_generators((4, 5, 6))).gaps == (1, 2, 3, 7)
    with pytest.raises(InvalidInput, match="m=4"):
        delta3_via_diagram(validate_generators((4, 21, 26, 43)))


def test_delta3_base_pair_fallbacks():
    # (4, 6, 9): gcd(d1, d2) = 2, so the base is re-chosen among the other pairs
    g = validate_generators((4, 6, 9))
    assert coprime_base(g) == (0, 2, 1)
    assert delta3_via_diagram(g).gaps == gap_set(g).gaps

    # (6, 10, 15): no coprime pair at all; there is no base, so the
    # diagram route defers to gap_set
    g2 = validate_generators((6, 10, 15))
    with pytest.raises(NoCoprimeBasePair):
        coprime_base(g2)
    assert delta3_via_diagram(g2).gaps == gap_set(g2).gaps


@st.composite
def _triples(draw):
    """Triples up to ~2000; a third force gcd(d1, d2) > 1 and a third
    gcd(d1, d3) > 1, so the base becomes (d1, d3) or (d2, d3) and the
    carver may be smaller than a base element."""
    mode = draw(st.integers(0, 2))
    if mode == 0:
        d = sorted(draw(st.lists(st.integers(3, 2000), min_size=3, max_size=3,
                                 unique=True)))
    else:
        f = draw(st.integers(2, 30))
        x = draw(st.integers(2, 1999 // f - 1))
        y = draw(st.integers(x + 1, 1999 // f))
        lo, hi = f * x, f * y
        if mode == 1:
            d = [lo, hi, draw(st.integers(hi + 1, 2000))]
        else:
            d = [lo, draw(st.integers(lo + 1, hi - 1)), hi]
    try:
        return validate_generators(d)
    except ValidationError:
        assume(False)


@settings(deadline=None, max_examples=40)
@given(_triples())
def test_delta3_matches_bitmask_oracle(g):
    assert delta3_via_diagram(g).gaps == gap_set_bitmask(g).gaps


def test_delta3_does_not_use_apery_or_grid(sweep30_gaps, monkeypatch):
    # the carving route stays independent of the Apéry kernel and the grid
    def refuse(*args, **kwargs):
        raise AssertionError("delta3_via_diagram left the carving route")
    for name in ("apery_set", "gap_set", "delta2_grid"):
        monkeypatch.setattr(numsemi.diagrams, name, refuse)
    checked = 0
    for entry, gs in sweep30_gaps:
        try:
            coprime_base(entry.g)
        except NoCoprimeBasePair:
            continue
        assert delta3_via_diagram(entry.g).gaps == gs.gaps, entry.g
        checked += 1
    assert checked > 1000


def test_gap_listings_never_sort(sweep30_gaps, monkeypatch):
    # both listings read their residue runs row by row instead of sorting;
    # validation sorts its input, so every tuple is validated first
    expected = [(validate_generators(e.g.elements), gs) for e, gs in sweep30_gaps]
    for elems in ((4, 21, 26, 43), (4, 31, 37, 50), (5, 6, 7, 8, 9)):
        g = validate_generators(elems)
        expected.append((g, gap_set_bitmask(g)))
    peak = validate_generators((699, 1048, 1397))

    def refuse(*args, **kwargs):
        raise AssertionError("a gap listing called sorted")
    for module in (numsemi.core, numsemi.diagrams):
        monkeypatch.setattr(module, "sorted", refuse, raising=False)
    for g, gs in expected:
        assert gap_set(g) == gs, g
        if g.m == 3:
            assert delta3_via_diagram(g) == gs, g
    listing = gap_set(peak)
    assert listing.genus == 243_602 and delta3_via_diagram(peak) == listing


def test_delta3_large_golden():
    g = validate_generators((1563, 2275, 2503))
    t0 = time.monotonic()
    gs = delta3_via_diagram(g)
    assert time.monotonic() - t0 < 2
    assert gs.gaps == gap_set(g).gaps


def test_diagram_budgets_refuse_before_building():
    t0 = time.monotonic()
    with pytest.raises(TooManyGaps, match="50010000 gaps"):
        delta2_grid(10001, 10003)
    # base (4001, 4003) fits, but the 4,004,001 kept gaps do not
    with pytest.raises(TooManyGaps, match="4004001 gaps"):
        delta3_via_diagram(validate_generators((4001, 4003, 8005)))
    # more grid columns than MAX_GAPS: refused before the depth table
    with pytest.raises(TooManyGaps, match="2000002 columns"):
        delta3_via_diagram(validate_generators((2000003, 2000005, 4000007)))
    assert time.monotonic() - t0 < 1


def test_carving_accounts_for_every_lost_gap(sweep30_gaps):
    # union of the carved boxes is exactly the base gap set minus the triple's
    for entry, gs in sweep30_gaps[::6]:
        d1, d2, d3 = entry.g.elements
        if math.gcd(d1, d2) != 1:
            continue
        base = set(delta2_grid(d1, d2).cells.values())
        union = set()
        for k in range(1, entry.A.diag[2]):
            union |= set(associated_set(entry.g, k))
        assert union == base - set(gs.gaps)


def test_carver_multiples_leave_and_reenter(sweep30_gaps):
    # k*d3 itself stops being a gap, but k*d3 - d1 stays one
    for entry, gs in sweep30_gaps[::6]:
        d1, d2, d3 = entry.g.elements
        if math.gcd(d1, d2) != 1:
            continue
        gaps = set(gs.gaps)
        for k in range(1, entry.A.diag[2]):
            assert k * d3 not in gaps
            assert k * d3 - d1 in gaps


def test_triple_frobenius_strictly_drops(sweep30_gaps):
    for entry, gs in sweep30_gaps[::6]:
        d1, d2, d3 = entry.g.elements
        if math.gcd(d1, d2) != 1:
            continue
        assert gs.frobenius < d1 * d2 - d1 - d2


def test_second_carver_multiple_avoids_first_box(sweep30_gaps):
    for entry, _ in sweep30_gaps[::6]:
        d1, d2, d3 = entry.g.elements
        if math.gcd(d1, d2) != 1 or entry.A.diag[2] < 3:
            continue
        # 2*d3 is still a base-pair gap here (a33 > 2), yet Omega^1 misses it
        assert 2 * d3 not in associated_set(entry.g, 1)


def test_lambda_set_goldens():
    ls = lambda_set(validate_generators((3, 4, 5)))
    assert ls.values == (0, 4, 5)
    assert ls.entries == {(0, 0): 0, (1, 0): 4, (0, 1): 5}

    ls2 = lambda_set(validate_generators((5, 7, 8)))
    assert ls2.values == (0, 7, 8, 14, 16)
    assert ls2.polynomial() == SparsePolynomial.from_exponents([0, 7, 8, 14, 16])

    with pytest.raises(SymmetricInput):
        lambda_set(validate_generators((4, 5, 6)))
    with pytest.raises(InvalidInput, match="m=4"):
        lambda_set(validate_generators((4, 21, 26, 43)))


def test_lambda_set_verify_rejects_a_wrong_matrix():
    g = validate_generators((23, 29, 44))
    A = relation_matrix(g)
    assert (A.entry(2, 2), A.entry(1, 3), A.entry(1, 2), A.entry(3, 3)) == (7, 3, 1, 5)
    # a12 = 2, a33 = 4 keeps 7*3 + 2*1 = 23 distinct cells from 0, so only
    # the comparison with the Apéry set can tell the diagram is wrong
    bad = RelationMatrix(3, (7, 7, 4), ((0, 2, 3), A.off[1], A.off[2]))
    assert len(lambda_set(g, bad, verify=False).values) == 23
    with pytest.raises(IdentityViolation):
        lambda_set(g, bad, verify=True)


def test_lambda_set_structure(sweep30_gaps):
    for entry, _ in sweep30_gaps[::4]:
        if entry.cls.symmetric:
            continue
        d1, d2, d3 = entry.g.elements
        a = entry.A.entry
        ls = lambda_set(entry.g, entry.A)  # verify=True checks the identity
        assert len(ls.values) == d1 and ls.values[0] == 0
        vals = set(ls.values)
        assert {v2 * d2 for v2 in range(a(2, 2))} <= vals
        assert {v3 * d3 for v3 in range(a(3, 3))} <= vals


def test_numerator_via_diagram():
    g = validate_generators((5, 7, 8))
    q = numerator_via_diagram(g)
    assert q.format() == "1 - z^15 - z^21 - z^24 + z^29 + z^31"
    assert q == hilbert_numerator(g)

    g2 = validate_generators((23, 29, 44))
    assert numerator_via_diagram(g2) == hilbert_numerator(g2)


def test_render_grid_ascii():
    art = render_diagram(delta2_grid(3, 5))
    assert art == (
        "sigma(p, q) grid for (3, 5)\n"
        "p\\q  1  2\n"
        "1    7  2\n"
        "2    4\n"
        "3    1\n"
    )


def test_render_marks_carved_cells():
    g = validate_generators((5, 7, 8))
    carved = set(associated_set(g, 1)) | set(associated_set(g, 2))
    art = render_diagram(delta2_grid(5, 7), excluded=carved)
    assert "carved cells marked #" in art
    assert "23#" in art and "8#" in art
    assert "11 " in art  # surviving gap stays unmarked


def test_render_lambda_ascii():
    art = render_diagram(lambda_set(validate_generators((3, 4, 5))))
    assert art == (
        "lambda diagram (rows v3, columns v2)\n"
        "v3=1   5\n"
        "v3=0   0  4\n"
    )


def test_render_svg_well_formed():
    grid_svg = render_diagram(delta2_grid(5, 7), format="svg",
                              excluded=set(associated_set(validate_generators((5, 7, 8)), 1)))
    root = ET.fromstring(grid_svg)
    assert root.tag.endswith("svg")
    assert grid_svg.startswith("<?xml")
    assert "#1a1a1a" in grid_svg  # excluded cells blacked out

    lam_svg = render_diagram(lambda_set(validate_generators((5, 7, 8))), format="svg")
    ET.fromstring(lam_svg)
    assert render_diagram(delta2_grid(3, 5), format="svg") \
        == render_diagram(delta2_grid(3, 5), format="svg")

    # exact bytes: row-major grid cells with the top, bottom and carved fills
    # (white text on the carved one), Λ cells column by column from the bottom
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
            'width="48" height="48" viewBox="0 0 48 48">\n')
    font = 'font-size="9" text-anchor="middle" font-family="monospace"'
    assert render_diagram(delta2_grid(3, 4), format="svg", excluded={2}) == head + (
        f'<rect x="0" y="0" width="24" height="24" fill="#8c8c8c" stroke="#555555"/>'
        f'<text x="12" y="15" {font} fill="#000000">5</text>\n'
        f'<rect x="24" y="0" width="24" height="24" fill="#d9d9d9" stroke="#555555"/>'
        f'<text x="36" y="15" {font} fill="#000000">1</text>\n'
        f'<rect x="0" y="24" width="24" height="24" fill="#1a1a1a" stroke="#555555"/>'
        f'<text x="12" y="39" {font} fill="#ffffff">2</text>\n</svg>\n')
    assert render_diagram(lambda_set(validate_generators((3, 4, 5))), format="svg") == head + (
        f'<rect x="0" y="24" width="24" height="24" fill="#d9d9d9" stroke="#555555"/>'
        f'<text x="12" y="39" {font} fill="#000000">0</text>\n'
        f'<rect x="0" y="0" width="24" height="24" fill="#8c8c8c" stroke="#555555"/>'
        f'<text x="12" y="15" {font} fill="#000000">5</text>\n'
        f'<rect x="24" y="24" width="24" height="24" fill="#d9d9d9" stroke="#555555"/>'
        f'<text x="36" y="39" {font} fill="#000000">4</text>\n</svg>\n')


def test_render_empty_and_bad_format():
    assert render_diagram(DiagramGrid(2, 3, {}, {}, {})) == "(empty diagram)"
    assert render_diagram(LambdaSet({}, ())) == "(empty diagram)"
    empty_svg = ('<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
                 'width="24" height="24" viewBox="0 0 24 24">\n<!-- empty diagram -->\n</svg>\n')
    assert render_diagram(DiagramGrid(2, 3, {}, {}, {}), "svg") == empty_svg
    assert render_diagram(LambdaSet({}, ()), "svg") == empty_svg
    with pytest.raises(InvalidInput):
        render_diagram(delta2_grid(3, 5), format="png")
    with pytest.raises(InvalidInput):
        render_diagram("not a diagram")
