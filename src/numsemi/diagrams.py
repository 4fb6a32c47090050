"""Gap diagrams: the (p, q) grid for two generators, the carved sets that
turn Delta(d1, d2) into Delta(d1, d2, d3), and the lambda diagram whose
weighted cells reproduce the Hilbert-series numerator.

Conventions: sigma(p, q) = d1*d2 - p*d1 - q*d2 with 1 <= q <= d1 - 1 and
1 <= p <= pb(q) = (d2*(d1 - q)) // d1.  The bottom layer (largest p per
column) carries the values 1..d1-1; the top layer is the row p = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .core import MAX_GAPS, Generators, GapSet, apery_set, gap_set, representable_pair
from .errors import (
    IdentityViolation,
    IndexOutOfRange,
    InvalidInput,
    NoCoprimeBasePair,
    NotAGap,
    NotCoprime,
    SymmetricInput,
    TooManyGaps,
)
from .polynomial import SparsePolynomial
from .relation import RelationMatrix, relation_matrix


def pq_of(t: int, d1: int, d2: int):
    """Grid coordinates of the gap t of <d1, d2>: t = d1*d2 - p*d1 - q*d2."""
    if math.gcd(d1, d2) != 1:
        raise NotCoprime(f"({d1}, {d2}) are not coprime")
    if t <= 0 or representable_pair(t, d1, d2):
        raise NotAGap(f"{t} is not a gap of <{d1}, {d2}>")
    q = (-t) * pow(d2, -1, d1) % d1
    p = (d1 * d2 - q * d2 - t) // d1
    assert 1 <= q < d1 and p >= 1 and d1 * d2 - p * d1 - q * d2 == t
    return p, q


@dataclass(frozen=True)
class DiagramGrid:
    d1: int
    d2: int
    cells: dict          # (p, q) -> sigma
    bottom_layer: dict   # q -> (pb(q), sigma)
    top_layer: dict      # q -> (1, sigma)

    def values(self):
        return frozenset(self.cells.values())


def delta2_grid(d1: int, d2: int) -> DiagramGrid:
    """All gaps of <d1, d2> arranged on the (p, q) grid.

    Raises TooManyGaps when the (d1 - 1)(d2 - 1)/2 cells exceed MAX_GAPS.
    """
    if not (2 <= d1 < d2):
        raise InvalidInput(f"need 2 <= d1 < d2, got ({d1}, {d2})")
    if math.gcd(d1, d2) != 1:
        raise NotCoprime(f"({d1}, {d2}) are not coprime")
    genus = (d1 - 1) * (d2 - 1) // 2
    if genus > MAX_GAPS:
        raise TooManyGaps(f"<{d1}, {d2}> has {genus} gaps, more than {MAX_GAPS}")
    cells = {}
    bottom = {}
    top = {}
    for q in range(1, d1):
        pb = (d2 * (d1 - q)) // d1
        for p in range(1, pb + 1):
            cells[(p, q)] = d1 * d2 - p * d1 - q * d2
        bottom[q] = (pb, cells[(pb, q)])
        top[q] = (1, cells[(1, q)])
    return DiagramGrid(d1, d2, cells, bottom, top)


def _carver_points(carver: int, b0: int, b1: int):
    """Yield (p_k, q_k) = pq_of(k*carver, b0, b1) for k = 1, 2, ... up to the
    first k with k*carver in <b0, b1> (k = b0 always is one), in O(1) each.

    Raises NotAGap if carver itself is representable (a non-minimal triple).
    """
    full = b0 * b1
    step = (-carver) * pow(b1, -1, b0) % b0   # q_k = k*step mod b0
    t, q = carver, step
    while q:
        p = (full - q * b1 - t) // b0
        if p < 1:
            break
        yield p, q
        t += carver
        q = (q + step) % b0
    if t == carver:
        raise NotAGap(f"{carver} is representable by ({b0}, {b1})")


def _omega(k: int, carver: int, b0: int, b1: int):
    """k-th carved set: a p x q box of gaps anchored at k*carver."""
    t = k * carver
    p, q = pq_of(t, b0, b1)
    return frozenset(t + u1 * b0 + u2 * b1 for u1 in range(p) for u2 in range(q))


def associated_set(g: Generators, k: int):
    """Carved set Omega^k over the base pair (d1, d2), sorted."""
    if g.m != 3:
        raise InvalidInput(f"need a triple, got m={g.m}")
    d1, d2, d3 = g.elements
    if math.gcd(d1, d2) != 1:
        raise NotCoprime(f"base pair ({d1}, {d2}) is not coprime")
    for acc, _ in enumerate(_carver_points(d3, d1, d2), 2):
        if acc == k + 1:
            return tuple(sorted(_omega(k, d3, d1, d2)))
    raise IndexOutOfRange(f"k = {k} outside [1, {acc})")


def coprime_base(g: Generators):
    """0-based (i, j, carver index) with gcd(d_i, d_j) = 1, smallest pair first."""
    d = g.elements
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if math.gcd(d[i], d[j]) == 1:
            return i, j, 3 - i - j
    raise NoCoprimeBasePair(f"no coprime pair among {d}")


def delta3_via_diagram(g: Generators, strict: bool = False) -> GapSet:
    """Gap set of a triple by carving boxes out of a two-generator grid.

    Any coprime pair (b0, b1) serves as the base and the third generator c
    carves.  The box Omega^k holds the grid cells p <= p_k, q <= q_k, where
    (p_k, q_k) = pq_of(k*c, b0, b1), for 1 <= k < acc, the first k with k*c
    in <b0, b1>.  Their union is a staircase: column q loses the cells
    p <= depth(q) = max {p_k : q_k >= q}, and keeps
    sigma(p, q) for depth(q) < p <= pb(q).  So one walk over k records p_k
    at q_k, a suffix maximum turns that into depth, and the kept cells are
    listed column by column; neither the grid nor a box is built.  Cost
    O(acc + b0) steps for the depths, acc <= b0, plus the sort of b0
    ascending runs holding the genus-many kept gaps.

    Without a coprime pair, falls back to gap_set unless strict is set.
    Raises TooManyGaps when b0 - 1 or the genus exceeds MAX_GAPS, before
    either is allocated.
    """
    if g.m != 3:
        raise InvalidInput(f"need a triple, got m={g.m}")
    try:
        i, j, c = coprime_base(g)
    except NoCoprimeBasePair:
        if strict:
            raise
        return gap_set(g)
    d = g.elements
    b0, b1, carver = d[i], d[j], d[c]
    if b0 - 1 > MAX_GAPS:
        raise TooManyGaps(f"{g}: the grid over ({b0}, {b1}) has {b0 - 1} columns, "
                          f"more than {MAX_GAPS}")
    depth = [0] * (b0 + 1)           # depth[q] for 1 <= q < b0; depth[b0] = 0
    for p, q in _carver_points(carver, b0, b1):
        if p > depth[q]:
            depth[q] = p
    # column q holds sigma = r - p*b0 with r = b1*(b0 - q), for 1 <= p <= r // b0
    kept = 0
    for q in range(b0 - 1, 0, -1):
        if depth[q] < depth[q + 1]:
            depth[q] = depth[q + 1]
        kept += b1 * (b0 - q) // b0 - depth[q]
    if kept > MAX_GAPS:
        raise TooManyGaps(f"{g} has {kept} gaps, more than {MAX_GAPS}")
    runs = (range(b1 * (b0 - q) % b0, b1 * (b0 - q) - depth[q] * b0, b0)
            for q in range(1, b0))
    return GapSet(tuple(sorted(itertools.chain.from_iterable(runs))))


@dataclass(frozen=True)
class LambdaSet:
    entries: dict   # (v2, v3) -> lambda = v2*d2 + v3*d3
    values: tuple   # sorted, length d1, starts at 0

    def polynomial(self) -> SparsePolynomial:
        return SparsePolynomial.from_exponents(self.values)


def lambda_set(g: Generators, A: Optional[RelationMatrix] = None,
               verify: bool = True) -> LambdaSet:
    """The d1 cell values of the two-rectangle lambda diagram (non-symmetric).

    Rectangles in (v2, v3): [0, a22) x [0, a13) and [0, a12) x [a13, a33).
    With verify=True the cell values must equal the Apéry set of d1, which is
    equivalent to sum z^lambda = sum_{k<d1} z^k - (1 - z^{d1}) * Phi.
    """
    if g.m != 3:
        raise InvalidInput(f"need a triple, got m={g.m}")
    if A is None:
        A = relation_matrix(g)
    if len(set(A.products(g))) < 3:
        raise SymmetricInput(f"{g} generates a symmetric semigroup")
    d1, d2, d3 = g.elements
    a = A.entry
    entries = {}
    for v2 in range(a(2, 2)):
        for v3 in range(a(1, 3)):
            entries[(v2, v3)] = v2 * d2 + v3 * d3
    for v2 in range(a(1, 2)):
        for v3 in range(a(1, 3), a(3, 3)):
            entries[(v2, v3)] = v2 * d2 + v3 * d3
    values = sorted(entries.values())
    if len(entries) != d1 or len(set(values)) != d1 or values[0] != 0:
        raise IdentityViolation(
            f"lambda diagram of {g} has {len(set(values))} distinct cells, want {d1}")
    if verify and values != sorted(apery_set(g).w):
        raise IdentityViolation(f"lambda cells of {g} are not its Apéry set")
    return LambdaSet(entries, tuple(values))


def shift_difference_identity(g: Generators, A: Optional[RelationMatrix] = None) -> bool:
    """(1 - z^{d2}) * [sum_{k<d1} z^k - (1 - z^{d1}) Phi] telescopes to the
    left/right edge columns of the lambda diagram.  The bracket is the sum of
    z^w over the Apéry set of d1."""
    if A is None:
        A = relation_matrix(g)
    _, d2, d3 = g.elements
    a = A.entry
    bracket = SparsePolynomial.from_exponents(apery_set(g).w)
    lhs = SparsePolynomial.one_minus_z(d2) * bracket
    left = SparsePolynomial.from_exponents([v3 * d3 for v3 in range(a(3, 3))])
    right = (SparsePolynomial.from_exponents(
                 [a(2, 2) * d2 + v3 * d3 for v3 in range(a(1, 3))])
             + SparsePolynomial.from_exponents(
                 [a(1, 2) * d2 + v3 * d3 for v3 in range(a(1, 3), a(3, 3))]))
    return lhs == left - right


def numerator_via_diagram(g: Generators, A: Optional[RelationMatrix] = None) -> SparsePolynomial:
    """Q = (1 - z^{d2}) (1 - z^{d3}) * sum_{lambda} z^lambda, no gap set needed."""
    if A is None:
        A = relation_matrix(g)
    ls = lambda_set(g, A, verify=False)
    d2, d3 = g.elements[1], g.elements[2]
    return (SparsePolynomial.one_minus_z(d2) * SparsePolynomial.one_minus_z(d3)
            * ls.polynomial())


# ---------------------------------------------------------------------------
# rendering

_FILL_BOTTOM = "#d9d9d9"
_FILL_TOP = "#8c8c8c"
_FILL_EXCLUDED = "#1a1a1a"
_FILL_PLAIN = "#ffffff"
_CELL = 24


def render_diagram(obj, format: str = "ascii", excluded=None) -> str:
    """ASCII or SVG picture of a DiagramGrid or LambdaSet.

    excluded: optional set of sigma values to black out (carved gaps).
    """
    if format not in ("ascii", "svg"):
        raise InvalidInput(f"unknown format {format!r}")
    if isinstance(obj, DiagramGrid):
        if format == "ascii":
            return _grid_ascii(obj, excluded or frozenset())
        return _grid_svg(obj, excluded or frozenset())
    if isinstance(obj, LambdaSet):
        if format == "ascii":
            return _lambda_ascii(obj)
        return _lambda_svg(obj)
    raise InvalidInput(f"cannot render {type(obj).__name__}")


def _grid_ascii(grid: DiagramGrid, excluded) -> str:
    if not grid.cells:
        return "(empty diagram)"
    width = max(len(str(v)) for v in grid.cells.values()) + 1
    max_p = max(p for p, _ in grid.cells)
    lines = [f"sigma(p, q) grid for ({grid.d1}, {grid.d2})"
             + (", carved cells marked #" if excluded else "")]
    header = "p\\q " + "".join(f"{q:>{width}} " for q in range(1, grid.d1))
    lines.append(header.rstrip())
    for p in range(1, max_p + 1):
        row = f"{p:<4}"
        for q in range(1, grid.d1):
            v = grid.cells.get((p, q))
            if v is None:
                row += " " * (width + 1)
            else:
                row += f"{v:>{width}}" + ("#" if v in excluded else " ")
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


def _svg_doc(width, height, body) -> str:
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            + "".join(body) + "</svg>\n")


def _svg_cell(x, y, fill, text, dark_text=False):
    color = "#ffffff" if dark_text else "#000000"
    cx, cy = x + _CELL // 2, y + _CELL // 2 + 3
    return (f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
            f'fill="{fill}" stroke="#555555"/>'
            f'<text x="{cx}" y="{cy}" font-size="9" text-anchor="middle" '
            f'font-family="monospace" fill="{color}">{text}</text>\n')


def _grid_svg(grid: DiagramGrid, excluded) -> str:
    if not grid.cells:
        return _svg_doc(_CELL, _CELL, ['<!-- empty diagram -->\n'])
    max_p = max(p for p, _ in grid.cells)
    body = []
    for (p, q), v in sorted(grid.cells.items()):
        x, y = (q - 1) * _CELL, (p - 1) * _CELL
        if v in excluded:
            fill, dark = _FILL_EXCLUDED, True
        elif p == grid.bottom_layer[q][0]:
            fill, dark = _FILL_BOTTOM, False
        elif p == 1:
            fill, dark = _FILL_TOP, False
        else:
            fill, dark = _FILL_PLAIN, False
        body.append(_svg_cell(x, y, fill, v, dark))
    return _svg_doc((grid.d1 - 1) * _CELL, max_p * _CELL, body)


def _lambda_ascii(ls: LambdaSet) -> str:
    if not ls.entries:
        return "(empty diagram)"
    width = max(len(str(v)) for v in ls.values) + 1
    max_v2 = max(v2 for v2, _ in ls.entries)
    max_v3 = max(v3 for _, v3 in ls.entries)
    lines = ["lambda diagram (rows v3, columns v2)"]
    for v3 in range(max_v3, -1, -1):
        row = f"v3={v3:<3}"
        for v2 in range(max_v2 + 1):
            v = ls.entries.get((v2, v3))
            row += " " * (width + 1) if v is None else f"{v:>{width}} "
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


def _lambda_svg(ls: LambdaSet) -> str:
    if not ls.entries:
        return _svg_doc(_CELL, _CELL, ['<!-- empty diagram -->\n'])
    max_v3 = max(v3 for _, v3 in ls.entries)
    body = []
    for (v2, v3), v in sorted(ls.entries.items()):
        x, y = v2 * _CELL, (max_v3 - v3) * _CELL
        body.append(_svg_cell(x, y, _FILL_BOTTOM if v3 == 0 else _FILL_TOP, v))
    max_v2 = max(v2 for v2, _ in ls.entries)
    return _svg_doc((max_v2 + 1) * _CELL, (max_v3 + 1) * _CELL, body)
