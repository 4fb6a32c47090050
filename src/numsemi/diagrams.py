"""Gap diagrams: the (p, q) grid for two generators, the carved sets that
turn Delta(d1, d2) into Delta(d1, d2, d3), and the lambda diagram whose
weighted cells reproduce the Hilbert-series numerator.

Conventions: sigma(p, q) = d1*d2 - p*d1 - q*d2 with 1 <= q <= d1 - 1 and
1 <= p <= pb(q) = (d2*(d1 - q)) // d1.  The bottom layer (largest p per
column) carries the values 1..d1-1; the top layer is the row p = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import (MAX_GAPS, AperySet, Generators, GapSet, _list_gaps, apery_set, gap_set,
                   representable_pair)
from .errors import (
    IdentityViolation,
    IndexOutOfRange,
    InvalidInput,
    NoCoprimeBasePair,
    NotAGap,
    NotCoprime,
    OutputTooLarge,
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

    Raises, before anything is built, TooManyGaps when the (d1 - 1)(d2 - 1)/2
    cells exceed MAX_GAPS and OutputTooLarge when they exceed
    MAX_PICTURE_CELLS.
    """
    if not (2 <= d1 < d2):
        raise InvalidInput(f"need 2 <= d1 < d2, got ({d1}, {d2})")
    if math.gcd(d1, d2) != 1:
        raise NotCoprime(f"({d1}, {d2}) are not coprime")
    genus = (d1 - 1) * (d2 - 1) // 2
    if genus > MAX_GAPS:
        raise TooManyGaps(f"<{d1}, {d2}> has {genus} gaps, more than {MAX_GAPS}")
    _check_cells(genus)
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


def associated_set(g: Generators, k: int):
    """Carved set Omega^k over the base pair (d1, d2), sorted: the p_k x q_k
    box of gaps t + u1*d1 + u2*d2 anchored at t = k*d3 = sigma(p_k, q_k)."""
    if g.m != 3:
        raise InvalidInput(f"need a triple, got m={g.m}")
    d1, d2, d3 = g.elements
    if math.gcd(d1, d2) != 1:
        raise NotCoprime(f"base pair ({d1}, {d2}) is not coprime")
    for acc, (p, q) in enumerate(_carver_points(d3, d1, d2), 2):
        if acc == k + 1:
            return tuple(sorted(k * d3 + u1 * d1 + u2 * d2
                                for u1 in range(p) for u2 in range(q)))
    raise IndexOutOfRange(f"k = {k} outside [1, {acc})")


def coprime_base(g: Generators):
    """0-based (i, j, carver index) with gcd(d_i, d_j) = 1, smallest pair first."""
    d = g.elements
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if math.gcd(d[i], d[j]) == 1:
            return i, j, 3 - i - j
    raise NoCoprimeBasePair(f"no coprime pair among {d}")


def delta3_via_diagram(g: Generators) -> GapSet:
    """Gap set of a triple by carving boxes out of a two-generator grid.

    Any coprime pair (b0, b1) serves as the base and the third generator c
    carves.  The box Omega^k holds the grid cells p <= p_k, q <= q_k, where
    (p_k, q_k) = pq_of(k*c, b0, b1), for 1 <= k < acc, the first k with k*c
    in <b0, b1>.  Their union is a staircase: column q loses the cells
    p <= depth(q) = max {p_k : q_k >= q}, and keeps
    sigma(p, q) for depth(q) < p <= pb(q).  So one walk over k records p_k
    at q_k, and a suffix maximum turns that into depth; neither the grid nor
    a box is built.  Column q is the run of gaps r mod b0, r + b0, ... below
    r - depth(q)*b0, with r = b1*(b0 - q), so that value is the Apéry
    element w[r mod b0] of Ap(S, b0).  The Apéry vector built this way is
    listed by the same core routine as gap_set.  Cost O(acc + b0) steps
    for the depths, acc <= b0, plus O(F + b0) for the listing.

    Without a coprime pair, falls back to gap_set.
    Raises TooManyGaps when b0 - 1 or the genus exceeds MAX_GAPS, before
    either is listed.
    """
    if g.m != 3:
        raise InvalidInput(f"need a triple, got m={g.m}")
    try:
        i, j, c = coprime_base(g)
    except NoCoprimeBasePair:
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
    w = [0] * b0
    for q in range(b0 - 1, 0, -1):
        if depth[q] < depth[q + 1]:
            depth[q] = depth[q + 1]
        r = b1 * (b0 - q)
        w[r % b0] = r - depth[q] * b0
    return _list_gaps(g, AperySet(tuple(w)))


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
    Raises OutputTooLarge, before any cell is listed, when the rectangles
    hold more than MAX_PICTURE_CELLS cells.
    """
    if g.m != 3:
        raise InvalidInput(f"need a triple, got m={g.m}")
    if A is None:
        A = relation_matrix(g)
    if A.collision(g):
        raise SymmetricInput(f"{g} generates a symmetric semigroup")
    d1, d2, d3 = g.elements
    a = A.entry
    _check_cells(a(2, 2) * a(1, 3) + a(1, 2) * (a(3, 3) - a(1, 3)))
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


def shift_difference_identity(g: Generators) -> bool:
    """(1 - z^{d2}) * [sum_{k<d1} z^k - (1 - z^{d1}) Phi] telescopes to the
    left/right edge columns of the lambda diagram.  The bracket is the sum of
    z^w over the Apéry set of d1; the edges are read off lambda_set: each row
    v3 starts at v3*d3 and ends one step d2 past its last cell.

    Raises SymmetricInput as lambda_set does.
    """
    d2 = g.elements[1]
    cells = lambda_set(g, verify=False).entries
    lhs = SparsePolynomial.from_exponents(apery_set(g).w).times_one_minus_z(d2)
    left = SparsePolynomial.from_exponents(
        v for (v2, _), v in cells.items() if v2 == 0)
    right = SparsePolynomial.from_exponents(
        v + d2 for (v2, v3), v in cells.items() if (v2 + 1, v3) not in cells)
    return lhs == left - right


def numerator_via_diagram(g: Generators) -> SparsePolynomial:
    """Q = (1 - z^{d2}) (1 - z^{d3}) * sum_{lambda} z^lambda, no gap set needed."""
    _, d2, d3 = g.elements
    lam = lambda_set(g, verify=False).polynomial()
    return lam.times_one_minus_z(d2).times_one_minus_z(d3)


# ---------------------------------------------------------------------------
# rendering
#
# Each diagram kind is laid out as a picture: a title, an optional column
# header, one label per row, the column labels, and its cells as tuples
# (row, column, value, mark, fill) in drawing order.  Rows and columns count
# from 0 at the top left.  One ASCII writer and one SVG writer draw every
# picture.

# Largest picture drawn, counted as the writers emit it: the SVG writer draws
# each cell, about 190 bytes, and the ASCII writer fills every slot of the
# rows-by-columns layout, empty ones included.  delta2_grid and lambda_set
# refuse to list more cells, and render_diagram refuses an ASCII layout with
# more slots.  20,000 is a picture already 140 cells on a side, more than a
# screen or a page shows; its SVG stays under 4 MB, and a delta2 grid of
# that size is built and drawn in under 0.1 s.  Every diagram the tests and
# the README draw, apart from those they expect refused, has at most 325
# cells or slots.
MAX_PICTURE_CELLS = 20_000

_FILL_BOTTOM = "#d9d9d9"
_FILL_TOP = "#8c8c8c"
_FILL_EXCLUDED = "#1a1a1a"
_FILL_PLAIN = "#ffffff"
_CELL = 24


@dataclass(frozen=True)
class _Picture:
    title: str
    corner: Optional[str]   # header text before the column labels; None: no header
    rows: tuple             # ASCII label of each row
    columns: tuple          # label of each column
    cells: list             # (row, column, value, mark, fill)


def _check_cells(count: int) -> None:
    """OutputTooLarge for a picture of more than MAX_PICTURE_CELLS cells."""
    if count > MAX_PICTURE_CELLS:
        raise OutputTooLarge(f"a diagram of {count} cells is more than the "
                             f"{MAX_PICTURE_CELLS} drawn")


def render_diagram(obj, format: str = "ascii", excluded=None) -> str:
    """ASCII or SVG picture of a DiagramGrid or LambdaSet.

    excluded: optional set of sigma values to black out (carved gaps).
    Raises OutputTooLarge for an ASCII layout of more than
    MAX_PICTURE_CELLS slots.
    """
    if format not in ("ascii", "svg"):
        raise InvalidInput(f"unknown format {format!r}")
    if isinstance(obj, DiagramGrid):
        picture = _grid_picture(obj, excluded or frozenset())
    elif isinstance(obj, LambdaSet):
        picture = _lambda_picture(obj)
    else:
        raise InvalidInput(f"cannot render {type(obj).__name__}")
    if format == "svg":
        return _svg(picture)
    _check_cells(len(picture.rows) * len(picture.columns))
    return _ascii(picture)


def _grid_picture(grid: DiagramGrid, excluded) -> _Picture:
    """Row p - 1 holds sigma(p, q) in column q - 1; cells row by row."""
    cells = []
    for (p, q), v in sorted(grid.cells.items()):
        if v in excluded:
            mark, fill = "#", _FILL_EXCLUDED
        elif p == grid.bottom_layer[q][0]:
            mark, fill = " ", _FILL_BOTTOM
        elif p == 1:
            mark, fill = " ", _FILL_TOP
        else:
            mark, fill = " ", _FILL_PLAIN
        cells.append((p - 1, q - 1, v, mark, fill))
    max_p = max((p for p, _ in grid.cells), default=0)
    title = (f"sigma(p, q) grid for ({grid.d1}, {grid.d2})"
             + (", carved cells marked #" if excluded else ""))
    return _Picture(title, "p\\q ", tuple(f"{p:<4}" for p in range(1, max_p + 1)),
                    tuple(range(1, grid.d1)), cells)


def _lambda_picture(ls: LambdaSet) -> _Picture:
    """Row v3 counted from the top (the largest v3 first), column v2; cells
    column by column, bottom to top."""
    max_v2 = max((v2 for v2, _ in ls.entries), default=-1)
    max_v3 = max((v3 for _, v3 in ls.entries), default=-1)
    cells = [(max_v3 - v3, v2, v, " ", _FILL_BOTTOM if v3 == 0 else _FILL_TOP)
             for (v2, v3), v in sorted(ls.entries.items())]
    return _Picture("lambda diagram (rows v3, columns v2)", None,
                    tuple(f"v3={v3:<3}" for v3 in range(max_v3, -1, -1)),
                    tuple(range(max_v2 + 1)), cells)


def _ascii(picture: _Picture) -> str:
    if not picture.cells:
        return "(empty diagram)"
    width = max(len(str(v)) for _, _, v, _, _ in picture.cells) + 1
    grid = [[label] + [" " * (width + 1)] * len(picture.columns) for label in picture.rows]
    for i, j, v, mark, _ in picture.cells:
        grid[i][j + 1] = f"{v:>{width}}{mark}"
    lines = [picture.title]
    if picture.corner is not None:
        lines.append(picture.corner + "".join(f"{c:>{width}} " for c in picture.columns))
    lines += map("".join, grid)
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _svg(picture: _Picture) -> str:
    body = []
    for i, j, v, _, fill in picture.cells:
        x, y = j * _CELL, i * _CELL
        color = "#ffffff" if fill == _FILL_EXCLUDED else "#000000"
        body.append(f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                    f'fill="{fill}" stroke="#555555"/>'
                    f'<text x="{x + _CELL // 2}" y="{y + _CELL // 2 + 3}" font-size="9" '
                    f'text-anchor="middle" font-family="monospace" fill="{color}">'
                    f'{v}</text>\n')
    width, height = len(picture.columns) * _CELL, len(picture.rows) * _CELL
    if not body:
        body, width, height = ["<!-- empty diagram -->\n"], _CELL, _CELL
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            + "".join(body) + "</svg>\n")
