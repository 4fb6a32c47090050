"""Sparsity of the Hilbert-series numerator for m >= 4 generators.

The weighted count of nonzero terms (sum of |coefficient|) obeys

    count <= 2^(m-1) * (d1 - sum_{j>=2} (a_jj - 2)) - 2(m - 1)
          <= 2^(m-1) * d1 - 2(m - 1),

and the diagonal itself obeys sum_{j>=2} a_jj <= d1 + 2(m-1)(1 - 2^(1-m)),
checked here after clearing the power of two.  For m = 3 the count is a
constant: 6 non-symmetric, 4 symmetric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import Generators, hilbert_numerator, validate_generators
from .errors import DimensionUnsupported, InvalidInput, ValidationError
from .relation import relation_matrix


@dataclass(frozen=True)
class SparsityReport:
    m: int
    d1: int
    diag: tuple
    count: int        # weighted: sum of |coefficient|
    bound: int
    weak_bound: int
    holds: bool


def sparsity_check(g: Generators) -> SparsityReport:
    """Weighted numerator size against the diagonal-corrected bound."""
    if g.m < 3:
        raise DimensionUnsupported(f"sparsity bounds start at m=3, got m={g.m}")
    A = relation_matrix(g)
    count = hilbert_numerator(g).nonzero_count()
    d1 = g.elements[0]
    m = g.m
    if m == 3:
        expected = 4 if A.collision(g) else 6
        return SparsityReport(m, d1, A.diag, count, expected, expected,
                              count == expected)
    slack = sum(A.diag[j] - 2 for j in range(1, m))
    bound = 2 ** (m - 1) * (d1 - slack) - 2 * (m - 1)
    weak = 2 ** (m - 1) * d1 - 2 * (m - 1)
    return SparsityReport(m, d1, A.diag, count, bound, weak,
                          count <= bound <= weak)


def diagonal_sum_check(g: Generators) -> bool:
    """sum_{j>=2} a_jj <= d1 + 2(m-1)(1 - 2^(1-m)), cleared of denominators."""
    if g.m < 4:
        raise DimensionUnsupported(f"diagonal sum bound needs m >= 4, got m={g.m}")
    m = g.m
    half = 2 ** (m - 1)
    lhs = half * sum(relation_matrix(g).diag[1:])
    rhs = half * g.elements[0] + 2 * (m - 1) * (half - 1)
    return lhs <= rhs


def min_element_check(g: Generators) -> bool:
    """d1 >= m holds for every minimal system; False flags a validation bug."""
    return g.elements[0] >= g.m


def random_valid_tuples(count: int, m: int, d_max: int, seed: int):
    """Deterministic sample of validated m-tuples with elements in [m, d_max]."""
    if not 0 <= 2 * m <= d_max + 1:
        raise InvalidInput(f"cannot draw m = {m} distinct integers from [{m}, {d_max}]")
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 10000 * count:
        attempts += 1
        cand = tuple(sorted(rng.sample(range(m, d_max + 1), m)))
        try:
            out.append(validate_generators(cand))
        except ValidationError:
            continue
    return out
