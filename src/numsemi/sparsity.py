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


# random_valid_tuples refuses a request with count*m^3*d_max > SAMPLE_WORK.
# sparsity_check on a tuple it draws takes up to about 1.8e-8 * m^3*d_max
# seconds (the m >= 5 witness search and m passes over Q, measured for
# m = 4..32 and d_max up to 40,000 on a Xeon server core), so a checked
# sample stays near half a second.  Sampling gives up after SAMPLE_MISSES
# invalid draws in a row, which is how a range too narrow for minimal
# m-tuples shows: m = 30 in [30, 1100] draws none in 10^4.
SAMPLE_WORK = 3 * 10 ** 7
SAMPLE_MISSES = 100


def random_valid_tuples(count: int, m: int, d_max: int, seed: int):
    """Deterministic sample of validated m-tuples with elements in [m, d_max].

    Raises InvalidInput, before drawing, for count < 0, m < 2, a range with
    fewer than m integers or a request past SAMPLE_WORK, and after
    SAMPLE_MISSES invalid draws in a row.
    """
    if count < 0:
        raise InvalidInput(f"need count >= 0, got {count}")
    if m < 2:
        raise InvalidInput(f"need m >= 2, got {m}")
    if 2 * m > d_max + 1:
        raise InvalidInput(f"cannot draw m = {m} distinct integers from [{m}, {d_max}]")
    if count * m ** 3 * d_max > SAMPLE_WORK:
        raise InvalidInput(f"a sample of {count} {m}-tuples up to {d_max} exceeds "
                           f"the sampling budget count*m^3*d_max <= {SAMPLE_WORK}")
    rng = random.Random(seed)
    out = []
    misses = 0
    while len(out) < count:
        cand = tuple(sorted(rng.sample(range(m, d_max + 1), m)))
        try:
            out.append(validate_generators(cand))
            misses = 0
        except ValidationError:
            misses += 1
            if misses == SAMPLE_MISSES:
                raise InvalidInput(f"{misses} draws in a row from [{m}, {d_max}] were "
                                   f"not minimal generating {m}-tuples")
    return out
