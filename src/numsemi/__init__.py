"""Exact arithmetic on numerical semigroups.

Apéry sets and the gap sets read off them, first minimal relation
matrices, closed-form Frobenius numbers, genera and Hilbert-series
numerators for three generators, gap diagrams, higher genera, sparsity
bounds for four or more generators, and exact falsification of power-law
Frobenius bounds.
"""

from .bounds import (
    BoundCheck,
    BoundReport,
    CriticalL,
    FamilyMember,
    admissible,
    conjecture_bound_check,
    counterexample_family,
    critical_l,
    is_prime,
    lower_bounds,
)
from .closedform import (
    ClosedForm3,
    closed_form,
    frobenius3,
    frobenius_any,
    frobenius_matrix_only,
    genus_matrix_only,
    j_invariant,
    johnson_reduce,
    pythagorean,
    symmetric_closed,
)
from .core import (
    MAX_GAPS,
    AperySet,
    Generators,
    GapSet,
    SylvesterResult,
    apery_set,
    gap_set,
    hilbert_numerator,
    is_representable,
    is_symmetric_gapset,
    phi_polynomial,
    reachable_mask,
    representable_pair,
    sylvester_closed,
    validate_generators,
    verify_hilbert_identity,
)
from .diagrams import (
    DiagramGrid,
    LambdaSet,
    associated_set,
    coprime_base,
    delta2_grid,
    delta3_via_diagram,
    lambda_set,
    numerator_via_diagram,
    pq_of,
    render_diagram,
    shift_difference_identity,
)
from .errors import (
    ContainsUnit,
    DimensionUnsupported,
    IdentityViolation,
    IndexOutOfRange,
    InternalError,
    InternalMismatch,
    InvalidInput,
    NoCoprimeBasePair,
    NonIntegerResult,
    NonSymmetricInput,
    NotAGap,
    NotCoprime,
    NotMinimal,
    NotPrimitive,
    NumsemiError,
    NuTooLarge,
    StandardFormViolation,
    SymmetricInput,
    TooManyGaps,
    TooShort,
    ValidationError,
)
from .genera import (
    derivative_genera,
    genera,
    genera2_closed,
    genus1_closed_3d,
    power_sums,
)
from .polynomial import SparsePolynomial, eval_fraction
from .relation import (
    Classification,
    RelationMatrix,
    classify,
    diagonal_coefficient,
    relation_matrix,
    verify_standard_form,
)
from .sparsity import (
    SparsityReport,
    diagonal_sum_check,
    min_element_check,
    random_valid_tuples,
    sparsity_check,
)
from .uniformscan import UniformDiagonalRecord, scan_uniform, uniform_closed

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
