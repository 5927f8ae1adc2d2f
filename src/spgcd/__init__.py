"""Sparse multivariate polynomial GCD over finite fields.

The pipeline isolates the GCD's leading coefficient with a weighted
homogenization, bounds each coefficient layer's term count by early
termination on Hankel determinants, and recovers the layers with a
Ben-Or/Tiwari interpolation driven by univariate GCD images.
"""

from .engine import GcdConfig, StageTrace, TermBounds, gcd, primitive_gcd
from .errors import GcdFailure, InterpolationError, InvalidInput, SpgcdError
from .field import ExtField, PrimeField, discrete_log_bounded, find_irreducible
from .interp import LayerGrids, interpolate
from .oracle import dense_gcd, divides_exactly, sparse_mul
from .sparse import (
    HomoPoly,
    SparsePoly,
    choose_isolating_vector,
    diversify,
    eval_at_powers,
    has_max_isolated_term,
    homogenize,
    lex_monic,
    monomial_content,
    monomial_primitive,
    undiversify,
)
from .unipoly import (
    berlekamp_massey,
    find_roots,
    monic_gcd,
    solve_transposed_vandermonde,
)

__version__ = "0.1.0"

__all__ = [
    "ExtField",
    "GcdConfig",
    "GcdFailure",
    "HomoPoly",
    "InterpolationError",
    "InvalidInput",
    "LayerGrids",
    "PrimeField",
    "SparsePoly",
    "SpgcdError",
    "StageTrace",
    "TermBounds",
    "berlekamp_massey",
    "choose_isolating_vector",
    "dense_gcd",
    "discrete_log_bounded",
    "diversify",
    "divides_exactly",
    "eval_at_powers",
    "find_irreducible",
    "find_roots",
    "gcd",
    "has_max_isolated_term",
    "homogenize",
    "interpolate",
    "lex_monic",
    "monic_gcd",
    "monomial_content",
    "monomial_primitive",
    "primitive_gcd",
    "solve_transposed_vandermonde",
    "sparse_mul",
    "undiversify",
]
