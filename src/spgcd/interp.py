"""Sparse recovery from power-sequence evaluations on shared nodes.

For f = sum_j c_j x^(E_j) the base row holds f(alpha^i) = sum_j c_j m_j^i,
i = 1..2T, with nodes m_j = alpha^(E_j).  Shifted row k holds f at the same
points with coordinate k multiplied by omega once (not raised to i), that is
sum_j (c_j omega^(E_jk)) m_j^i: the same nodes with scaled coefficients.
So only the base row runs Berlekamp-Massey and root finding; a transposed
Vandermonde solve per row on the shared nodes gives the coefficients, terms
match by node index (coefficients need not be distinct), and E_jk is the
discrete log of the coefficient ratio, unique in [0, bound] because omega's
order exceeds the bound.  A shifted row whose later values do not follow the
base row's recurrence raises LengthMismatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce

from .errors import InvalidInput, LengthMismatch, ReEvaluationFailed
from .field import Field, discrete_log_bounded
from .sparse import SparsePoly, eval_at_powers
from .unipoly import berlekamp_massey, find_roots, solve_transposed_vandermonde


@dataclass(frozen=True)
class EvalGrid:
    """2T values of f at alpha^1..alpha^2T (base row) and, per variable k,
    at the same points with the k-th coordinate multiplied by omega once
    (shifted row k): row k is eval_at_powers of f with x_k -> omega * x_k."""

    alpha: tuple
    omega: object
    T: int
    base_row: tuple
    shifted_rows: tuple

    def __post_init__(self):
        if self.T < 1:
            raise InvalidInput("term bound must be >= 1")
        want = 2 * self.T
        if len(self.base_row) != want or any(len(r) != want for r in self.shifted_rows):
            raise InvalidInput("all rows must have length 2T")


def _follows(field: Field, lam, row) -> bool:
    """Whether every value of row past the first t obeys the recurrence lam."""
    t = len(lam) - 1
    for i in range(t, len(row)):
        terms = [field.mul(c, v) for c, v in zip(lam, row[i - t : i + 1])]
        if reduce(field.add, terms) != field.zero:
            return False
    return True


def interpolate(
    field: Field,
    grid: EvalGrid,
    deg_bound: int,
    rng: random.Random | None = None,
) -> SparsePoly:
    """Rebuild the target polynomial from its evaluation grid.

    The assembled polynomial is re-evaluated against the base row, and any
    inconsistency raises one of the retryable InterpolationError subclasses.
    A returned value reproduces every row, so it can differ from the target
    only when alpha gives two of the target's monomials the same node.
    """
    rng = rng or random.Random(0)
    n = len(grid.alpha)
    lam = berlekamp_massey(field, grid.base_row)
    t = len(lam) - 1
    if t == 0:
        for row in grid.shifted_rows:
            if any(v != field.zero for v in row):
                raise LengthMismatch("base row is zero but a shifted row is not")
        return SparsePoly.zero(n)

    nodes = find_roots(field, lam, rng)
    coeffs = solve_transposed_vandermonde(field, nodes, list(grid.base_row[:t]))
    inv_coeffs = [field.inv(c) for c in coeffs]
    expvecs = [[0] * n for _ in range(t)]
    for k, row in enumerate(grid.shifted_rows):
        if not _follows(field, lam, row):
            raise LengthMismatch(f"row {k} does not follow the base row's recurrence")
        coeffs_k = solve_transposed_vandermonde(field, nodes, list(row[:t]))
        for j, (ck, inv_c) in enumerate(zip(coeffs_k, inv_coeffs)):
            ratio = field.mul(ck, inv_c)
            expvecs[j][k] = discrete_log_bounded(field, grid.omega, ratio, deg_bound)

    result = SparsePoly.from_terms(
        field, n, [(c, tuple(e)) for c, e in zip(coeffs, expvecs)]
    )
    check = eval_at_powers(field, result, grid.alpha, 2 * grid.T)
    if any(a != b for a, b in zip(check, grid.base_row)):
        raise ReEvaluationFailed("assembled polynomial does not reproduce the base row")
    return result
