"""Sparse recovery from power-sequence evaluations on shared nodes, for all
of an attempt's layers as one batch.

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

The layers of one attempt share alpha and omega, so interpolate takes their
grids as one int64 array (LayerGrids) and runs each step once for all of
them on the field's kernel: Berlekamp-Massey per layer, then one
find_roots over every layer's recurrence, one recurrence check over every
row, one solve_transposed_vandermonde over every layer's rows, one
discrete_log_bounded over every ratio, and one re-evaluation check.  That
check evaluates each term's monomial at alpha (sparse._monomial_values),
which must give back its node; with the solves and the recurrence check,
each layer's terms then reproduce every row of its grid.  The terms of
all layers come back as one polynomial, canonicalised once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, LengthMismatch, NotAPower, ReEvaluationFailed, RootDeficit, SingularSystem
from .field import Field, discrete_log_bounded, elements, nonzero
from .sparse import SparsePoly, _monomial_values
# Not called here; perfbench/run.py wraps interp.eval_at_powers by name.
from .sparse import eval_at_powers  # noqa: F401
from .unipoly import berlekamp_massey, find_roots, solve_transposed_vandermonde


@dataclass(frozen=True)
class LayerGrids:
    """The grids of L layers that share alpha and omega, as one int64 array:
    values[l, r, i] is row r (0 the base row, k + 1 shifted row k) of layer
    l at point i + 1, (L, n + 1, width) over F_p and (L, n + 1, width, k)
    over F_{p^k}.  Layer l has the term bound bounds[l] and uses the first
    2 bounds[l] points of its rows."""

    alpha: tuple
    omega: object
    bounds: tuple
    values: np.ndarray

    def __post_init__(self):
        if any(T < 1 for T in self.bounds):
            raise InvalidInput("term bound must be >= 1")
        if self.values.shape[:2] != (len(self.bounds), len(self.alpha) + 1):
            raise InvalidInput("values must hold n + 1 rows per layer")
        if self.values.shape[2] < 2 * max(self.bounds, default=0):
            raise InvalidInput("all rows must have length 2T")


def _stray_rows(field, kern, lams, rows, ts, bounds) -> np.ndarray:
    """For each layer, the index of its first row that breaks the layer's
    recurrence lam (some sum_s lam_s v_(u+s) with u + t < 2T is nonzero), or
    len(rows[l]) when every row follows it.  lams (L, t + 1[, k]) are zero
    past each layer's degree t, rows (L, R, width[, k])."""
    L, R, width = rows.shape[:3]
    tail = np.zeros((L, R, lams.shape[1] - 1) + rows.shape[3:], dtype=np.int64)
    windows = np.concatenate([rows, tail], axis=2)[:, :, np.arange(width)[:, None] + np.arange(lams.shape[1])]
    resid = kern.sum(kern.mul(lams[:, None, None], windows), axis=3)
    checked = np.arange(width) < (2 * np.array(bounds) - ts)[:, None]
    stray = (nonzero(field, resid) & checked[:, None]).any(axis=2)
    return np.where(stray.any(axis=1), stray.argmax(axis=1), R)


def interpolate(field: Field, grids: LayerGrids, deg_bound: int, rng: random.Random | None = None):
    """Rebuild the target polynomials of grids as (poly, rounds): poly is the
    sum of every layer's polynomial, built by one SparsePoly.from_arrays, and
    rounds is find_roots' count of split rounds.  The engine's layers have
    disjoint monomials (a monomial fixes its y-degree), so poly holds each
    layer's terms unchanged.

    An inconsistency raises one of the retryable InterpolationError
    subclasses, for the first failing layer in layer order: the error that
    layer's own grid raises, with the layer's index as ``layer`` and the
    split rounds as ``rounds``.  Each layer's terms reproduce every row of
    its grid, so they can differ from the target only when alpha gives two
    of the target's monomials the same node.
    """
    rng = rng or random.Random(0)
    kern, V, bounds = field.kernel, grids.values, grids.bounds
    L, R = V.shape[:2]
    n, elt = R - 1, V.shape[3:]
    lams = [berlekamp_massey(field, elements(field, V[l, 0, : 2 * T])) for l, T in enumerate(bounds)]
    ts = np.array([len(lam) - 1 for lam in lams], dtype=np.int64)
    Lam = np.zeros((L, int(ts.max(initial=0)) + 1) + elt, dtype=np.int64)
    for l, lam in enumerate(lams):
        Lam[l, : len(lam)] = kern.array(lam)
    errors = {}
    # a layer that breaks its recurrence fails somewhere, and with a zero
    # base row right here; later layers cannot decide the error
    stray = _stray_rows(field, kern, Lam, V[:, 1:], ts, bounds)
    doomed = np.flatnonzero(stray < n)
    for l in doomed[ts[doomed] == 0]:
        errors[int(l)] = LengthMismatch("base row is zero but a shifted row is not")
    live = np.flatnonzero((ts > 0) & (np.arange(L) <= (doomed[0] if len(doomed) else L)))

    def survivors(ok, make_error):
        """Record make_error(i) for each live layer live[i] where ok fails;
        the mask of the live layers that pass and precede every error."""
        for i in np.flatnonzero(~ok):
            errors[int(live[i])] = make_error(i)
        return ok & (live < min(errors, default=L))

    roots, split, rounds = find_roots(field, Lam[live], rng)
    on = survivors(split, lambda i: RootDeficit(f"the degree-{ts[live[i]]} recurrence does not split into distinct roots"))
    live, nodes = live[on], roots[on]
    real = np.arange(nodes.shape[1]) < ts[live][:, None]  # (layers, terms)
    on = survivors(~(real & ~nonzero(field, nodes)).any(axis=1), lambda i: SingularSystem("nodes must be distinct and nonzero"))
    live, nodes, real = live[on], nodes[on], real[on]

    C = solve_transposed_vandermonde(field, nodes, V[live][:, :, : nodes.shape[1]])
    ratios = kern.mul(C[:, 1:], kern.inv(C[:, :1]))
    mask = np.broadcast_to(real[:, None], ratios.shape[:3])  # (layers, n, terms)
    exps = np.full(mask.shape, -1, dtype=np.int64)
    exps[mask] = discrete_log_bounded(field, grids.omega, ratios[mask], deg_bound)
    # row k's recurrence is checked before its discrete logs
    missing = ((exps < 0) & mask).any(axis=2)
    first_missing = np.where(missing.any(axis=1), missing.argmax(axis=1), n)
    first_stray = stray[live]
    on = survivors(
        (first_stray == n) & (first_missing == n),
        lambda i: LengthMismatch(f"row {first_stray[i]} does not follow the base row's recurrence")
        if first_stray[i] <= first_missing[i]
        else NotAPower(f"no exponent <= {deg_bound} matches"),
    )
    live, nodes, real, C = live[on], nodes[on], real[on], C[on]
    E = np.swapaxes(exps[on], 1, 2)  # (layers, terms, n)

    monomials = _monomial_values(field, E[real], grids.alpha)
    match = np.ones(real.shape, dtype=bool)
    match[real] = ~nonzero(field, monomials - nodes[real])
    on = survivors(match.all(axis=1), lambda i: ReEvaluationFailed("assembled polynomial does not reproduce the base row"))
    if errors:
        l = min(errors)
        exc = errors[l]
        exc.layer, exc.rounds = l, rounds
        raise exc
    # every live layer passed: its first ts[l] terms, base-row coefficients
    return SparsePoly.from_arrays(field, E[real], C[:, 0][real]), rounds
