"""Sparse multivariate polynomials and the pipeline's structural transforms.

A polynomial is two read-only int64 arrays built once, at construction: a
(terms, n) exponent matrix whose rows are in lexicographically increasing
order, and the coefficients, (terms,) over F_p and (terms, k) over F_{p^k},
none zero.  The last row is the leading term and its coefficient the leading
coefficient.  Every whole-polynomial transform is array work on them;
terms() gives the terms back as python ints and tuples.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import InvalidInput, SpgcdError, ZeroPolynomial, ZeroScale
from .field import ExtField, Field, elements, nonzero

EXP_LIMIT = 1 << 62  # exponents lie in [0, EXP_LIMIT), so sums of two stay in int64


def _in_field(field: Field, coeffs: np.ndarray) -> np.ndarray:
    """A coefficient array as elements of field: an F_p array (terms,)
    embeds into F_{p^k} as (terms, k)."""
    embed = isinstance(field, ExtField) and coeffs.ndim == 1
    return coeffs[:, None] * field.kernel.unit if embed else coeffs


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class SparsePoly:
    """Immutable sparse polynomial: a (terms, nvars) exponent matrix and a
    coefficient array, both int64 and read-only, in canonical order.  The
    constructor trusts its arrays to be canonical; from_terms and
    from_arrays make them so."""

    __slots__ = ("nvars", "coeffs", "exps")

    def __init__(self, nvars: int, coeffs=(), exps=()):
        self.nvars = nvars
        self.coeffs = _frozen(np.asarray(coeffs, dtype=np.int64))
        self.exps = _frozen(np.asarray(exps, dtype=np.int64).reshape(len(self.coeffs), nvars))

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def from_terms(cls, field: Field, nvars: int, terms) -> "SparsePoly":
        """Canonical construction from (coefficient, exponent vector) pairs:
        combines duplicates, drops zeros, sorts."""
        terms = list(terms)
        try:
            coeffs = np.array([c for c, _ in terms], dtype=np.int64)
            exps = np.array([e for _, e in terms], dtype=np.int64).reshape(len(terms), nvars)
        except (OverflowError, ValueError) as exc:
            raise InvalidInput(f"bad term: {exc}") from exc
        return cls.from_arrays(field, exps, coeffs)

    @classmethod
    def from_arrays(cls, field: Field, exps: np.ndarray, coeffs: np.ndarray) -> "SparsePoly":
        """Canonical construction from an exponent matrix and coefficients in
        any order: one lexsort, one segment sum on the field's kernel over
        duplicate rows, then the zeros dropped."""
        if exps.size and (exps.min() < 0 or exps.max() >= EXP_LIMIT):
            raise InvalidInput("exponents must lie in [0, 2^62)")
        coeffs = _in_field(field, coeffs) % field.p
        order = np.lexsort(exps.T[::-1])
        exps, coeffs = exps[order], coeffs[order]
        starts = np.flatnonzero(np.r_[True, (exps[1:] != exps[:-1]).any(axis=1)])
        if len(starts) < len(exps):
            coeffs, exps = field.kernel.sum(coeffs, 0, starts), exps[starts]
        keep = nonzero(field, coeffs)
        return cls(exps.shape[1], coeffs[keep], exps[keep])

    @classmethod
    def constant(cls, field: Field, nvars: int, c) -> "SparsePoly":
        c = field.embed(c) if isinstance(c, int) else c
        if c == field.zero:
            return cls.zero(nvars)
        return cls(nvars, (c,), ((0,) * nvars,))

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not len(self.coeffs)

    @property
    def leading_exp(self) -> tuple:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return tuple(self.exps[-1].tolist())

    @property
    def lc(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        c = self.coeffs[-1].tolist()
        return tuple(c) if isinstance(c, list) else c

    def total_degree(self) -> int:
        if self.is_zero:
            return -1
        if int(self.exps.max()) * self.nvars < 1 << 63:
            return int(self.exps.sum(axis=1).max())
        return max(map(sum, self.exps.tolist()))  # row sums past int64

    def partial_degrees(self) -> tuple:
        if self.is_zero:
            return (0,) * self.nvars
        return tuple(self.exps.max(axis=0).tolist())

    def terms(self):
        """(coefficient, exponent tuple) pairs in canonical order, as python
        ints (k-tuples of them over F_{p^k})."""
        coeffs = self.coeffs.tolist()
        return zip(map(tuple, coeffs) if self.coeffs.ndim == 2 else coeffs, map(tuple, self.exps.tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and other.nvars == self.nvars
            and np.array_equal(other.exps, self.exps)
            and (self.is_zero or np.array_equal(other.coeffs, self.coeffs))
        )

    def __hash__(self):
        return hash((self.nvars, self.exps.tobytes(), self.coeffs.tobytes()))

    def __repr__(self):
        if self.is_zero:
            return f"SparsePoly({self.nvars}, 0)"
        parts = [f"{c}*x^{list(e)}" for c, e in self.terms()]
        return f"SparsePoly({self.nvars}, {' + '.join(parts)})"


def lex_monic(field: Field, f: SparsePoly) -> SparsePoly:
    """Divide by the coefficient of the lexicographically greatest term."""
    if f.is_zero:
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    return SparsePoly(f.nvars, field.kernel.mul(field.inv(f.lc), f.coeffs), f.exps)


def add_polys(field: Field, polys) -> SparsePoly:
    polys = list(polys)
    if not polys:
        raise InvalidInput("empty sum")
    exps = np.concatenate([f.exps for f in polys])
    coeffs = np.concatenate([f.coeffs for f in polys])
    return SparsePoly.from_arrays(field, exps, coeffs)


def shift_exponents(f: SparsePoly, delta) -> SparsePoly:
    """Multiply by the monomial x^delta (exponent addition, order-preserving)."""
    return SparsePoly(f.nvars, f.coeffs, f.exps + np.asarray(delta, dtype=np.int64))


# ---------------------------------------------------------------------------
# monomial content
# ---------------------------------------------------------------------------


def monomial_content(f: SparsePoly) -> tuple:
    """Coordinatewise minimum of the exponent vectors."""
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no monomial content")
    return tuple(f.exps.min(axis=0).tolist())


def monomial_primitive(f: SparsePoly) -> SparsePoly:
    return shift_exponents(f, [-c for c in monomial_content(f)])


def monomial_gcd(a: tuple, b: tuple) -> tuple:
    return tuple(min(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# generalized homogenization and the isolating vector
# ---------------------------------------------------------------------------


class HomoPoly:
    """f with x_i -> x_i * y^(s_i), lowest y-degree y^0.  ydegs is the
    y-degree of each term of f, in f's term order.  exps and coeffs hold
    f's terms sorted by y-degree, by one stable sort, so each layer keeps
    lex order: layer l is rows starts[l] up to starts[l + 1], of y-degree
    layer_ydegs[l].  Every array is read-only int64."""

    __slots__ = ("nvars", "s", "ydegs", "max_ydeg", "exps", "coeffs", "starts", "layer_ydegs")

    def __init__(self, f: SparsePoly, s: tuple):
        if f.is_zero:
            raise ZeroPolynomial("cannot homogenize the zero polynomial")
        if any(x < 1 for x in s):
            raise InvalidInput("isolating vector entries must be >= 1")
        dots = f.exps @ np.array(s, dtype=np.int64)
        self.nvars = f.nvars
        self.s = tuple(s)
        self.ydegs = _frozen(dots - dots.min())
        order = np.argsort(self.ydegs, kind="stable")
        ydegs = self.ydegs[order]
        self.exps, self.coeffs = _frozen(f.exps[order]), _frozen(f.coeffs[order])
        self.starts = _frozen(np.flatnonzero(np.r_[True, ydegs[1:] != ydegs[:-1]]))
        self.layer_ydegs = _frozen(ydegs[self.starts])
        self.max_ydeg = int(self.layer_ydegs[-1])

    @property
    def layers(self) -> tuple:
        """(y-degree, SparsePoly) per layer, lowest first, built on each
        access."""
        bounds = self.starts.tolist() + [len(self.exps)]
        return tuple(
            (yd, SparsePoly(self.nvars, self.coeffs[a:b], self.exps[a:b]))
            for yd, a, b in zip(self.layer_ydegs.tolist(), bounds, bounds[1:])
        )


def homogenize(f: SparsePoly, s) -> HomoPoly:
    return HomoPoly(f, tuple(s))


def has_max_isolated_term(f: SparsePoly, s) -> bool:
    """True iff a unique term attains the maximal weighted degree <e, s>."""
    if f.is_zero:
        raise ZeroPolynomial("undefined for the zero polynomial")
    dots = f.exps @ np.array(s, dtype=np.int64)
    return int(np.count_nonzero(dots == dots.max())) == 1


def choose_isolating_vector(
    A: SparsePoly,
    B: SparsePoly,
    rng: random.Random,
    max_attempts: int = 512,
):
    """Sample s with 1 <= s_i <= N until A or B gets a maximum isolated term.

    N escalates 1, 2, 4, ... up to cap = 2*min(#A - 1, #B - 1) and then
    stays there.  Returns (s, which) where which is "A" or "B".  Weighted
    degrees are int64, so D * cap must stay below 2^62 (D the largest total
    degree); larger inputs raise InvalidInput.
    """
    if A.is_zero or B.is_zero:
        raise InvalidInput("inputs must be nonzero")
    cap = max(1, 2 * (min(A.n_terms, B.n_terms) - 1))
    if max(A.total_degree(), B.total_degree()) * cap >= EXP_LIMIT:
        raise InvalidInput("total degree times 2*min(#A - 1, #B - 1) must stay below 2^62")
    n = A.nvars
    ones = (1,) * n
    if A.n_terms == 1:
        return ones, "A"
    if B.n_terms == 1:
        return ones, "B"
    N = 1
    for _ in range(max_attempts):
        s = tuple(rng.randint(1, N) for _ in range(n))
        if has_max_isolated_term(A, s):
            return s, "A"
        if has_max_isolated_term(B, s):
            return s, "B"
        N = min(2 * N, cap)
    raise SpgcdError("failed to isolate a maximum term (inputs degenerate?)")


# ---------------------------------------------------------------------------
# diversification
# ---------------------------------------------------------------------------


def diversify(field: Field, f: SparsePoly, zeta) -> SparsePoly:
    """x_i -> zeta_i * x_i: coefficient of x^e becomes c * zeta^e.

    Support is preserved exactly (no cancellation is possible)."""
    zeta = tuple(zeta)
    if any(z == field.zero for z in zeta):
        raise ZeroScale("diversifier coordinates must be nonzero")
    scales = _monomial_values(field, f.exps, zeta)
    return SparsePoly(f.nvars, field.kernel.mul(_in_field(field, f.coeffs), scales), f.exps)


def undiversify(field: Field, f: SparsePoly, zeta) -> SparsePoly:
    return diversify(field, f, tuple(field.inv(z) for z in zeta))


# ---------------------------------------------------------------------------
# evaluation at power sequences
# ---------------------------------------------------------------------------


def _monomial_values(field: Field, exps, point) -> np.ndarray:
    """M_j(point) for every exponent vector (the rows of exps), in term
    order, as an int64 array on the field's kernel: the powers of all
    coordinates for the whole exponent matrix at once, then one product
    across its columns."""
    kern = field.kernel
    factors = kern.pow(kern.array(point), np.reshape(exps, (len(exps), len(point))))
    out = np.zeros((len(factors),) + kern.shape, dtype=np.int64) + kern.unit
    for l in range(factors.shape[1]):
        out = kern.mul(out, factors[:, l])
    return out


def eval_at_powers(field: Field, f: SparsePoly, alpha, count: int):
    """[f(alpha^1), ..., f(alpha^count)] where alpha^i is coordinatewise.

    Each monomial is evaluated once; the running term values c_j M_j^i
    advance by one batched product per point, so the total cost is
    O(count * #f) multiplications.
    """
    if count < 1:
        raise InvalidInput("count must be >= 1")
    kern = field.kernel
    mmats = kern.matrices(_monomial_values(field, f.exps, alpha))
    running = _in_field(field, f.coeffs)
    out = []
    for _ in range(count):
        running = kern.apply(mmats, running)
        out.append(kern.sum(running, axis=0))
    return elements(field, np.array(out))


class PowerImageEvaluator:
    """Successive dense univariate images F(y, beta^i) of a homogenized
    polynomial, i = 1, 2, ..., on the field's kernel: int64 arrays, (width,)
    over F_p and (width, k) over F_{p^k}.  The monomial values M_j(beta)
    are computed once, and grid reuses them for the sequences with one
    coordinate shifted.  The running values are the terms c_j M_j(beta)^i,
    so each image is one batched product, O(#F) multiplications, and one
    segment sum on the kernel over the homogenized polynomial's y-degree
    segments (its exps, coeffs and starts)."""

    def __init__(self, field: Field, homo: HomoPoly, beta):
        self.kernel = kern = field.kernel
        self.width = homo.max_ydeg + 1
        self.homo = homo  # terms sorted by y-degree: image[ydeg] sums one segment
        self.mvals = kern.matrices(_monomial_values(field, homo.exps, beta))
        self.coeffs = _in_field(field, homo.coeffs)
        self.running = self.coeffs

    def _starts(self, omega):
        """Running values at i = 0 of the sequences with x_k -> omega * x_k,
        one row per k: term j starts at c_j omega^(e_jk)."""
        kern = self.kernel
        return kern.mul(self.coeffs, np.moveaxis(kern.pow(omega, self.homo.exps), 1, 0))

    def _advance(self, running):
        return self.kernel.apply(self.mvals, running)

    def _images(self, running):
        """Images (rows, width[, k]) of running term values (rows, #F[, k])."""
        out = np.zeros((len(running), self.width) + running.shape[2:], dtype=np.int64)
        out[:, self.homo.layer_ydegs] = self.kernel.sum(running, 1, self.homo.starts)
        return out

    def next_images(self, count: int) -> np.ndarray:
        """Images at the next count powers, as one (count, width[, k]) array."""
        running = []
        for _ in range(count):
            self.running = self._advance(self.running)
            running.append(self.running)
        return self._images(np.stack(running))

    def next_image(self) -> np.ndarray:
        """Image at the next power; dense vector of length max_ydeg + 1."""
        return self.next_images(1)[0]

    def grid(self, count: int, omega) -> np.ndarray:
        """The images at i = 1..count of the unshifted sequence and then of
        each sequence with x_k -> omega * beta_k^i (omega not raised to i),
        k = 0..n-1, as one int64 array of (n + 1) * count rows, row-major by
        sequence: (rows, width) over F_p, (rows, width, k) over F_{p^k}.
        Independent of earlier next_image calls."""
        running = np.concatenate([self.coeffs[None], self._starts(omega)])
        out = np.empty((len(running), count, self.width) + running.shape[2:], dtype=np.int64)
        for i in range(count):
            running = self._advance(running)
            out[:, i] = self._images(running)
        return out.reshape((-1,) + out.shape[2:])
