"""Sparse multivariate polynomials and the pipeline's structural transforms.

Terms are kept in lexicographically increasing exponent order, so the last
term is the leading term and its coefficient the leading coefficient.
Monomials appear as bare exponent tuples throughout.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import InvalidInput, SpgcdError, ZeroPolynomial, ZeroScale
from .field import ExtField, Field, PrimeField, elements


def _as_field_coeff(field: Field, c):
    if isinstance(field, ExtField) and not isinstance(c, tuple):
        return field.embed(c)
    if isinstance(field, PrimeField) and isinstance(c, int):
        return c % field.p
    return c


class SparsePoly:
    """Immutable sparse polynomial: parallel coefficient/exponent tuples."""

    __slots__ = ("nvars", "coeffs", "exps")

    def __init__(self, nvars: int, coeffs: tuple = (), exps: tuple = ()):
        self.nvars = nvars
        self.coeffs = tuple(coeffs)
        self.exps = tuple(exps)

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def from_terms(cls, field: Field, nvars: int, terms) -> "SparsePoly":
        """Canonical construction: combines duplicates, drops zeros, sorts."""
        acc: dict = {}
        for c, e in terms:
            e = tuple(int(x) for x in e)
            if len(e) != nvars or any(x < 0 for x in e):
                raise InvalidInput(f"bad exponent vector {e}")
            c = _as_field_coeff(field, c)
            if e in acc:
                acc[e] = field.add(acc[e], c)
            else:
                acc[e] = c
        items = [(e, c) for e, c in acc.items() if c != field.zero]
        items.sort()
        return cls(nvars, tuple(c for _, c in items), tuple(e for e, _ in items))

    @classmethod
    def constant(cls, field: Field, nvars: int, c) -> "SparsePoly":
        c = _as_field_coeff(field, c)
        if c == field.zero:
            return cls.zero(nvars)
        return cls(nvars, (c,), ((0,) * nvars,))

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_exp(self) -> tuple:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return self.exps[-1]

    @property
    def lc(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def total_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(sum(e) for e in self.exps)

    def partial_degrees(self) -> tuple:
        if self.is_zero:
            return (0,) * self.nvars
        return tuple(max(e[i] for e in self.exps) for i in range(self.nvars))

    def terms(self):
        return zip(self.coeffs, self.exps)

    def evaluate(self, field: Field, point):
        acc = field.zero
        for c, e in self.terms():
            acc = field.add(acc, field.mul(_as_field_coeff(field, c), _monomial(field, e, point)))
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and other.nvars == self.nvars
            and other.coeffs == self.coeffs
            and other.exps == self.exps
        )

    def __hash__(self):
        return hash((self.nvars, self.coeffs, self.exps))

    def __repr__(self):
        if self.is_zero:
            return f"SparsePoly({self.nvars}, 0)"
        parts = [f"{c}*x^{list(e)}" for c, e in self.terms()]
        return f"SparsePoly({self.nvars}, {' + '.join(parts)})"


def to_base_field(field: ExtField, f: SparsePoly) -> SparsePoly:
    """f with its coefficients taken back to the prime subfield; raises
    InvalidInput if any coefficient lies outside it."""
    return SparsePoly(f.nvars, tuple(field.to_base(c) for c in f.coeffs), f.exps)


def scale_poly(field: Field, f: SparsePoly, c) -> SparsePoly:
    if c == field.zero:
        return SparsePoly.zero(f.nvars)
    return SparsePoly(f.nvars, tuple(field.mul(x, c) for x in f.coeffs), f.exps)


def lex_monic(field: Field, f: SparsePoly) -> SparsePoly:
    """Divide by the coefficient of the lexicographically greatest term."""
    if f.is_zero:
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    return scale_poly(field, f, field.inv(f.lc))


def add_polys(field: Field, polys) -> SparsePoly:
    terms = []
    nvars = None
    for f in polys:
        nvars = f.nvars if nvars is None else nvars
        terms.extend(f.terms())
    if nvars is None:
        raise InvalidInput("empty sum")
    return SparsePoly.from_terms(field, nvars, terms)


def shift_exponents(f: SparsePoly, delta) -> SparsePoly:
    """Multiply by the monomial x^delta (exponent addition, order-preserving)."""
    delta = tuple(delta)
    return SparsePoly(
        f.nvars, f.coeffs, tuple(tuple(a + b for a, b in zip(e, delta)) for e in f.exps)
    )


# ---------------------------------------------------------------------------
# monomial content
# ---------------------------------------------------------------------------


def monomial_content(f: SparsePoly) -> tuple:
    """Coordinatewise minimum of the exponent vectors."""
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no monomial content")
    return tuple(min(e[i] for e in f.exps) for i in range(f.nvars))


def monomial_primitive(f: SparsePoly) -> SparsePoly:
    cont = monomial_content(f)
    return SparsePoly(
        f.nvars, f.coeffs, tuple(tuple(a - b for a, b in zip(e, cont)) for e in f.exps)
    )


def monomial_gcd(a: tuple, b: tuple) -> tuple:
    return tuple(min(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# generalized homogenization and the isolating vector
# ---------------------------------------------------------------------------


class HomoPoly:
    """f with x_i -> x_i * y^(s_i), grouped by y-degree, lowest layer at y^0."""

    __slots__ = ("nvars", "s", "layers", "ydegs", "source")

    def __init__(self, f: SparsePoly, s: tuple):
        if f.is_zero:
            raise ZeroPolynomial("cannot homogenize the zero polynomial")
        if any(x < 1 for x in s):
            raise InvalidInput("isolating vector entries must be >= 1")
        dots = [sum(a * b for a, b in zip(e, s)) for e in f.exps]
        low = min(dots)
        ydegs = tuple(d - low for d in dots)
        groups: dict = {}
        for (c, e), yd in zip(f.terms(), ydegs):
            groups.setdefault(yd, []).append((c, e))
        layers = []
        for yd in sorted(groups):
            terms = sorted(groups[yd], key=lambda t: t[1])
            layers.append(
                (yd, SparsePoly(f.nvars, tuple(c for c, _ in terms), tuple(e for _, e in terms)))
            )
        self.nvars = f.nvars
        self.s = tuple(s)
        self.layers = tuple(layers)
        self.ydegs = ydegs
        self.source = f

    @property
    def max_ydeg(self) -> int:
        return self.layers[-1][0]

    def substitute_one(self, field: Field) -> SparsePoly:
        """Set y = 1: the sum of all layers recovers the source polynomial."""
        return add_polys(field, [p for _, p in self.layers])


def homogenize(f: SparsePoly, s) -> HomoPoly:
    return HomoPoly(f, tuple(s))


def has_max_isolated_term(f: SparsePoly, s) -> bool:
    """True iff a unique term attains the maximal weighted degree <e, s>."""
    if f.is_zero:
        raise ZeroPolynomial("undefined for the zero polynomial")
    dots = [sum(a * b for a, b in zip(e, s)) for e in f.exps]
    top = max(dots)
    return dots.count(top) == 1


def choose_isolating_vector(
    A: SparsePoly,
    B: SparsePoly,
    rng: random.Random,
    max_attempts: int = 512,
):
    """Sample s with 1 <= s_i <= N until A or B gets a maximum isolated term.

    N escalates 1, 2, 4, ... up to 2*min(#A - 1, #B - 1) and then stays
    there.  Returns (s, which) where which is "A" or "B".
    """
    if A.is_zero or B.is_zero:
        raise InvalidInput("inputs must be nonzero")
    n = A.nvars
    ones = (1,) * n
    if A.n_terms == 1:
        return ones, "A"
    if B.n_terms == 1:
        return ones, "B"
    cap = max(1, 2 * (min(A.n_terms, B.n_terms) - 1))
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
    coeffs = (field.mul(_as_field_coeff(field, c), _monomial(field, e, zeta)) for c, e in f.terms())
    return SparsePoly(f.nvars, tuple(coeffs), f.exps)


def undiversify(field: Field, f: SparsePoly, zeta) -> SparsePoly:
    return diversify(field, f, tuple(field.inv(z) for z in zeta))


# ---------------------------------------------------------------------------
# evaluation at power sequences
# ---------------------------------------------------------------------------


def _monomial(field: Field, e, point):
    """The monomial x^e at point, on field elements (one term's value, for
    SparsePoly.evaluate and diversify)."""
    v = field.one
    for x, k in zip(point, e):
        if k:
            v = field.mul(v, field.pow_(x, k))
    return v


def _monomial_values(field: Field, exps, point) -> np.ndarray:
    """M_j(point) for every exponent vector (the rows of exps), in term
    order, as an int64 array on the field's kernel: the powers of all
    coordinates for the whole exponent matrix at once, then one product
    across its columns."""
    kern = field.kernel
    factors = kern.pow(kern.array(point), np.array(exps, dtype=np.int64).reshape(len(exps), len(point)))
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
    running = kern.array([_as_field_coeff(field, c) for c in f.coeffs])
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
    reduceat over the terms sorted by y-degree, summed in the kernel's work
    type so that residues near 2^62 cannot overflow."""

    def __init__(self, field: Field, homo: HomoPoly, beta):
        self.kernel = kern = field.kernel
        self.width = homo.max_ydeg + 1
        # terms sorted by y-degree, so image[ydeg] is one reduceat segment
        ydegs = np.array(homo.ydegs, dtype=np.int64)
        order = np.argsort(ydegs, kind="stable")
        ydegs = ydegs[order]
        self.starts = np.flatnonzero(np.r_[True, ydegs[1:] != ydegs[:-1]])
        self.segment_ydegs = ydegs[self.starts]
        self.exps = np.array(homo.source.exps, dtype=np.int64)[order]
        self.mvals = kern.matrices(_monomial_values(field, self.exps, beta))
        self.coeffs = kern.array([_as_field_coeff(field, c) for c in homo.source.coeffs])[order]
        self.running = self.coeffs

    def _starts(self, omega):
        """Running values at i = 0 of the sequences with x_k -> omega * x_k,
        one row per k: term j starts at c_j omega^(e_jk)."""
        kern = self.kernel
        return kern.mul(self.coeffs, np.moveaxis(kern.pow(omega, self.exps), 1, 0))

    def _advance(self, running):
        return self.kernel.apply(self.mvals, running)

    def _images(self, running):
        """Images (rows, width[, k]) of running term values (rows, #F[, k])."""
        sums = np.add.reduceat(running.astype(self.kernel.work, copy=False), self.starts, axis=1)
        out = np.zeros((len(running), self.width) + running.shape[2:], dtype=np.int64)
        out[:, self.segment_ydegs] = sums % self.kernel.p
        return out

    def next_image(self) -> np.ndarray:
        """Image at the next power; dense vector of length max_ydeg + 1."""
        self.running = self._advance(self.running)
        return self._images(self.running[None])[0]

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
