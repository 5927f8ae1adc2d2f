"""Sparse multivariate polynomials and the pipeline's structural transforms.

Terms are kept in lexicographically increasing exponent order, so the last
term is the leading term and its coefficient the leading coefficient.
Monomials appear as bare exponent tuples throughout.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import InvalidInput, SpgcdError, ZeroPolynomial, ZeroScale
from .field import ExtField, Field, PrimeField

_NP_EVAL_MAX_P = 1 << 30


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
            v = _as_field_coeff(field, c)
            for x, k in zip(point, e):
                if k:
                    v = field.mul(v, field.pow_(x, k))
            acc = field.add(acc, v)
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


def embed_poly(field: Field, f: SparsePoly) -> SparsePoly:
    """Coerce coefficients into the given (possibly larger) field."""
    return SparsePoly(f.nvars, tuple(_as_field_coeff(field, c) for c in f.coeffs), f.exps)


def to_base_field(field: ExtField, f: SparsePoly) -> SparsePoly:
    """Inverse of embed_poly; raises InvalidInput if any coefficient is not
    in the prime subfield."""
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
    coeffs = []
    for c, e in f.terms():
        v = _as_field_coeff(field, c)
        for z, k in zip(zeta, e):
            if k:
                v = field.mul(v, field.pow_(z, k))
        coeffs.append(v)
    return SparsePoly(f.nvars, tuple(coeffs), f.exps)


def undiversify(field: Field, f: SparsePoly, zeta) -> SparsePoly:
    return diversify(field, f, tuple(field.inv(z) for z in zeta))


# ---------------------------------------------------------------------------
# evaluation at power sequences
# ---------------------------------------------------------------------------


def _np_powmod_vec(base: int, exps: np.ndarray, p: int) -> np.ndarray:
    out = np.ones(len(exps), dtype=np.int64)
    b = base % p
    e = exps.copy()
    while np.any(e):
        odd = (e & 1).astype(bool)
        out[odd] = out[odd] * b % p
        b = b * b % p
        e >>= 1
    return out


def _monomial_values(field: Field, exps, point):
    """M_j(point) for every exponent vector, in term order."""
    if isinstance(field, PrimeField) and field.p < _NP_EVAL_MAX_P and exps:
        mat = np.array(exps, dtype=np.int64)
        out = np.ones(len(exps), dtype=np.int64)
        for l in range(mat.shape[1]):
            out = out * _np_powmod_vec(point[l], mat[:, l], field.p) % field.p
        return out
    vals = []
    for e in exps:
        v = field.one
        for x, k in zip(point, e):
            if k:
                v = field.mul(v, field.pow_(x, k))
        vals.append(v)
    return vals


def eval_at_powers(field: Field, f: SparsePoly, alpha, count: int):
    """[f(alpha^1), ..., f(alpha^count)] where alpha^i is coordinatewise.

    Each monomial is evaluated once; successive points reuse running powers,
    so the total cost is O(count * #f) multiplications.
    """
    if count < 1:
        raise InvalidInput("count must be >= 1")
    if f.is_zero:
        return [field.zero] * count
    mvals = _monomial_values(field, f.exps, alpha)
    if isinstance(mvals, np.ndarray):
        p = field.p
        coeffs = np.array(f.coeffs, dtype=np.int64)
        running = np.ones(len(mvals), dtype=np.int64)
        out = []
        for _ in range(count):
            running = running * mvals % p
            out.append(int(np.sum(coeffs * running % p) % p))
        return out
    running = [field.one] * len(mvals)
    out = []
    for _ in range(count):
        acc = field.zero
        for j, m in enumerate(mvals):
            running[j] = field.mul(running[j], m)
            acc = field.add(acc, field.mul(f.coeffs[j], running[j]))
        out.append(acc)
    return out


class PowerImageEvaluator:
    """Successive dense univariate images F(y, beta^i) of a homogenized
    polynomial, i = 1, 2, ...; running monomial powers make each image
    O(#F) multiplications.  The monomial values M_j(beta) are computed once
    and reused when shift_coordinate restarts the sequence."""

    def __init__(self, field: Field, homo: HomoPoly, beta):
        self.field = field
        self.homo = homo
        self._np = isinstance(field, PrimeField) and field.p < _NP_EVAL_MAX_P
        coeffs = [_as_field_coeff(field, c) for c in homo.source.coeffs]
        mvals = _monomial_values(field, homo.source.exps, beta)
        if self._np:
            self.mvals = mvals
            self.coeffs = np.array(coeffs, dtype=np.int64)
            self.ydegs = np.array(homo.ydegs, dtype=np.int64)
            self.running = np.ones(len(coeffs), dtype=np.int64)
        else:
            self.mvals = mvals
            self.coeffs = coeffs
            self.ydegs = homo.ydegs
            self.running = [field.one] * len(coeffs)
        self.width = homo.max_ydeg + 1

    def shift_coordinate(self, k: int, omega):
        """Restart at i = 1 with x_k -> omega * beta_k^i (omega not raised to
        i): each term's running power starts at omega^(e_jk), not 1."""
        col = [e[k] for e in self.homo.source.exps]
        if self._np:
            self.running = _np_powmod_vec(omega, np.array(col, dtype=np.int64), self.field.p)
        else:
            self.running = [self.field.pow_(omega, c) for c in col]

    def next_image(self):
        """Image at the next power; dense vector of length max_ydeg + 1."""
        if self._np:
            p = self.field.p
            self.running = self.running * self.mvals % p
            buf = np.zeros(self.width, dtype=np.int64)
            np.add.at(buf, self.ydegs, self.coeffs * self.running % p)
            return buf % p
        f = self.field
        buf = [f.zero] * self.width
        for j, m in enumerate(self.mvals):
            self.running[j] = f.mul(self.running[j], m)
            buf[self.ydegs[j]] = f.add(buf[self.ydegs[j]], f.mul(self.coeffs[j], self.running[j]))
        return buf
