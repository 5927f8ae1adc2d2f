"""Six-stage primitive GCD and the content/primitive wrapper.

Stage I    pick an isolating vector s so one input's homogenization has a
           single term of maximal y-degree (then so does the GCD's);
Stage II   probe univariate GCD images at powers of a random point and bound
           each y-layer's term count by its first singular Hankel matrix;
Stage III  size the working field and pick the shift element omega and the
           evaluation point alpha for the grid;
Stage IV   take monic univariate GCDs over the whole (n+1) x 2T grid, scaled
           so every image is an exact evaluation of the target layers;
Stage V    sparse-interpolate each layer on nodes shared by all grid rows;
Stage VI   sum the layers, strip the monomial content, normalize lex-monic.

The grid.  Row 0 takes images at alpha^i, row k + 1 at alpha^i with
coordinate k multiplied by omega once, i = 1..2T.  With c x^u y^t the GCD's
isolated top term and d the inputs' largest partial degree, scaling the
monic image at P by (prod P)^d evaluates L = G * x^(d - u) / c, whose
exponents E_j lie in [0, 2d]: row 0 scales by (prod alpha)^(i d), row k + 1
by that times omega^d.  So every row of a layer shares the nodes alpha^(E_j),
row k + 1 scales coefficient j by omega^(E_jk), and ord(omega) > 2d makes
E_jk a unique bounded discrete log (see interp).

Stage III's m still bounds the failure probability.  It counts vanishing
leading coefficients, unlucky univariate GCDs and colliding nodes.  At a
point of row k + 1 each is R(alpha^i with x_k -> omega x_k) = 0 for a
nonzero R, which stays nonzero and of the same degree in alpha, so each row
has the bad sets the sizing assumes.  Shared nodes only drop events: only
the base row's nodes must be distinct, and no coefficient has to be.

Every detectable inconsistency (vanishing leading coefficient, image degree
drift, interpolation failure) aborts the attempt; the driver retries with
fresh randomness up to the configured limit.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import GcdFailure, InterpolationError, InvalidInput
from .field import (
    ExtField,
    Field,
    PrimeField,
    find_irreducible,
    find_primitive_root,
    multiplicative_order_exceeds,
    prod,
)
from .interp import EvalGrid, interpolate
from .sparse import (
    PowerImageEvaluator,
    SparsePoly,
    add_polys,
    choose_isolating_vector,
    homogenize,
    lex_monic,
    monomial_content,
    monomial_gcd,
    monomial_primitive,
    shift_exponents,
    to_base_field,
)
# Not called here; perfbench/run.py wraps engine.diversify and engine.undiversify by name.
from .sparse import diversify, undiversify  # noqa: F401
from .unipoly import monic_gcd

_NP_LANE_MAX_P = 1 << 30


@dataclass
class GcdConfig:
    """Pipeline knobs; defaults match the analyzed algorithm.

    term_strategy "doubling" doubles the Hankel probe size each round;
    "linear" grows it by one (cheaper when univariate GCDs dominate, the
    benchmarking default).  Setting omega pins the shift element to a
    primitive element of the base field and disables field extensions
    entirely, trading the epsilon guarantee for speed on large base fields.
    """

    epsilon: float = 1e-3
    seed: int | None = None
    max_retries: int = 3
    term_strategy: str = "doubling"
    omega: int | None = None

    def validate(self):
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidInput("epsilon must lie in (0, 1)")
        if self.max_retries < 0:
            raise InvalidInput("max_retries must be >= 0")
        if self.term_strategy not in ("doubling", "linear"):
            raise InvalidInput(f"unknown term strategy {self.term_strategy!r}")


@dataclass
class TermBounds:
    """Per-layer term bounds from Stage II early termination."""

    layer_ydegs: tuple
    bounds: tuple
    global_T: int


@dataclass
class StageTrace:
    """Observability record for one primitive_gcd call."""

    s: tuple | None = None
    isolated_from: str | None = None
    r: int = 1
    m: int = 1
    ext2_degree: int = 1
    ext3_degree: int = 1
    sigma: tuple | None = None
    alpha: tuple | None = None
    omega: object | None = None
    gcd_image_degree: int | None = None
    term_bounds: TermBounds | None = None
    retries: int = 0
    timings: dict = dataclass_field(default_factory=dict)
    failures: list = dataclass_field(default_factory=list)


class _StageFailure(Exception):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


# ---------------------------------------------------------------------------
# Hankel singularity tests
# ---------------------------------------------------------------------------


def _np_matrix_singular(p: int, M: np.ndarray) -> bool:
    M = M % p
    n = len(M)
    for col in range(n):
        piv = -1
        for row in range(col, n):
            if M[row, col]:
                piv = row
                break
        if piv < 0:
            return True
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
        inv = pow(int(M[col, col]), p - 2, p)
        if col + 1 < n:
            factors = M[col + 1 :, col] * inv % p
            M[col + 1 :] = (M[col + 1 :] - factors[:, None] * M[col]) % p
    return False


def _generic_matrix_singular(field: Field, M: list) -> bool:
    n = len(M)
    M = [row[:] for row in M]
    for col in range(n):
        piv = -1
        for row in range(col, n):
            if M[row][col] != field.zero:
                piv = row
                break
        if piv < 0:
            return True
        M[col], M[piv] = M[piv], M[col]
        inv = field.inv(M[col][col])
        for row in range(col + 1, n):
            f = field.mul(M[row][col], inv)
            if f != field.zero:
                M[row] = [field.sub(a, field.mul(f, b)) for a, b in zip(M[row], M[col])]
    return False


def _hankel_singular(field: Field, values, size: int) -> bool:
    """det HK_size == 0, where HK has entries v_(i+j-1) and values[0] = v_1."""
    if len(values) < 2 * size - 1:
        raise InvalidInput("need 2*size - 1 values")
    if isinstance(field, PrimeField) and field.p < _NP_LANE_MAX_P:
        v = np.array(values, dtype=np.int64)
        idx = np.arange(size)
        return _np_matrix_singular(field.p, v[idx[:, None] + idx[None, :]])
    M = [[values[i + j] for j in range(size)] for i in range(size)]
    return _generic_matrix_singular(field, M)


def hankel_first_singular(field: Field, values, T: int):
    """Smallest s <= T with det HK_s = 0, or None when all are nonsingular."""
    for s in range(1, T + 1):
        if len(values) < 2 * s - 1:
            break
        if _hankel_singular(field, values, s):
            return s
    return None


# ---------------------------------------------------------------------------
# stage machinery
# ---------------------------------------------------------------------------


class _ImageStream:
    """Scaled GCD images eta_i = (prod(point))^(i*d) * monicgcd(F1_i, F2_i)
    at successive powers of one evaluation point.  A vanishing leading
    coefficient or a change in image degree aborts the attempt."""

    def __init__(self, field, homo1, homo2, point, d, stage):
        self.field = field
        self.stage = stage
        self.ev1 = PowerImageEvaluator(field, homo1, point)
        self.ev2 = PowerImageEvaluator(field, homo2, point)
        self.top1 = homo1.max_ydeg
        self.top2 = homo2.max_ydeg
        self.d = d
        self.scale_step = field.pow_(prod(field, point), d)
        self.scale = field.one
        self.images = []
        self.gcd_degree = None
        self._np = isinstance(field, PrimeField) and field.p < _NP_LANE_MAX_P

    def ensure(self, count: int):
        field = self.field
        while len(self.images) < count:
            img1 = self.ev1.next_image()
            img2 = self.ev2.next_image()
            if img1[self.top1] == field.zero or img2[self.top2] == field.zero:
                raise _StageFailure(self.stage, "leading coefficient vanished")
            g = monic_gcd(field, img1, img2)
            deg = len(g) - 1
            if self.gcd_degree is None:
                self.gcd_degree = deg
            elif deg != self.gcd_degree:
                raise _StageFailure(self.stage, "image degree disagreement")
            self.scale = field.mul(self.scale, self.scale_step)
            if self._np:
                eta = g * self.scale % field.p
            else:
                eta = [field.mul(c, self.scale) for c in g]
            self.images.append(eta)

    def shift_coordinate(self, k: int, omega):
        """Start a new row: coordinate k of every point gets one factor omega,
        so prod(point) gains omega and the scale starts at omega^d."""
        self.ev1.shift_coordinate(k, omega)
        self.ev2.shift_coordinate(k, omega)
        self.scale = self.field.pow_(omega, self.d)
        self.images = []

    def support(self, index: int):
        eta = self.images[index]
        if self._np:
            return set(int(x) for x in np.nonzero(eta)[0])
        return set(i for i, c in enumerate(eta) if c != self.field.zero)

    def values_at(self, e: int):
        if self._np:
            return [int(img[e]) if e < len(img) else 0 for img in self.images]
        z = self.field.zero
        return [img[e] if e < len(img) else z for img in self.images]


def _step1_degree(p: int, D: int, d: int) -> int:
    """Smallest k with p^k > max(D, 2d + 1): the working field must outsize the
    total degree and leave the shift element order to separate exponents up
    to 2d (interpolated layers have partial degrees up to twice the input's)."""
    target = max(D, 2 * d + 1, 1)
    k = 1
    while p**k <= target:
        k += 1
    return k


def _stage2_r(eps: float, n: int, d: int, s_inf: int, log_q1: float) -> int:
    num = (
        math.log(1.0 / eps)
        + math.log(86.0)
        + 2 * n * math.log(d + 1)
        + 2 * math.log(max(n * d, 2))
        + math.log(max(s_inf, 1))
    )
    return max(1, math.ceil(num / log_q1))


def _stage3_m(eps: float, n: int, d: int, T: int, log_q1: float) -> int:
    num = (
        math.log(1.0 / eps)
        + math.log(42.0)
        + math.log(n + 1)
        + 2 * math.log(max(n * d * max(T, 1), 2))
    )
    return max(1, math.ceil(num / log_q1))


def _run_primitive(field: PrimeField, A, B, cfg: GcdConfig, rng, trace: StageTrace):
    n = A.nvars
    p = field.p
    d = max(max(A.partial_degrees()), max(B.partial_degrees()))
    D = max(A.total_degree(), B.total_degree())
    term_cap = (d + 1) ** n

    t0 = time.perf_counter()
    s, which = choose_isolating_vector(A, B, rng)
    trace.s, trace.isolated_from = s, which
    homo1 = homogenize(A, s)
    homo2 = homogenize(B, s)
    trace.timings["I"] = trace.timings.get("I", 0.0) + time.perf_counter() - t0

    # Stage II: extension sizing, image stream, Hankel early termination
    t0 = time.perf_counter()
    k1 = _step1_degree(p, D, d)
    log_q1 = k1 * math.log(p)
    r = _stage2_r(cfg.epsilon, n, d, max(s), log_q1)
    trace.r = r
    ext2_deg = 1 if cfg.omega is not None else k1 * r
    trace.ext2_degree = ext2_deg
    E2 = field if ext2_deg == 1 else ExtField(p, find_irreducible(p, ext2_deg, rng))
    sigma = tuple(E2.rand_unit(rng) for _ in range(n))
    trace.sigma = sigma
    stream = _ImageStream(E2, homo1, homo2, sigma, d, "II")

    T = 1
    first_singular: dict = {}
    while True:
        stream.ensure(2 * T - 1)
        support = set()
        for i in range(len(stream.images)):
            support |= stream.support(i)
        support.discard(stream.gcd_degree)
        pending = [e for e in support if e not in first_singular]
        for e in pending:
            if _hankel_singular(E2, stream.values_at(e), T):
                first_singular[e] = T
        if all(e in first_singular for e in support):
            break
        T = 2 * T if cfg.term_strategy == "doubling" else T + 1
        if T > term_cap:
            raise _StageFailure("II", f"term bound exceeded (d+1)^n = {term_cap}")
    e_top = stream.gcd_degree
    trace.gcd_image_degree = e_top
    layer_ydegs = tuple(sorted(e for e in first_singular if first_singular[e] - 1 >= 1))
    bounds = tuple(first_singular[e] - 1 for e in layer_ydegs)
    global_T = max(bounds, default=0)
    trace.term_bounds = TermBounds(layer_ydegs, bounds, global_T)
    trace.timings["II"] = trace.timings.get("II", 0.0) + time.perf_counter() - t0

    if not layer_ydegs:
        # GCD image is a single y-term: the primitive GCD is trivial
        return SparsePoly.constant(field, n, field.one)

    # Stage III: working field, shift element, evaluation point
    t0 = time.perf_counter()
    m = _stage3_m(cfg.epsilon, n, d, global_T, log_q1)
    trace.m = m
    ext3_deg = 1 if cfg.omega is not None else k1 * m
    trace.ext3_degree = ext3_deg
    E3 = field if ext3_deg == 1 else ExtField(p, find_irreducible(p, ext3_deg, rng))
    if cfg.omega is not None:
        omega = cfg.omega % p
    else:
        omega = find_primitive_root(E3, rng)
    trace.omega = omega
    alpha = tuple(E3.rand_unit(rng) for _ in range(n))
    trace.alpha = alpha
    trace.timings["III"] = trace.timings.get("III", 0.0) + time.perf_counter() - t0

    # Stage IV: univariate GCDs over the full (n+1) x 2T grid; one stream at
    # alpha, restarted per row k + 1 with coordinate k times omega
    t0 = time.perf_counter()
    allowed = set(layer_ydegs) | {e_top}
    st = _ImageStream(E3, homo1, homo2, alpha, d, "IV")
    row_values = []
    for k in range(-1, n):
        if k >= 0:
            st.shift_coordinate(k, omega)
        st.ensure(2 * global_T)
        if st.gcd_degree != e_top:
            raise _StageFailure("IV", f"image degree {st.gcd_degree} != {e_top}")
        for i in range(len(st.images)):
            if not st.support(i) <= allowed:
                raise _StageFailure("IV", "image support outside Stage II layers")
        row_values.append({e: st.values_at(e) for e in layer_ydegs})
    trace.timings["IV"] = trace.timings.get("IV", 0.0) + time.perf_counter() - t0

    # Stage V: per-layer interpolation
    t0 = time.perf_counter()
    layers = []
    for e, T_e in zip(layer_ydegs, bounds):
        grid = EvalGrid(
            alpha=alpha,
            omega=omega,
            T=T_e,
            base_row=tuple(row_values[0][e][: 2 * T_e]),
            shifted_rows=tuple(tuple(row_values[k + 1][e][: 2 * T_e]) for k in range(n)),
        )
        try:
            layers.append(interpolate(E3, grid, 2 * d, rng))
        except InterpolationError as exc:
            raise _StageFailure("V", f"layer y^{e}: {exc}") from exc
    layers.append(SparsePoly(n, (E3.one,), ((d,) * n,)))
    trace.timings["V"] = trace.timings.get("V", 0.0) + time.perf_counter() - t0

    # Stage VI: assemble, strip monomial content, normalize
    t0 = time.perf_counter()
    total = add_polys(E3, layers)
    result = lex_monic(E3, monomial_primitive(total))
    if isinstance(E3, ExtField):
        try:
            result = to_base_field(E3, result)
        except InvalidInput as exc:
            raise _StageFailure("VI", "coefficients left the base field") from exc
    else:
        result = SparsePoly(n, tuple(int(c) for c in result.coeffs), result.exps)
    trace.timings["VI"] = trace.timings.get("VI", 0.0) + time.perf_counter() - t0
    return result


def primitive_gcd(field: PrimeField, A: SparsePoly, B: SparsePoly, cfg: GcdConfig | None = None):
    """GCD of monomial-primitive inputs, lex-monic, correct with probability
    >= 1 - epsilon; raises GcdFailure after the retry budget is spent."""
    cfg = cfg or GcdConfig()
    cfg.validate()
    if not isinstance(field, PrimeField):
        raise InvalidInput("engine operates over prime base fields")
    if A.is_zero or B.is_zero:
        raise InvalidInput("inputs must be nonzero")
    if A.nvars != B.nvars:
        raise InvalidInput("inputs disagree on the number of variables")
    if any(monomial_content(A)) or any(monomial_content(B)):
        raise InvalidInput("inputs must be monomial-primitive")
    trace = StageTrace()
    n = A.nvars
    if A.total_degree() == 0 or B.total_degree() == 0:
        return SparsePoly.constant(field, n, field.one), trace
    d = max(max(A.partial_degrees()), max(B.partial_degrees()))
    if cfg.omega is not None:
        if not multiplicative_order_exceeds(field, cfg.omega % field.p, 2 * d):
            raise InvalidInput(
                "explicit omega must have multiplicative order > 2*d; "
                "use the extension path instead"
            )
    rng = random.Random(cfg.seed)
    last: _StageFailure | None = None
    for attempt in range(cfg.max_retries + 1):
        trace.retries = attempt
        try:
            return _run_primitive(field, A, B, cfg, rng, trace), trace
        except _StageFailure as exc:
            trace.failures.append(f"{exc.stage}: {exc.cause}")
            last = exc
    raise GcdFailure(last.stage, last.cause)


def gcd(field: PrimeField, A: SparsePoly, B: SparsePoly, cfg: GcdConfig | None = None):
    """gcd(A, B) with the monomial content split off first (both parts of the
    answer come back multiplied together, lex-monic)."""
    cfg = cfg or GcdConfig()
    if A.is_zero and B.is_zero:
        raise InvalidInput("gcd(0, 0) undefined")
    if A.is_zero:
        return lex_monic(field, B), StageTrace()
    if B.is_zero:
        return lex_monic(field, A), StageTrace()
    cont_gcd = monomial_gcd(monomial_content(A), monomial_content(B))
    prim_gcd, trace = primitive_gcd(field, monomial_primitive(A), monomial_primitive(B), cfg)
    return shift_exponents(prim_gcd, cont_gcd), trace
