"""Six-stage primitive GCD and the content/primitive wrapper.

Stage I    pick an isolating vector s so one input's homogenization has a
           single term of maximal y-degree (then so does the GCD's);
Stage II   probe univariate GCD images at powers of a random point, in a
           few batches, and bound each y-layer's term count by its first
           singular Hankel matrix, one stacked test per Hankel round;
Stage III  size the working field and draw the shift element omega, of
           order > 2d, and the evaluation point alpha for the grid;
Stage IV   evaluate the whole (n+1) x 2T grid as two arrays of image rows
           and take their monic univariate GCDs as one batch, scaled so
           every image is an exact evaluation of the target layers;
Stage V    sparse-interpolate all layers as one batch, each on nodes shared
           by all its grid rows, into one polynomial holding every layer's
           terms;
Stage VI   add the top layer's one term in one canonicalisation, strip
           the monomial content, normalize lex-monic.

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

Batched GCDs.  Stages II and IV hand their image pairs to unipoly.monic_gcd
as two arrays, one row per point; Stage II each batch of images it takes
ahead of its Hankel rounds (see _ImageStream).  At generic points the
pairs share one remainder degree sequence, so they run in lockstep, on
every lane (the field's kernel); a row that departs, or whose leading
coefficient vanishes, is finished alone.  As with one GCD per point, only
a final GCD degree other than Stage II's aborts the attempt, and Stage II
fails at the first bad image its probe reads, never at one past it.
StageTrace.lockstep_rows and fallback_rows count Stage IV's rows of both
kinds.  The Hankel test and the scaling of images run on the field's
kernel too.

Every detectable inconsistency (vanishing leading coefficient, image degree
drift, interpolation failure) aborts the attempt; the driver retries with
fresh randomness up to the configured limit.
"""

from __future__ import annotations

import functools
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
    multiplicative_order_exceeds,
    nonzero,
    prod,
    shift_element,
)
# Not called here; perfbench/run.py wraps engine.find_primitive_root by name.
from .field import shift_element as find_primitive_root  # noqa: F401
from .interp import LayerGrids, interpolate
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
)
# Not called here; perfbench/run.py wraps engine.diversify and engine.undiversify by name.
from .sparse import diversify, undiversify  # noqa: F401
from .unipoly import monic_gcd


@dataclass
class GcdConfig:
    """Pipeline knobs; defaults match the analyzed algorithm.

    Stage II grows its Hankel probe by one each round.  term_strategy accepts
    only "linear": it stays because perfbench/run.py passes it, and goes with
    the next change to the benchmark.
    Setting omega pins the shift element to that element of the base field,
    whose multiplicative order must exceed 2d, and disables field extensions
    entirely, trading the epsilon guarantee for speed on large base fields.
    """

    epsilon: float = 1e-3
    seed: int | None = None
    max_retries: int = 3
    term_strategy: str = "linear"
    omega: int | None = None

    def validate(self):
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidInput("epsilon must lie in (0, 1)")
        if self.max_retries < 0:
            raise InvalidInput("max_retries must be >= 0")
        if self.term_strategy != "linear":
            raise InvalidInput(f"unknown term strategy {self.term_strategy!r}")


@dataclass
class TermBounds:
    """Per-layer term bounds from Stage II early termination."""

    layer_ydegs: tuple
    bounds: tuple
    global_T: int


@dataclass
class StageTrace:
    """Observability record for one primitive_gcd call.  ``lanes`` maps
    stages "II", "IV" and "V" to the lane (``field.kernel.lane``) of the
    field their images, univariate GCDs and interpolation ran in.
    ``lockstep_rows`` and ``fallback_rows`` count Stage IV grid rows, summed
    over attempts, whose GCD finished in the batch's shared pass or was
    taken alone, after the row departed from the batch's remainder degrees
    or had a vanishing leading coefficient; on every lane a grid at generic
    points has only lockstep rows.  ``stage2_images_read`` and
    ``stage2_images_taken`` sum over attempts the images Stage II's last
    Hankel round read (2T - 1) and took.  ``split_rounds`` holds, per attempt
    that reached Stage V, the number of batched root-finding split rounds
    it ran."""

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
    lockstep_rows: int = 0
    fallback_rows: int = 0
    stage2_images_read: int = 0
    stage2_images_taken: int = 0
    split_rounds: list = dataclass_field(default_factory=list)
    lanes: dict = dataclass_field(default_factory=dict)
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


def _hankel_singular_rows(field: Field, values: np.ndarray, size: int) -> np.ndarray:
    """det HK_size == 0, HK with entries v_(i+j-1), for each row v_1, v_2, ...
    of the int64 residues values (rows, len[, k]): one inverse-free Gaussian
    elimination on the stacked (rows, size, size[, k]), each row's own pivots."""
    if values.shape[1] < 2 * size - 1:
        raise InvalidInput("need 2*size - 1 values")
    kern = field.kernel
    idx = np.arange(size)
    M = values[:, idx[:, None] + idx[None, :]]
    rows = np.arange(len(M))
    singular = np.zeros(len(M), dtype=bool)
    for col in range(size):
        live = nonzero(field, M[:, col:, col])
        singular |= ~live.any(axis=1)
        piv = col + np.argmax(live, axis=1)  # a singular row's elimination is moot
        M[rows, col], M[rows, piv] = M[rows, piv], M[rows, col]
        if col + 1 < size:  # rows scaled by the nonzero pivot: no inversion
            lead, below = M[:, col], M[:, col + 1 :]
            M[:, col + 1 :] = (kern.mul(lead[:, col, None, None], below) - kern.mul(below[:, :, col, None], lead[:, None])) % field.p
    return singular


# ---------------------------------------------------------------------------
# stage machinery
# ---------------------------------------------------------------------------


def _degrees(support) -> np.ndarray:
    """Degree of each row of nonzero polynomials, given their nonzero mask."""
    return support.shape[1] - 1 - np.argmax(support[:, ::-1], axis=1)


@functools.lru_cache(maxsize=64)
def _extension(p: int, k: int) -> ExtField:
    """F_{p^k} on a modulus fixed by (p, k), so that each field, with its
    kernel's matrices, is built once per process."""
    return ExtField(p, find_irreducible(p, k, random.Random(k)))


_FIRST_BATCH = 8  # Stage II's first batch of images, when the inputs are narrow
_BATCH_COEFFS = 2048  # input coefficients that bound one batch beyond what the probe asks for


class _ImageStream:
    """Stage II's scaled GCD images eta_i = (prod(point))^(i*d) *
    monicgcd(F1_i, F2_i) at successive powers of one point, in one int64
    array.  The probe reads a prefix (ensure), taken ahead in batches of one
    GCD call: _FIRST_BATCH images, then as many as were taken, within
    _BATCH_COEFFS input coefficients unless the probe needs more and within
    limit in all.  The first image whose leading coefficient vanishes or
    whose GCD degree differs from the first's aborts the attempt once the
    prefix reaches it, as if the images had been taken one at a time."""

    def __init__(self, field, homo1, homo2, point, d, limit, trace):
        self.field, self.limit, self.trace = field, limit, trace
        self.ev1 = PowerImageEvaluator(field, homo1, point)
        self.ev2 = PowerImageEvaluator(field, homo2, point)
        self.budget = _BATCH_COEFFS // (self.ev1.width + self.ev2.width)
        self.scale_step = field.pow_(prod(field, point), d)
        self.taken = self.read = 0
        self.images = self.gcd_degree = self.bad = None  # bad: (index, cause) of the first bad image

    def ensure(self, count: int):
        """Make the first count images the probe's prefix."""
        self.trace.stage2_images_read += count - self.read
        self.read = count
        if self.bad is None and count > self.taken:  # a batch of at least what the probe needs
            self._take(max(count - self.taken, min(self.taken or _FIRST_BATCH, self.budget, self.limit - self.taken)))
        if self.bad is not None and count > self.bad[0]:
            raise _StageFailure("II", self.bad[1])

    def _take(self, batch: int):
        field, kern = self.field, self.field.kernel
        U, V = self.ev1.next_images(batch), self.ev2.next_images(batch)
        start, self.taken = self.taken, self.taken + batch
        self.trace.stage2_images_taken += batch
        lc_ok = nonzero(field, U[:, -1]) & nonzero(field, V[:, -1])
        good = batch if lc_ok.all() else int(np.argmin(lc_ok))  # the images before the first bad one
        cause = "leading coefficient vanished"
        if good:
            G, _ = monic_gcd(field, U[:good], V[:good])
            degrees = _degrees(nonzero(field, G))
            if self.gcd_degree is None:
                self.gcd_degree = int(degrees[0])
            off = degrees != self.gcd_degree
            if off.any():
                good, cause = int(np.argmax(off)), "image degree disagreement"
        if good:  # image i scales by scale_step^i
            scales = kern.powers(self.scale_step, start + good)[start + 1 :]
            kept = kern.mul(scales[:, None], G[:good, : self.gcd_degree + 1])
            self.images = kept if self.images is None else np.concatenate([self.images, kept])
        if good < batch:
            self.bad = (start + good, cause)

    def support(self) -> set:
        """The y-degrees with a nonzero coefficient in some image of the prefix."""
        return set(np.flatnonzero(nonzero(self.field, self.images[: self.read]).any(axis=0)).tolist())

    def values(self, ydegs) -> np.ndarray:
        """The prefix's coefficients of y^e, one row per e in ydegs."""
        return np.moveaxis(self.images[: self.read, ydegs], 1, 0)


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


def _run_primitive(field: PrimeField, A, B, d: int, D: int, cfg: GcdConfig, rng, trace: StageTrace):
    """One attempt on inputs with largest partial degree d and largest total
    degree D."""
    n = A.nvars
    p = field.p
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
    E2 = field if ext2_deg == 1 else _extension(p, ext2_deg)
    sigma = tuple(E2.rand_unit(rng) for _ in range(n))
    trace.sigma = sigma
    stream = _ImageStream(E2, homo1, homo2, sigma, d, 2 * term_cap - 1, trace)
    trace.lanes["II"] = E2.kernel.lane

    T = 1
    first_singular: dict = {}
    while True:
        stream.ensure(2 * T - 1)
        support = stream.support()
        support.discard(stream.gcd_degree)
        pending = [e for e in support if e not in first_singular]
        singular = _hankel_singular_rows(E2, stream.values(pending), T)  # every pending layer's HK_T
        first_singular.update((e, T) for e, hit in zip(pending, singular) if hit)
        if all(e in first_singular for e in support):
            break
        T += 1
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
    E3 = field if ext3_deg == 1 else _extension(p, ext3_deg)
    omega = cfg.omega % p if cfg.omega is not None else shift_element(E3, 2 * d, rng)
    trace.omega = omega
    alpha = tuple(E3.rand_unit(rng) for _ in range(n))
    trace.alpha = alpha
    trace.timings["III"] = trace.timings.get("III", 0.0) + time.perf_counter() - t0

    # Stage IV: the (n+1) x 2T grid's image pairs as two arrays, one row per
    # point, row-major by grid row; one batched monic GCD and array checks
    t0 = time.perf_counter()
    count = 2 * global_T
    U = PowerImageEvaluator(E3, homo1, alpha).grid(count, omega)
    V = PowerImageEvaluator(E3, homo2, alpha).grid(count, omega)
    trace.lanes["IV"] = E3.kernel.lane
    if not (nonzero(E3, U[:, homo1.max_ydeg]).all() and nonzero(E3, V[:, homo2.max_ydeg]).all()):
        raise _StageFailure("IV", "leading coefficient vanished")
    G, lockstep = monic_gcd(E3, U, V)
    trace.lockstep_rows += lockstep
    trace.fallback_rows += len(G) - lockstep
    support = nonzero(E3, G)
    degrees = _degrees(support)
    if np.any(degrees != degrees[0]):
        raise _StageFailure("IV", "image degree disagreement")
    if degrees[0] != e_top:
        raise _StageFailure("IV", f"image degree {degrees[0]} != {e_top}")
    support[:, list(layer_ydegs) + [e_top]] = False
    if support.any():
        raise _StageFailure("IV", "image support outside Stage II layers")
    # point i of row 0 scales by (prod alpha)^(i d), of row k + 1 also by omega^d
    kern = E3.kernel
    scales = kern.powers(E3.pow_(prod(E3, alpha), d), count)[1:]
    shifted = kern.mul(E3.pow_(omega, d), scales)
    scales = np.concatenate([scales] + [shifted] * n)
    values = kern.mul(scales[:, None], G[:, list(layer_ydegs)])
    # (grid row, point, layer) -> (layer, grid row, point)
    values = np.moveaxis(values.reshape((n + 1, count) + values.shape[1:]), 2, 0)
    trace.timings["IV"] = trace.timings.get("IV", 0.0) + time.perf_counter() - t0

    # Stage V: all layers as one interpolation batch
    t0 = time.perf_counter()
    trace.lanes["V"] = E3.kernel.lane
    try:
        poly, rounds = interpolate(E3, LayerGrids(alpha, omega, bounds, values), 2 * d, rng)
    except InterpolationError as exc:
        trace.split_rounds.append(exc.rounds)
        raise _StageFailure("V", f"layer y^{layer_ydegs[exc.layer]}: {exc}") from exc
    trace.split_rounds.append(rounds)
    trace.timings["V"] = trace.timings.get("V", 0.0) + time.perf_counter() - t0

    # Stage VI: add the top layer, L's term x^(d,...,d), strip monomial content, normalize
    t0 = time.perf_counter()
    total = add_polys(E3, [poly, SparsePoly(n, (E3.one,), ((d,) * n,))])
    result = lex_monic(E3, monomial_primitive(total))
    if isinstance(E3, ExtField):
        if result.coeffs[:, 1:].any():
            raise _StageFailure("VI", "coefficients left the base field")
        result = SparsePoly(n, result.coeffs[:, 0], result.exps)
    trace.timings["VI"] = trace.timings.get("VI", 0.0) + time.perf_counter() - t0
    return result


def _check_inputs(field, A: SparsePoly, B: SparsePoly, cfg: GcdConfig | None) -> GcdConfig:
    cfg = cfg or GcdConfig()
    cfg.validate()
    if not isinstance(field, PrimeField):
        raise InvalidInput("engine operates over prime base fields")
    if A.is_zero or B.is_zero:
        raise InvalidInput("inputs must be nonzero")
    if A.nvars != B.nvars:
        raise InvalidInput("inputs disagree on the number of variables")
    return cfg


def primitive_gcd(field: PrimeField, A: SparsePoly, B: SparsePoly, cfg: GcdConfig | None = None):
    """GCD of monomial-primitive inputs, lex-monic, correct with probability
    >= 1 - epsilon; raises GcdFailure after the retry budget is spent."""
    cfg = _check_inputs(field, A, B, cfg)
    if any(monomial_content(A)) or any(monomial_content(B)):
        raise InvalidInput("inputs must be monomial-primitive")
    return _primitive_gcd(field, A, B, cfg)


def _primitive_gcd(field: PrimeField, A: SparsePoly, B: SparsePoly, cfg: GcdConfig):
    """primitive_gcd on checked inputs: the degrees are read once here and
    passed to every attempt."""
    trace = StageTrace()
    degrees = (A.total_degree(), B.total_degree())
    if min(degrees) == 0:
        return SparsePoly.constant(field, A.nvars, field.one), trace
    d = max(A.partial_degrees() + B.partial_degrees())
    if cfg.omega is not None:
        if cfg.omega % field.p == 0:
            raise InvalidInput("explicit omega must be a unit mod p")
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
            return _run_primitive(field, A, B, d, max(degrees), cfg, rng, trace), trace
        except _StageFailure as exc:
            trace.failures.append(f"{exc.stage}: {exc.cause}")
            last = exc
    raise GcdFailure(last.stage, last.cause)


def gcd(field: PrimeField, A: SparsePoly, B: SparsePoly, cfg: GcdConfig | None = None):
    """gcd(A, B) with the monomial content split off first (both parts of the
    answer come back multiplied together, lex-monic)."""
    if A.is_zero and B.is_zero:
        raise InvalidInput("gcd(0, 0) undefined")
    if A.is_zero:
        return lex_monic(field, B), StageTrace()
    if B.is_zero:
        return lex_monic(field, A), StageTrace()
    cfg = _check_inputs(field, A, B, cfg)
    cont_a, cont_b = monomial_content(A), monomial_content(B)
    A = shift_exponents(A, [-e for e in cont_a])
    B = shift_exponents(B, [-e for e in cont_b])
    prim_gcd, trace = _primitive_gcd(field, A, B, cfg)
    return shift_exponents(prim_gcd, monomial_gcd(cont_a, cont_b)), trace


def check_gcd_image(field: PrimeField, A: SparsePoly, B: SparsePoly, G: SparsePoly, epsilon: float, rng):
    """Monte-Carlo check that G, which must divide A and B, is their GCD.
    Returns (ok, images, E, bound): the verdict, the images taken, the field
    they were taken in and the bound b^r below.

    G must carry the monomial content of gcd(A, B).  For the rest, Stage
    I's isolating s gives A or B a single term of top weighted degree, so
    every factor of it with two or more terms keeps a positive y-degree
    under homogenization and a monomial as its top y-coefficient, which no
    point beta with nonzero coordinates annuls.  So when G is a proper
    divisor of the GCD, monic_gcd(A(y, beta), B(y, beta)) has a higher
    degree than G(y, beta) at every such beta: a proper divisor fails every
    image.  The GCD itself fails an image only when beta is a root of one
    leading coefficient or of the resultant of the cofactors, of degree at
    most (2 Y + 1) D in all (Y the largest y-degree, D the largest total
    degree), so with probability at most b = (2 Y + 1) D / (q - 1) over the
    q - 1 units of the field.  Images are taken over F_p when b < 1 there,
    else over the smallest extension with b <= epsilon, as Stage III sizes
    its field.  The check passes at the first image that matches and fails
    after r images, r the least with b^r <= epsilon: the bound on a true
    GCD failing.
    """
    if monomial_content(G) != monomial_gcd(monomial_content(A), monomial_content(B)):
        return False, 0, field, 0.0
    A, B, G = (monomial_primitive(f) for f in (A, B, G))
    if A.total_degree() == 0 or B.total_degree() == 0:
        return G.total_degree() == 0, 0, field, 0.0
    s, _ = choose_isolating_vector(A, B, rng)
    homos = [homogenize(f, s) for f in (A, B, G)]
    rate = (2 * max(h.max_ydeg for h in homos[:2]) + 1) * max(A.total_degree(), B.total_degree())
    k = 1
    if rate >= field.p - 1:
        k = 2
        while rate > epsilon * (field.p**k - 1):
            k += 1
    E = field if k == 1 else _extension(field.p, k)
    b = rate / (E.order - 1)
    r = max(1, math.ceil(math.log(epsilon) / math.log(b)))
    for i in range(1, r + 1):
        beta = tuple(E.rand_unit(rng) for _ in range(A.nvars))
        U, V, W = (PowerImageEvaluator(E, h, beta).next_images(1) for h in homos)
        if np.array_equal(monic_gcd(E, U, V)[0], monic_gcd(E, W, W[:, :0])[0]):  # gcd(W, 0) is W made monic
            return True, i, E, b**r
    return False, r, E, b**r
