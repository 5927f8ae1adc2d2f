"""Prime fields F_p, extensions F_{p^k}, shift elements, bounded discrete logs.

Elements of F_p are plain ints in [0, p); elements of F_{p^k} are k-tuples of
ints (coefficients of the residue polynomial, low degree first).  Fields are
immutable after construction and all operations are pure.

Every field carries its vector arithmetic as ``field.kernel``, built once
by its constructor, the one place that picks it: a ``PrimeKernel`` on int64
arrays of residues for F_p with p < 2^30, an ``ExtKernel`` on (..., k) int64
arrays for F_{p^k} with (p - 1)^2 k < 2^62, and past those bounds a wide
kernel of the same interface whose products and sums run on python ints
(every residue is below 2^62, so arrays stay int64).  ``kernel.lane`` names
it, for traces.  The image evaluator, unipoly's Euclid, root finding and
Vandermonde solve, and the engine's Hankel test and image scaling run on
it, so each is written once for every field.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import DivisionByZero, InvalidInput, NotAPower

MAX_MODULUS = 1 << 62  # products of two residues must fit double-width integers
NP_MAX_P = 1 << 30  # F_p numpy lane: two scaled subtractions must stay inside int64
_REM_SPLIT = 800  # entries from which _Kernel.reduce divides rather than takes x % p

LANE_FP_NUMPY = "fp-numpy"
LANE_FPK_KERNEL = "fpk-kernel"
LANE_WIDE = "wide"

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with the fixed base set."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, for the small n (extension
    degrees) that Rabin's test takes."""
    fac: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            fac[q] = fac.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


class PrimeField:
    """F_p with elements represented as ints in [0, p)."""

    __slots__ = ("p", "k", "order", "zero", "one", "kernel")

    def __init__(self, p: int):
        if not (2 <= p < MAX_MODULUS):
            raise InvalidInput(f"modulus must lie in [2, 2^62), got {p}")
        if not is_probable_prime(p):
            raise InvalidInput(f"modulus {p} is not prime")
        self.p = p
        self.k = 1
        self.order = p
        self.zero = 0
        self.one = 1 % p
        self.kernel = PrimeKernel(p) if PrimeKernel.fits(p) else _WidePrimeKernel(p)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def embed(self, x: int) -> int:
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow_(self, a, e: int):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def rand(self, rng: random.Random):
        return rng.randrange(self.p)

    def rand_unit(self, rng: random.Random):
        return rng.randrange(1, self.p)


class ExtField:
    """F_{p^k} = F_p[z]/(Phi) with elements as k-tuples of ints.

    Phi is monic of degree k, coefficients low to high; irreducibility is the
    caller's responsibility (find_irreducible verifies its output).
    """

    __slots__ = ("p", "k", "order", "modulus", "zero", "one", "_red", "kernel")

    def __init__(self, p: int, modulus: tuple):
        if not is_probable_prime(p):
            raise InvalidInput(f"characteristic {p} is not prime")
        k = len(modulus) - 1
        if k < 1 or modulus[-1] % p != 1:
            raise InvalidInput("modulus must be monic of degree >= 1")
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = tuple(c % p for c in modulus)
        self.zero = (0,) * k
        self.one = ((1 % p),) + (0,) * (k - 1)
        # z^(k+i) mod Phi for i = 0..k-2, as coefficient rows
        red = []
        row = [(-c) % p for c in self.modulus[:k]]
        red.append(tuple(row))
        for _ in range(k - 2):
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                for j in range(k):
                    row[j] = (row[j] + top * red[0][j]) % p
            red.append(tuple(row))
        self._red = red
        self.kernel = ExtKernel(self, wide=not ExtKernel.fits(p, k))

    def __repr__(self):
        return f"ExtField(p={self.p}, k={self.k})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("F", self.p, self.modulus))

    def embed(self, x: int) -> tuple:
        return (x % self.p,) + (0,) * (self.k - 1)

    def is_base(self, a: tuple) -> bool:
        return all(c == 0 for c in a[1:])

    def to_base(self, a: tuple) -> int:
        if not self.is_base(a):
            raise InvalidInput("element lies outside the prime subfield")
        return a[0]

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        full = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    full[i + j] += ai * bj
        for idx in range(2 * k - 2, k - 1, -1):
            c = full[idx] % p
            if c:
                row = self._red[idx - k]
                for j in range(k):
                    full[j] += c * row[j]
        return tuple(c % p for c in full[:k])

    def inv(self, a):
        if all(c % self.p == 0 for c in a):
            raise DivisionByZero("inverse of zero")
        p = self.p
        # extended Euclid on coefficient lists over F_p
        r0 = list(self.modulus)
        r1 = [c % p for c in a]
        t0, t1 = [0], [1]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                c = pow(r1[0], p - 2, p)
                out = [(x * c) % p for x in t1]
                out += [0] * (self.k - len(out))
                return tuple(out[: self.k])
            d0, d1 = len(r0) - 1, len(r1) - 1
            if d0 < d1:
                r0, r1, t0, t1 = r1, r0, t1, t0
                continue
            q = r0[d0] * pow(r1[d1], p - 2, p) % p
            shift = d0 - d1
            for j in range(d1 + 1):
                r0[shift + j] = (r0[shift + j] - q * r1[j]) % p
            if len(t1) + shift > len(t0):
                t0 = t0 + [0] * (len(t1) + shift - len(t0))
            for j in range(len(t1)):
                t0[shift + j] = (t0[shift + j] - q * t1[j]) % p
            while r0 and r0[-1] == 0:
                r0.pop()
            if not r0:
                raise DivisionByZero("element not invertible (modulus reducible?)")
            if len(r0) - 1 < d1:
                r0, r1, t0, t1 = r1, r0, t1, t0

    def pow_(self, a, e: int):
        if e < 0:
            return self.pow_(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def rand(self, rng: random.Random):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def rand_unit(self, rng: random.Random):
        while True:
            a = self.rand(rng)
            if any(a):
                return a


class _Kernel:
    """Vector arithmetic on int64 arrays of reduced residues whose trailing
    axes, of shape ``shape``, hold one element each.  A subclass gives the
    F_p-linear map of multiplication by an element (``matrices``), its
    unreduced application (``product``) and inverses (``inv``); reduction,
    powers and sums are written once, here.  A wide kernel (``work`` object)
    forms products and sums on python ints and stores the reduced results
    as int64."""

    __slots__ = ("p", "p_arr", "shape", "unit", "lane", "work")

    def array(self, elts) -> np.ndarray:
        """(len(elts), *shape) array of a sequence of elements."""
        return np.array(elts, dtype=np.int64).reshape((-1,) + self.shape)

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """x mod p in place, for an int64 array of either sign.  From about
        _REM_SPLIT entries on, numpy runs x - (x // p) p faster than x % p
        (p as a 0-d array, which numpy takes faster than an int)."""
        if x.size < _REM_SPLIT:
            x %= self.p_arr
        else:
            x -= x // self.p_arr * self.p_arr
        return x

    def apply(self, m: np.ndarray, b) -> np.ndarray:
        """Elementwise products of the elements with matrices m and b."""
        return self.reduce(self.product(m, b))

    def mul(self, a, b) -> np.ndarray:
        """Elementwise (broadcasting) product."""
        return self.apply(self.matrices(a), b)

    def _lift(self, e: np.ndarray) -> np.ndarray:
        """e with a unit axis for each element axis, to index or mask elements."""
        return e.reshape(e.shape + (1,) * len(self.shape))

    def pow(self, x, e) -> np.ndarray:
        """x^e for the elements x (..., *shape) and exponents e (rows, ...),
        whose trailing shape broadcasts against x's leading one; the result
        is (rows, ..., *shape).  Gathers from a power table when it has no
        more rows than e, else runs square-and-multiply over the exponent
        bits, so time and memory never grow linearly with the largest
        exponent."""
        x = np.asarray(x, dtype=np.int64)
        e = np.array(e, dtype=np.int64)
        top = int(e.max(initial=0))
        if top < len(e):
            table = self.powers(x, top)
            lead = e.ndim + len(self.shape) - table.ndim
            table = table.reshape(table.shape[:1] + (1,) * lead + table.shape[1:])
            return np.take_along_axis(table, self._lift(e), axis=0)
        out = np.zeros(e.shape + self.shape, dtype=np.int64) + self.unit
        while e.any():
            out = np.where(self._lift(e & 1).astype(bool), self.mul(out, x), out)
            x = self.mul(x, x)
            e >>= 1
        return out

    def sum(self, x, axis: int) -> np.ndarray:
        """Sum of the elements along axis (an axis before the element axes)."""
        if self.work is object:
            return np.asarray(x.astype(object).sum(axis=axis) % self.p, dtype=np.int64)
        return x.sum(axis=axis) % self.p

    def powers(self, x, e: int) -> np.ndarray:
        """(e + 1, ..., *shape) table of x^0, ..., x^e for the elements x,
        filled by doubling."""
        step = np.asarray(x, dtype=np.int64)  # x^n while rows [0, n) are filled
        out = np.zeros((e + 1,) + step.shape, dtype=np.int64)
        out[0] = self.unit
        n = 1
        while n <= e:
            m = min(n, e + 1 - n)
            mat = self.matrices(step)
            out[n : n + m] = self.apply(mat, out[:m])
            n += m
            if n <= e:
                step = self.apply(mat, step)
        return out


def _store(x: np.ndarray, out) -> np.ndarray:
    """x, copied into out when given."""
    if out is None:
        return x
    out[...] = x
    return out


class PrimeKernel(_Kernel):
    """Vector arithmetic over F_p on int64 arrays of residues (element shape
    ()): multiplication by a is the residue a itself.  It is the field's kernel
    while p < NP_MAX_P (``fits``): an unreduced product is below p^2 < 2^60,
    so the sums of three that unipoly's inverse-free Euclid forms stay inside
    int64; larger primes take the wide form, _WidePrimeKernel."""

    __slots__ = ()

    @staticmethod
    def fits(p: int) -> bool:
        return p < NP_MAX_P

    def __init__(self, p: int):
        self.p, self.p_arr, self.shape, self.unit = p, np.array(p), (), 1
        self.lane = LANE_FP_NUMPY
        self.work = np.int64

    # a residue is its own matrix, and a product of two is below p^2 < 2^60,
    # unreduced; numpy's own functions spare the Euclid a python call each
    matrices = staticmethod(np.asarray)
    product = staticmethod(np.multiply)

    def inv(self, x) -> np.ndarray:
        """Elementwise inverses of residues (zero maps to zero), one modular
        inverse per element: far fewer steps than x^(p - 2) on the array
        for the few hundred elements a call inverts."""
        x = np.asarray(x, dtype=np.int64)
        out = [pow(v, -1, self.p) if v else 0 for v in x.ravel().tolist()]
        return np.array(out, dtype=np.int64).reshape(x.shape)


class _WidePrimeKernel(PrimeKernel):
    """PrimeKernel for any p < 2^62: products run on python ints and come
    back reduced, in [0, p)."""

    __slots__ = ()

    def __init__(self, p: int):
        super().__init__(p)
        self.lane, self.work = LANE_WIDE, object

    def product(self, m, b, out=None) -> np.ndarray:
        x = np.asarray(m).astype(object) * np.asarray(b).astype(object) % self.p
        return _store(np.asarray(x, dtype=np.int64), out)


class ExtKernel(_Kernel):
    """Vector arithmetic over F_{p^k} on int64 arrays of shape (..., k): the
    last axis holds one element's coefficients, reduced mod p.

    Multiplication by a is F_p-linear with matrix sum_i a_i Z_i, where Z_i is
    the matrix of multiplication by z^i.  Building that matrix and applying
    it each sum k products of residues, so the int64 form runs only when
    (p - 1)^2 k < 2^62 (``fits``), and an unreduced product lies in [0,
    2^62); larger fields take the wide form (``wide``), on python ints.
    """

    __slots__ = ("k", "zflat", "frobenius")

    @staticmethod
    def fits(p: int, k: int) -> bool:
        return (p - 1) ** 2 * k < 1 << 62

    def __init__(self, field: ExtField, wide: bool):
        p, k = field.p, field.k
        # z^0 .. z^(2k-2) mod Phi, one per row
        zpow = np.zeros((2 * k - 1, k), dtype=np.int64)
        zpow[:k] = np.eye(k, dtype=np.int64)
        zpow[k:] = np.array(field._red[: k - 1], dtype=np.int64).reshape(k - 1, k)
        idx = np.arange(k)
        # zstack[i, r, c] = coefficient r of z^(i + c); kept as (k, k * k)
        zstack = zpow[idx[:, None] + idx[None, :]].transpose(0, 2, 1)
        self.p, self.p_arr, self.k, self.shape, self.unit = p, np.array(p), k, (k,), zpow[0]
        self.lane, self.work = (LANE_WIDE, object) if wide else (LANE_FPK_KERNEL, np.int64)
        self.zflat = np.ascontiguousarray(zstack).reshape(k, k * k).astype(self.work)
        self.frobenius = None  # a -> a^p, built by the first conjugate

    def matrices(self, a) -> np.ndarray:
        """Multiplication matrices (..., k, k) of the elements a (..., k)."""
        a = np.asarray(a, dtype=np.int64)
        m = np.asarray((a.astype(self.work, copy=False) @ self.zflat) % self.p, dtype=np.int64)
        return m.reshape(a.shape[:-1] + (self.k, self.k))

    def product(self, m: np.ndarray, b, out=None) -> np.ndarray:
        """Elementwise products of the elements with matrices m and b,
        unreduced on int64 and reduced on a wide kernel: either way in [0,
        2^62).  Written to out when given, which may be b."""
        b = np.asarray(b)
        if self.work is object:
            x = np.matmul(m.astype(object), b.astype(object)[..., None])[..., 0]
            return _store(np.asarray(x % self.p, dtype=np.int64), out)
        return np.matmul(m, b[..., None], out=None if out is None else out[..., None])[..., 0]

    def conjugate(self, x) -> np.ndarray:
        """x^p elementwise, an F_p-linear map of the coefficients."""
        if self.frobenius is None:  # column i holds z^(i p)
            zp = self.pow(np.roll(self.unit, 1), [self.p])[0]
            self.frobenius = self.powers(zp, self.k - 1).T.copy()
        return self.apply(self.frobenius, x)

    def inv(self, x) -> np.ndarray:
        """Elementwise inverses of nonzero elements through the norm: with r
        = (q - 1)/(p - 1), x^-1 = x^(r - 1) / x^r, where x^(r - 1) is the
        product of the conjugates x^(p^i), 0 < i < k, and the norm x^r lies
        in F_p (zero maps to zero)."""
        x = np.asarray(x, dtype=np.int64)
        conj, rest = x, np.zeros_like(x) + self.unit
        for _ in range(self.k - 1):
            conj = self.conjugate(conj)
            rest = self.mul(rest, conj)
        base = PrimeKernel(self.p) if self.work is np.int64 else _WidePrimeKernel(self.p)
        return base.apply(base.inv(self.mul(x, rest)[..., :1]), rest)


Field = PrimeField | ExtField


def nonzero(field: Field, a) -> np.ndarray:
    """Mask of the nonzero elements of an int64 array of field elements
    (over F_{p^k} the last axis holds one element's coefficients)."""
    return (a != 0).any(axis=-1) if isinstance(field, ExtField) else a != 0


def elements(field: Field, a) -> list:
    """The field elements of an int64 array: ints over F_p, k-tuples (the
    last axis) over F_{p^k}, nested in lists along the other axes."""
    out = np.asarray(a).tolist()
    if isinstance(field, PrimeField):
        return out
    depth = np.ndim(a) - 1

    def tuples(x, level):
        return tuple(x) if level == depth else [tuples(y, level + 1) for y in x]

    return tuples(out, 0)


def prod(field: Field, elts) -> object:
    out = field.one
    for e in elts:
        out = field.mul(out, e)
    return out


def is_irreducible(f: tuple, p: int) -> bool:
    """Rabin's test for f monic of degree k over F_p, run in the ring
    F_p[z]/(f): f is irreducible iff z^(p^k) = z and, for each prime r | k,
    z^(p^(k/r)) - z is a unit, that is coprime to f."""
    k = len(f) - 1
    if k == 1:
        return True
    ring = ExtField(p, f)
    z = (0, 1) + (0,) * (k - 2)
    frob = [z]  # z^(p^j) for j = 0..k, by k Frobenius steps
    for _ in range(k):
        frob.append(ring.pow_(frob[-1], p))
    if frob[k] != z:
        return False
    for r in factorize(k):
        try:
            ring.inv(ring.sub(frob[k // r], z))
        except DivisionByZero:
            return False
    return True


def find_irreducible(p: int, k: int, rng: random.Random) -> tuple:
    """Random monic irreducible of degree k over F_p (Shoup-style search)."""
    if k < 1:
        raise InvalidInput("degree must be >= 1")
    if k == 1:
        return (rng.randrange(p), 1)
    while True:
        cand = tuple(rng.randrange(p) for _ in range(k)) + (1,)
        if is_irreducible(cand, p):
            return cand


def multiplicative_order_exceeds(field: Field, g, bound: int) -> bool:
    """True iff ord(g) > bound: g^j != 1 for j = 1..bound, read from one
    power table on the field's kernel (True for bound 0)."""
    kern = field.kernel
    return bool(nonzero(field, kern.powers(g, bound)[1:] - kern.unit).all())


def shift_element(field: Field, bound: int, rng: random.Random):
    """A random unit of multiplicative order > bound, which is all that
    shared-node interpolation asks of omega (see interp): exponents up to
    bound are then unique discrete logs.  A random unit of F_q fails with
    probability at most bound^2 / (q - 1), so the first draw almost always
    passes once q - 1 is large against bound."""
    if field.order - 1 <= bound:
        raise InvalidInput(f"no unit of F_{field.order} has order > {bound}")
    while True:
        g = field.rand_unit(rng)
        if multiplicative_order_exceeds(field, g, bound):
            return g


def discrete_log_bounded(field: Field, omega, target, bound: int):
    """Smallest e in [0, bound] with omega^e = target, by baby-step/giant-step.

    One target: raises NotAPower when no such exponent exists.  A batch: an
    int64 array of elements ((N,) over F_p, (N, k) over F_{p^k}) gives an
    int64 array of N exponents, -1 where none exists; all targets take the
    giant steps together and are looked up in the baby table at once.
    """
    if bound < 0:
        raise InvalidInput("bound must be >= 0")
    kern = field.kernel
    if not isinstance(target, np.ndarray):
        e = int(discrete_log_bounded(field, omega, kern.array([target]), bound)[0])
        if e < 0:
            raise NotAPower(f"no exponent <= {bound} matches")
        return e
    m = math.isqrt(bound) + 1
    baby = kern.powers(kern.array([omega])[0], m)  # omega^0 .. omega^m
    giant = kern.inv(baby[m])
    table = baby[:m].reshape(1, m, -1)
    gamma = target
    out = np.full(len(target), -1, dtype=np.int64)
    for i in range(bound // m + 1):
        if (out >= 0).all():
            break
        hit = (gamma.reshape(len(gamma), 1, -1) == table).all(axis=2)
        e = i * m + hit.argmax(axis=1)
        found = hit.any(axis=1) & (out < 0) & (e <= bound)
        out[found] = e[found]
        gamma = kern.mul(gamma, giant)
    return out
