"""Independent ground truth for testing and verification.

A recursive dense representation (nested coefficient lists, innermost level
holds the residues) drives the classical dense GCD recursion: split off the
content in the main variable, then recover the primitive part by evaluating
the innermost variable, recursing, and interpolating, with images scaled
through the GCD of the leading coefficients so they patch together.  Every
candidate is certified by exact division before it is returned, and the
univariate base case is the plain monic Euclidean algorithm.

The oracle shares nothing with the sparse pipeline beyond the field layer,
so agreement between the two is evidence rather than tautology.
"""

from __future__ import annotations

import heapq
import random

import numpy as np

from .errors import BudgetExceeded, InvalidInput, ZeroPolynomial
from .field import ExtField, PrimeField, find_irreducible
from .sparse import SparsePoly, lex_monic

ORACLE_MAX_VARS = 4
ORACLE_MAX_PARTIAL_DEGREE = 12

_NP_ORACLE_MAX_P = 1 << 26  # convolution accumulators must stay inside int64


# ---------------------------------------------------------------------------
# nested dense representation: level j >= 1 is a list of level-(j-1) values
# indexed by the exponent of variable x_j counted from the outside in (the
# outermost index belongs to the last variable); level 0 is a residue.
# ---------------------------------------------------------------------------


def _zero(field, n: int):
    return field.zero if n == 0 else []


def _is_zero(n: int, a) -> bool:
    if n == 0:
        return a == 0 if isinstance(a, int) else not any(a)
    return len(a) == 0


def _trim(n: int, a):
    if n == 0:
        return a
    while a and _is_zero(n - 1, a[-1]):
        a.pop()
    return a


def _is_unit(n: int, a) -> bool:
    """Nonzero constant (every nesting level has length 1)."""
    while n > 0:
        if len(a) != 1:
            return False
        a = a[0]
        n -= 1
    return not _is_zero(0, a)


def _unit(field, n):
    out = field.one
    for _ in range(n):
        out = [out]
    return out


def _add(field, n, a, b):
    if n == 0:
        return field.add(a, b)
    out = [_zero(field, n - 1)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = _add(field, n - 1, out[i], c)
    return _trim(n, out)


def _neg(field, n, a):
    if n == 0:
        return field.neg(a)
    return [_neg(field, n - 1, c) for c in a]


def _np_ok(field) -> bool:
    return isinstance(field, PrimeField) and field.p < _NP_ORACLE_MAX_P


def _mul(field, n, a, b):
    if n == 0:
        return field.mul(a, b)
    if not a or not b:
        return []
    if n == 1 and _np_ok(field) and len(a) + len(b) > 8:
        out = np.convolve(
            np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        ) % field.p
        return _trim(1, [int(c) for c in out])
    out = [_zero(field, n - 1) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if _is_zero(n - 1, ai):
            continue
        for j, bj in enumerate(b):
            if not _is_zero(n - 1, bj):
                out[i + j] = _add(field, n - 1, out[i + j], _mul(field, n - 1, ai, bj))
    return _trim(n, out)


def _div_exact(field, n, a, b):
    """Quotient a / b when the division is exact; raises ArithmeticError else."""
    if n == 0:
        if _is_zero(0, b):
            raise ZeroDivisionError("division by zero")
        return field.mul(a, field.inv(b))
    if _is_zero(n, a):
        return []
    if _is_zero(n, b):
        raise ZeroDivisionError("division by zero polynomial")
    r = [c for c in a]
    db = len(b) - 1
    if len(r) - 1 < db:
        raise ArithmeticError("division is not exact")
    q = [_zero(field, n - 1) for _ in range(len(r) - db)]
    while r:
        dr = len(r) - 1
        if dr < db:
            raise ArithmeticError("division is not exact")
        qc = _div_exact(field, n - 1, r[-1], b[-1])
        q[dr - db] = qc
        for j in range(db + 1):
            r[dr - db + j] = _add(
                field, n - 1, r[dr - db + j], _neg(field, n - 1, _mul(field, n - 1, qc, b[j]))
            )
        _trim(n, r)
    return _trim(n, q)


def _content(field, n, a, gcd_rec):
    """GCD of the main-variable coefficients (an (n-1)-level value)."""
    cont = _zero(field, n - 1)
    for c in a:
        if _is_zero(n - 1, c):
            continue
        cont = c if _is_zero(n - 1, cont) else gcd_rec(n - 1, cont, c)
        if _is_unit(n - 1, cont):
            break  # the content can only shrink; a unit ends the scan
    return cont


def _subst_inner(field, n, a, b):
    """Evaluate the innermost variable at b: depth n -> depth n - 1."""
    if n == 1:
        acc = field.zero
        for c in reversed(a):
            acc = field.add(field.mul(acc, b), c)
        return acc
    return _trim(n - 1, [_subst_inner(field, n - 1, c, b) for c in a])


def _mul_inner_scalar(field, n, a, c):
    if n == 0:
        return field.mul(a, c)
    return [_mul_inner_scalar(field, n - 1, v, c) for v in a]


def _lift_inner(field, n, a):
    """Reinsert the evaluated innermost variable: depth n-1 -> depth n, with
    every residue becoming a degree-0 (or empty) polynomial in it."""
    if n == 1:
        nonzero = a != 0 if isinstance(a, int) else any(a)
        return [a] if nonzero else []
    return [_lift_inner(field, n - 1, c) for c in a]


def _shift_inner(field, n, a, b):
    """Multiply by (x_1 - b): used to build interpolation masters."""
    # a * x_1
    def times_x(level, v):
        if level == 1:
            return [field.zero] + list(v)
        return [times_x(level - 1, c) for c in v]

    ax = times_x(n, a)
    return _add(field, n, ax, _mul_inner_scalar(field, n, a, field.neg(b)))


def _deg_inner(n, a) -> int:
    """Degree in the innermost variable."""
    if _is_zero(n, a):
        return -1
    if n == 1:
        return len(a) - 1
    return max(_deg_inner(n - 1, c) for c in a if not _is_zero(n - 1, c))


def _univariate_gcd(field, a, b):
    r0, r1 = _trim(1, [c for c in a]), _trim(1, [c for c in b])
    while r1:
        d0, d1 = len(r0) - 1, len(r1) - 1
        if d0 < d1:
            r0, r1 = r1, r0
            continue
        qc = field.mul(r0[-1], field.inv(r1[-1]))
        for j in range(d1 + 1):
            r0[d0 - d1 + j] = field.sub(r0[d0 - d1 + j], field.mul(qc, r1[j]))
        _trim(1, r0)
        if not r0 or len(r0) - 1 < d1:
            r0, r1 = r1, r0
    inv = field.inv(r0[-1])
    return [field.mul(c, inv) for c in r0]


class _DenseGcd:
    """One gcd computation over a fixed working field and point source."""

    def __init__(self, field, rng: random.Random):
        self.field = field
        self.rng = rng

    def gcd(self, n, a, b):
        field = self.field
        a = _trim(n, [c for c in a])
        b = _trim(n, [c for c in b])
        if not a:
            return b
        if not b:
            return a
        if n == 1:
            return _univariate_gcd(field, a, b)
        ca = _content(field, n, a, self.gcd)
        cb = _content(field, n, b, self.gcd)
        a = [_div_exact(field, n - 1, c, ca) for c in a]
        b = [_div_exact(field, n - 1, c, cb) for c in b]
        cg = self.gcd(n - 1, ca, cb)
        if len(a) == 1 or len(b) == 1:
            prim = _unit(field, n)  # a primitive main-degree-0 polynomial is a unit
        else:
            prim = self._primitive_gcd(n, a, b)
        return _trim(n, [_mul(field, n - 1, c, cg) for c in prim])

    def _primitive_gcd(self, n, a, b):
        """Main-variable-primitive gcd by innermost-variable interpolation."""
        field = self.field
        gamma = self.gcd(n - 1, a[-1], b[-1])
        npoints = _deg_inner(n - 1, gamma) + min(_deg_inner(n, a), _deg_inner(n, b)) + 1
        for _ in range(12):
            cand = self._interpolated_candidate(n, a, b, gamma, npoints)
            if cand is None:
                continue
            try:
                _div_exact_check(field, n, a, cand)
                _div_exact_check(field, n, b, cand)
            except ArithmeticError:
                continue
            return cand
        raise ArithmeticError("oracle failed to stabilize (field too small?)")

    def _interpolated_candidate(self, n, a, b, gamma, npoints):
        field = self.field
        used = set()
        images = []  # (point, scaled image)
        min_deg = None
        attempts = 0
        while len(images) < npoints:
            attempts += 1
            if attempts > 8 * npoints + 64:
                return None
            pt = field.rand(self.rng)
            if pt in used:
                continue
            used.add(pt)
            ab = _subst_inner(field, n, a, pt)
            bb = _subst_inner(field, n, b, pt)
            if len(ab) < len(a) or len(bb) < len(b):
                continue  # leading coefficient vanished
            g = self.gcd(n - 1, ab, bb)
            dg = len(g) - 1
            if min_deg is None or dg < min_deg:
                min_deg = dg
                images = [img for img in images if len(img[1]) - 1 == dg]
            if dg != min_deg:
                continue  # unlucky point, image gcd too large
            gamma_b = _subst_inner(field, n - 1, gamma, pt)
            try:
                scale = _div_exact(field, n - 2, gamma_b, g[-1])
            except ArithmeticError:
                continue
            scaled = [_mul(field, n - 2, c, scale) for c in g]
            images.append((pt, scaled))
        # Lagrange interpolation along the innermost variable
        h = _zero(field, n)
        for i, (pt, img) in enumerate(images):
            # L_i = prod_{j != i} (x_1 - pt_j) / (pt_i - pt_j), times img
            lifted = _lift_inner(field, n, img)
            denom = field.one
            for j, (ptj, _) in enumerate(images):
                if i == j:
                    continue
                lifted = _shift_inner(field, n, lifted, ptj)
                denom = field.mul(denom, field.sub(pt, ptj))
            lifted = _mul_inner_scalar(field, n, lifted, field.inv(denom))
            h = _add(field, n, h, lifted)
        h = _trim(n, h)
        if _is_zero(n, h):
            return None
        cont = _content(field, n, h, self.gcd)
        try:
            return [_div_exact(field, n - 1, c, cont) for c in h]
        except ArithmeticError:
            return None


def _div_exact_check(field, n, a, b):
    _div_exact(field, n, a, b)


# ---------------------------------------------------------------------------
# conversions and the public oracle surface
# ---------------------------------------------------------------------------


def sparse_to_dense(field, f: SparsePoly, embed=None):
    """Nested coefficient lists; the outermost level indexes the last variable."""
    n = f.nvars

    def build(terms, level):
        if level == 0:
            acc = field.zero
            for c, _ in terms:
                acc = c  # exponent vectors are distinct: one term at most
            return embed(acc) if embed else acc
        groups: dict = {}
        for c, e in terms:
            groups.setdefault(e[level - 1], []).append((c, e))
        width = max(groups) + 1 if groups else 0
        out = [_zero(field, level - 1) for _ in range(width)]
        for k, sub in groups.items():
            out[k] = build(sub, level - 1)
        return _trim(level, out)

    return build(list(f.terms()), n)


def dense_to_sparse(field, nvars: int, a, lift=None) -> SparsePoly:
    terms = []

    def walk(level, value, suffix):
        if level == 0:
            nonzero = value != 0 if isinstance(value, int) else any(value)
            if nonzero:
                terms.append((lift(value) if lift else value, tuple(suffix)))
            return
        for k, sub in enumerate(value):
            walk(level - 1, sub, [k] + suffix)

    walk(nvars, a, [])
    return SparsePoly.from_terms(field, nvars, terms)


def _check_budget(f: SparsePoly):
    if f.nvars > ORACLE_MAX_VARS:
        raise BudgetExceeded(f"oracle handles at most {ORACLE_MAX_VARS} variables")
    if any(d > ORACLE_MAX_PARTIAL_DEGREE for d in f.partial_degrees()):
        raise BudgetExceeded(
            f"oracle handles partial degrees up to {ORACLE_MAX_PARTIAL_DEGREE}"
        )


def dense_gcd(field: PrimeField, A: SparsePoly, B: SparsePoly) -> SparsePoly:
    """Lex-monic gcd via the classical dense content/primitive recursion."""
    if A.is_zero and B.is_zero:
        raise InvalidInput("gcd(0, 0) undefined")
    if A.is_zero:
        return lex_monic(field, B)
    if B.is_zero:
        return lex_monic(field, A)
    _check_budget(A)
    _check_budget(B)
    n = A.nvars
    d = max(max(A.partial_degrees()), max(B.partial_degrees()))
    rng = random.Random(0x0AC1E)
    # interpolation consumes up to ~2d+2 distinct points per level, plus luck
    if field.p >= 16 * (d + 1):
        work = field
        dn_a, dn_b = sparse_to_dense(work, A), sparse_to_dense(work, B)
        g = _DenseGcd(work, rng).gcd(n, dn_a, dn_b)
        out = dense_to_sparse(field, n, g)
    else:
        k = 1
        while field.p**k < 16 * (d + 1):
            k += 1
        work = ExtField(field.p, find_irreducible(field.p, k, rng))
        dn_a = sparse_to_dense(work, A, embed=work.embed)
        dn_b = sparse_to_dense(work, B, embed=work.embed)
        g = _DenseGcd(work, rng).gcd(n, dn_a, dn_b)
        out = dense_to_sparse(field, n, g, lift=work.to_base)
    return lex_monic(field, out)


def sparse_mul(field, A: SparsePoly, B: SparsePoly) -> SparsePoly:
    """Exact product in canonical form."""
    if A.is_zero or B.is_zero:
        return SparsePoly.zero(A.nvars)
    acc: dict = {}
    for ca, ea in A.terms():
        for cb, eb in B.terms():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = field.mul(ca, cb)
            if e in acc:
                acc[e] = field.add(acc[e], v)
            else:
                acc[e] = v
    return SparsePoly.from_terms(field, A.nvars, list((c, e) for e, c in acc.items()))


def divides_exactly(field, G: SparsePoly, A: SparsePoly):
    """Quotient A / G when exact, else None (lex division by one divisor)."""
    if G.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    if A.is_zero:
        return SparsePoly.zero(A.nvars)
    lead = G.leading_exp
    lc_inv = field.inv(G.lc)
    rem = {e: c for c, e in A.terms()}
    heap = [tuple(-x for x in e) for e in rem]
    heapq.heapify(heap)
    quot: dict = {}
    while heap:
        e = tuple(-x for x in heapq.heappop(heap))
        c = rem.get(e)
        if c is None or c == field.zero:
            rem.pop(e, None)
            continue
        diff = tuple(a - b for a, b in zip(e, lead))
        if any(x < 0 for x in diff):
            return None
        qc = field.mul(c, lc_inv)
        quot[diff] = qc
        for gc, ge in G.terms():
            tgt = tuple(a + b for a, b in zip(diff, ge))
            nv = field.sub(rem.get(tgt, field.zero), field.mul(qc, gc))
            if nv == field.zero:
                rem.pop(tgt, None)
            else:
                if tgt not in rem:
                    heapq.heappush(heap, tuple(-x for x in tgt))
                rem[tgt] = nv
    if rem:
        return None
    return SparsePoly.from_terms(field, A.nvars, list((c, e) for e, c in quot.items()))
