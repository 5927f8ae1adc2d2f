"""Dense univariate polynomial arithmetic over the active field.

Polynomials are coefficient vectors, low degree first, no trailing zeros.
Three lanes share one public API, chosen by ``field.lane``:

  * generic lane      -- python lists of field elements, any field;
  * F_p numpy lane    -- int64 vectors for prime fields with p < 2^30 (two
                         scaled subtractions of residues stay inside int64),
                         used by monic_gcd and monic_gcd_rows;
  * F_{p^k} kernel    -- (len, k) int64 arrays through the field's ExtKernel
                         when (p - 1)^2 k < 2^62, used by monic_gcd,
                         poly_mulmod and poly_powmod (so by root finding);
                         callers pass and get lists of k-tuples, and
                         monic_gcd also takes and returns arrays.

The F_p numpy GCD switches from the classical remainder loop to a block
variant for large degrees: quotients are extracted from a window of the top
2h+1 coefficients (they agree with the true quotients while remainder degrees
stay in the window's upper half) and the accumulated 2x2 transition matrix is
applied to the full vectors with batched multiplications.

monic_gcd_rows takes a batch of GCDs as two int64 arrays, one pair of rows
per GCD.  On the F_p numpy lane the rows run in lockstep, since at generic
points they share one remainder degree sequence: while degrees are
_BLOCK_MIN_DEG or more, the window steps of all rows run as one array and
each row's matrix is applied by FFT; below it, each step replaces r0 by
lc(r1) r0 - lc(r0) y^s r1 in all rows at once, so entries stay below
p^2 < 2^60, and one batched inversion at the end makes the results monic.
The window steps are inverse-free in the same way.  A row whose remainder
degree departs from the batch's leaves and is finished from its inputs by
monic_gcd.  Rows run in batches of at most _LOCKSTEP_ENTRIES coefficients,
which bounds the copies on wide rows.  Other lanes loop monic_gcd.  A
single GCD keeps the scalar loops: a batch of one row makes the same
number of numpy calls on arrays of one row, and takes about twice as long.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import DivisionByZero, InvalidInput, RootDeficit, SingularSystem
from .field import (
    LANE_FP_NUMPY,
    LANE_FPK_KERNEL,
    LANE_GENERIC,
    ExtField,
    Field,
    elements,
    lane,
    np_powmod,
)

_FFT_MAX_P = 1 << 24  # 8-bit digit split keeps FFT rounding below 1/4
_FFT_MIN_SIZE = 24_000  # MAC count under which np.convolve wins
_BLOCK_H = 512  # Lehmer window half-size
_BLOCK_MIN_DEG = 3 * _BLOCK_H  # classical loop below this degree
_LOCKSTEP_ENTRIES = 1 << 16  # rows x width of one monic_gcd_rows batch


def degree(f) -> int:
    return len(f) - 1


def trim(f):
    """Drop trailing zeros (works on lists and 1-d int arrays)."""
    n = len(f)
    while n > 0 and not _nonzero(f[n - 1]):
        n -= 1
    return f[:n]


def _nonzero(c) -> bool:
    if isinstance(c, tuple):
        return any(c)
    return bool(c)


def poly_eval(field: Field, f, x):
    acc = field.zero
    for c in reversed(list(f)):
        acc = field.add(field.mul(acc, x), c)
    return acc


def poly_mul(field: Field, a, b):
    if not len(a) or not len(b):
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if _nonzero(ai):
            for j, bj in enumerate(b):
                out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return trim(out)


def poly_divmod(field: Field, a, b):
    b = trim(list(b))
    if not b:
        raise DivisionByZero("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    inv_lc = field.inv(b[-1])
    q = [field.zero] * max(len(r) - db, 0)
    for k in range(len(r) - db - 1, -1, -1):
        c = field.mul(r[k + db], inv_lc)
        if _nonzero(c):
            q[k] = c
            for j in range(db + 1):
                r[k + j] = field.sub(r[k + j], field.mul(c, b[j]))
    return trim(q), trim(r[:db])


def poly_mulmod(field: Field, a, b, f):
    if lane(field) == LANE_FPK_KERNEL and len(trim(list(f))) > 1:
        mod = _ExtModulus(field, f)
        return trim(elements(field, mod.mulmod(mod.residue(a), mod.residue(b))))
    _, r = poly_divmod(field, poly_mul(field, a, b), f)
    return r


def poly_powmod(field: Field, a, e: int, f):
    if lane(field) == LANE_FPK_KERNEL and len(trim(list(f))) > 1:
        mod = _ExtModulus(field, f)
        base = mod.residue(a)
        result = mod.residue([field.one])
        while e:
            if e & 1:
                result = mod.mulmod(result, base)
            base = mod.mulmod(base, base)
            e >>= 1
        return trim(elements(field, result))
    result = [field.one]
    base = list(a)
    while e:
        if e & 1:
            result = poly_mulmod(field, result, base, f)
        base = poly_mulmod(field, base, base, f)
        e >>= 1
    return result


def monic(field: Field, f):
    f = trim(f if isinstance(f, list) else list(f))
    if not f:
        return f
    inv = field.inv(f[-1])
    return [field.mul(c, inv) for c in f]


# ---------------------------------------------------------------------------
# fast-lane helpers (numpy int64 over F_p, p < 2^30)
# ---------------------------------------------------------------------------


def _np_trim(a):
    nonzero = np.flatnonzero(a)
    return a[: nonzero[-1] + 1] if len(nonzero) else a[:0]


def _np_rem(a, p):
    """a mod p in place for an int64 array of either sign: numpy runs
    a - (a // p) p about twice as fast as a % p."""
    a -= a // p * p
    return a


def _mul_fft(a, b, p):
    """Exact product mod p via real FFT on 8-bit digit planes (p < 2^24).

    A rounding residual above 0.25 would signal precision loss; the digit
    split keeps the true bound orders of magnitude below that, and the
    assertion turns any violation into a hard error rather than bad data.
    """
    n = len(a) + len(b) - 1
    N = 1 << (n - 1).bit_length()
    planes_a = (a & 0xFF, (a >> 8) & 0xFF, a >> 16)
    planes_b = (b & 0xFF, (b >> 8) & 0xFF, b >> 16)
    fa = [np.fft.rfft(x, N) for x in planes_a]
    fb = [np.fft.rfft(x, N) for x in planes_b]
    out = np.zeros(n, dtype=np.int64)
    shift = 1
    for k in range(5):
        acc = None
        for i in range(max(0, k - 2), min(2, k) + 1):
            t = fa[i] * fb[k - i]
            acc = t if acc is None else acc + t
        c = np.fft.irfft(acc, N)[:n]
        r = np.rint(c)
        if np.max(np.abs(c - r)) > 0.25:
            raise ArithmeticError("fft rounding out of tolerance")
        out += (r.astype(np.int64) % p) * shift % p
        shift = shift * 256 % p
    return out % p


def _np_mul(p, a, b):
    """Product of int64 coefficient vectors mod p, overflow-safe."""
    if not len(a) or not len(b):
        return np.zeros(0, dtype=np.int64)
    la, lb = len(a), len(b)
    if p < _FFT_MAX_P and la * lb >= _FFT_MIN_SIZE and la + lb - 1 >= 64:
        try:
            return _mul_fft(a, b, p)
        except ArithmeticError:
            pass
    # np.convolve accumulates up to min(la, lb) products of size < p^2
    cap = (1 << 62) // (p * p) + 1
    short, long_ = (a, b) if la <= lb else (b, a)
    if len(short) <= cap:
        return np.convolve(short, long_) % p
    out = np.zeros(la + lb - 1, dtype=np.int64)
    for k in range(0, len(short), cap):
        piece = short[k : k + cap]
        out[k : k + len(piece) + len(long_) - 1] += np.convolve(piece, long_) % p
        out %= p
    return out


def _np_quotient(p, w0, d0, w1, d1):
    """Full quotient of w0 by w1 (degrees d0 >= d1) as an int64 vector."""
    g = d0 - d1
    inv = pow(int(w1[d1]), p - 2, p)
    if g == 0:
        return np.array([int(w0[d0]) * inv % p], dtype=np.int64)
    if g == 1:
        q1 = int(w0[d0]) * inv % p
        below = int(w1[d1 - 1]) if d1 >= 1 else 0
        c = (int(w0[d0 - 1]) - q1 * below) % p
        return np.array([c * inv % p, q1], dtype=np.int64)
    # wide gap: vectorized long division, one fused pass per quotient coefficient
    top = w0[: d0 + 1].copy()
    div = w1[: d1 + 1]
    q = np.zeros(g + 1, dtype=np.int64)
    for k in range(g, -1, -1):
        c = int(top[k + d1]) % p
        if c:
            c = c * inv % p
            q[k] = c
            seg = top[k : k + d1 + 1]
            seg -= c * div
            _np_rem(seg, p)
    return q


def _np_scan_degree(row, start):
    d = start
    while d >= 0 and row[d] == 0:
        d -= 1
    return d


def _np_euclid_window(p, w0, d0, w1, d1, h):
    """Euclid with transition-matrix recording on a coefficient window.

    Steps run while the divisor's window degree stays >= h, which keeps the
    computed quotients equal to the true ones.  Returns the four matrix rows
    (u_prev, v_prev, u_cur, v_cur) and the number of steps taken.
    """
    W = len(w0) + 2
    P = np.zeros((3, W), dtype=np.int64)
    C = np.zeros((3, W), dtype=np.int64)
    N = np.zeros((3, W), dtype=np.int64)
    P[0, : len(w0)] = w0
    C[0, : len(w1)] = w1
    P[1, 0] = 1
    C[2, 0] = 1
    steps = 0
    while d1 >= h:
        q = _np_quotient(p, P[0], d0, C[0], d1)
        if len(q) == 2:
            q0, q1 = int(q[0]), int(q[1])
            np.multiply(C, q0, out=N)
            np.subtract(P, N, out=N)
            if q1:
                N[:, 1:] -= q1 * C[:, :-1]
            _np_rem(N, p)
        elif len(q) == 1:
            np.multiply(C, int(q[0]), out=N)
            np.subtract(P, N, out=N)
            _np_rem(N, p)
        else:
            width = max(d1 + 1, steps + 1)
            for row in range(3):
                t = _np_mul(p, q, C[row, :width])
                N[row] = P[row]
                N[row, : len(t)] -= t
            _np_rem(N, p)
        P, C, N = C, N, P
        d0, d1 = d1, _np_scan_degree(C[0], d1 - 1)
        steps += 1
    return (P[1], P[2], C[1], C[2]), steps


def _np_classical_gcd(p, r0, r1):
    """Plain remainder loop; returns the last nonzero remainder (not monic)."""
    d0, d1 = len(r0) - 1, len(r1) - 1
    buf0 = np.zeros(max(d0, d1) + 2, dtype=np.int64)
    buf1 = np.zeros(max(d0, d1) + 2, dtype=np.int64)
    buf0[: d0 + 1] = r0
    buf1[: d1 + 1] = r1
    if d0 < d1:
        buf0, buf1, d0, d1 = buf1, buf0, d1, d0
    while d1 >= 0:
        q = _np_quotient(p, buf0, d0, buf1, d1)
        seg = buf0[: d1 + len(q)]
        if len(q) == 2:
            q0, q1 = int(q[0]), int(q[1])
            seg[: d1 + 1] -= q0 * buf1[: d1 + 1]
            seg[1 : d1 + 2] -= q1 * buf1[: d1 + 1]
        elif len(q) == 1:
            seg[: d1 + 1] -= int(q[0]) * buf1[: d1 + 1]
        else:
            seg -= _np_mul(p, q, buf1[: d1 + 1])
        _np_rem(seg, p)
        buf0, buf1 = buf1, buf0
        d0, d1 = d1, _np_scan_degree(buf1[0 : d0 + 1], d0 - 1)
    return buf0[: d0 + 1].copy()


def _np_monic_gcd(p, u, v):
    r0 = _np_trim(np.asarray(u, dtype=np.int64) % p)
    r1 = _np_trim(np.asarray(v, dtype=np.int64) % p)
    if len(r0) < len(r1):
        r0, r1 = r1, r0
    if not len(r1):
        if not len(r0):
            raise InvalidInput("gcd(0, 0) undefined")
        return r0 * pow(int(r0[-1]), p - 2, p) % p
    h = _BLOCK_H
    while len(r1) - 1 >= _BLOCK_MIN_DEG:
        d0, d1 = len(r0) - 1, len(r1) - 1
        tau = d0 - 2 * h
        if d1 <= tau:
            # wide degree gap: one full division, then continue
            q = _np_quotient(p, r0, d0, r1, d1)
            t = _np_mul(p, q, r1)
            nr = r0.copy()
            nr[: len(t)] -= t
            r0, r1 = r1, _np_trim(_np_rem(nr, p))
            continue
        (m00, m01, m10, m11), steps = _np_euclid_window(
            p, r0[tau:], d0 - tau, r1[tau:], d1 - tau, h
        )
        if steps == 0:
            q = _np_quotient(p, r0, d0, r1, d1)
            t = _np_mul(p, q, r1)
            nr = r0.copy()
            nr[: len(t)] -= t
            r0, r1 = r1, _np_trim(_np_rem(nr, p))
            continue
        nr0 = _np_add(p, _np_mul(p, _np_trim(m00), r0), _np_mul(p, _np_trim(m01), r1))
        nr1 = _np_add(p, _np_mul(p, _np_trim(m10), r0), _np_mul(p, _np_trim(m11), r1))
        if len(nr1) >= len(r1):  # nr0 may be r1 itself when deg r0 = deg r1
            raise ArithmeticError("window reduction made no progress")
        r0, r1 = nr0, nr1
        if len(r0) < len(r1):
            r0, r1 = r1, r0
    if len(r1):
        r0 = _np_classical_gcd(p, r0, r1)
    return r0 * pow(int(r0[-1]), p - 2, p) % p


def _np_add(p, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return _np_trim(out % p)


# ---------------------------------------------------------------------------
# F_{p^k} kernel lane: coefficient vectors as (len, k) int64 arrays
# ---------------------------------------------------------------------------


def _ext_trim(a):
    n = len(a)
    while n > 0 and not a[n - 1].any():
        n -= 1
    return a[:n]


def _ext_inv(field: ExtField, a):
    """Inverse of one element given as a kernel row."""
    return np.array(field.inv(tuple(a.tolist())), dtype=np.int64)


def _ext_monic_gcd(field: ExtField, u, v):
    """Euclid on the kernel without inverses: each elimination step replaces
    r0 by lc(r1) r0 - lc(r0) y^s r1, which spans the same ideal, so only the
    last remainder is inverted, to make it monic.  Returns an array when
    either input is one."""
    kern, p = field.kernel, field.p
    r0 = _ext_trim(kern.array(u) % p)
    r1 = _ext_trim(kern.array(v) % p)
    if len(r0) < len(r1):
        r0, r1 = r1, r0
    if not len(r0):
        raise InvalidInput("gcd(0, 0) undefined")
    while len(r1):
        m1 = kern.matrices(r1)
        d1 = len(r1) - 1
        for top in range(len(r0) - 1, d1 - 1, -1):
            q = r0[top].copy()
            head = r0[: top + 1]
            head[:] = np.matmul(m1[-1], head[..., None])[..., 0]
            head[top - d1 :] -= np.matmul(m1, q)
            head %= p
        r0, r1 = r1, _ext_trim(r0[:d1])
    g = kern.mul(_ext_inv(field, r0[-1]), r0)
    return g if isinstance(u, np.ndarray) or isinstance(v, np.ndarray) else elements(field, g)


class _ExtModulus:
    """Residues modulo a polynomial f of degree n >= 1 over F_{p^k} on the
    kernel, as (n, k) arrays."""

    def __init__(self, field: ExtField, f):
        kern, p = field.kernel, field.p
        f = _ext_trim(kern.array(f) % p)
        n = len(f) - 1
        # rows[i] = y^(n+i) mod f for i < n - 1, the powers a product reaches
        rows = np.zeros((max(n - 1, 1), n, field.k), dtype=np.int64)
        rows[0] = -kern.mul(_ext_inv(field, f[-1]), f[:n]) % p
        for i in range(1, n - 1):
            rows[i, 1:] = rows[i - 1, :-1]
            rows[i] = (rows[i] + kern.mul(rows[i - 1, -1], rows[0])) % p
        self.kern, self.p, self.n = kern, p, n
        self.rows = kern.matrices(rows)
        # toeplitz[m, i] = b[m - i] as a gather from b zero-padded by n - 1
        self.idx = np.arange(2 * n - 1)[:, None] - np.arange(n)[None, :] + n - 1
        self.padded = np.zeros((3 * n - 2, field.k), dtype=np.int64)

    def residue(self, a):
        """a mod f for a list of field elements, by long division."""
        n = self.n
        a = self.kern.array(a) % self.p
        out = np.zeros((max(len(a), n), self.kern.k), dtype=np.int64)
        out[: len(a)] = a
        for top in range(len(out) - 1, n - 1, -1):
            out[top - n : top] += np.matmul(self.rows[0], out[top])
            out[top - n : top] %= self.p
        return out[:n]

    def mulmod(self, a, b):
        n, p = self.n, self.p
        self.padded[n - 1 : 2 * n - 1] = b
        toeplitz = self.padded[self.idx]
        terms = np.matmul(self.kern.matrices(a), toeplitz[..., None])[..., 0] % p
        c = terms.sum(axis=1) % p
        high = np.matmul(self.rows[: n - 1], c[n:, None, :, None])[..., 0] % p
        return (c[:n] + high.sum(axis=0)) % p


def _generic_monic_gcd(field: Field, u, v):
    r0, r1 = trim(list(u)), trim(list(v))
    while r1:
        d0, d1 = len(r0) - 1, len(r1) - 1
        if d0 < d1:
            r0, r1 = r1, r0
            continue
        q = field.mul(r0[-1], field.inv(r1[-1]))
        shift = d0 - d1
        for j in range(d1 + 1):
            r0[shift + j] = field.sub(r0[shift + j], field.mul(q, r1[j]))
        r0 = trim(r0)
        if len(r0) - 1 < d1:
            r0, r1 = r1, r0
    return monic(field, r0)


def monic_gcd(field: Field, u, v):
    """Monic generator of the ideal (u, v); classical Euclid, block-accelerated
    on large prime-field inputs and inverse-free on the F_{p^k} kernel.  Not
    both inputs may be zero."""
    ln = lane(field)
    if ln == LANE_FPK_KERNEL:
        return _ext_monic_gcd(field, u, v)
    u_has = any(_nonzero(c) for c in u)
    v_has = any(_nonzero(c) for c in v)
    if not u_has and not v_has:
        raise InvalidInput("gcd(0, 0) undefined")
    if not u_has:
        return monic(field, v) if isinstance(v, list) else _np_monic(field, v)
    if not v_has:
        return monic(field, u) if isinstance(u, list) else _np_monic(field, u)
    if ln == LANE_FP_NUMPY:
        g = _np_monic_gcd(field.p, np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64))
        return g if isinstance(u, np.ndarray) or isinstance(v, np.ndarray) else [int(c) for c in g]
    return _generic_monic_gcd(field, u, v)


def _np_monic(field, f):
    f = _np_trim(np.asarray(f, dtype=np.int64) % field.p)
    if not len(f):
        return f
    return f * pow(int(f[-1]), field.p - 2, field.p) % field.p


def _np_window_rows(p, W0, d0, W1, d1, h):
    """_np_euclid_window on the windows of all rows at once, for rows that
    share their remainder degrees.  Stops before a quotient of degree two or
    more (the caller divides fully); a row whose remainder degree falls
    short of the others' leaves.  Returns the indices of the rows that
    stayed, their matrix rows (u_prev, v_prev, u_cur, v_cur), the number of
    steps and the window degree of the last divisor.

    Steps are inverse-free, as in _np_lockstep_gcd: a quotient y q1 + q0 by
    a divisor with leading coefficient c becomes r_next = c^2 r_prev -
    c^2 (y q1 + q0) r_cur (c instead of c^2 when q1 = 0), so the matrix maps
    the inputs to nonzero multiples of the remainders, which changes no
    degree and no gcd.  Entries stay below 2 p^2 < 2^61 in size.

    Each step touches only the columns in use: remainders up to degree d0,
    and cofactors, whose degree top - d1 grows from 0 to about h, up to it.
    Columns past a remainder's degree may hold stale values; none is read.
    Columns past a cofactor's are never written, so they stay zero."""
    n, top = W0.shape[0], d0
    rem = np.zeros((2, n, d0 + 1), dtype=np.int64)  # r_prev, r_cur
    cof = np.zeros((2, n, 2, max(top - h, 0) + 2), dtype=np.int64)  # their (u, v)
    rem[0, :, : W0.shape[1]] = W0
    rem[1, :, : W1.shape[1]] = W1
    cof[0, :, 0, 0] = 1
    cof[1, :, 1, 0] = 1
    tmp_rem, tmp_cof = np.empty_like(rem[0]), np.empty_like(cof[0])
    prev, cur = 0, 1
    rows = np.arange(n)
    steps = 0
    while d1 >= h and d0 - d1 <= 1 and len(rows):
        c, a1 = rem[cur, :, d1].copy(), rem[prev, :, d0].copy()  # P changes in place
        if d0 == d1:
            s, q0, q1 = c, a1, None
        else:
            s, q1 = c * c % p, c * a1 % p
            q0 = (c * rem[prev, :, d0 - 1] - a1 * rem[cur, :, d1 - 1]) % p
        wc = top - d1 + 1
        for buf, tmp, w in ((rem, tmp_rem, d0 + 1), (cof, tmp_cof, wc)):
            # r_next overwrites r_prev
            P, C, T = buf[prev][..., :w], buf[cur][..., :w], tmp[..., :w]
            shape = (-1,) + (1,) * (P.ndim - 1)
            P *= s.reshape(shape)
            np.multiply(C, q0.reshape(shape), out=T)
            P -= T
            if q1 is not None:
                np.multiply(C[..., :-1], q1.reshape(shape), out=T[..., 1:])
                P[..., 1:] -= T[..., 1:]
            np.floor_divide(P, p, out=T)
            T *= p
            P -= T
        prev, cur = cur, prev
        d = d1 - 1
        while d >= 0 and not rem[cur, :, d].any():
            d -= 1
        if d >= 0 and not rem[cur, :, d].all():
            stay = rem[cur, :, d] != 0
            rows, rem, cof = rows[stay], rem[:, stay], cof[:, stay]
            tmp_rem, tmp_cof = tmp_rem[stay], tmp_cof[stay]
        d0, d1 = d1, d
        steps += 1
    return rows, (cof[prev, :, 0], cof[prev, :, 1], cof[cur, :, 0], cof[cur, :, 1]), steps, d0


def _np_lockstep_block(p, R0, R1):
    """_np_monic_gcd's block phase on all row pairs at once: windows run in
    lockstep (_np_window_rows), and each row's matrix is applied by FFT.
    Rows must share their degrees (deg R0 >= deg R1); a row whose degrees
    fall short of the others' leaves, and so does one whose new remainder
    has another degree than its window's (the window lemma rules this out;
    the row's gcd is then left to monic_gcd).  Returns the indices of the
    rows that stayed and their pairs, with deg R0 below _BLOCK_MIN_DEG or
    R1 zero."""
    h = _BLOCK_H
    rows = np.arange(len(R0))
    while R0.shape[1] - 1 >= _BLOCK_MIN_DEG and R1.shape[1] and len(rows):
        d0, d1 = R0.shape[1] - 1, R1.shape[1] - 1
        tau = d0 - 2 * h
        steps = 0
        if d1 > tau:
            kept, (m00, m01, m10, m11), steps, last = _np_window_rows(
                p, R0[:, tau:], d0 - tau, R1[:, tau:], d1 - tau, h
            )
            rows, R0, R1 = rows[kept], R0[kept], R1[kept]
        pairs = []
        for i in range(len(rows)):
            r0, r1 = R0[i], R1[i]
            if steps == 0:
                # wide degree gap: one full division
                t = _np_mul(p, _np_quotient(p, r0, d0, r1, d1), r1)
                nr = r0.copy()
                nr[: len(t)] -= t
                pairs.append((r1, _np_trim(_np_rem(nr, p))))
                continue
            nr0 = _np_add(p, _np_mul(p, _np_trim(m00[i]), r0), _np_mul(p, _np_trim(m01[i]), r1))
            nr1 = _np_add(p, _np_mul(p, _np_trim(m10[i]), r0), _np_mul(p, _np_trim(m11[i]), r1))
            pairs.append((nr0, nr1) if len(nr0) == tau + last + 1 else ((), ()))
        shape = max((len(a), len(b)) for a, b in pairs) if pairs else (0, 0)
        kept = [i for i, (a, b) in enumerate(pairs) if (len(a), len(b)) == shape and len(a)]
        rows = rows[kept]
        R0 = np.array([pairs[i][0] for i in kept], dtype=np.int64).reshape(len(kept), shape[0])
        R1 = np.array([pairs[i][1] for i in kept], dtype=np.int64).reshape(len(kept), shape[1])
        if shape[0] < shape[1]:
            R0, R1 = R1, R0
    return rows, R0, R1


def _np_lockstep_gcd(p, R0, R1):
    """Inverse-free Euclid on all row pairs at once, for rows of residues
    whose degrees are the arrays' widths minus one (deg R0 >= deg R1; R1 may
    be empty).

    Each elimination step replaces r0 by lc(r1) r0 - lc(r0) y^s r1 in every
    row, so entries stay below p^2 < 2^60.  The batch's remainder degree is
    the largest among its rows (a special row can only fall short of the
    generic degree); a row whose remainder falls short leaves.  Returns the
    indices of the rows that stayed and their monic gcds.

    Coefficients are stored one degree per row (transposed), so every step
    works on contiguous memory."""
    r0, r1 = R0.T.copy(), R1.T.copy()
    rows = np.arange(len(R0))
    d1 = len(r1) - 1
    while d1 >= 0 and len(rows):
        lc1 = r1[d1]
        for top in range(len(r0) - 1, d1 - 1, -1):
            head = r0[:top]  # column top cancels exactly and is dropped
            head *= lc1
            head[top - d1 :] -= r1[:d1] * r0[top]
            _np_rem(head, p)
        d = d1 - 1
        while d >= 0 and not r0[d].any():
            d -= 1
        r0 = r0[: d + 1]
        if d >= 0 and not r0[d].all():
            stay = r0[d] != 0
            rows, r0, r1 = rows[stay], r0[:, stay], r1[:, stay]
        r0, r1, d1 = r1, r0, d
    return rows, (r0 * np_powmod(r0[-1:], p - 2, p) % p).T


def monic_gcd_rows(field: Field, U, V):
    """Monic gcds of the row pairs (U[i], V[i]) of two int64 arrays whose rows
    are coefficient vectors of residues, low degree first: (N, width) over
    F_p, (N, width, k) over F_{p^k}.  Returns (G, lockstep): G holds the gcds
    zero-padded to one width, and lockstep counts the rows that finished in
    lockstep.

    On the F_p numpy lane the rows whose leading coefficients are nonzero
    run in lockstep: the block phase while the larger degree is at least
    _BLOCK_MIN_DEG (_np_lockstep_block), then the inverse-free Euclid
    (_np_lockstep_gcd).  They run in batches of at most _LOCKSTEP_ENTRIES
    input coefficients, so the copies a batch makes stay small however wide
    the rows are.  A row that leaves restarts from its inputs in
    monic_gcd; every other lane runs monic_gcd row by row.  Not both rows
    of a pair may be zero."""
    N = len(U)
    done, lockstep = {}, 0
    if lane(field) == LANE_FP_NUMPY and N and min(U.shape[1], V.shape[1]) > 0:
        p = field.p
        if U.shape[1] < V.shape[1]:
            U, V = V, U
        size = max(1, _LOCKSTEP_ENTRIES // U.shape[1])
        for start in range(0, N, size):
            chunk = slice(start, start + size)
            rows = start + np.flatnonzero((U[chunk, -1] != 0) & (V[chunk, -1] != 0))
            kept, R0, R1 = _np_lockstep_block(p, U[rows], V[rows])
            rows = rows[kept]
            kept, G = _np_lockstep_gcd(p, R0, R1)
            done.update(zip(rows[kept].tolist(), G))
        lockstep = len(done)
    generic = lane(field) == LANE_GENERIC
    for i in set(range(N)) - done.keys():
        u, v = (elements(field, U[i]), elements(field, V[i])) if generic else (U[i], V[i])
        done[i] = np.asarray(monic_gcd(field, u, v), dtype=np.int64)
    out = np.zeros((N, max((len(g) for g in done.values()), default=0)) + U.shape[2:], dtype=np.int64)
    for i, g in done.items():
        out[i, : len(g)] = g
    return out, lockstep


# ---------------------------------------------------------------------------
# Ben-Or/Tiwari building blocks
# ---------------------------------------------------------------------------


def berlekamp_massey(field: Field, seq):
    """Minimal monic polynomial annihilating the linear recurrence of seq.

    For seq v_i = sum_j c_j m_j^i with distinct nonzero m_j and c_j != 0 the
    result is prod_j (z - m_j).  Returns [one] for the all-zero sequence.
    """
    seq = list(seq)
    C = [field.one]
    B = [field.one]
    L = 0
    m = 1
    b = field.one
    for n, s in enumerate(seq):
        d = s
        for i in range(1, L + 1):
            if i < len(C):
                d = field.add(d, field.mul(C[i], seq[n - i]))
        if not _nonzero(d):
            m += 1
            continue
        coef = field.mul(d, field.inv(b))
        if 2 * L <= n:
            T = list(C)
            if len(C) < len(B) + m:
                C = C + [field.zero] * (len(B) + m - len(C))
            for i, bi in enumerate(B):
                C[i + m] = field.sub(C[i + m], field.mul(coef, bi))
            L = n + 1 - L
            B = T
            b = d
            m = 1
        else:
            if len(C) < len(B) + m:
                C = C + [field.zero] * (len(B) + m - len(C))
            for i, bi in enumerate(B):
                C[i + m] = field.sub(C[i + m], field.mul(coef, bi))
            m += 1
    C = C + [field.zero] * (L + 1 - len(C))
    lam = list(reversed(C[: L + 1]))
    return lam


def _equal_degree_split(field: Field, g, rng: random.Random):
    """Split a product of distinct linear factors into two proper factors."""
    q = field.order
    while True:
        if q % 2 == 1:
            delta = field.rand(rng)
            h = list(poly_powmod(field, [delta, field.one], (q - 1) // 2, g))
            if not h:
                h = [field.zero]
            h[0] = field.sub(h[0], field.one)
            h = trim(h)
        else:
            # char 2: trace map sum of (c x)^(2^i) over i < log2(q)
            c = field.rand_unit(rng)
            term = [field.zero, c]
            acc = list(term)
            for _ in range(q.bit_length() - 2):
                term = poly_mulmod(field, term, term, g)
                n = max(len(acc), len(term))
                acc = [
                    field.add(
                        acc[i] if i < len(acc) else field.zero,
                        term[i] if i < len(term) else field.zero,
                    )
                    for i in range(n)
                ]
            acc = trim(acc)
            h = acc
        if not h:
            continue
        w = monic_gcd(field, h, g)
        if 0 < len(w) - 1 < len(g) - 1:
            return w


def find_roots(field: Field, f, rng: random.Random):
    """All roots of f in the field; f must be squarefree with every root in
    the field, else RootDeficit is raised (a bad evaluation point upstream)."""
    f = monic(field, list(f))
    if not f:
        raise InvalidInput("zero polynomial")
    n = len(f) - 1
    if n == 0:
        return []
    # keep only the part that splits into distinct linear factors
    xq = poly_powmod(field, [field.zero, field.one], field.order, f)
    xq = list(xq) + [field.zero] * max(0, 2 - len(xq))
    xq[1] = field.sub(xq[1], field.one)
    diff = trim(xq)
    g = monic_gcd(field, diff, f) if diff else monic(field, f)
    if len(g) - 1 < n:
        raise RootDeficit(f"only {len(g) - 1} of {n} roots lie in the field")
    roots = []
    stack = [g]
    while stack:
        h = stack.pop()
        d = len(h) - 1
        if d == 0:
            continue
        if d == 1:
            roots.append(field.neg(h[0]))
            continue
        w = _equal_degree_split(field, h, rng)
        other, rem = poly_divmod(field, h, w)
        if rem:
            raise ArithmeticError("split factor does not divide")
        stack.append(w)
        stack.append(monic(field, other))
    if len(roots) != n:
        raise RootDeficit(f"found {len(roots)} of {n} roots")
    return roots


def solve_transposed_vandermonde(field: Field, nodes, values):
    """Solve sum_j c_j m_j^i = v_i for i = 1..t; nodes distinct and nonzero."""
    t = len(nodes)
    if len(values) < t:
        raise InvalidInput("need at least t values")
    if t == 0:
        return []
    if len(set(nodes)) != t or any(not _nonzero(m) for m in nodes):
        raise SingularSystem("nodes must be distinct and nonzero")
    # master polynomial prod (z - m_j)
    P = [field.one]
    for m in nodes:
        nxt = [field.zero] * (len(P) + 1)
        for i, c in enumerate(P):
            nxt[i + 1] = field.add(nxt[i + 1], c)
            nxt[i] = field.sub(nxt[i], field.mul(c, m))
        P = nxt
    out = []
    for m in nodes:
        # Q = P / (z - m) by synthetic division; then c~ = Q(v) / Q(m)
        Q = [field.zero] * t
        acc = P[t]
        for i in range(t - 1, -1, -1):
            Q[i] = acc
            acc = field.add(P[i], field.mul(acc, m))
        denom = poly_eval(field, Q, m)
        if not _nonzero(denom):
            raise SingularSystem("repeated node")
        num = field.zero
        for i in range(t):
            num = field.add(num, field.mul(Q[i], values[i]))
        c_scaled = field.mul(num, field.inv(denom))
        out.append(field.mul(c_scaled, field.inv(m)))
    return out
