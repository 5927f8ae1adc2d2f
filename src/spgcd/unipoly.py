"""Dense univariate polynomial arithmetic over the active field.

Polynomials are coefficient vectors, low degree first.  berlekamp_massey
takes one sequence of field elements.  monic_gcd, root finding and the
transposed Vandermonde solve take only batches: int64 arrays of residues
with one polynomial (or pair, or system) per row, zero-padded to one width
((N, width) over F_p, (N, width, k) over F_{p^k}), and give batches back.
They run on the field's kernel (``field.kernel``), so on every lane alike:
the F_p and F_{p^k} kernels, and the wide kernels on python ints past their
bounds.  A batch of root findings shares one _Moduli, which keeps one row
per polynomial, each its own modulus.

monic_gcd has one Euclid for every row of a batch.  The rows run in
lockstep, since at generic points they share one remainder degree
sequence.  On the F_p numpy lane (int64 residues of F_p, element shape ()),
while degrees are _BLOCK_MIN_DEG or more, a block phase extracts quotients
from a window of the top coefficients of all rows at once (they agree with
the true quotients while remainder degrees stay in the window's upper
half) and applies each row's 2x2 transition matrix to its full vectors by
FFT.  Below it, and on every other kernel, the Euclid runs on the whole
rows with the kernel's unreduced products (``product``) and one reduction
per step (``reduce``).  Both phases are inverse-free: with c the divisor's
leading coefficient, one pass r0 <- c^2 r0 - (y q1 + q0) y^s r1 cancels
two quotient coefficients (so a quotient of degree one takes one pass), a
last single one takes r0 <- c r0 - a r1, each product lies in [0, 2^62) so
the sums stay inside int64, and one inversion per row at the end makes the
results monic.  A row whose remainder degree departs from the batch's, or
whose leading coefficient vanishes, is finished from its inputs as a batch
of one.  Rows run in batches of at most _LOCKSTEP_ENTRIES coefficients,
which bounds the copies on wide rows.  The tests compare with a Euclid on
field elements (tests/reference.py).
"""

from __future__ import annotations

import random

import numpy as np

from .errors import InvalidInput
from .field import LANE_FP_NUMPY, Field, nonzero

_FFT_MAX_P = 1 << 24  # 8-bit digit split keeps FFT rounding below 1/4
_FFT_MIN_SIZE = 24_000  # MAC count under which np.convolve wins
_BLOCK_H = 512  # Lehmer window half-size
_BLOCK_MIN_DEG = 3 * _BLOCK_H  # no block phase below this degree
_LOCKSTEP_ENTRIES = 1 << 16  # rows x width of one lockstep batch, rows x table of one _Moduli product


def _power(mul, one, base, e: int):
    """base^e by left-to-right square-and-multiply under the product mul,
    for base already reduced."""
    if not e:
        return one
    result = base
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


# ---------------------------------------------------------------------------
# One Euclid for a batch of pairs, on the field's kernel
# ---------------------------------------------------------------------------


def _live(a):
    """Mask, along a's first axis, of its nonzero elements (the axes after
    the first hold one element each)."""
    return a.any(axis=tuple(range(1, a.ndim)))


def _np_trim(a):
    """a without its trailing zero elements."""
    live = np.flatnonzero(_live(a))
    return a[: live[-1] + 1] if len(live) else a[:0]


def _planes(a, N):
    """Size-N real FFTs of the three 8-bit digit planes of a (p < 2^24)."""
    return [np.fft.rfft(x, N) for x in (a & 0xFF, (a >> 8) & 0xFF, a >> 16)]


def _fft_sum(p, products, n, N):
    """First n coefficients of the sum of a b mod p over the pairs (a, b) in
    products, each given as its _planes of size N (exact for p < 2^24).

    A rounding residual above 0.25 would signal precision loss; the digit
    split keeps the true bound orders of magnitude below that, and the
    check turns any violation into an ArithmeticError rather than bad data.
    """
    out = np.zeros(n, dtype=np.int64)
    shift = 1
    for k in range(5):
        acc = 0
        for fa, fb in products:
            for i in range(max(0, k - 2), min(2, k) + 1):
                acc = acc + fa[i] * fb[k - i]
        c = np.fft.irfft(acc, N)[:n]
        r = np.rint(c)
        if np.max(np.abs(c - r)) > 0.25:
            raise ArithmeticError("fft rounding out of tolerance")
        out += (r.astype(np.int64) % p) * shift % p
        shift = shift * 256 % p
    return out % p


def _np_mul(p, a, b):
    """Product of int64 coefficient vectors mod p by sliced np.convolve,
    overflow-safe: _np_apply's products where its FFT does not apply."""
    if not len(a) or not len(b):
        return np.zeros(0, dtype=np.int64)
    la, lb = len(a), len(b)
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


def _np_apply(p, m, r0, r1):
    """(m00 r0 + m01 r1, m10 r0 + m11 r1) mod p, untrimmed, for a window
    matrix m = (m00, m01, m10, m11) of vectors of one length and len(r0) >=
    len(r1).  By FFT, r0, r1 and the four entries are transformed once and
    each sum is inverted once: 28 transforms where four products take 44."""
    n = len(m[0]) + len(r0) - 1
    if p < _FFT_MAX_P and len(m[0]) * len(r0) >= _FFT_MIN_SIZE:
        N = 1 << (n - 1).bit_length()
        f0, f1 = _planes(r0, N), _planes(r1, N)
        fm = [_planes(x, N) for x in m]
        try:
            return _fft_sum(p, [(fm[0], f0), (fm[1], f1)], n, N), _fft_sum(p, [(fm[2], f0), (fm[3], f1)], n, N)
        except ArithmeticError:
            pass
    out = []
    for a, b in ((m[0], m[1]), (m[2], m[3])):
        x, y = _np_mul(p, a, r0), _np_mul(p, b, r1)
        x[: len(y)] += y
        out.append(x % p)
    return out


def _top_degree(M, d):
    """The largest e <= d whose elements M[e] (one per row) are not all
    zero, -1 if none, and the mask of the rows nonzero there, or None when
    all are."""
    while d >= 0:
        live = M[d] if M.ndim == 2 else _live(M[d])
        count = np.count_nonzero(live)
        if count:
            return d, None if count == len(live) else live != 0
        d -= 1
    return d, None


def _np_window_rows(p, W0, W1, h):
    """Euclid with transition-matrix recording on the coefficient windows of
    all rows at once, for rows whose window degrees are the arrays' widths
    minus one (deg W0 >= deg W1).  Steps run while the divisor's window
    degree stays >= h, which keeps the quotients equal to the true ones; a
    row whose remainder degree falls short of the others' leaves.  Returns
    the indices of the rows that stayed, the window degree of their last
    divisor and their matrix rows (u_prev, v_prev, u_cur, v_cur).

    Steps are inverse-free.  With c y^d1 + e y^(d1-1) + ... the divisor and
    a y^t + b y^(t-1) + ... the dividend, one pass cancels two quotient
    coefficients, r_prev <- c^2 r_prev - (c a y + c b - a e) y^(t-1-d1)
    r_cur, and a last single one takes r_prev <- c r_prev - a r_cur.  So
    the matrix maps the inputs to nonzero multiples of the remainders,
    which changes no degree and no gcd, and entries stay below 2 p^2 <
    2^61 in size.

    Each row holds u, v and then r, so a step is one pass over contiguous
    memory; a shift by y^s moves coefficients along the flattened rows.
    Every coefficient past a remainder's or a cofactor's degree is zero,
    and each of u, v and r gets more columns than a shift fills, so a shift
    carries only zeros from one into the next."""
    n, top, d0, d1 = len(W0), W0.shape[1] - 1, W0.shape[1] - 1, W1.shape[1] - 1
    wc = max(top - h, 0) + 2  # cofactor degrees stay below top - h
    buf = np.zeros((2, n, 2 * wc + top + 2), dtype=np.int64)  # (u, v, r) of r_prev, r_cur
    R = buf[..., 2 * wc :]
    R[0, :, : top + 1] = W0
    R[1, :, : d1 + 1] = W1
    buf[0, :, 0] = 1
    buf[1, :, wc] = 1
    tmp = np.empty_like(buf[0])
    prev, cur = 0, 1
    rows = np.arange(n)
    p_arr = np.array(p)  # numpy takes a 0-d array operand faster than an int

    def eliminate(scale, q0, q1, shift):
        # r_prev <- scale r_prev - (q0 + y q1) y^shift r_cur in place, cofactors
        # alike; scale, q0 and q1 hold one value per row, as (n, 1) arrays
        P, T = buf[prev], tmp
        P *= scale
        flat_P, flat_T = P.reshape(-1), T.reshape(-1)
        for s, q in ((shift, q0), (shift + 1, q1)):
            if q is not None:
                np.multiply(buf[cur], q, out=T)
                flat_P[s:] -= flat_T[: flat_T.size - s]
        np.floor_divide(P, p_arr, out=T)
        T *= p_arr
        P -= T

    while d1 >= h and len(rows):
        c = R[cur, :, d1, None].copy()
        e = R[cur, :, d1 - 1, None] if d1 else 0
        t = d0
        while t > d1:  # two quotient coefficients a y^(t-d1) + b y^(t-1-d1) per pass
            a, b = R[prev, :, t, None], R[prev, :, t - 1, None]
            eliminate(c * c % p_arr, (c * b - a * e) % p_arr, c * a % p_arr, t - 1 - d1)
            t -= 2
        if t == d1:
            eliminate(c, R[prev, :, t, None].copy(), None, 0)
        prev, cur = cur, prev
        d, stay = _top_degree(R[cur].T, d1 - 1)
        if stay is not None:  # copy() keeps buf C-contiguous, so reshape(-1) is a view
            rows, buf, tmp = rows[stay], buf[:, stay].copy(), tmp[stay]
            R = buf[..., 2 * wc :]
        d0, d1 = d1, d
    return rows, d0, (buf[prev, :, :wc], buf[prev, :, wc : 2 * wc], buf[cur, :, :wc], buf[cur, :, wc : 2 * wc])


def _np_lockstep_block(p, R0, R1):
    """The block phase on all row pairs at once, while deg R0 >= _BLOCK_MIN_DEG:
    Euclid on windows of the top 2H + 1 coefficients while remainder degrees
    stay in the window's upper half, so the quotients are the true ones, and
    each row's matrix applied to its full vectors (_np_apply).  H is
    _BLOCK_H, except that a first quotient of degree g >= 2 (where the input
    degrees differ) takes a window of H = g to itself.  Rows must share
    their degrees (deg R0 >= deg R1); a row whose degrees fall short of the
    others' leaves, and so does one whose new remainder has another degree
    than its window's (the window lemma rules this out).  Returns the
    indices of the rows that stayed and their pairs, with deg R0 below
    _BLOCK_MIN_DEG or R1 zero."""
    rows = np.arange(len(R0))
    while R0.shape[1] - 1 >= _BLOCK_MIN_DEG and R1.shape[1] and len(rows):
        d0, d1 = R0.shape[1] - 1, R1.shape[1] - 1
        H = d0 - d1 if d0 - d1 > 1 else _BLOCK_H
        tau = max(d0 - 2 * H, 0)  # a window that reaches degree 0 is exact
        kept, last, m = _np_window_rows(p, R0[:, tau:], R1[:, tau:], min(H, d1 - tau))
        rows, R0, R1 = rows[kept], R0[kept], R1[kept]
        pairs = []
        for i in range(len(rows)):
            nr0, nr1 = (_np_trim(r) for r in _np_apply(p, [x[i] for x in m], R0[i], R1[i]))
            pairs.append((nr0, nr1) if len(nr0) == tau + last + 1 else ((), ()))
        shape = max((len(a), len(b)) for a, b in pairs) if pairs else (0, 0)
        kept = [i for i, (a, b) in enumerate(pairs) if (len(a), len(b)) == shape and len(a)]
        rows = rows[kept]
        R0 = np.array([pairs[i][0] for i in kept], dtype=np.int64).reshape(len(kept), shape[0])
        R1 = np.array([pairs[i][1] for i in kept], dtype=np.int64).reshape(len(kept), shape[1])
        if shape[0] < shape[1]:  # nr0 is r1 itself when deg r0 = deg r1
            R0, R1 = R1, R0
    return rows, R0, R1


def _lockstep_euclid(kern, R0, R1):
    """Monic gcds of all row pairs at once on the kernel kern, for rows of
    elements whose degrees are the arrays' widths minus one (deg R0 >= deg
    R1; R1 may be empty): an inverse-free Euclid on the whole rows, with
    steps as in _np_window_rows.  Each step sums three products, each in [0,
    2^62) (kern.product), and reduces once, so entries stay inside int64.
    The batch's remainder degree is the largest among its rows (a special
    row can only fall short of the generic degree); a row whose remainder
    falls short leaves.  Returns the indices of the rows that stayed and
    their monic gcds.

    Coefficients are stored one degree per row (the first two axes
    swapped): a step touches only the degrees below the divisor's, a
    contiguous prefix."""
    r0, r1 = np.swapaxes(R0, 0, 1).copy(), np.swapaxes(R1, 0, 1).copy()
    rows = np.arange(len(R0))
    d1 = len(r1) - 1
    matrices, product, reduce = kern.matrices, kern.product, kern.reduce
    while d1 >= 0 and len(rows):
        c = matrices(r1[d1])
        top = len(r0) - 1
        if top > d1:
            cc = matrices(reduce(product(c, r1[d1])))
            e = matrices(r1[d1 - 1]) if d1 else None
        while top > d1:  # two quotient coefficients per pass, as in _np_window_rows
            s = top - 1 - d1
            q = product(c, r0[top - 1 : top + 1])  # c b, c a
            if e is not None:
                q[0] -= product(e, r0[top])
            q = matrices(reduce(q))
            head = r0[: top - 1]  # degrees top - 1 and top cancel exactly and are dropped
            product(cc, head, out=head)
            head[s:] -= product(q[0], r1[:d1])
            head[s + 1 :] -= product(q[1], r1[: d1 - 1])
            reduce(head)
            top -= 2
        if top == d1:
            head = r0[:top]
            product(c, head, out=head)
            head -= product(matrices(r0[top]), r1[:d1])
            reduce(head)
        d, stay = _top_degree(r0, d1 - 1)
        r0 = r0[: d + 1]
        if stay is not None:
            rows, r0, r1 = rows[stay], r0[:, stay], r1[:, stay]
        r0, r1, d1 = r1, r0, d
    if len(r0):  # else every row left the block phase
        r0 = kern.mul(kern.inv(r0[-1]), r0)
    return rows, np.swapaxes(r0, 0, 1)


def _lockstep_gcd(kern, R0, R1):
    """_lockstep_euclid, after the block phase on the F_p numpy lane (the
    phase's FFT products need its int64 residues) when the rows are wide
    enough.  Returns the indices of the rows that stayed and their monic
    gcds."""
    rows = np.arange(len(R0))
    if kern.lane == LANE_FP_NUMPY and R0.shape[1] - 1 >= _BLOCK_MIN_DEG:
        rows, R0, R1 = _np_lockstep_block(kern.p, R0, R1)
    kept, G = _lockstep_euclid(kern, R0, R1)
    return rows[kept], G


def _monic_gcd_alone(kern, u, v):
    """The monic gcd of one pair of coefficient vectors, as a batch of one
    row.  Should the row leave the block phase (only a window result of an
    unexpected degree makes it), the Euclid finishes it on the whole rows."""
    r0, r1 = _np_trim(u), _np_trim(v)
    if len(r0) < len(r1):
        r0, r1 = r1, r0
    if not len(r0):
        raise InvalidInput("gcd(0, 0) undefined")
    kept, G = _lockstep_gcd(kern, r0[None], r1[None])
    if not len(kept):
        kept, G = _lockstep_euclid(kern, r0[None], r1[None])
    return G[0]


def monic_gcd(field: Field, U, V):
    """Monic generators of the ideals (u, v), one pair (u, v) per row of U
    and V: int64 arrays whose rows are coefficient vectors of residues, low
    degree first, (N, width) over F_p and (N, width, k) over F_{p^k}.
    Returns (G, lockstep): G holds the gcds zero-padded to one width, and
    lockstep counts the rows that finished in the shared pass (those whose
    leading coefficients are nonzero and whose remainder degrees never left
    the batch's).  No pair of rows may be both zero."""
    kern = field.kernel
    U, V = kern.batch(U, 2, "U"), kern.batch(V, 2, "V")
    N = len(U)
    if len(V) != N:
        raise InvalidInput("U and V must hold one row per pair")
    if U.shape[1] < V.shape[1]:
        U, V = V, U
    done = {}
    if N and V.shape[1]:
        lead = _live(U[:, -1]) & _live(V[:, -1])
        size = max(1, _LOCKSTEP_ENTRIES // U[0].size)
        for start in range(0, N, size):
            rows = start + np.flatnonzero(lead[start : start + size])
            kept, G = _lockstep_gcd(kern, U[rows], V[rows])
            if len(kept) == N:  # one chunk, and every row stayed in lockstep
                return G, N
            done.update(zip(rows[kept].tolist(), G))
    lockstep = len(done)
    for i in set(range(N)) - done.keys():
        done[i] = _monic_gcd_alone(kern, U[i], V[i])
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
        if d == field.zero:
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


class _Moduli:
    """Residues modulo monic polynomials f_r, one per row, on a field
    kernel: (rows, n, *shape) int64 arrays, n the largest deg f_r, row r
    zero from deg f_r on.  A product sums the outer product a_i b_j along
    its antidiagonals (one gather and one reduceat) and reduces the result
    through the row's table of y^m mod f_r, m < 2n - 1: O(n^2) work a row
    and a few array operations a batch, in batches of at most
    _LOCKSTEP_ENTRIES table entries."""

    def __init__(self, kern, F, degs):
        """F: (rows, n + 1, *shape) monic polynomials of degrees degs, zero-padded."""
        rows, n = F.shape[0], F.shape[1] - 1
        at = np.arange(rows)
        table = np.zeros((rows, 2 * n - 1) + F.shape[1:], dtype=np.int64)  # y^m mod f_r
        table[:, 0, 0] = kern.unit
        for m in range(1, 2 * n - 1):
            table[:, m, 1:] = table[:, m - 1, :n]  # y^(m-1) mod f_r has degree < deg f_r <= n
            table[:, m] = (table[:, m] - kern.mul(table[at, m, degs][:, None], F)) % kern.p
        self.kern, self.n = kern, n
        self.reduce = kern.matrices(np.ascontiguousarray(np.swapaxes(table[:, :, :n], 1, 2)))
        diagonal = np.add.outer(np.arange(n), np.arange(n)).ravel()  # i + j of entry i n + j
        self.order = np.argsort(diagonal, kind="stable")
        self.starts = np.searchsorted(diagonal[self.order], np.arange(2 * n - 1))

    def rows(self, idx) -> _Moduli:
        """The moduli of the rows idx (repeats allowed)."""
        out = object.__new__(_Moduli)
        out.kern, out.n, out.order, out.starts = self.kern, self.n, self.order, self.starts
        out.reduce = self.reduce[idx]
        return out

    def mulmod(self, a, b, rows=None):
        """a b mod f_r, with r = rows[i] for row i of a and b (default i)."""
        n = self.n
        size = max(1, _LOCKSTEP_ENTRIES // (n * (2 * n - 1)))
        if len(a) <= size:
            return self._mulmod(a, b, self.reduce if rows is None else self.reduce[rows])
        rows = np.arange(len(a)) if rows is None else rows
        return np.concatenate(
            [self._mulmod(a[i : i + size], b[i : i + size], self.reduce[rows[i : i + size]]) for i in range(0, len(a), size)]
        )

    def _mulmod(self, a, b, reduce):
        kern = self.kern
        ab = kern.mul(a[:, :, None], b[:, None, :]).reshape((len(a), -1) + a.shape[2:])
        c = kern.sum(ab[:, self.order], 1, self.starts)
        return kern.sum(kern.apply(reduce, c[:, None]), axis=2)


def find_roots(field: Field, f, rng: random.Random):
    """All roots in the field of each polynomial of a batch: f an int64
    array of nonzero polynomials, one per row, low degree first and
    zero-padded, (N, width) over F_p and (N, width, k) over F_{p^k}.
    Returns (roots, split, rounds): split[r] tells whether f_r is a product
    of distinct linear factors, roots (N, width - 1[, k]) then holds its
    roots in the first deg f_r entries of row r (else zeros), and rounds
    counts the split rounds.

    Cantor-Zassenhaus (von zur Gathen & Gerhard, ch. 14) on all rows at
    once, on the field's kernel.  A linear row gives its root at once.
    Each round takes c copies of every pending row f, each with its own
    delta, and raises w = (y + delta)^((q - 1)/2) mod f for all of them in
    one batched square-and-multiply (_Moduli).  Over F_{p^k}, (q - 1)/2 =
    (p - 1)/2 (1 + p + ... + p^(k - 1)), so w is the product of the
    conjugates u^(p^i) of u = (y + delta)^((p - 1)/2): a conjugate's
    coefficients raised to the p, with y replaced by y^p mod f, gives the
    next, which costs one product instead of log p.  At a root r, w is the
    quadratic character of r + delta: 1, -1 or 0.  So (w^2 + w)/2, (w^2 -
    w)/2 and 1 - w^2 are idempotents of F[y]/(f) that split its roots three
    ways; unless some r + delta is 0, w^2 = 1 and the second is 1 minus the
    first, so a split costs one product (in characteristic 2, w is the
    trace of delta y, 0 or 1 at a root, and w, 1 - w split them two ways).
    Their products over the c copies are the idempotents E of the roots'
    classes of equal signs; a class holds one root r exactly when y E =
    r E, and a row is done when each of its deg f classes does.  In the
    first round c is the smallest with 2^c >= 2 d^2, d the largest degree
    pending, so some pair of a row's roots shares all its signs with
    probability at most 1/4; a row not done is taken again, whole, in the
    next round, with one copy more.  The
    first round is also the split test: f splits into distinct roots iff
    f | y^q - y, and with b = y + delta (b = delta y in characteristic 2)
    y^q = y iff b^q = b, where b^q is w^2 b (the last trace term squared).
    """
    kern, p, q = field.kernel, field.p, field.order
    F = kern.batch(f, 2, "f") % p
    N, width, elt = len(F), F.shape[1], F.shape[2:]
    support = nonzero(field, F)
    if not support.any(axis=1).all():
        raise InvalidInput("zero polynomial")
    degs = width - 1 - np.argmax(support[:, ::-1], axis=1)
    lc = F[np.arange(N), degs]
    if (lc != kern.unit).any():
        F = kern.mul(kern.inv(lc)[:, None], F)
    roots = np.zeros((N, width - 1) + elt, dtype=np.int64)
    split = np.ones(N, dtype=bool)
    linear = np.flatnonzero(degs == 1)
    if len(linear):
        roots[linear, 0] = -F[linear, 0] % p
    pending = np.flatnonzero(degs > 1)
    rounds = 0
    while len(pending):
        rounds += 1
        d = degs[pending]
        n, c = int(d.max()), int(d.max() ** 2 - 1).bit_length() + rounds
        mod = _Moduli(kern, F[pending, : n + 1], d)
        of = np.repeat(np.arange(len(pending)), c)  # the row of each copy
        copies = mod.rows(of)
        one = np.zeros((len(pending), n) + elt, dtype=np.int64)
        one[:, 0] = kern.unit
        y = np.roll(one, 1, axis=1)
        base = y[of]
        if q % 2:
            base[:, 0] = kern.array([field.rand(rng) for _ in base])
            w = conj = _power(copies.mulmod, one[of], base, (p - 1) // 2)
            if field.k > 1:  # (q - 1)/2 = (p - 1)/2 (1 + p + ... + p^(k - 1))
                Y = [one, _power(mod.mulmod, one, y, p)]  # (y^p)^j mod f
                while len(Y) < n:
                    Y.append(mod.mulmod(Y[-1], Y[1]))
                Y = np.stack(Y, axis=1)[of]
                for _ in range(field.k - 1):  # conj <- conj^p
                    conj = kern.sum(kern.mul(kern.conjugate(conj)[:, :, None], Y), axis=1)
                    w = copies.mulmod(w, conj)
            w2 = copies.mulmod(w, w)
            frob = copies.mulmod(w2, base)
            half = kern.unit * ((p + 1) // 2) % p
            plus, minus = kern.mul(half, (w2 + w) % p), kern.mul(half, (w2 - w) % p)
            zeros = nonzero(field, w2 - one[of]).any(axis=1)  # copies with a character 0, w^2 != 1
        else:
            base[:, 1] = kern.array([field.rand_unit(rng) for _ in base])
            w = term = base
            for _ in range(q.bit_length() - 2):
                term = copies.mulmod(term, term)
                w = (w + term) % p
            frob = copies.mulmod(term, term)
            plus, minus, zeros = w, None, np.zeros(len(base), dtype=bool)
        if rounds == 1:
            ok = ~nonzero(field, frob - base).any(axis=1).reshape(len(pending), c).all(axis=1)
            split[pending[~ok]] = False
        # class idempotents: split every class by each copy in turn, into
        # E plus, E minus and E (1 - w^2), which is zero unless w^2 != 1
        E, owner = one, np.arange(len(pending))
        for j in range(c):
            at = owner * c + j
            cut = mod.mulmod(E, plus[at], owner)
            other = (E - cut) % p
            extra = np.flatnonzero(zeros[at])
            if len(extra):
                other[extra] = mod.mulmod(E[extra], minus[at[extra]], owner[extra])
            E = np.concatenate([cut, other, (E - cut - other) % p])
            owner = np.tile(owner, 3)
            live = nonzero(field, E).any(axis=1)
            E, owner = E[live], owner[live]
        yE = mod.mulmod(E, y[owner], owner)
        first = np.arange(len(E)), np.argmax(nonzero(field, E), axis=1)
        r = kern.mul(yE[first], kern.inv(E[first]))
        single = ~nonzero(field, yE - kern.mul(r[:, None], E)).any(axis=1)
        done = ok if rounds == 1 else np.ones(len(pending), dtype=bool)
        done &= np.bincount(owner, minlength=len(pending)) == d
        done &= np.bincount(owner, weights=~single, minlength=len(pending)) == 0
        for i in np.flatnonzero(done):
            roots[pending[i], : d[i]] = r[owner == i]
        pending = pending[~done & split[pending]]
    roots[~split] = 0
    return roots, split, rounds


def solve_transposed_vandermonde(field: Field, nodes, values):
    """Solve sum_j c_j m_j^i = v_i for i = 1..t, for a batch of systems:
    nodes an int64 array (L, t[, k]) of L node sets, each set's nodes
    first and zeros after them, and values (L, R, t[, k]), R
    right-hand sides per set.  The R systems of a set share its master
    polynomial P = prod (z - m_j) and the quotients Q_j = P / (z - m_j)
    (Kaltofen & Yagati, ISSAC 1988): c_j = sum_i Q_ji v_(i+1) / (m_j
    Q_j(m_j)).  Returns the coefficients (L, R, t[, k]), zero at the
    padding; a repeated node gets zero coefficients.
    """
    kern, p = field.kernel, field.p
    nodes, values = kern.batch(nodes, 2, "nodes"), kern.batch(values, 3, "values")
    L, t, elt = nodes.shape[0], nodes.shape[1], nodes.shape[2:]
    lift = (1,) * len(elt)
    real = nonzero(field, nodes)
    P = np.zeros((L, t + 1) + elt, dtype=np.int64)
    P[:, 0] = kern.unit
    for j in range(t):
        grown = (np.roll(P, 1, axis=1) - kern.mul(nodes[:, j, None], P)) % p
        P = np.where(real[:, j].reshape((L, 1) + lift), grown, P)
    Q = np.empty((L, t, t) + elt, dtype=np.int64)  # Q[l, j, i]: coefficient i of Q_j
    acc = np.broadcast_to(P[:, t, None], (L, t) + elt)
    for i in range(t - 1, -1, -1):  # synthetic division by z - m_j
        Q[:, :, i] = acc
        acc = (P[:, i, None] + kern.mul(nodes, acc)) % p
    num = kern.sum(kern.mul(Q[:, None], values[:, :, None, :t]), axis=3)
    powers = np.moveaxis(kern.powers(nodes, t)[1:], 0, 2)  # m_j^(i+1)
    den = kern.sum(kern.mul(Q, powers), axis=2)
    return kern.mul(num, kern.inv(den)[:, None]) * real.reshape((L, 1, t) + lift)
