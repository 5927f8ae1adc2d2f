"""The batch form of monic_gcd against the Euclid on field elements.

Rows are built as g * a and g * b with one common g per batch, so at large p
they follow one remainder degree sequence and run in lockstep.  Some rows get
a planted disturbance that makes them leave the lockstep Euclid: an extra
common factor, a vanishing leading coefficient, a remainder that vanishes
early, or a first remainder two degrees short.  Fields sit on both sides of
each kernel's bound: p < 2^30 for the F_p kernel, (p - 1)^2 k < 2^62 for the
F_{p^k} kernel, and the wide kernels past them.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spgcd.engine import GcdConfig, gcd
from spgcd.field import (
    LANE_FP_NUMPY,
    LANE_FPK_KERNEL,
    LANE_WIDE,
    ExtField,
    ExtKernel,
    PrimeField,
    elements,
    find_irreducible,
    is_probable_prime,
)
from spgcd.instances import gen_triple
from spgcd.sparse import lex_monic
from spgcd import unipoly
from spgcd.unipoly import _BLOCK_MIN_DEG, _np_mul, monic_gcd, trim

import reference
from reference import generic_monic_gcd, monic


def largest_prime_below(n):
    p = n - 1
    while not is_probable_prime(p):
        p -= 1
    return p


def first_prime_past(n):
    p = n + 1
    while not is_probable_prime(p):
        p += 1
    return p


def ext_field(p, k):
    return ExtField(p, find_irreducible(p, k, random.Random(p + k)))


FP_EDGE = 1 << 30  # the F_p kernel takes p below it
EXT_EDGE = math.isqrt(((1 << 62) - 1) // 2) + 1  # the largest p with 2 (p - 1)^2 < 2^62
PRIMES = (2, 3, 101, 10000019, largest_prime_below(FP_EDGE), first_prime_past(FP_EDGE))
EXT_FIELDS = (
    ext_field(2, 4),
    ext_field(3, 3),
    ext_field(101, 3),
    ext_field(largest_prime_below(EXT_EDGE + 1), 2),  # the F_{p^k} kernel's largest p at k = 2
    ext_field(first_prime_past(EXT_EDGE), 2),  # the wide kernel
)
KINDS = ("generic", "extra_factor", "lc_vanishes", "early_zero", "short_remainder")


def rand_poly(field, deg, rng):
    """Random polynomial of exactly degree deg."""
    return [field.rand(rng) for _ in range(deg)] + [field.rand_unit(rng)]


def poly_add(field, a, b):
    n = max(len(a), len(b))
    a, b = a + [field.zero] * (n - len(a)), b + [field.zero] * (n - len(b))
    return [field.add(x, y) for x, y in zip(a, b)]


def poly_mul(field, a, b):
    """Product by the F_p numpy lane's multiplication (FFT for wide rows),
    or by the test reference's over F_{p^k}."""
    if isinstance(field, ExtField):
        return reference.poly_mul(field, a, b)
    return trim(_np_mul(field.p, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)).tolist())


def planted_row(field, kind, g, du, dv, rng):
    """(u, v) with deg u = du + deg g and deg v = dv + deg g (du >= dv >= 2),
    except where the kind lowers one of them."""
    a, b = rand_poly(field, du, rng), rand_poly(field, dv, rng)
    if kind == "extra_factor":
        h = rand_poly(field, 1, rng)
        a = poly_mul(field, h, rand_poly(field, du - 1, rng))
        b = poly_mul(field, h, rand_poly(field, dv - 1, rng))
    elif kind == "early_zero":
        a = poly_mul(field, b, rand_poly(field, du - dv, rng))  # b divides a
    elif kind == "short_remainder":
        q = rand_poly(field, du - dv, rng)
        a = poly_add(field, poly_mul(field, q, b), rand_poly(field, dv - 2, rng))
    u, v = poly_mul(field, g, a), poly_mul(field, g, b)
    if kind == "lc_vanishes":
        (u if rng.random() < 0.5 else v)[-1] = field.zero
    return u, v


def as_rows(field, polys, width):
    kern = field.kernel
    out = np.zeros((len(polys), width) + kern.shape, dtype=np.int64)
    for row, f in zip(out, polys):
        row[: len(f)] = kern.array(f)
    return out


def check_rows(field, U, V):
    G, lockstep = monic_gcd(field, U, V)
    assert 0 <= lockstep <= len(U)
    for i in range(len(U)):
        want = generic_monic_gcd(field, elements(field, U[i]), elements(field, V[i]))
        assert elements(field, G[i, : len(want)]) == want, i
        assert not G[i, len(want) :].any(), i
    return lockstep


def planted_batch(field, kinds, dg, du, dv, seed):
    """The field (a prime p for F_p) and the rows of a planted batch."""
    field = PrimeField(field) if isinstance(field, int) else field
    rng = random.Random(seed)
    g = rand_poly(field, dg, rng)
    pairs = [planted_row(field, kind, g, du, dv, rng) for kind in kinds]
    U = as_rows(field, [u for u, _ in pairs], du + dg + 1)
    V = as_rows(field, [v for _, v in pairs], dv + dg + 1)
    return field, U, V


@settings(max_examples=120, deadline=None, database=None)
@given(
    p=st.sampled_from(PRIMES),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=8),
    dg=st.integers(0, 6),
    du=st.integers(3, 14),
    gap=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_rows_match_monic_gcd(p, kinds, dg, du, gap, seed):
    field, U, V = planted_batch(p, kinds, dg, du, max(du - gap, 2), seed)
    check_rows(field, U, V)
    check_rows(field, V, U)


@settings(max_examples=40, deadline=None, database=None)
@given(
    field=st.sampled_from(EXT_FIELDS),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
    dg=st.integers(0, 4),
    du=st.integers(3, 9),
    gap=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_ext_rows_match_monic_gcd(field, kinds, dg, du, gap, seed):
    field, U, V = planted_batch(field, kinds, dg, du, max(du - gap, 2), seed)
    check_rows(field, U, V)
    check_rows(field, V, U)


# (deg g, du, dv) for batches at and past _BLOCK_MIN_DEG
WIDE_SHAPES = [
    (40, _BLOCK_MIN_DEG - 41, _BLOCK_MIN_DEG - 42),  # at the bound: no block phase
    (40, _BLOCK_MIN_DEG - 39, _BLOCK_MIN_DEG - 40),  # just past it: one window
    (40, 2600, 1500),  # a gap wider than a window: one full division first
    (40, 1600, 1600),  # equal degrees: the first window step has quotient degree 0
    (1700, 300, 200),  # gcd past the bound: the divisor vanishes in the block phase
]


@pytest.mark.parametrize("shape", WIDE_SHAPES, ids=str)
@settings(max_examples=3, deadline=None, database=None)
@given(
    p=st.sampled_from((101, 10000019)),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_wide_rows_match_monic_gcd(shape, p, kinds, seed):
    dg, du, dv = shape
    field, U, V = planted_batch(p, kinds, dg, du, dv, seed)
    lockstep = check_rows(field, U, V)
    if p == 10000019:
        assert lockstep >= kinds.count("generic")


def test_wide_proportional_rows():
    # deg u = deg v past _BLOCK_MIN_DEG and v = c u: the first window step
    # leaves a zero remainder, for one pair and for a batch
    field = PrimeField(10000019)
    u = rand_poly(field, _BLOCK_MIN_DEG + 100, random.Random(4))
    v = [field.mul(3, c) for c in u]
    want = monic(field, u)
    assert list(monic_gcd(field, u, v)) == want
    G, lockstep = monic_gcd(field, as_rows(field, [u, u], len(u)), as_rows(field, [v, u], len(u)))
    assert lockstep == 2
    assert G.tolist() == [want, want]


def test_rows_whose_window_disagrees_leave(monkeypatch):
    # a new remainder of another degree than its window predicts (which the
    # window lemma rules out) makes the row leave the batch, even every row;
    # alone it leaves again, and generic_monic_gcd finishes it
    real = unipoly._np_window_rows

    def off_by_one(*args):
        rows, last, matrices = real(*args)
        return rows, last + 1, matrices

    monkeypatch.setattr(unipoly, "_np_window_rows", off_by_one)
    dg, du, dv = WIDE_SHAPES[1]
    field, U, V = planted_batch(10000019, ["generic"] * 3, dg, du, dv, seed=3)
    assert check_rows(field, U, V) == 0
    # and gcd() still answers: gcd(A, A) has wide images whose first window
    # step leaves a zero remainder
    A, _, _ = gen_triple(field, random.Random(5), 6, 30, 1600)
    got, tr = gcd(field, A, A, GcdConfig(seed=1, omega=6, term_strategy="linear"))
    assert got == lex_monic(field, A)
    assert tr.lockstep_rows == 0


def test_planted_rows_leave_the_lockstep():
    # at p = 10000019 the generic rows keep one degree sequence; each planted
    # row departs from it and is finished alone
    kinds = ["generic"] * 8 + ["extra_factor", "lc_vanishes", "early_zero", "short_remainder"]
    random.Random(5).shuffle(kinds)
    field, U, V = planted_batch(10000019, kinds, 4, 12, 9, seed=11)
    assert check_rows(field, U, V) == 8


def test_planted_rows_leave_the_wide_lockstep():
    # past _BLOCK_MIN_DEG the generic rows also stay together after planted
    # rows leave a window
    kinds = ["generic", "early_zero", "generic", "short_remainder"]
    dg, du, dv = WIDE_SHAPES[1]
    field, U, V = planted_batch(10000019, kinds, dg, du, dv, seed=1286970023)
    assert check_rows(field, U, V) == 2


def test_single_row_and_other_lanes():
    field, U, V = planted_batch(10000019, ["generic"], 3, 8, 5, seed=2)
    assert check_rows(field, U, V) == 1
    # p >= 2^30 runs on the wide kernel, in lockstep as on the numpy lane,
    # and planted rows leave it there too
    field, U, V = planted_batch(2**31 - 1, ["generic"] * 3, 3, 8, 5, seed=3)
    assert field.kernel.lane == LANE_WIDE
    assert check_rows(field, U, V) == 3
    kinds = ["generic", "extra_factor", "lc_vanishes", "generic", "early_zero", "short_remainder"]
    for p in (largest_prime_below(FP_EDGE), first_prime_past(FP_EDGE)):
        field, U, V = planted_batch(p, kinds, 3, 8, 5, seed=4)
        assert field.kernel.lane == (LANE_FP_NUMPY if p < FP_EDGE else LANE_WIDE)
        assert check_rows(field, U, V) == 2


def test_rows_split_into_batches(monkeypatch):
    # a budget of 40 coefficients splits rows of width 17 into batches of 2;
    # a planted row leaves its own batch only
    monkeypatch.setattr(unipoly, "_LOCKSTEP_ENTRIES", 40)
    kinds = ["generic", "extra_factor"] + ["generic"] * 4 + ["early_zero", "generic"]
    field, U, V = planted_batch(10000019, kinds, 4, 12, 9, seed=7)
    assert U.shape[1] == 17
    assert check_rows(field, U, V) == 6


@pytest.mark.parametrize("p", (101, 10000019, largest_prime_below(1 << 30)))
def test_one_row_with_a_wide_first_quotient(p):
    # high_degree's Stage II images: deg 1769 against 1542, so the first
    # quotient, of degree 227, takes a window to itself; past 2^24 the window
    # matrices are applied by np.convolve instead of FFT
    field = PrimeField(p)
    rng = random.Random(8)
    g = rand_poly(field, 40, rng)
    u, v = poly_mul(field, g, rand_poly(field, 1729, rng)), poly_mul(field, g, rand_poly(field, 1502, rng))
    assert monic_gcd(field, u, v) == monic(field, g)
    assert monic_gcd(field, v, u) == monic(field, g)


@pytest.mark.parametrize(
    "p, k, kind",
    [
        (101, 3, LANE_FPK_KERNEL),
        (2**31 - 1, 2, LANE_WIDE),
        (largest_prime_below(EXT_EDGE + 1), 2, LANE_FPK_KERNEL),
        (first_prime_past(EXT_EDGE), 2, LANE_WIDE),
    ],
    ids=["kernel", "generic", "kernel-edge", "past-edge"],
)
def test_batch_on_extension_lanes(p, k, kind):
    # F_{p^k} rows, on the kernel lane, at its bound and where it does not
    # fit: the generic rows run in lockstep, and each planted row leaves
    field = ext_field(p, k)
    assert field.kernel.lane == kind
    assert ExtKernel.fits(p, k) == (kind == LANE_FPK_KERNEL)
    kinds = ["generic", "extra_factor", "lc_vanishes", "generic", "early_zero", "short_remainder", "generic"]
    field, U, V = planted_batch(field, kinds, 3, 8, 6, seed=9)
    assert U.shape == (7, 12, k)
    assert check_rows(field, U, V) == 3
