"""The F_p and F_{p^k} kernels against field-element arithmetic at their
int64 bounds.

The F_p kernel runs when p < 2^30 and the F_{p^k} kernel when
(p - 1)^2 k < 2^62; past those bounds each field takes the wide kernel, on
python ints.  Each field below is either small (p in {2, 3}), mid-sized (p =
1000003) or the largest prime under its kernel's bound, where a missed
reduction would overflow int64; test_monomial_values also takes p = 2^62 -
57, the largest prime the fields accept, on the wide kernel.
"""

import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spgcd.field import (
    LANE_FP_NUMPY,
    LANE_FPK_KERNEL,
    LANE_WIDE,
    NP_MAX_P,
    ExtField,
    ExtKernel,
    PrimeField,
    PrimeKernel,
    elements as field_elements,
    find_irreducible,
    is_probable_prime,
)
from spgcd.sparse import SparsePoly, _monomial_values, eval_at_powers
from spgcd.unipoly import monic_gcd, trim

from reference import evaluate, generic_monic_gcd, poly_mul

DEGREES = (1, 2, 4)


def primes_around(edge):
    """(largest prime <= edge, smallest prime > edge)."""
    inside = edge
    while not is_probable_prime(inside):
        inside -= 1
    past = edge + 1
    while not is_probable_prime(past):
        past += 1
    return inside, past


def kernel_bound_primes(k):
    """(largest prime inside the F_{p^k} kernel bound, smallest prime past it)."""
    return primes_around(math.isqrt(((1 << 62) - 1) // k) + 1)  # largest p with (p - 1)^2 k < 2^62


FP_EDGE = primes_around(NP_MAX_P - 1)  # F_p kernel: p < 2^30


def ext_field(p, k):
    return ExtField(p, find_irreducible(p, k, random.Random(p + k)))


FIELDS = [PrimeField(p) for p in (2, 3, 1000003, FP_EDGE[0])] + [
    ext_field(p, k) for k in DEGREES for p in (2, 3, 1000003, kernel_bound_primes(k)[0])
]
P62 = 2**62 - 57  # the largest prime below 2^62
WIDE_FIELDS = [PrimeField(P62), ext_field(P62, 2)]


def elements(field):
    residues = st.integers(0, field.p - 1)
    return residues if isinstance(field, PrimeField) else st.tuples(*[residues] * field.k)


def polys(field, max_len):
    return st.lists(elements(field), max_size=max_len)


PROPERTY = settings(max_examples=60, deadline=None, database=None)


def test_lane_follows_the_bound():
    inside, past = FP_EDGE
    assert PrimeKernel.fits(inside) and not PrimeKernel.fits(past)
    assert PrimeField(inside).kernel.lane == LANE_FP_NUMPY
    beyond = PrimeField(past).kernel
    assert beyond.work is object and beyond.lane == LANE_WIDE
    for k in DEGREES:
        inside, past = kernel_bound_primes(k)
        assert ExtKernel.fits(inside, k) and not ExtKernel.fits(past, k)
        assert ext_field(inside, k).kernel.lane == LANE_FPK_KERNEL
        beyond = ext_field(past, k).kernel
        assert beyond.work is object and beyond.lane == LANE_WIDE


@PROPERTY
@given(st.data())
def test_mul(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(polys(field, 6))
    b = data.draw(st.lists(elements(field), min_size=len(a), max_size=len(a)))
    kern = field.kernel
    got = field_elements(field, kern.mul(kern.array(a), kern.array(b)))
    assert got == [field.mul(x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize(
    "p, k, lane", [(7, 3, LANE_FPK_KERNEL), (1000003, 3, LANE_FPK_KERNEL), (2**31 - 1, 2, LANE_WIDE)], ids=str
)
def test_conjugate_is_the_frobenius(p, k, lane):
    # a fresh field each time, so conjugate builds its Frobenius matrix here
    field = ext_field(p, k)
    assert field.kernel.lane == lane
    rng = random.Random(p)
    xs = [field.zero, field.one, (0, 1) + (0,) * (k - 2)] + [field.rand_unit(rng) for _ in range(20)]
    got = field_elements(field, field.kernel.conjugate(field.kernel.array(xs)))
    assert got == [field.pow_(x, p) for x in xs]


@PROPERTY
@given(st.data())
def test_monomial_values(data):
    field = data.draw(st.sampled_from(FIELDS + WIDE_FIELDS))
    n = data.draw(st.integers(1, 3))
    exps = data.draw(st.lists(st.tuples(*[st.integers(0, 12)] * n), min_size=1, max_size=6))
    point = data.draw(st.tuples(*[elements(field)] * n))
    want = []
    for e in exps:
        v = field.one
        for x, k in zip(point, e):
            if k:
                v = field.mul(v, field.pow_(x, k))
        want.append(v)
    assert field_elements(field, _monomial_values(field, exps, point)) == want


@PROPERTY
@given(st.data())
def test_monic_gcd(data):
    field = data.draw(st.sampled_from(FIELDS))
    w, u, v = (data.draw(polys(field, 5)) for _ in range(3))
    u, v = poly_mul(field, w, u), poly_mul(field, w, v)
    assume(trim(list(u)) or trim(list(v)))
    assert monic_gcd(field, u, v) == generic_monic_gcd(field, u, v)


def test_huge_exponents_evaluate_in_little_memory():
    # x1^(10^6) x2 + 5 x2^(10^6): a power table would hold 10^6 rows; square-
    # and-multiply over the exponent bits needs a few small arrays
    big = 10**6
    for field in (PrimeField(1000003), ext_field(1000003, 4)):
        f = SparsePoly.from_terms(field, 2, [(1, (big, 1)), (5, (0, big))])
        rng = random.Random(1)
        alpha = (field.rand_unit(rng), field.rand_unit(rng))
        tracemalloc.start()
        try:
            got = eval_at_powers(field, f, alpha, 2)
            col = field_elements(field, field.kernel.pow(alpha[0], [big, 3]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        naive = [evaluate(field, f, tuple(field.pow_(a, i) for a in alpha)) for i in (1, 2)]
        assert got == naive
        assert col == [field.pow_(alpha[0], big), field.pow_(alpha[0], 3)]
        assert peak < 4 << 20
