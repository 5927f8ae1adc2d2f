import itertools
import random

import numpy as np
import pytest

from spgcd.errors import DivisionByZero, InvalidInput
from spgcd.field import (
    ExtField,
    PrimeField,
    discrete_log_bounded,
    factorize,
    find_irreducible,
    is_irreducible,
    multiplicative_order_exceeds,
    shift_element,
)

from reference import dlog_one


class TestPrimeField:
    def test_mul_inv_examples(self):
        F = PrimeField(7)
        assert F.mul(3, 5) == 1
        assert F.inv(3) == 5

    def test_fermat(self):
        F = PrimeField(10000019)
        assert F.pow_(6, F.p - 1) == 1

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            PrimeField(7).inv(0)

    def test_field_axioms_random(self):
        F = PrimeField(101)
        rng = random.Random(1)
        for _ in range(200):
            a = F.rand_unit(rng)
            assert F.mul(a, F.inv(a)) == 1
            i, j = rng.randrange(50), rng.randrange(50)
            assert F.mul(F.pow_(a, i), F.pow_(a, j)) == F.pow_(a, i + j)

    def test_rejects_composite(self):
        with pytest.raises(Exception):
            PrimeField(10)


class TestExtField:
    def test_basic_arithmetic(self):
        # F_49 = F_7[z]/(z^2 + 1): z * z = -1
        E = ExtField(7, (1, 0, 1))
        z = (0, 1)
        assert E.mul(z, z) == (6, 0)
        assert E.mul(E.embed(3), E.embed(5)) == E.embed(1)

    def test_inverses_random(self):
        E = ExtField(5, (2, 0, 1))
        rng = random.Random(2)
        for _ in range(100):
            a = E.rand_unit(rng)
            assert E.mul(a, E.inv(a)) == E.one

    def test_pow_order(self):
        E = ExtField(7, (1, 0, 1))
        rng = random.Random(3)
        for _ in range(20):
            a = E.rand_unit(rng)
            assert E.pow_(a, 48) == E.one  # group order 7^2 - 1

    def test_base_embedding_round_trip(self):
        E = ExtField(11, (7, 2, 1))
        assert E.to_base(E.embed(9)) == 9
        assert E.is_base(E.embed(0))
        assert not E.is_base((1, 1))


class TestIrreducible:
    def test_degree_one_always_irreducible(self):
        f = find_irreducible(2, 1, random.Random(0))
        assert len(f) == 2 and f[1] == 1

    def test_accepts_known_irreducibles(self):
        # -1 is a non-residue mod 7; -2 is a non-residue mod 5
        assert is_irreducible((1, 0, 1), 7)
        assert is_irreducible((2, 0, 1), 5)

    def test_rejects_reducible(self):
        assert not is_irreducible((6, 0, 1), 7)  # z^2 - 1 = (z-1)(z+1)
        assert not is_irreducible((0, 0, 1), 7)  # z^2

    def test_output_passes_independent_recheck(self):
        rng = random.Random(4)
        for p, k in ((2, 5), (3, 4), (7, 3), (101, 2), (7, 6)):
            f = find_irreducible(p, k, rng)
            assert len(f) == k + 1 and f[-1] == 1
            assert is_irreducible(f, p)
            if p**k < 3000 and k > 1:
                # brute force: no roots, and for k <= 3 rootlessness is enough
                for a in range(p):
                    acc = 0
                    for c in reversed(f):
                        acc = (acc * a + c) % p
                    assert acc != 0

    @staticmethod
    def _mobius(n):
        mu = 1
        for mult in factorize(n).values():
            if mult > 1:
                return 0
            mu = -mu
        return mu

    @pytest.mark.parametrize(
        "p, ks", [(2, range(2, 9)), (3, range(2, 7)), (5, range(2, 5)), (7, range(2, 5))]
    )
    def test_counts_match_gauss_formula(self, p, ks):
        """An exhaustive scan over every monic f of degree k over F_p finds
        as many irreducibles as Gauss's formula (1/k) sum_{d | k} mu(d)
        p^(k/d) counts."""
        for k in ks:
            want = sum(self._mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
            found = 0
            for idx in range(p**k):
                low = tuple(idx // p**i % p for i in range(k))
                found += is_irreducible(low + (1,), p)
            assert found == want, (p, k)


def order_exceeds_by_scan(field, g, bound):
    """ord(g) > bound, by scanning field.pow_ (the reference)."""
    return all(field.pow_(g, j) != field.one for j in range(1, bound + 1))


def order_by_scan(field, g):
    j, acc = 1, g
    while acc != field.one:
        j, acc = j + 1, field.mul(acc, g)
    return j


F_WIDE = ExtField(2**31 - 1, find_irreducible(2**31 - 1, 2, random.Random(1)))


def units_to_check(field):
    """Every unit of a small field; for F_WIDE, units of orders m = 1, 2,
    42, 62, 64 and 151, as g^((q - 1)/m) for a generator g of F_WIDE^*,
    where q - 1 = (p - 1)(p + 1) = 2^32 3^2 7 11 31 151 331."""
    if field.k == 1:
        return list(range(1, field.p))
    if field is not F_WIDE:
        return [x for x in itertools.product(range(field.p), repeat=field.k) if any(x)]
    n, rng = F_WIDE.order - 1, random.Random(8)
    g = F_WIDE.rand_unit(rng)
    while any(F_WIDE.pow_(g, n // r) == F_WIDE.one for r in (2, 3, 7, 11, 31, 151, 331)):
        g = F_WIDE.rand_unit(rng)
    return [F_WIDE.pow_(g, n // m) for m in (1, 2, 42, 62, 64, 151)]


class TestOrderCheck:
    @pytest.mark.parametrize(
        "field", [PrimeField(2), PrimeField(3), PrimeField(7), ExtField(5, (2, 0, 1)), F_WIDE], ids=repr
    )
    def test_kernel_table_matches_pow_scan(self, field):
        for g in units_to_check(field):
            order = order_by_scan(field, g)
            for bound in range(order + 2):
                assert multiplicative_order_exceeds(field, g, bound) == order_exceeds_by_scan(field, g, bound), (g, bound)


class TestPrimitiveRoot:
    def test_standard_prime_accepts_6(self):
        # the CLI's default shift element at p = 10000019 generates F_p^*
        F = PrimeField(10000019)
        fac = factorize(F.p - 1)
        assert all(F.pow_(6, (F.p - 1) // r) != 1 for r in fac)

    def test_order_check_helper(self):
        F = PrimeField(7)
        assert multiplicative_order_exceeds(F, 3, 5)
        assert not multiplicative_order_exceeds(F, 2, 5)  # ord(2) = 3


class TestShiftElement:
    def test_f7(self):
        # only the generators 3 and 5 have order > 5
        rng = random.Random(0)
        assert {shift_element(PrimeField(7), 5, rng) for _ in range(20)} == {3, 5}

    def test_f2(self):
        assert shift_element(PrimeField(2), 0, random.Random(0)) == 1

    def test_extension_field(self):
        rng = random.Random(5)
        for field, bound in ((ExtField(7, (1, 0, 1)), 47), (ExtField(7, (1, 0, 1)), 20), (F_WIDE, 60)):
            for _ in range(5):
                assert order_exceeds_by_scan(field, shift_element(field, bound, rng), bound), (field, bound)

    def test_rejects_a_bound_no_unit_exceeds(self):
        with pytest.raises(InvalidInput):
            shift_element(PrimeField(7), 6, random.Random(0))
        with pytest.raises(InvalidInput):
            shift_element(ExtField(2, (1, 1, 1)), 3, random.Random(0))


class TestFactorize:
    def test_small(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(10000018) == {2: 1, 7: 2, 67: 1, 1523: 1}


class TestDiscreteLog:
    def test_examples(self):
        F = PrimeField(7)
        assert dlog_one(F, 3, 4, 6) == 4  # 3^4 = 81 = 4 mod 7
        assert dlog_one(F, 3, 1, 6) == 0
        assert dlog_one(F, 3, 5, 2) == -1  # 3^5 = 5 but 5 > bound
        got = discrete_log_bounded(F, 3, np.array([4, 1, 5, 0]), 6)
        assert got.tolist() == [4, 0, 5, -1]  # 0 is no power
        with pytest.raises(InvalidInput):
            discrete_log_bounded(F, 3, 4, 6)

    def test_exhaustive_small_bound(self):
        F = PrimeField(2003)
        omega = 5  # a generator of F_2003
        for e in range(0, 1001, 7):
            assert dlog_one(F, omega, F.pow_(omega, e), 1000) == e

    def test_extension_field(self):
        E = ExtField(5, (2, 0, 1))
        w = shift_element(E, 20, random.Random(6))
        for e in (0, 1, 5, 17):
            assert dlog_one(E, w, E.pow_(w, e), 20) == e
