import random

import pytest

from spgcd.errors import DivisionByZero, FactorizationBudgetExceeded, NotAPower
from spgcd.field import (
    ExtField,
    PrimeField,
    discrete_log_bounded,
    factorize,
    find_irreducible,
    find_primitive_root,
    is_irreducible,
    multiplicative_order_exceeds,
)


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


class TestPrimitiveRoot:
    def test_f7(self):
        assert find_primitive_root(PrimeField(7)) == 3

    def test_f2(self):
        assert find_primitive_root(PrimeField(2)) == 1

    def test_standard_prime_accepts_6(self):
        F = PrimeField(10000019)
        fac = factorize(F.p - 1)
        assert all(F.pow_(6, (F.p - 1) // r) != 1 for r in fac)

    def test_extension_field(self):
        E = ExtField(7, (1, 0, 1))
        w = find_primitive_root(E, random.Random(5))
        for r in (2, 3):  # 48 = 2^4 * 3
            assert E.pow_(w, 48 // r) != E.one

    def test_order_check_helper(self):
        F = PrimeField(7)
        assert multiplicative_order_exceeds(F, 3, 5)
        assert not multiplicative_order_exceeds(F, 2, 5)  # ord(2) = 3


class TestFactorize:
    def test_small(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(10000018) == {2: 1, 7: 2, 67: 1, 1523: 1}

    def test_budget(self):
        n = 1000003 * 1000033 * 1000037 * 1000039
        with pytest.raises(FactorizationBudgetExceeded):
            factorize(n * (n + 8), rho_iters=1)


class TestDiscreteLog:
    def test_examples(self):
        F = PrimeField(7)
        assert discrete_log_bounded(F, 3, 4, 6) == 4  # 3^4 = 81 = 4 mod 7
        assert discrete_log_bounded(F, 3, 1, 6) == 0
        with pytest.raises(NotAPower):
            discrete_log_bounded(F, 3, 5, 2)  # 3^5 = 5 but 5 > bound

    def test_exhaustive_small_bound(self):
        F = PrimeField(2003)
        omega = find_primitive_root(F)
        for e in range(0, 1001, 7):
            assert discrete_log_bounded(F, omega, F.pow_(omega, e), 1000) == e

    def test_extension_field(self):
        E = ExtField(5, (2, 0, 1))
        w = find_primitive_root(E, random.Random(6))
        for e in (0, 1, 5, 17):
            assert discrete_log_bounded(E, w, E.pow_(w, e), 20) == e
