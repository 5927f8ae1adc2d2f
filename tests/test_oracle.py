import random

import pytest

from spgcd.errors import BudgetExceeded
from spgcd.field import PrimeField
from spgcd.instances import random_poly
from spgcd.oracle import dense_gcd, divides_exactly, sparse_mul
from spgcd.sparse import SparsePoly, lex_monic

from reference import evaluate

F7 = PrimeField(7)
F11 = PrimeField(11)
FP = PrimeField(10000019)


def poly(field, nvars, terms):
    return SparsePoly.from_terms(field, nvars, terms)


X1 = poly(F7, 2, [(1, (1, 0))])
X2 = poly(F7, 2, [(1, (0, 1))])


class TestDenseGcd:
    def test_difference_of_squares(self):
        a = poly(F7, 2, [(1, (2, 0)), (6, (0, 2))])  # x1^2 - x2^2
        b = poly(F7, 2, [(1, (1, 0)), (6, (0, 1))])  # x1 - x2
        assert dense_gcd(F7, a, b) == poly(F7, 2, [(6, (0, 1)), (1, (1, 0))])

    def test_self(self):
        rng = random.Random(0)
        f = random_poly(F11, rng, 3, 5, 4)
        assert dense_gcd(F11, f, f) == lex_monic(F11, f)

    def test_with_unit(self):
        rng = random.Random(1)
        f = random_poly(F11, rng, 2, 4, 4)
        one = SparsePoly.constant(F11, 2, 1)
        assert dense_gcd(F11, f, one) == one

    def test_budget(self):
        f = poly(F7, 5, [(1, (1, 0, 0, 0, 0))])
        with pytest.raises(BudgetExceeded):
            dense_gcd(F7, f, f)
        g = poly(F7, 1, [(1, (13,))])
        with pytest.raises(BudgetExceeded):
            dense_gcd(F7, g, g)

    def test_planted_factor_found(self):
        rng = random.Random(2)
        for p in (7, 101, 10000019):
            F = PrimeField(p)
            for _ in range(10):
                n = rng.randint(1, 4)
                G0 = random_poly(F, rng, n, rng.randint(1, 4), 3)
                A = sparse_mul(F, random_poly(F, rng, n, rng.randint(1, 4), 3), G0)
                B = sparse_mul(F, random_poly(F, rng, n, rng.randint(1, 4), 3), G0)
                g = dense_gcd(F, A, B)
                assert divides_exactly(F, g, A) is not None
                assert divides_exactly(F, g, B) is not None
                assert divides_exactly(F, G0, g) is not None


class TestSparseMul:
    def test_difference_of_squares(self):
        a = poly(F7, 2, [(1, (1, 0)), (1, (0, 1))])
        b = poly(F7, 2, [(1, (1, 0)), (6, (0, 1))])
        assert sparse_mul(F7, a, b) == poly(F7, 2, [(1, (2, 0)), (6, (0, 2))])

    def test_identity(self):
        rng = random.Random(3)
        f = random_poly(F11, rng, 2, 6, 5)
        one = SparsePoly.constant(F11, 2, 1)
        assert sparse_mul(F11, f, one) == f

    def test_evaluation_homomorphism(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(1, 3)
            f = random_poly(FP, rng, n, rng.randint(1, 6), 5)
            g = random_poly(FP, rng, n, rng.randint(1, 6), 5)
            pt = tuple(FP.rand(rng) for _ in range(n))
            prod = sparse_mul(FP, f, g)
            assert evaluate(FP, prod, pt) == FP.mul(evaluate(FP, f, pt), evaluate(FP, g, pt))


class TestDividesExactly:
    def test_difference_of_squares(self):
        a = poly(F7, 2, [(1, (2, 0)), (6, (0, 2))])
        g = poly(F7, 2, [(1, (1, 0)), (1, (0, 1))])
        assert divides_exactly(F7, g, a) == poly(F7, 2, [(1, (1, 0)), (6, (0, 1))])

    def test_non_divisor(self):
        assert divides_exactly(F7, X1, X2) is None

    def test_round_trip_randomized(self):
        rng = random.Random(5)
        for _ in range(10_000):
            n = rng.randint(1, 3)
            f = random_poly(F11, rng, n, rng.randint(1, 5), 4)
            g = random_poly(F11, rng, n, rng.randint(1, 5), 4)
            assert divides_exactly(F11, g, sparse_mul(F11, f, g)) == f

    def test_zero_dividend(self):
        assert divides_exactly(F7, X1, SparsePoly.zero(2)) == SparsePoly.zero(2)
