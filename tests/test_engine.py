import random

import pytest

from spgcd.engine import GcdConfig, gcd, hankel_first_singular, primitive_gcd
from spgcd.errors import InvalidInput
from spgcd.field import PrimeField
from spgcd.instances import gen_triple, random_poly
from spgcd.oracle import dense_gcd, divides_exactly, sparse_mul
from spgcd.sparse import SparsePoly, homogenize, lex_monic, monomial_primitive

F7 = PrimeField(7)
F11 = PrimeField(11)
FP = PrimeField(10000019)


def poly(field, nvars, terms):
    return SparsePoly.from_terms(field, nvars, terms)


class TestHankel:
    def test_rank_one_sequence(self):
        # v_i = c * m^i: HK_2 = [[v1, v2], [v2, v3]] is singular
        vals = [3 * pow(2, i, 7) % 7 for i in range(1, 6)]
        assert hankel_first_singular(F7, vals, 3) == 2

    def test_zero_sequence(self):
        assert hankel_first_singular(F7, [0, 0, 0], 2) == 1

    def test_two_term_sequence(self):
        vals = [(pow(2, i, 7) + pow(3, i, 7)) % 7 for i in range(1, 6)]
        assert hankel_first_singular(F7, vals, 3) == 3

    def test_not_yet(self):
        vals = [(pow(2, i, 101) + 5 * pow(3, i, 101)) % 101 for i in range(1, 4)]
        assert hankel_first_singular(PrimeField(101), vals, 2) is None


class TestPrimitiveGcd:
    def test_planted_linear_factor(self):
        common = poly(F11, 2, [(1, (0, 1)), (1, (1, 0))])  # x1 + x2
        a = sparse_mul(F11, common, poly(F11, 2, [(1, (1, 1)), (1, (0, 0))]))
        b = sparse_mul(F11, common, poly(F11, 2, [(1, (1, 0)), (2, (0, 0))]))
        got, _ = primitive_gcd(F11, a, b, GcdConfig(seed=1))
        assert got == common

    def test_self_gcd(self):
        rng = random.Random(0)
        f = monomial_primitive(random_poly(FP, rng, 3, 6, 5))
        got, _ = primitive_gcd(FP, f, f, GcdConfig(seed=2, omega=6))
        assert got == lex_monic(FP, f)

    def test_coprime_inputs(self):
        rng = random.Random(1)
        a = monomial_primitive(random_poly(FP, rng, 3, 5, 4))
        b = monomial_primitive(random_poly(FP, rng, 3, 5, 4))
        got, _ = primitive_gcd(FP, a, b, GcdConfig(seed=3, omega=6))
        assert got == SparsePoly.constant(FP, 3, 1)

    def test_rejects_non_primitive(self):
        a = poly(F7, 2, [(1, (1, 1))])
        b = poly(F7, 2, [(1, (0, 1)), (1, (1, 0))])
        with pytest.raises(InvalidInput):
            primitive_gcd(F7, a, b)

    def test_rejects_zero(self):
        with pytest.raises(InvalidInput):
            primitive_gcd(F7, SparsePoly.zero(2), poly(F7, 2, [(1, (0, 0))]))

    def test_omega_with_small_order_rejected(self):
        a = poly(F7, 1, [(1, (0,)), (1, (4,))])
        b = poly(F7, 1, [(1, (0,)), (2, (4,))])
        with pytest.raises(InvalidInput):
            primitive_gcd(F7, a, b, GcdConfig(seed=0, omega=3))  # ord(3) = 6 <= 2d


class TestGcdWrapper:
    def test_content_split(self):
        common = poly(F11, 2, [(1, (0, 1)), (1, (1, 0))])
        a = sparse_mul(F11, common, poly(F11, 2, [(1, (2, 1))]))  # x1^2 x2 (x1+x2)
        b = sparse_mul(F11, common, poly(F11, 2, [(1, (1, 2))]))  # x1 x2^2 (x1+x2)
        got, _ = gcd(F11, a, b, GcdConfig(seed=4))
        assert got == poly(F11, 2, [(1, (1, 2)), (1, (2, 1))])

    def test_monomials(self):
        a = poly(F7, 1, [(1, (3,))])
        b = poly(F7, 1, [(1, (1,))])
        got, _ = gcd(F7, a, b, GcdConfig(seed=5))
        assert got == poly(F7, 1, [(1, (1,))])

    def test_gcd_with_zero(self):
        f = poly(F7, 2, [(2, (0, 1)), (3, (1, 0))])
        got, _ = gcd(F7, f, SparsePoly.zero(2), GcdConfig(seed=6))
        assert got == lex_monic(F7, f)
        with pytest.raises(InvalidInput):
            gcd(F7, SparsePoly.zero(2), SparsePoly.zero(2))

    def test_matches_oracle_small(self):
        rng = random.Random(2)
        for p in (7, 101, 10000019):
            F = PrimeField(p)
            omega = 6 if p == 10000019 else None
            for trial in range(8):
                n = rng.randint(1, 3)
                G0 = random_poly(F, rng, n, rng.randint(1, 3), 3)
                A = sparse_mul(F, random_poly(F, rng, n, rng.randint(1, 4), 3), G0)
                B = sparse_mul(F, random_poly(F, rng, n, rng.randint(1, 4), 3), G0)
                got, _ = gcd(F, A, B, GcdConfig(seed=trial, omega=omega))
                assert got == dense_gcd(F, A, B), (p, trial)

    def test_bad_points_recovered_by_retry(self):
        # base-field mode over a small prime: leading coefficients vanish at
        # some grid points and the engine must resample and still be exact
        from spgcd.field import find_primitive_root

        F211 = PrimeField(211)
        omega = find_primitive_root(F211)
        rng = random.Random(77)
        retried = 0
        for trial in range(60):
            n = rng.randint(2, 3)
            G0 = random_poly(F211, rng, n, 3, 4)
            A = sparse_mul(F211, random_poly(F211, rng, n, 3, 4), G0)
            B = sparse_mul(F211, random_poly(F211, rng, n, 3, 4), G0)
            got, tr = gcd(F211, A, B, GcdConfig(seed=trial, omega=omega, max_retries=12))
            assert got == dense_gcd(F211, A, B), trial
            retried += tr.retries > 0
        assert retried >= 1  # these seeds do hit bad points

    def test_tiny_characteristics(self):
        # p = 2 exercises the trace-map splitter and deep extension towers
        rng = random.Random(10)
        for p in (2, 3):
            F = PrimeField(p)
            for trial in range(6):
                n = rng.randint(1, 3)
                G0 = random_poly(F, rng, n, rng.randint(1, 3), 2)
                A = sparse_mul(F, random_poly(F, rng, n, rng.randint(1, 3), 2), G0)
                B = sparse_mul(F, random_poly(F, rng, n, rng.randint(1, 3), 2), G0)
                if A.is_zero or B.is_zero:
                    continue
                got, _ = gcd(F, A, B, GcdConfig(seed=trial))
                assert got == dense_gcd(F, A, B), (p, trial)

    def test_output_divides_inputs(self):
        rng = random.Random(3)
        for trial in range(10):
            A, B, G = gen_triple(FP, rng, 4, 8, 10)
            got, _ = gcd(FP, A, B, GcdConfig(seed=trial, omega=6))
            assert divides_exactly(FP, got, A) is not None
            assert divides_exactly(FP, got, B) is not None


class TestHomogenizationCompatibility:
    def test_gcd_commutes_with_weighting_up_to_scalar(self):
        # gcd(A_(s,y), B_(s,y)) is similar to G_(s,y): compare supports and
        # coefficient ratios through the dense oracle on small bivariate input
        rng = random.Random(9)
        for trial in range(6):
            common = random_poly(F11, rng, 2, 3, 2)
            A = sparse_mul(F11, random_poly(F11, rng, 2, 2, 2), common)
            B = sparse_mul(F11, random_poly(F11, rng, 2, 2, 2), common)
            s = (rng.randint(1, 2), rng.randint(1, 2))
            G = dense_gcd(F11, A, B)

            def with_y(f):
                h = homogenize(f, s)
                terms = []
                for ydeg, part in h.layers:
                    for c, e in part.terms():
                        terms.append((c, e + (ydeg,)))
                return SparsePoly.from_terms(F11, 3, terms)

            C = dense_gcd(F11, with_y(A), with_y(B))
            H = with_y(G)
            assert C.exps == H.exps
            ratios = {F11.mul(c1, F11.inv(c2)) for c1, c2 in zip(C.coeffs, H.coeffs)}
            assert len(ratios) == 1  # similar: one common scalar


class TestDeterminism:
    def test_identical_seed_identical_run(self):
        rng = random.Random(4)
        A, B, G = gen_triple(FP, rng, 4, 10, 12)
        r1, t1 = gcd(FP, A, B, GcdConfig(seed=11, omega=6))
        r2, t2 = gcd(FP, A, B, GcdConfig(seed=11, omega=6))
        assert r1 == r2
        assert (t1.s, t1.sigma, t1.alpha) == (t2.s, t2.sigma, t2.alpha)
        assert t1.term_bounds == t2.term_bounds

    def test_extension_path_deterministic(self):
        rng = random.Random(5)
        A, B, G = gen_triple(F7, rng, 2, 3, 4)
        r1, t1 = gcd(F7, A, B, GcdConfig(seed=12))
        r2, t2 = gcd(F7, A, B, GcdConfig(seed=12))
        assert r1 == r2 and t1.sigma == t2.sigma


class TestTrace:
    def test_extension_degrees_recorded(self):
        rng = random.Random(6)
        A, B, G = gen_triple(F7, rng, 2, 3, 4)
        got, tr = gcd(F7, A, B, GcdConfig(seed=13))
        assert tr.ext2_degree > 1 and tr.ext3_degree > 1  # p = 7 forces extensions
        assert tr.r >= 1 and tr.m >= 1
        assert got == dense_gcd(F7, A, B)

    def test_base_field_mode_stays_prime(self):
        rng = random.Random(7)
        A, B, G = gen_triple(FP, rng, 3, 6, 8)
        _, tr = gcd(FP, A, B, GcdConfig(seed=14, omega=6))
        assert tr.ext2_degree == 1 and tr.ext3_degree == 1
        assert tr.omega == 6


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            GcdConfig(epsilon=0.0).validate()
        with pytest.raises(InvalidInput):
            GcdConfig(max_retries=-1).validate()
        with pytest.raises(InvalidInput):
            GcdConfig(term_strategy="cubic").validate()

    def test_linear_strategy_matches(self):
        rng = random.Random(8)
        A, B, G = gen_triple(FP, rng, 3, 8, 10)
        g1, _ = gcd(FP, A, B, GcdConfig(seed=15, omega=6, term_strategy="linear"))
        g2, _ = gcd(FP, A, B, GcdConfig(seed=15, omega=6, term_strategy="doubling"))
        assert g1 == G and g2 == G
