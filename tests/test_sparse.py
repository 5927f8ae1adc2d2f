import random

import pytest

from spgcd.errors import ZeroPolynomial, ZeroScale
from spgcd.field import (
    LANE_FP_NUMPY,
    LANE_FPK_KERNEL,
    LANE_WIDE,
    ExtField,
    PrimeField,
    elements,
    find_irreducible,
)
from spgcd.instances import random_poly
from spgcd.sparse import (
    PowerImageEvaluator,
    SparsePoly,
    choose_isolating_vector,
    diversify,
    eval_at_powers,
    has_max_isolated_term,
    homogenize,
    lex_monic,
    monomial_content,
    monomial_primitive,
    undiversify,
)

F7 = PrimeField(7)
F11 = PrimeField(11)
FP = PrimeField(10000019)
P62 = 2**62 - 57  # the largest prime below 2^62, where a sum of three residues can leave int64


def poly(field, nvars, terms):
    return SparsePoly.from_terms(field, nvars, terms)


class TestCanonicalForm:
    def test_terms_sorted_and_merged(self):
        f = poly(F7, 2, [(3, (1, 0)), (5, (0, 1)), (2, (1, 0))])
        assert f.exps == ((0, 1), (1, 0))
        assert f.coeffs == (5, 5)
        # 3 + 4 = 7 = 0 mod 7: the (1, 0) term must vanish entirely
        f2 = poly(F7, 2, [(3, (1, 0)), (4, (1, 0)), (5, (0, 1))])
        assert f2.exps == ((0, 1),)
        assert f2.coeffs == (5,)

    def test_leading_term_is_last(self):
        f = poly(F7, 2, [(2, (0, 1)), (3, (1, 0))])
        assert f.leading_exp == (1, 0)
        assert f.lc == 3

    def test_zero(self):
        z = SparsePoly.zero(3)
        assert z.is_zero
        with pytest.raises(ZeroPolynomial):
            z.lc


class TestMonomialContent:
    def test_shared_monomial(self):
        f = poly(F7, 2, [(3, (2, 1)), (2, (2, 2))])
        assert monomial_content(f) == (2, 1)
        assert monomial_primitive(f) == poly(F7, 2, [(3, (0, 0)), (2, (0, 1))])

    def test_single_monomial(self):
        f = poly(F7, 1, [(5, (3,))])
        assert monomial_content(f) == (3,)
        assert monomial_primitive(f) == poly(F7, 1, [(5, (0,))])

    def test_coprime_monomials(self):
        f = poly(F7, 2, [(1, (1, 0)), (1, (0, 1))])
        assert monomial_content(f) == (0, 0)
        assert monomial_primitive(f) == f

    def test_split_reassembles(self):
        rng = random.Random(0)
        for _ in range(50):
            f = random_poly(F11, rng, 3, rng.randint(1, 6), 5)
            cont = monomial_content(f)
            prim = monomial_primitive(f)
            back = SparsePoly(
                3, prim.coeffs, tuple(tuple(a + b for a, b in zip(e, cont)) for e in prim.exps)
            )
            assert back == f


class TestHomogenize:
    # G = 5*x1^3*x2 + 7*x1^5*x2^8 + 4*x1^9*x2^4
    G_TERMS = [(5, (3, 1)), (7, (5, 8)), (4, (9, 4))]

    def test_weighted_layers(self):
        G = poly(F11, 2, self.G_TERMS)
        h = homogenize(G, (1, 2))
        assert [(d, list(p.terms())) for d, p in h.layers] == [
            (0, [(5, (3, 1))]),
            (12, [(4, (9, 4))]),
            (16, [(7, (5, 8))]),
        ]

    def test_unit_weights_group_ties(self):
        G = poly(F11, 2, self.G_TERMS)
        h = homogenize(G, (1, 1))
        assert [d for d, _ in h.layers] == [0, 9]
        assert h.layers[1][1] == poly(F11, 2, [(7, (5, 8)), (4, (9, 4))])

    def test_constant(self):
        f = poly(F7, 2, [(3, (0, 0))])
        h = homogenize(f, (2, 5))
        assert len(h.layers) == 1 and h.layers[0][0] == 0

    def test_substitute_one_recovers_source(self):
        rng = random.Random(1)
        for _ in range(40):
            n = rng.randint(1, 3)
            f = random_poly(F11, rng, n, rng.randint(1, 7 if n == 1 else 8), 6)
            s = tuple(rng.randint(1, 8) for _ in range(n))
            h = homogenize(f, s)
            assert h.substitute_one(F11) == f
            assert h.max_ydeg <= max(s) * f.total_degree()


class TestIsolation:
    A_TERMS = [(2, (7, 3)), (3, (5, 8)), (5, (1, 9))]

    def test_unit_vector_isolates(self):
        A = poly(F11, 2, self.A_TERMS)
        assert has_max_isolated_term(A, (1, 1))  # degrees 10, 13, 10

    def test_tie_line(self):
        A = poly(F11, 2, self.A_TERMS)
        assert not has_max_isolated_term(A, (5, 2))  # 41, 41, 23

    def test_single_term(self):
        f = poly(F7, 2, [(3, (4, 5))])
        assert has_max_isolated_term(f, (9, 9))

    def test_single_term_input_short_circuits(self):
        A = poly(F7, 2, [(3, (4, 5))])
        B = poly(F7, 2, [(1, (1, 0)), (1, (0, 1))])
        s, which = choose_isolating_vector(A, B, random.Random(0))
        assert s == (1, 1) and which == "A"

    def test_finds_isolating_vector(self):
        rng = random.Random(2)
        A = random_poly(FP, rng, 3, 10, 8)
        B = random_poly(FP, rng, 3, 10, 8)
        s, which = choose_isolating_vector(A, B, rng)
        f = A if which == "A" else B
        assert has_max_isolated_term(f, s)
        assert all(1 <= x <= 2 * (min(A.n_terms, B.n_terms) - 1) for x in s)


class TestDiversify:
    def test_direct(self):
        f = poly(F7, 2, [(1, (1, 0)), (1, (0, 1))])
        assert diversify(F7, f, (2, 3)) == poly(F7, 2, [(2, (1, 0)), (3, (0, 1))])

    def test_identity(self):
        rng = random.Random(3)
        f = random_poly(F11, rng, 3, 6, 5)
        assert diversify(F11, f, (1, 1, 1)) == f

    def test_round_trip_and_support(self):
        rng = random.Random(4)
        for _ in range(30):
            f = random_poly(FP, rng, 3, rng.randint(1, 10), 9)
            zeta = tuple(FP.rand_unit(rng) for _ in range(3))
            g = diversify(FP, f, zeta)
            assert g.exps == f.exps  # support preserved exactly
            assert undiversify(FP, g, zeta) == f

    def test_zero_scale_rejected(self):
        f = poly(F7, 2, [(1, (1, 0))])
        with pytest.raises(ZeroScale):
            diversify(F7, f, (0, 2))

    def test_extension_field_embedding(self):
        E = ExtField(7, (1, 0, 1))
        f = poly(F7, 1, [(3, (2,))])
        g = diversify(E, f, ((0, 1),))  # zeta = z: coefficient 3 * z^2 = 3 * (-1)
        assert g.coeffs == (E.embed(4),)


class TestEvalAtPowers:
    def test_cubic(self):
        f = poly(F7, 1, [(2, (3,))])
        assert eval_at_powers(F7, f, (3,), 2) == [5, 2]

    def test_constant(self):
        f = poly(F7, 2, [(4, (0, 0))])
        assert eval_at_powers(F7, f, (2, 3), 4) == [4, 4, 4, 4]

    def test_matches_naive(self):
        rng = random.Random(5)
        for field in (FP, F11, PrimeField(P62)):  # the last sums on python ints
            for _ in range(10):
                n = rng.randint(1, 3)
                f = random_poly(field, rng, n, rng.randint(1, 7 if n == 1 else 8), 6)
                alpha = tuple(field.rand_unit(rng) for _ in range(n))
                got = eval_at_powers(field, f, alpha, 5)
                naive = [
                    f.evaluate(field, tuple(field.pow_(a, i) for a in alpha))
                    for i in range(1, 6)
                ]
                assert got == naive


def ext(p, k):
    return ExtField(p, find_irreducible(p, k, random.Random(k)))


# (field, lane): the F_p kernel at p = 3, at the standard prime and at the
# largest prime below its bound 2^30; F_{(2^31-1)^2} is past the F_{p^k} kernel's
# int64 bound (p - 1)^2 k < 2^62, and at p = 2^62 - 57 an int64 sum of the
# terms of one image would overflow
EVALUATOR_FIELDS = [
    (FP, LANE_FP_NUMPY),
    (PrimeField(3), LANE_FP_NUMPY),
    (PrimeField(2**30 - 35), LANE_FP_NUMPY),
    (ext(1000003, 2), LANE_FPK_KERNEL),
    (ext(1000003, 3), LANE_FPK_KERNEL),
    (ext(1000003, 4), LANE_FPK_KERNEL),
    (PrimeField(2**31 - 1), LANE_WIDE),
    (ext(2**31 - 1, 2), LANE_WIDE),
    (PrimeField(P62), LANE_WIDE),
    (ext(P62, 2), LANE_WIDE),
]


class TestPowerImageEvaluator:
    @pytest.mark.parametrize("field, lane_name", EVALUATOR_FIELDS, ids=str)
    def test_images_match_naive(self, field, lane_name):
        assert field.kernel.lane == lane_name
        rng = random.Random(12)
        n = 3
        # plus seven terms of weighted degree 6: one y-layer whose sum at p
        # near 2^62 leaves int64
        layer = ((6, 0, 0), (4, 1, 0), (2, 2, 0), (0, 3, 0), (3, 0, 1), (1, 1, 1), (0, 0, 2))
        support = random_poly(F11, rng, n, 9, 6).exps + layer
        f = SparsePoly.from_terms(field, n, [(field.rand_unit(rng), e) for e in support])
        homo = homogenize(f, (1, 2, 3))
        beta = tuple(field.rand_unit(rng) for _ in range(n))
        omega = field.rand_unit(rng)

        def naive(i, shifted=None):
            point = [field.pow_(b, i) for b in beta]
            if shifted is not None:
                point[shifted] = field.mul(point[shifted], omega)
            img = [field.zero] * (homo.max_ydeg + 1)
            for yd, layer in homo.layers:
                img[yd] = layer.evaluate(field, tuple(point))
            return img

        ev = PowerImageEvaluator(field, homo, beta)
        for i in range(1, 5):
            assert elements(field, ev.next_image()) == naive(i)
        # the grid: the unshifted row, then one row per shifted coordinate
        grid = ev.grid(4, omega)
        assert grid.shape[:2] == ((n + 1) * 4, homo.max_ydeg + 1)
        for row, k in enumerate([None] + list(range(n))):
            for i in range(1, 5):
                assert elements(field, grid[4 * row + i - 1]) == naive(i, k)


class TestLexMonic:
    def test_divides_by_leading(self):
        f = poly(F7, 2, [(2, (0, 1)), (3, (1, 0))])
        g = lex_monic(F7, f)
        assert g.lc == 1
        assert g.coeffs == (3, 1)  # 2 * inv(3) = 2 * 5 = 10 = 3
