import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spgcd import polyfile
from spgcd.errors import InvalidInput, ZeroPolynomial, ZeroScale
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
from spgcd.oracle import sparse_mul
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

import reference
from reference import evaluate

F7 = PrimeField(7)
F11 = PrimeField(11)
FP = PrimeField(10000019)
P62 = 2**62 - 57  # the largest prime below 2^62, where a sum of three residues can leave int64


def poly(field, nvars, terms):
    return SparsePoly.from_terms(field, nvars, terms)


class TestCanonicalForm:
    def test_terms_sorted_and_merged(self):
        f = poly(F7, 2, [(3, (1, 0)), (5, (0, 1)), (2, (1, 0))])
        assert f.exps.tolist() == [[0, 1], [1, 0]]
        assert f.coeffs.tolist() == [5, 5]
        # 3 + 4 = 7 = 0 mod 7: the (1, 0) term must vanish entirely
        f2 = poly(F7, 2, [(3, (1, 0)), (4, (1, 0)), (5, (0, 1))])
        assert f2.exps.tolist() == [[0, 1]]
        assert f2.coeffs.tolist() == [5]

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
            assert SparsePoly.from_arrays(F11, h.exps, h.coeffs) == f  # y = 1
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
            assert g.exps.tolist() == f.exps.tolist()  # support preserved exactly
            assert undiversify(FP, g, zeta) == f

    def test_zero_scale_rejected(self):
        f = poly(F7, 2, [(1, (1, 0))])
        with pytest.raises(ZeroScale):
            diversify(F7, f, (0, 2))

    def test_extension_field_embedding(self):
        E = ExtField(7, (1, 0, 1))
        f = poly(F7, 1, [(3, (2,))])
        g = diversify(E, f, ((0, 1),))  # zeta = z: coefficient 3 * z^2 = 3 * (-1)
        assert [c for c, _ in g.terms()] == [E.embed(4)]


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
                    evaluate(field, f, tuple(field.pow_(a, i) for a in alpha))
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
        support = [e for _, e in random_poly(F11, rng, n, 9, 6).terms()] + list(layer)
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
                img[yd] = evaluate(field, layer, tuple(point))
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

    @pytest.mark.parametrize("field, lane_name", EVALUATOR_FIELDS, ids=str)
    def test_next_images_match_successive_next_image(self, field, lane_name):
        rng = random.Random(5)
        support = [e for _, e in random_poly(F11, rng, 3, 9, 6).terms()]
        f = SparsePoly.from_terms(field, 3, [(field.rand_unit(rng), e) for e in support])
        homo = homogenize(f, (1, 2, 3))
        beta = tuple(field.rand_unit(rng) for _ in range(3))
        one, batched = PowerImageEvaluator(field, homo, beta), PowerImageEvaluator(field, homo, beta)
        for count in (1, 3, 5):  # the batches continue from where the last one stopped
            expected = np.array([one.next_image() for _ in range(count)])
            got = batched.next_images(count)
            assert got.dtype == np.int64 and got.shape == expected.shape
            assert np.array_equal(got, expected)


class TestLexMonic:
    def test_divides_by_leading(self):
        f = poly(F7, 2, [(2, (0, 1)), (3, (1, 0))])
        g = lex_monic(F7, f)
        assert g.lc == 1
        assert g.coeffs.tolist() == [3, 1]  # 2 * inv(3) = 2 * 5 = 10 = 3


# The array operations against the tuple references in tests/reference.py,
# at p = 2 and 3, the standard prime, the largest prime below 2^62 (where
# the sum of two residues leaves int64) and over F_{5^2}.
ARRAY_FIELDS = [PrimeField(2), PrimeField(3), FP, PrimeField(P62), ext(5, 2)]


@st.composite
def term_lists(draw, field, huge=False):
    """(nvars, terms) with repeated exponent vectors and zero coefficients;
    exponents in [0, 3] and, when huge, anywhere in [0, 2^62)."""
    n = draw(st.integers(1, 3))
    exps = st.one_of(st.integers(0, 3), st.integers(0, 2**62 - 1)) if huge else st.integers(0, 3)
    exp = st.tuples(*[exps] * n)
    if isinstance(field, ExtField):
        coeff = st.tuples(*[st.integers(0, field.p - 1)] * field.k)
    else:
        coeff = st.one_of(st.integers(0, field.p - 1), st.sampled_from([0, 1, field.p - 1]))
    terms = draw(st.lists(st.tuples(coeff, exp), max_size=12))
    if terms:  # repeat some terms outright
        terms += draw(st.lists(st.sampled_from(terms), max_size=4))
    return n, terms


class TestArraysAgainstTuples:
    @pytest.mark.parametrize("field", ARRAY_FIELDS, ids=str)
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_from_terms_content_and_primitive(self, field, data):
        n, terms = data.draw(term_lists(field, huge=True))
        f = SparsePoly.from_terms(field, n, terms)
        want = reference.canonical_terms(field, n, terms)
        assert [(e, c) for c, e in f.terms()] == want
        assert f.exps.shape == (len(want), n)
        if want:
            assert monomial_content(f) == reference.content(want)
            assert [(e, c) for c, e in monomial_primitive(f).terms()] == reference.primitive(want)
            assert f.total_degree() == max(sum(e) for e, _ in want)
            assert f.partial_degrees() == tuple(max(e[i] for e, _ in want) for i in range(n))

    @pytest.mark.parametrize("field", ARRAY_FIELDS, ids=str)
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_isolation_and_ydegrees(self, field, data):
        n, terms = data.draw(term_lists(field))
        want = reference.canonical_terms(field, n, terms)
        if not want:
            return
        f = SparsePoly.from_terms(field, n, terms)
        s = data.draw(st.tuples(*[st.integers(1, 5)] * n))
        assert has_max_isolated_term(f, s) == reference.isolated(want, s)
        dots = reference.weighted_degrees(want, s)
        ydegs = [d - min(dots) for d in dots]
        layers = {}
        for t, yd in zip(want, ydegs):
            layers.setdefault(yd, []).append(t)
        h = homogenize(f, s)
        assert h.ydegs.tolist() == ydegs
        assert h.max_ydeg == max(ydegs)
        assert [(yd, [(e, c) for c, e in g.terms()]) for yd, g in h.layers] == sorted(layers.items())

    @pytest.mark.parametrize("field", ARRAY_FIELDS, ids=str)
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_homogenized_layout(self, field, data):
        # the starts/layer_ydegs segments of HomoPoly's arrays, concatenated,
        # hold the source's terms once each: layers by rising y-degree, lex
        # order within each layer
        n, terms = data.draw(term_lists(field))
        want = reference.canonical_terms(field, n, terms)
        if not want:
            return
        s = data.draw(st.tuples(*[st.integers(1, 5)] * n))
        h = homogenize(SparsePoly.from_terms(field, n, terms), s)
        dots = reference.weighted_degrees(want, s)
        expected = sorted(((d - min(dots), e), c) for (e, c), d in zip(want, dots))
        assert h.starts[0] == 0 and np.all(np.diff(h.starts) > 0) and np.all(np.diff(h.layer_ydegs) > 0)
        ends = h.starts.tolist()[1:] + [len(h.exps)]
        got = []
        for yd, a, b in zip(h.layer_ydegs.tolist(), h.starts.tolist(), ends):
            for e, c in zip(h.exps[a:b].tolist(), h.coeffs[a:b].tolist()):
                got.append(((yd, tuple(e)), tuple(c) if isinstance(c, list) else c))
        assert got == expected

    @pytest.mark.parametrize("field", ARRAY_FIELDS[:4], ids=str)
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_polyfile_round_trip(self, field, data):
        n, terms = data.draw(term_lists(field, huge=True))
        f = SparsePoly.from_terms(field, n, terms)
        text = polyfile.render(field, f)
        assert text == reference.render(field.p, n, reference.canonical_terms(field, n, terms))
        assert polyfile.parse(text) == (field, f)

    @pytest.mark.parametrize("field", ARRAY_FIELDS, ids=str)
    def test_terms_are_python_ints_and_arrays_read_only(self, field):
        rng = random.Random(7)
        f = SparsePoly.from_terms(field, 2, [(field.rand_unit(rng), (i, 3 - i)) for i in range(4)])
        for c, e in f.terms():
            assert all(type(x) is int for x in (c if isinstance(c, tuple) else (c,)) + e)
        h = homogenize(f, (1, 2))
        for a in (f.exps, f.coeffs, h.ydegs, h.exps, h.coeffs, h.starts, h.layer_ydegs):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_sparse_mul_exact_at_2_62(self):
        # terms() hands the oracle python ints, so products of residues near
        # 2^62 do not wrap
        field = PrimeField(P62)
        a = [(P62 - 1, (1, 0)), (P62 - 2, (0, 1))]
        b = [(P62 - 3, (1, 0)), (P62 - 4, (0, 0))]
        got = sparse_mul(field, SparsePoly.from_terms(field, 2, a), SparsePoly.from_terms(field, 2, b))
        want = [(ca * cb % P62, (ea[0] + eb[0], ea[1] + eb[1])) for ca, ea in a for cb, eb in b]
        assert [(e, c) for c, e in got.terms()] == reference.canonical_terms(field, 2, want)


class TestInt64Bounds:
    @pytest.mark.parametrize("e", [-1, 2**62, 2**63 - 1, 2**63, 2**70])
    def test_exponents_outside_int64_range_rejected(self, e):
        with pytest.raises(InvalidInput):
            SparsePoly.from_terms(FP, 2, [(1, (0, 1)), (1, (e, 0))])

    def test_largest_exponent_accepted(self):
        f = SparsePoly.from_terms(FP, 3, [(1, (2**62 - 1,) * 3), (1, (0, 0, 0))])
        assert f.total_degree() == 3 * (2**62 - 1)  # past int64, summed exactly

    def test_weighted_degrees_that_could_wrap_rejected(self):
        # D = 2^61 and cap = 2 * (3 - 1) = 4: D * cap = 2^63 would wrap exps @ s
        A = SparsePoly.from_terms(FP, 2, [(1, (2**61, 0)), (1, (0, 1)), (1, (1, 1))])
        B = SparsePoly.from_terms(FP, 2, [(1, (2**61, 0)), (1, (3, 0)), (1, (0, 2))])
        with pytest.raises(InvalidInput):
            choose_isolating_vector(A, B, random.Random(0))
        # one term gives s = (1, 1, 1) without a draw: D = 3 * 2^61 alone is too large
        one = SparsePoly.from_terms(FP, 3, [(1, (2**61,) * 3)])
        with pytest.raises(InvalidInput):
            choose_isolating_vector(one, SparsePoly.from_terms(FP, 3, [(1, (0, 0, 1)), (1, (1, 0, 0))]), random.Random(0))

    def test_weighted_degrees_below_the_bound_accepted(self):
        A = SparsePoly.from_terms(FP, 2, [(1, (2**59, 0)), (1, (0, 1)), (1, (1, 1))])
        B = SparsePoly.from_terms(FP, 2, [(1, (2**59, 0)), (1, (3, 0)), (1, (0, 2))])
        s, which = choose_isolating_vector(A, B, random.Random(0))
        assert has_max_isolated_term(A if which == "A" else B, s)
