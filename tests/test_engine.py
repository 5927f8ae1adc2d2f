import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spgcd.engine import (
    GcdConfig,
    StageTrace,
    _extension,
    _hankel_singular_rows,
    _ImageStream,
    _StageFailure,
    gcd,
    primitive_gcd,
)
from spgcd.errors import InvalidInput
from spgcd.field import (
    LANE_FP_NUMPY,
    LANE_FPK_KERNEL,
    LANE_WIDE,
    ExtField,
    PrimeField,
    find_irreducible,
)
from spgcd.instances import gen_triple, random_poly
from spgcd.oracle import dense_gcd, divides_exactly, sparse_mul
from spgcd.sparse import PowerImageEvaluator, SparsePoly, homogenize, lex_monic, monomial_primitive
from spgcd.unipoly import monic_gcd

from reference import first_singular

F7 = PrimeField(7)
F11 = PrimeField(11)
FP = PrimeField(10000019)


def ext_field(p, k):
    return ExtField(p, find_irreducible(p, k, random.Random(p + k)))


# the F_p kernel, the F_{p^k} kernel, the wide kernels and tiny fields
HANKEL_FIELDS = (
    FP,
    PrimeField(2**30 - 35),
    ext_field(101, 3),
    ext_field(1000003, 2),
    PrimeField(2**31 - 1),
    ext_field(2**31 - 1, 2),
    PrimeField(2),
    PrimeField(3),
    ext_field(2, 4),
    ext_field(3, 3),
)


def t_sparse_sequence(field, t, rng, length=None):
    """v_1, ..., v_length (default 2t + 1) of sum_j c_j m_j^i, t distinct
    nonzero m_j, c_j != 0."""
    nodes = set()
    while len(nodes) < t:
        nodes.add(field.rand_unit(rng))
    terms = [(field.rand_unit(rng), m) for m in sorted(nodes)]
    vals = []
    for i in range(1, (2 * t + 1 if length is None else length) + 1):
        v = field.zero
        for c, m in terms:
            v = field.add(v, field.mul(c, field.pow_(m, i)))
        vals.append(v)
    return vals


def hankel(vals, s):
    return [[vals[i + j] for j in range(s)] for i in range(s)]


def generic_singular(field, M):
    """det M == 0, by Gaussian elimination on field elements (the reference)."""
    M = [list(row) for row in M]
    n = len(M)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != field.zero), None)
        if piv is None:
            return True
        M[col], M[piv] = M[piv], M[col]
        inv = field.inv(M[col][col])
        for r in range(col + 1, n):
            f = field.mul(M[r][col], inv)
            M[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(M[r], M[col])]
    return False


def poly(field, nvars, terms):
    return SparsePoly.from_terms(field, nvars, terms)


def bad_point_stream(p, count):
    """(trial, field, omega, A, B) for planted instances over a small prime,
    where bad evaluation points are common; omega = 2 generates F_61 and
    F_211."""
    field = PrimeField(p)
    omega = 2
    rng = random.Random(77)
    for trial in range(count):
        n = rng.randint(2, 3)
        G0 = random_poly(field, rng, n, 3, 4)
        A = sparse_mul(field, random_poly(field, rng, n, 3, 4), G0)
        B = sparse_mul(field, random_poly(field, rng, n, 3, 4), G0)
        yield trial, field, omega, A, B


class TestHankel:
    def test_rank_one_sequence(self):
        # v_i = c * m^i: HK_2 = [[v1, v2], [v2, v3]] is singular
        vals = [3 * pow(2, i, 7) % 7 for i in range(1, 6)]
        assert first_singular(F7, vals, 3) == 2

    def test_zero_sequence(self):
        assert first_singular(F7, [0, 0, 0], 2) == 1

    def test_two_term_sequence(self):
        vals = [(pow(2, i, 7) + pow(3, i, 7)) % 7 for i in range(1, 6)]
        assert first_singular(F7, vals, 3) == 3

    def test_not_yet(self):
        vals = [(pow(2, i, 101) + 5 * pow(3, i, 101)) % 101 for i in range(1, 4)]
        assert first_singular(PrimeField(101), vals, 2) is None

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_t_sparse_sequence_on_every_lane(self, data):
        # v_i = sum_j c_j m_j^i with t distinct nonzero m_j and nonzero c_j:
        # HK_t = V^T diag(c_j m_j) V is nonsingular and HK_(t+1) singular;
        # a smaller HK_s can be singular too, mostly in tiny fields
        field = data.draw(st.sampled_from(HANKEL_FIELDS))
        t = data.draw(st.integers(0, min(5, field.order - 1)))
        vals = t_sparse_sequence(field, t, random.Random(data.draw(st.integers(0, 2**32 - 1))))
        singular = [generic_singular(field, hankel(vals, s)) for s in range(1, t + 2)]
        assert singular[t] and not (t and singular[t - 1])
        as_array = field.kernel.array(vals)  # the engine's form
        assert [_hankel_singular_rows(field, as_array[None], s)[0] for s in range(1, t + 2)] == singular
        assert first_singular(field, vals, t + 1) == singular.index(True) + 1

    @pytest.mark.parametrize("field", HANKEL_FIELDS, ids=repr)
    @settings(max_examples=25, deadline=None, database=None)
    @given(data=st.data())
    def test_stacked_rows_match_the_reference(self, field, data):
        # one batch mixes random, all-zero, low-rank and full-rank rows and
        # rows whose leading zeros move the pivot down; each row's flag must
        # be its own matrix's, whatever the other rows hold
        size = data.draw(st.integers(1, 5))
        length = 2 * size - 1
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        rows = []
        for kind in data.draw(st.lists(st.sampled_from(["random", "zero", "sparse", "late"]), min_size=1, max_size=6)):
            if kind == "random":
                rows.append([field.rand(rng) for _ in range(length)])
            elif kind == "zero":
                rows.append([field.zero] * length)
            elif kind == "sparse":  # t <= size terms: singular when t < size
                t = data.draw(st.integers(0, min(size, field.order - 1)))
                rows.append(t_sparse_sequence(field, t, rng, length))
            else:
                lead = data.draw(st.integers(1, length))
                rows.append([field.zero] * lead + [field.rand_unit(rng) for _ in range(length - lead)])
        expected = [generic_singular(field, hankel(row, size)) for row in rows]
        values = np.stack([field.kernel.array(row) for row in rows])
        assert _hankel_singular_rows(field, values, size).tolist() == expected

    def test_stacked_rows_pivot_apart(self):
        # HK_3 over F_101 of: zero; rank one (c m^i); v = (0, 0, 1, 0, 0), the
        # anti-diagonal, nonsingular with its pivot in the last row; (0, 1,
        # 0, 0, 1), nonsingular with its pivot in the middle row; (1, 0, 0,
        # 0, 0), singular after the first column
        F = PrimeField(101)
        rank_one = [3 * pow(5, i, 101) % 101 for i in range(1, 6)]
        rows = [[0] * 5, rank_one, [0, 0, 1, 0, 0], [0, 1, 0, 0, 1], [1, 0, 0, 0, 0]]
        got = _hankel_singular_rows(F, np.array(rows, dtype=np.int64), 3)
        assert got.tolist() == [True, True, False, False, True]
        assert got.tolist() == [generic_singular(F, hankel(row, 3)) for row in rows]

    @pytest.mark.parametrize("field", [f for f in HANKEL_FIELDS if f.order > 1000], ids=repr)
    def test_first_singular_is_t_plus_one(self, field):
        rng = random.Random(12)
        for t in range(6):
            vals = t_sparse_sequence(field, t, rng)
            assert first_singular(field, vals, t + 1) == t + 1
            assert first_singular(field, field.kernel.array(vals), t + 1) == t + 1


class TestImageStream:
    # Over F_p at sigma = (s1, 1) with s1^7 = r: images one at a time, as
    # the probe reads them, and streams whose image 7 is bad.  Image i is
    # (s1^i)^d monicgcd(A(y, sigma^i), B(y, sigma^i)), weights s = (1, 1).
    D = 2

    def point(self, rng):
        s1 = FP.rand_unit(rng)
        assert len({FP.pow_(s1, i) for i in range(1, 10)}) == 9
        return (s1, 1), FP.pow_(s1, 7)

    def one_at_a_time(self, A, B, sigma, count):
        evs = [PowerImageEvaluator(FP, homogenize(f, (1, 1)), sigma) for f in (A, B)]
        images = []
        for i in range(1, count + 1):
            G, _ = monic_gcd(FP, *(ev.next_images(1) for ev in evs))
            images.append(G[0] * FP.pow_(sigma[0], i * self.D) % FP.p)
        return images

    def stream(self, A, B, sigma):
        trace = StageTrace()
        homos = [homogenize(f, (1, 1)) for f in (A, B)]
        return _ImageStream(FP, *homos, sigma, self.D, 2 * (self.D + 1) ** 2 - 1, trace), trace

    def check_bad_image_7(self, A, B, sigma, cause):
        stream, trace = self.stream(A, B, sigma)
        for count in (1, 3, 5):
            stream.ensure(count)
            width = stream.images.shape[1]
            expected = np.array(self.one_at_a_time(A, B, sigma, count))
            assert np.array_equal(stream.values(list(range(width))).T, expected)
        assert stream.taken == 8  # image 7 was taken ahead of the probe
        assert (trace.stage2_images_read, trace.stage2_images_taken) == (5, 8)
        with pytest.raises(_StageFailure, match=cause):
            stream.ensure(7)
        assert (trace.stage2_images_read, trace.stage2_images_taken) == (7, 8)

    def test_leading_coefficient_vanishes_past_the_prefix(self):
        # A's top y-coefficient x1^2 - r x1 x2 is s1^i (s1^i - r): zero at i = 7
        sigma, r = self.point(random.Random(1))
        A = poly(FP, 2, [(1, (2, 0)), (FP.neg(r), (1, 1)), (1, (1, 0)), (1, (0, 0))])
        B = poly(FP, 2, [(1, (1, 1)), (2, (0, 1)), (3, (0, 0))])
        self.check_bad_image_7(A, B, sigma, "leading coefficient vanished")

    def test_degree_disagreement_past_the_prefix(self):
        # A(y, sigma^i) = s1^i y - r and B(y, sigma^i) = y - 1 share a root
        # only where s1^i = r: the GCD has degree 1 at image 7 only
        sigma, r = self.point(random.Random(2))
        A = poly(FP, 2, [(1, (1, 0)), (FP.neg(r), (0, 0))])
        B = poly(FP, 2, [(1, (0, 1)), (FP.neg(1), (0, 0))])
        self.check_bad_image_7(A, B, sigma, "image degree disagreement")


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

    def test_self_gcd_past_block_degree(self):
        # images of degree >= _BLOCK_MIN_DEG with u = v: the block Euclid's
        # first window leaves a zero remainder
        A, _, _ = gen_triple(FP, random.Random(5), 6, 30, 1600)
        got, _ = gcd(FP, A, A, GcdConfig(seed=1, omega=6, term_strategy="linear"))
        assert got == lex_monic(FP, A)

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

    @pytest.mark.parametrize("omega", [0, 10000019])
    def test_omega_divisible_by_p_rejected(self, omega):
        # omega = 0 mod p has no multiplicative order; it must not reach Stage IV
        A, B, _ = gen_triple(FP, random.Random(1), 3, 6, 6)
        with pytest.raises(InvalidInput):
            gcd(FP, A, B, GcdConfig(seed=1, omega=omega))


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
        failures = {}
        for trial, F211, omega, A, B in bad_point_stream(211, 60):
            got, tr = gcd(F211, A, B, GcdConfig(seed=trial, omega=omega, max_retries=12))
            assert got == dense_gcd(F211, A, B), trial
            if tr.failures:
                failures[trial] = tr.failures
        # these seeds do hit bad points, in this order
        assert failures == {
            34: ["IV: leading coefficient vanished"],
            39: ["IV: image degree disagreement"] * 2,
        }

    def test_stage_ii_failures_keep_their_order(self):
        # at p = 61 bad points also hit Stage II's images; each attempt must
        # fail as if its images had been taken and checked one at a time
        II_lc, II_deg = "II: leading coefficient vanished", "II: image degree disagreement"
        IV_lc, IV_deg = "IV: leading coefficient vanished", "IV: image degree disagreement"
        failures = {}
        for trial, F61, omega, A, B in bad_point_stream(61, 60):
            got, tr = gcd(F61, A, B, GcdConfig(seed=trial, omega=omega, max_retries=12))
            assert got == dense_gcd(F61, A, B), trial
            if tr.failures:
                failures[trial] = tr.failures
        assert failures == {
            5: [II_deg],
            6: [IV_deg],
            7: [II_lc],
            8: [IV_deg],
            9: [IV_deg],
            11: [II_deg, II_deg],
            13: [IV_lc, IV_lc, II_deg, IV_lc, IV_lc],
            15: [IV_deg],
            23: [IV_lc, IV_lc],
            27: [IV_deg],
            34: [IV_deg],
            35: [II_lc, II_lc, IV_deg, IV_lc],
            49: [II_deg, IV_deg],
            52: [IV_deg],
        }

    def test_degree_disagreement_recovered_by_retry(self):
        # trial 39 of the instance stream above: in its first two attempts
        # some grid points give a univariate GCD of another degree, which
        # aborts Stage IV; the third attempt is exact
        _, F211, omega, A, B = list(bad_point_stream(211, 40))[-1]
        got, tr = gcd(F211, A, B, GcdConfig(seed=39, omega=omega, max_retries=12))
        assert tr.failures == ["IV: image degree disagreement"] * 2
        assert got == dense_gcd(F211, A, B)
        assert tr.fallback_rows > 0  # the rows with the other degree left the lockstep

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

    @pytest.mark.parametrize("epsilon", [1e-15, 1e-30])
    def test_guaranteed_path_at_the_int64_bound(self, epsilon):
        # at p = 2^62 - 57 a tight epsilon asks for F_(p^2) or F_(p^3),
        # whose unit groups' orders resist factoring: omega needs only an
        # order above 2d, which one power table shows
        field = PrimeField(2**62 - 57)
        A, B, G = gen_triple(field, random.Random(1), 6, 30, 30)
        got, tr = gcd(field, A, B, GcdConfig(seed=1, epsilon=epsilon))
        assert got == G
        assert tr.ext3_degree > 1

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
            assert C.exps.tolist() == H.exps.tolist()
            ratios = {F11.mul(c1, F11.inv(c2)) for (c1, _), (c2, _) in zip(C.terms(), H.terms())}
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
        assert tr.lanes == {"II": LANE_FP_NUMPY, "IV": LANE_FP_NUMPY, "V": LANE_FP_NUMPY}

    def test_stage_iv_rows_in_lockstep(self):
        # the standard shape: every grid row's GCD runs in the lockstep Euclid
        A, B, G = gen_triple(FP, random.Random(1), 6, 30, 30)
        got, tr = gcd(FP, A, B, GcdConfig(seed=3, omega=6, term_strategy="linear"))
        assert got == G and tr.retries == 0
        assert tr.lockstep_rows == (6 + 1) * 2 * tr.term_bounds.global_T
        assert tr.fallback_rows == 0

    def test_stage_iv_rows_in_lockstep_on_the_wide_lane(self):
        # p >= 2^30 has no numpy lane: its grid rows run in lockstep on the
        # wide kernel
        field = PrimeField(2**31 - 1)
        A, B, G = gen_triple(field, random.Random(2), 3, 6, 6)
        got, tr = gcd(field, A, B, GcdConfig(seed=4, omega=7, term_strategy="linear"))
        assert got == G and tr.retries == 0
        assert tr.lanes["IV"] == tr.lanes["V"] == LANE_WIDE
        assert tr.lockstep_rows == (3 + 1) * 2 * tr.term_bounds.global_T
        assert tr.fallback_rows == 0

    def test_extension_path_reports_kernel_lane(self):
        # the ext_field benchmark shape: p = 1000003 without omega
        field = PrimeField(1000003)
        A, B, G = gen_triple(field, random.Random(9), 4, 10, 10)
        got, tr = gcd(field, A, B, GcdConfig(seed=16, term_strategy="linear"))
        assert got == G
        assert tr.ext2_degree > 1 and tr.ext3_degree > 1
        assert tr.lanes == {"II": LANE_FPK_KERNEL, "IV": LANE_FPK_KERNEL, "V": LANE_FPK_KERNEL}
        assert tr.retries == 0
        # shared-node interpolation needs ord(omega) > 2d in Stage III's field
        d = max(max(monomial_primitive(f).partial_degrees()) for f in (A, B))
        E3 = _extension(field.p, tr.ext3_degree)
        assert all(E3.pow_(tr.omega, j) != E3.one for j in range(1, 2 * d + 1))
        assert tr.lockstep_rows == (4 + 1) * 2 * tr.term_bounds.global_T
        assert tr.fallback_rows == 0

    def test_stage_ii_images_read_and_taken(self):
        # under "linear" the last Hankel round of an attempt is T = global_T
        # + 1, so it reads 2 global_T + 1 images; narrow images come in a
        # first batch of 8 and then doubling
        A, B, G = gen_triple(FP, random.Random(1), 6, 30, 30)
        got, tr = gcd(FP, A, B, GcdConfig(seed=3, omega=6, term_strategy="linear"))
        assert got == G and tr.retries == 0 and tr.term_bounds.global_T == 4
        assert (tr.stage2_images_read, tr.stage2_images_taken) == (9, 16)
        # both sum over attempts: trial 11 at p = 61 fails Stage II twice,
        # and each of its three attempts takes one batch of 8
        _, F61, omega, A, B = list(bad_point_stream(61, 12))[-1]
        got, tr = gcd(F61, A, B, GcdConfig(seed=11, omega=omega, max_retries=12))
        assert got == dense_gcd(F61, A, B) and tr.retries == 2 and tr.term_bounds.global_T == 1
        assert tr.stage2_images_taken == 3 * 8
        assert tr.stage2_images_read == 6 + (2 * tr.term_bounds.global_T + 1)  # 6 in the failed attempts

    def test_stage_v_records_split_rounds(self):
        A, B, G = gen_triple(FP, random.Random(3), 6, 30, 30)
        got, tr = gcd(FP, A, B, GcdConfig(seed=5, omega=6, term_strategy="linear"))
        assert got == G
        assert tr.lanes["V"] == LANE_FP_NUMPY
        assert len(tr.split_rounds) == tr.retries + 1
        assert all(type(r) is int and r >= 0 for r in tr.split_rounds)

    def test_first_failing_layer_names_the_stage_v_failure(self, monkeypatch):
        # on the first attempt, layer 2 breaks its recurrence and layer 1
        # gets a shifted row that is no power of omega: layer 1 decides
        import spgcd.engine as engine_mod

        real, real_bounds, calls, bounds = engine_mod.interpolate, engine_mod.TermBounds, [], []

        def corrupt_once(field, grids, bound, rng):
            calls.append(len(grids.bounds))
            if len(calls) == 1:
                grids.values[2, 1, 2 * grids.bounds[2] - 1] += 1
                grids.values[1, 1] = grids.values[1, 1] * 1234567 % field.p
            return real(field, grids, bound, rng)

        def record(*args):  # each attempt's layers
            bounds.append(real_bounds(*args))
            return bounds[-1]

        monkeypatch.setattr(engine_mod, "interpolate", corrupt_once)
        monkeypatch.setattr(engine_mod, "TermBounds", record)
        A, B, G = gen_triple(FP, random.Random(3), 6, 30, 30)
        got, tr = gcd(FP, A, B, GcdConfig(seed=5, omega=6, term_strategy="linear"))
        assert got == G and calls[0] >= 3
        d = max(max(A.partial_degrees()), max(B.partial_degrees()))
        e = bounds[0].layer_ydegs[1]
        assert tr.failures == [f"V: layer y^{e}: no exponent <= {2 * d} matches"]
        assert len(tr.split_rounds) == 2


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
