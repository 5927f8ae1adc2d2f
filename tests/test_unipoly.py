import random

import numpy as np
import pytest

from spgcd.errors import InvalidInput
from spgcd.field import ExtField, PrimeField
from spgcd.unipoly import (
    berlekamp_massey,
    find_roots,
    monic_gcd,
    solve_transposed_vandermonde,
)

from reference import gcd_one, generic_monic_gcd, monic, poly_divmod, poly_mul, roots_one, solve_one

F7 = PrimeField(7)
F101 = PrimeField(101)


def rand_coeffs(field, deg, rng):
    c = [field.rand(rng) for _ in range(deg + 1)]
    c[-1] = field.rand_unit(rng)
    return c


class TestMonicGcd:
    def test_shared_root(self):
        # gcd(y^2 - 1, y - 1) = y + 6 over F_7
        assert gcd_one(F7, [6, 0, 1], [6, 1]) == [6, 1]

    def test_gcd_with_zero(self):
        assert gcd_one(F7, [2, 4], []) == [4, 1]
        assert gcd_one(F7, [], [3]) == [1]
        with pytest.raises(InvalidInput):
            gcd_one(F7, [], [])

    def test_random_coprime_is_one(self):
        rng = random.Random(0)
        for _ in range(20):
            u = rand_coeffs(F101, rng.randrange(1, 12), rng)
            v = rand_coeffs(F101, rng.randrange(1, 12), rng)
            g = gcd_one(F101, u, v)
            # coprime unless they share a root pattern; verify by division
            for f in (u, v):
                _, r = poly_divmod(F101, f, g)
                assert r == []

    def test_common_factor_extracted(self):
        # gcd(u w, v w) = monic(w) * gcd(u, v), checked by exact division
        rng = random.Random(1)
        for _ in range(30):
            w = rand_coeffs(F101, rng.randrange(1, 8), rng)
            u = rand_coeffs(F101, rng.randrange(1, 8), rng)
            v = rand_coeffs(F101, rng.randrange(1, 8), rng)
            g = gcd_one(F101, poly_mul(F101, u, w), poly_mul(F101, v, w))
            expect = monic(F101, poly_mul(F101, w, gcd_one(F101, u, v)))
            assert g == expect

    def test_block_path_matches_generic(self):
        # sizes crossing the Lehmer window exercise the fast lane
        rng = random.Random(2)
        for p in (10000019, 101):
            F = PrimeField(p)
            for dg, du in ((900, 700), (1700, 400), (2600, 200)):
                g = rand_coeffs(F, dg, rng)
                u = poly_mul(F, g, rand_coeffs(F, du, rng))
                v = poly_mul(F, g, rand_coeffs(F, du, rng))
                assert gcd_one(F, u, v) == generic_monic_gcd(F, u, v)

    def test_takes_only_batches(self):
        U = np.array([[6, 0, 1]], dtype=np.int64)
        V = np.array([[6, 1]], dtype=np.int64)
        G, lockstep = monic_gcd(F7, U, V)
        assert G.tolist() == [[6, 1]] and lockstep == 1
        for u, v in (([6, 0, 1], [6, 1]), (U[0], V[0]), (U, V[:0])):
            with pytest.raises(InvalidInput):
                monic_gcd(F7, u, v)

    def test_extension_field(self):
        E = ExtField(7, (1, 0, 1))
        rng = random.Random(3)
        for _ in range(10):
            w = rand_coeffs(E, rng.randrange(1, 5), rng)
            u = poly_mul(E, w, rand_coeffs(E, rng.randrange(1, 5), rng))
            v = poly_mul(E, w, rand_coeffs(E, rng.randrange(1, 5), rng))
            g = gcd_one(E, u, v)
            _, r = poly_divmod(E, g, monic(E, w))
            assert r == []

    def test_ext_matrix_lane_matches_generic(self):
        E = ExtField(101, (1, 1, 0, 1))  # z^3 + z + 1, irreducible over F_101
        rng = random.Random(4)
        w = rand_coeffs(E, 12, rng)
        u = poly_mul(E, w, rand_coeffs(E, 20, rng))
        v = poly_mul(E, w, rand_coeffs(E, 20, rng))
        assert gcd_one(E, u, v) == generic_monic_gcd(E, u, v)


class TestBerlekampMassey:
    def test_single_geometric(self):
        # v_i = 2 * 6^i over F_7: [5, 2] -> z - 6
        assert berlekamp_massey(F7, [5, 2]) == [1, 1]

    def test_zero_sequence(self):
        assert berlekamp_massey(F7, [0, 0, 0, 0]) == [1]

    def test_two_terms(self):
        # m = (2, 3), c = (1, 1): v = [5, 6, 0, 6]; (z-2)(z-3) = z^2 + 2z + 6
        seq = [(2**i + 3**i) % 7 for i in range(1, 5)]
        assert seq == [5, 6, 0, 6]
        assert berlekamp_massey(F7, seq) == [6, 2, 1]

    def test_exhaustive_degree_recovery(self):
        rng = random.Random(5)
        for t in range(1, 13):
            ms = rng.sample(range(1, 101), t)
            cs = [rng.randrange(1, 101) for _ in range(t)]
            seq = [sum(c * pow(m, i, 101) for c, m in zip(cs, ms)) % 101 for i in range(1, 2 * t + 1)]
            lam = berlekamp_massey(F101, seq)
            assert len(lam) - 1 == t
            # lam = prod (z - m_j)
            expect = [1]
            for m in ms:
                expect = poly_mul(F101, expect, [101 - m, 1])
            assert lam == expect


class TestFindRoots:
    def test_linear(self):
        assert roots_one(F7, [1, 1], random.Random(0)) == [6]

    def test_linear_skips_the_split_check(self):
        # a linear f has its root in the field: a batch of linear rows takes
        # no split round
        roots, split, rounds = find_roots(F101, np.array([[37, 1], [5, 3], [0, 7]]), random.Random(0))
        assert rounds == 0 and split.all()
        assert roots[:, 0].tolist() == [101 - 37, F101.mul(101 - 5, F101.inv(3)), 0]
        E = ExtField(5, (2, 0, 1))
        c = (3, 4)
        roots, split, rounds = find_roots(E, np.array([[c, E.one], [E.one, c]]), random.Random(0))
        assert rounds == 0 and split.all()
        assert [tuple(r) for r in roots[:, 0].tolist()] == [E.neg(c), E.neg(E.inv(c))]

    def test_quadratic(self):
        roots = roots_one(F7, [6, 2, 1], random.Random(0))
        assert sorted(roots) == [2, 3]

    def test_irreducible_does_not_split(self):
        roots, split, rounds = find_roots(F7, np.array([[1, 0, 1]]), random.Random(0))
        assert split.tolist() == [False] and roots.tolist() == [[0, 0]] and rounds == 1
        with pytest.raises(InvalidInput):
            find_roots(F7, [1, 0, 1], random.Random(0))

    def test_random_split_products(self):
        rng = random.Random(6)
        for t in (1, 2, 5, 9):
            roots = rng.sample(range(101), t)
            f = [1]
            for a in roots:
                f = poly_mul(F101, f, [101 - a, 1])
            got = roots_one(F101, f, rng)
            assert sorted(got) == sorted(roots)

    def test_char_two(self):
        F2 = PrimeField(2)
        assert sorted(roots_one(F2, [0, 1, 1], random.Random(0))) == [0, 1]
        E4 = ExtField(2, (1, 1, 1))
        roots = [E4.zero, E4.one, (0, 1), (1, 1)]
        f = [E4.one]
        for a in roots:
            f = poly_mul(E4, f, [E4.neg(a), E4.one])
        got = roots_one(E4, f, random.Random(1))
        assert sorted(got) == sorted(roots)

    def test_extension_field(self):
        E = ExtField(5, (2, 0, 1))
        rng = random.Random(7)
        pts = [E.rand(rng) for _ in range(30)]
        roots = list({p: None for p in pts})[:4]
        f = [E.one]
        for a in roots:
            f = poly_mul(E, f, [E.neg(a), E.one])
        assert sorted(roots_one(E, f, rng)) == sorted(roots)


    @pytest.mark.parametrize("field", [F7, F101, PrimeField(2**31 - 1), ExtField(5, (2, 0, 1)), ExtField(2, (1, 1, 1))],
                             ids=repr)
    def test_batch_rows(self, field):
        # non-monic rows of degrees 0 to 5 and one with a repeated root; each
        # row's roots as in a batch of one
        rng = random.Random(field.order)
        units = list({field.rand_unit(rng): None for _ in range(40)})
        polys, want = [], []
        for d in (1, 3, 0, 2, 5, 4, 2):
            roots = rng.sample(units, min(d, len(units)))
            f = [field.rand_unit(rng)]
            for a in roots:
                f = poly_mul(field, f, [field.neg(a), field.one])
            polys.append(f)
            want.append(sorted(roots))
        for _ in range(2):  # a square factor in row 3
            polys[3] = poly_mul(field, polys[3], [field.neg(units[0]), field.one])
        width = max(len(f) for f in polys)
        F = np.zeros((len(polys), width) + (() if field.k == 1 else (field.k,)), dtype=np.int64)
        for i, f in enumerate(polys):
            F[i, : len(f)] = np.array(f, dtype=np.int64).reshape(F[i, : len(f)].shape)
        roots, split, rounds = find_roots(field, F, rng)
        assert split.tolist() == [i != 3 for i in range(len(polys))]
        assert rounds >= 1
        for i, f in enumerate(polys):
            if i != 3:
                assert sorted(elements_of(field, roots[i, : len(f) - 1])) == want[i]
                assert sorted(roots_one(field, f, rng)) == want[i]
        assert roots_one(field, polys[3], rng) is None


def elements_of(field, a):
    out = a.tolist()
    return out if field.k == 1 else [tuple(x) for x in out]


class TestTransposedVandermonde:
    def test_single_node(self):
        assert solve_one(F7, [6], [5]) == [2]

    def test_two_nodes(self):
        assert solve_one(F7, [2, 3], [5, 6]) == [1, 1]

    def test_empty(self):
        assert solve_one(F7, [], []) == []

    def test_duplicate_nodes(self):
        # Q_j(m_j) = 0 for a repeated node: its coefficients come back zero
        assert solve_one(F7, [2, 2], [1, 2]) == [0, 0]

    def test_zero_node(self):
        # a zero node is padding: its coefficient is zero, and node 2 solves
        # c 2 = 1 alone
        assert solve_one(F7, [0, 2], [1, 2]) == [0, 4]
        with pytest.raises(InvalidInput):
            solve_transposed_vandermonde(F7, [0, 2], [1, 2])

    def test_random_round_trip(self):
        rng = random.Random(8)
        for t in (1, 3, 7, 12):
            ms = rng.sample(range(1, 101), t)
            cs = [rng.randrange(1, 101) for _ in range(t)]
            vals = [sum(c * pow(m, i, 101) for c, m in zip(cs, ms)) % 101 for i in range(1, t + 1)]
            assert solve_one(F101, ms, vals) == cs


class TestPipelineRoundTrip:
    def test_sequence_to_support_and_back(self):
        # synthesize from (c, m), run BM -> roots -> Vandermonde, recover exactly
        for field in (F101, ExtField(5, (2, 0, 1))):
            rng = random.Random(9)
            universe = []
            while len(universe) < 10:
                a = field.rand_unit(rng)
                if a not in universe:
                    universe.append(a)
            for t in (1, 2, 5, 8):
                ms = universe[:t]
                cs = [field.rand_unit(rng) for _ in range(t)]
                seq = []
                for i in range(1, 2 * t + 1):
                    acc = field.zero
                    for c, m in zip(cs, ms):
                        acc = field.add(acc, field.mul(c, field.pow_(m, i)))
                    seq.append(acc)
                lam = berlekamp_massey(field, seq)
                assert len(lam) - 1 == t
                roots = roots_one(field, lam, rng)
                assert sorted(roots) == sorted(ms)
                coeffs = solve_one(field, roots, seq[:t])
                recovered = dict(zip(roots, coeffs))
                assert recovered == dict(zip(ms, cs))


class TestEvalHelpers:
    def test_divmod_identity(self):
        rng = random.Random(10)
        for _ in range(30):
            a = rand_coeffs(F101, rng.randrange(0, 9), rng)
            b = rand_coeffs(F101, rng.randrange(0, 9), rng)
            q, r = poly_divmod(F101, a, b)
            back = poly_mul(F101, q, b)
            full = [F101.add(x, y) for x, y in zip(back + [0] * len(r), r + [0] * len(back))]
            while full and full[-1] == 0:
                full.pop()
            assert full == (a if any(a) else [])
