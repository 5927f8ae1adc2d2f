import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spgcd.errors import InterpolationError, LengthMismatch, NotAPower, RootDeficit
from spgcd.field import ExtField, PrimeField, find_irreducible, shift_element
from spgcd.instances import random_poly
from spgcd.interp import LayerGrids, interpolate
from spgcd.sparse import SparsePoly, add_polys, diversify, eval_at_powers

F7 = PrimeField(7)
FP = PrimeField(10000019)
F343 = ExtField(7, find_irreducible(7, 3, random.Random(0)))
# (field, omega) with ord(omega) > MAX_DEG, so exponents up to MAX_DEG are unique
MAX_DEG = 8
LANES = [(PrimeField(101), 2), (FP, 6), (F343, shift_element(F343, MAX_DEG, random.Random(0)))]


def one_layer(alpha, omega, T, rows):
    """The grid of one layer with term bound T: rows[0] the base row, rows[k + 1] shifted row k."""
    return LayerGrids(tuple(alpha), omega, (T,), np.array(rows, dtype=np.int64)[None])


def grid_for(field, f, alpha, omega, T):
    """Base row f(alpha^i); shifted row k is f with x_k -> omega * x_k at the
    same points, i = 1..2T."""
    n = f.nvars
    rows = [eval_at_powers(field, f, alpha, 2 * T)]
    for k in range(n):
        shifted = diversify(field, f, tuple(omega if i == k else field.one for i in range(n)))
        rows.append(eval_at_powers(field, shifted, alpha, 2 * T))
    return one_layer(alpha, omega, T, rows)


class TestWorkedExample:
    def test_cubic_monomial(self):
        # f = 2 x^3 over F_7, alpha = 3, omega = 3, T = 1, d = 6
        f = SparsePoly.from_terms(F7, 1, [(2, (3,))])
        g = grid_for(F7, f, (3,), 3, 1)
        assert g.values[0].tolist() == [[5, 2], [2, 5]]  # base row, shifted row 0
        assert interpolate(F7, g, 6, random.Random(0))[0] == f

    def test_constant(self):
        f = SparsePoly.from_terms(F7, 3, [(4, (0, 0, 0))])
        g = grid_for(F7, f, (2, 3, 5), 3, 2)
        assert interpolate(F7, g, 6, random.Random(0))[0] == f

    def test_zero(self):
        f = SparsePoly.zero(2)
        g = one_layer((2, 3), 3, 2, [(0,) * 4] * 3)
        assert interpolate(F7, g, 6, random.Random(0))[0] == f


class TestRandomRecovery:
    def test_five_terms_three_vars(self):
        rng = random.Random(1)
        f = random_poly(FP, rng, 3, 5, 50, distinct_coeffs=True)
        alpha = tuple(FP.rand_unit(rng) for _ in range(3))
        g = grid_for(FP, f, alpha, 6, 5)
        assert interpolate(FP, g, 50, rng)[0] == f

    def test_oversized_term_bound(self):
        rng = random.Random(2)
        f = random_poly(FP, rng, 2, 3, 20, distinct_coeffs=True)
        alpha = tuple(FP.rand_unit(rng) for _ in range(2))
        g = grid_for(FP, f, alpha, 6, 8)  # T larger than #f
        assert interpolate(FP, g, 20, rng)[0] == f

    def test_duplicate_coefficients(self):
        # terms match by node, not by coefficient, so equal coefficients are fine
        f = SparsePoly.from_terms(FP, 2, [(1, (1, 0)), (1, (0, 1))])  # x1 + x2
        g = grid_for(FP, f, (17, 23), 6, 2)
        assert interpolate(FP, g, 5, random.Random(3))[0] == f
        rng = random.Random(11)
        support = random_poly(FP, rng, 3, 8, 20)
        f = SparsePoly.from_terms(FP, 3, [(42, e) for e in support.exps])
        alpha = tuple(FP.rand_unit(rng) for _ in range(3))
        assert interpolate(FP, grid_for(FP, f, alpha, 6, 8), 20, rng)[0] == f


class TestFailureModes:
    def test_exponent_beyond_bound(self):
        f = SparsePoly.from_terms(FP, 1, [(2, (9,))])
        rng = random.Random(4)
        g = grid_for(FP, f, (1234,), 6, 1)
        with pytest.raises(NotAPower):
            interpolate(FP, g, 4, rng)  # bound below the true exponent

    def test_row_degree_mismatch(self):
        f = SparsePoly.from_terms(FP, 1, [(3, (2,))])
        other = SparsePoly.from_terms(FP, 1, [(3, (2,)), (5, (1,))])
        base = eval_at_powers(FP, f, (99,), 4)
        row = eval_at_powers(FP, diversify(FP, other, (6,)), (99,), 4)
        g = one_layer((99,), 6, 2, [base, row])
        with pytest.raises(LengthMismatch):
            interpolate(FP, g, 10, random.Random(5))

    def test_zero_base_nonzero_shift(self):
        g = one_layer((3,), 6, 1, [(0, 0), (1, 2)])
        with pytest.raises(LengthMismatch):
            interpolate(FP, g, 5, random.Random(6))

    def test_recurrence_without_field_roots(self):
        from spgcd.errors import RootDeficit

        # v = [1, 0, -1, 0]: minimal polynomial z^2 + 1, irreducible over F_7
        g = one_layer((3,), 3, 2, [(1, 0, 6, 0)] * 2)
        with pytest.raises(RootDeficit):
            interpolate(F7, g, 5, random.Random(7))


class TestRowAgreement:
    def test_all_rows_same_degree_on_success(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(1, 4)
            f = random_poly(FP, rng, n, rng.randint(1, 8), 30, distinct_coeffs=True)
            alpha = tuple(FP.rand_unit(rng) for _ in range(n))
            g = grid_for(FP, f, alpha, 6, 8)
            assert interpolate(FP, g, 30, rng)[0] == f


@st.composite
def small_polys(draw):
    """(field, omega, f, extra term slack, seed); coefficients repeat often."""
    field, omega = draw(st.sampled_from(LANES))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, MAX_DEG))
    exps = draw(st.lists(st.tuples(*[st.integers(0, d)] * n), min_size=1, max_size=6, unique=True))
    coeff = st.one_of(st.integers(1, 3), st.integers(1, field.p - 1))
    coeffs = draw(st.lists(coeff, min_size=len(exps), max_size=len(exps)))
    f = SparsePoly.from_terms(field, n, zip(coeffs, exps))
    return field, omega, f, d, draw(st.integers(0, 2)), draw(st.integers(0, 2**32 - 1))


class TestProperty:
    @settings(max_examples=300, deadline=None, database=None)
    @given(small_polys())
    def test_exact_or_interpolation_error(self, case):
        # alpha is drawn uniformly, as the algorithm's guarantee assumes.  When
        # alpha^E separates the monomials of f, recovery is exact.  Otherwise
        # (likely at p = 101) two monomials share a node, and the returned
        # polynomial, if any, must reproduce every row: the grid cannot tell
        # it from f.
        field, omega, f, d, slack, seed = case
        rng = random.Random(seed)
        alpha = tuple(field.rand_unit(rng) for _ in range(f.nvars))
        T = f.n_terms + slack
        grid = grid_for(field, f, alpha, omega, T)
        nodes = {eval_at_powers(field, SparsePoly(f.nvars, (field.one,), (e,)), alpha, 1)[0]
                 for e in f.exps}
        separated = len(nodes) == f.n_terms
        try:
            got, _ = interpolate(field, grid, d, rng)
        except InterpolationError:
            assert not separated
            return
        if separated:
            assert got == f
        else:
            assert np.array_equal(grid_for(field, got, alpha, omega, T).values, grid.values)


# Fields at the lane thresholds, each with a shift element whose order
# exceeds its exponent bound: F_2 and F_3 (bounds 0 and 1), the F_p numpy
# lane up to 2^30 - 35, the wide F_p kernel at 2^31 - 1, an F_{p^k} kernel
# field and an F_{p^k} field past ExtKernel.fits.
F_WIDE = ExtField(2**31 - 1, find_irreducible(2**31 - 1, 2, random.Random(1)))
BATCH_FIELDS = [
    (PrimeField(2), 0),
    (PrimeField(3), 1),
    (PrimeField(101), 8),
    (PrimeField(2**30 - 35), 8),
    (PrimeField(2**31 - 1), 8),
    (F343, 8),
    (F_WIDE, 8),
]


def planted_layer(field, rng, alpha, bound, terms):
    """A polynomial with up to `terms` terms, exponents in [0, bound], whose
    monomials get distinct nodes at alpha."""
    n, nodes, out = len(alpha), set(), []
    for _ in range(8 * terms):
        e = tuple(rng.randint(0, bound) for _ in range(n))
        node = eval_at_powers(field, SparsePoly(n, (field.one,), (e,)), alpha, 1)[0]
        if node not in nodes:
            nodes.add(node)
            out.append((field.rand_unit(rng), e))
        if len(out) == terms:
            break
    return SparsePoly.from_terms(field, n, out)


def batch_of(field, alpha, omega, grids):
    """LayerGrids holding the rows of single-layer grids, zero-padded to the
    widest, as the engine lays them out."""
    width = max(g.values.shape[2] for g in grids)
    values = np.zeros((len(grids), len(alpha) + 1, width) + (() if field.k == 1 else (field.k,)), dtype=np.int64)
    for l, g in enumerate(grids):
        values[l, :, : g.values.shape[2]] = g.values[0]
    return LayerGrids(alpha, omega, tuple(T for g in grids for T in g.bounds), values)


class TestBatch:
    @pytest.mark.parametrize("field, bound", BATCH_FIELDS, ids=lambda x: repr(x))
    def test_layers_equal_planted_and_single_grids(self, field, bound):
        rng = random.Random(field.p + field.k)
        for _ in range(3):
            n = rng.randint(1, 3)
            alpha = tuple(field.rand_unit(rng) for _ in range(n))
            omega = shift_element(field, bound, rng)
            # linear and nonlinear recurrences in one batch: 1 to 5 terms
            fs = [planted_layer(field, rng, alpha, bound, rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
            grids = [grid_for(field, f, alpha, omega, f.n_terms + rng.randint(0, 1)) for f in fs]
            got, rounds = interpolate(field, batch_of(field, alpha, omega, grids), bound, rng)
            singles = [interpolate(field, g, bound, rng)[0] for g in grids]
            assert singles == fs
            assert got == add_polys(field, singles) == add_polys(field, fs)
            assert rounds >= (max(f.n_terms for f in fs) > 1)

    def test_first_failing_layer_decides(self):
        rng = random.Random(21)
        alpha, omega = (17, 23), 6
        fs = [random_poly(FP, rng, 2, t, 10, distinct_coeffs=True) for t in (3, 1, 2, 4)]
        grids = [grid_for(FP, f, alpha, omega, f.n_terms) for f in fs]
        batch = batch_of(FP, alpha, omega, grids)
        # layer 2 breaks its recurrence in shifted row 1; layer 1's shifted
        # row 0 is scaled by a non-power of omega
        batch.values[2, 2, 2 * grids[2].bounds[0] - 1] += 1
        batch.values[1, 1] = batch.values[1, 1] * 1234567 % FP.p
        with pytest.raises(NotAPower) as info:
            interpolate(FP, batch, 10, rng)
        assert info.value.layer == 1
        batch.values[1, 1, : 2 * grids[1].bounds[0]] = grids[1].values[0, 1]
        with pytest.raises(LengthMismatch, match="row 1 does not follow") as info:
            interpolate(FP, batch, 10, rng)
        assert info.value.layer == 2

    def test_irreducible_quadratic_in_a_batch(self):
        # layer 1's base row [1, 0, -1, 0] has minimal polynomial z^2 + 1,
        # irreducible over F_7; layer 0 is a planted x^3
        ok = grid_for(F7, SparsePoly.from_terms(F7, 1, [(2, (3,))]), (3,), 3, 2)
        bad = one_layer((3,), 3, 2, [(1, 0, 6, 0)] * 2)
        with pytest.raises(RootDeficit) as info:
            interpolate(F7, batch_of(F7, (3,), 3, [ok, bad]), 5, random.Random(7))
        assert info.value.layer == 1
