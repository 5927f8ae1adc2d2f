"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import math
import random
import time

import numpy as np

from spgcd.bench import instance_seed, run_suite
from spgcd.cli import main as cli_main
from spgcd.engine import GcdConfig, gcd, primitive_gcd
from spgcd.errors import GcdFailure, InterpolationError
from spgcd.field import PrimeField
from spgcd.instances import gen_triple, random_poly
from spgcd.interp import LayerGrids, interpolate
from spgcd.oracle import dense_gcd, sparse_mul
from spgcd.sparse import (
    diversify,
    eval_at_powers,
    has_max_isolated_term,
    homogenize,
    monomial_primitive,
)

FP = PrimeField(10000019)
STANDARD_OMEGA = 6


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_oracle_equivalence():
    """100 random instances, n <= 3, partial degree <= 6, p in {7, 101, 10000019}:
    every successful run equals the dense oracle; at most one retryable
    failure; under 30 seconds."""
    t0 = time.time()
    primes = [7, 101, 10000019]
    failures = 0
    mismatches = 0
    runs = 0
    for idx in range(100):
        p = primes[idx % 3]
        F = PrimeField(p)
        rng = random.Random(90_000 + idx)
        n = rng.randint(1, 3)
        cap = n + 3  # keep term counts inside the degree-3 simplex for n = 1
        G0 = random_poly(F, rng, n, rng.randint(1, min(3, cap)), 3)
        A1 = random_poly(F, rng, n, rng.randint(1, min(4, cap)), 3)
        B1 = random_poly(F, rng, n, rng.randint(1, min(4, cap)), 3)
        A = sparse_mul(F, A1, G0)
        B = sparse_mul(F, B1, G0)
        assert max(A.partial_degrees() + B.partial_degrees()) <= 6
        cfg = GcdConfig(seed=idx, omega=STANDARD_OMEGA if p == 10000019 else None)
        runs += 1
        try:
            got, _ = gcd(F, A, B, cfg)
        except GcdFailure:
            failures += 1
            continue
        if got != dense_gcd(F, A, B):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and failures <= 1 and elapsed < 30.0
    _report(
        1,
        ok,
        f"oracle equivalence {runs - failures - mismatches}/{runs - failures} exact, "
        f"{failures} failures, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_planted_gcd_standard_shape():
    """200 seeded trials at n = 6, #G = #A' = #B' = 30, deg = 30, p = 10000019,
    omega = 6: the planted GCD is recovered in at least 198."""
    hits = 0
    trials = 200
    for trial in range(trials):
        rng = random.Random(70_000 + trial)
        A, B, G = gen_triple(FP, rng, 6, 30, 30)
        cfg = GcdConfig(epsilon=1e-3, seed=trial, omega=STANDARD_OMEGA)
        try:
            got, _ = gcd(FP, A, B, cfg)
        except GcdFailure:
            continue
        hits += got == G
    _report(2, hits >= 198, f"planted recovery {hits}/200 (needs >= 198)")


def test_criterion_3_degree_scaling():
    """n = 6, 30 terms; median wall time at D in {100, 400, 1600, 6400} must
    satisfy time(4 D) <= 10 x time(D) per step; whole sweep under 10 min."""
    t0 = time.time()
    points = (100, 400, 1600, 6400)
    medians = {}
    for D in points:
        times = []
        for idx in range(5):
            seed = instance_seed(0, D, idx)
            rng = random.Random(seed)
            A, B, G = gen_triple(FP, rng, 6, 30, D)
            cfg = GcdConfig(seed=seed, omega=STANDARD_OMEGA, term_strategy="linear")
            t1 = time.perf_counter()
            got, _ = gcd(FP, A, B, cfg)
            times.append(time.perf_counter() - t1)
            assert got == G, f"wrong gcd at D={D} idx={idx}"
        medians[D] = sorted(times)[len(times) // 2]
    ratios = [medians[points[i + 1]] / medians[points[i]] for i in range(3)]
    elapsed = time.time() - t0
    ok = all(r <= 10.0 for r in ratios) and elapsed < 600.0
    detail = ", ".join(
        f"median(D={d}) = {medians[d] * 1000:.0f} ms" for d in points
    ) + "; ratios " + ", ".join(f"{r:.2f}" for r in ratios) + f"; {elapsed:.0f}s total"
    _report(3, ok, detail)


def test_criterion_4_isolation_probability():
    """1000 samples of s uniform in [1, 2(T-1)]^n against a fixed random
    30-term polynomial must isolate with frequency >= 0.45."""
    rng = random.Random(31_337)
    f = random_poly(FP, rng, 6, 30, 30)
    N = 2 * (f.n_terms - 1)
    hits = 0
    for _ in range(1000):
        s = tuple(rng.randint(1, N) for _ in range(6))
        hits += has_max_isolated_term(f, s)
    freq = hits / 1000.0
    _report(4, freq >= 0.45, f"isolation frequency {freq:.3f} (needs >= 0.45)")


def test_criterion_5_early_termination_bracket():
    """With a planted G, Stage II bounds satisfy #H_i <= T_i < 2 #H_i for
    every layer in at least 95 of 100 trials."""
    good = 0
    trials = 100
    for trial in range(trials):
        rng = random.Random(50_000 + trial)
        A, B, G = gen_triple(FP, rng, 4, 12, 12)
        PG = monomial_primitive(G)
        cfg = GcdConfig(seed=trial, omega=STANDARD_OMEGA)
        try:
            got, tr = primitive_gcd(FP, monomial_primitive(A), monomial_primitive(B), cfg)
        except GcdFailure:
            continue
        if got != PG or tr.term_bounds is None:
            continue
        layers = homogenize(PG, tr.s)
        top = layers.max_ydeg
        reported = dict(zip(tr.term_bounds.layer_ydegs, tr.term_bounds.bounds))
        ok = True
        for ydeg, part in layers.layers:
            if ydeg == top:
                continue
            bound = reported.get(ydeg)
            if bound is None or not part.n_terms <= bound < 2 * part.n_terms:
                ok = False
        good += ok
    _report(5, good >= 95, f"bracket held in {good}/{trials} trials (needs >= 95)")


def test_criterion_6_interpolation_round_trip():
    """200 random diverse polynomials (n <= 6, T <= 30, d <= 100): at least
    190 exact recoveries and zero silent wrong answers.  Shifted row k holds
    f with x_k -> omega * x_k at the base row's points alpha^i."""
    successes = 0
    silent_wrong = 0
    trials = 200
    for trial in range(trials):
        rng = random.Random(40_000 + trial)
        n = rng.randint(1, 6)
        d = rng.randint(1, 100)
        terms = rng.randint(1, min(30, math.comb(d + n, n)))
        f = random_poly(FP, rng, n, terms, d, distinct_coeffs=True)
        alpha = tuple(FP.rand_unit(rng) for _ in range(n))
        T = f.n_terms
        rows = [eval_at_powers(FP, f, alpha, 2 * T)]
        for k in range(n):
            shift = tuple(STANDARD_OMEGA if i == k else 1 for i in range(n))
            rows.append(eval_at_powers(FP, diversify(FP, f, shift), alpha, 2 * T))
        grid = LayerGrids(alpha, STANDARD_OMEGA, (T,), np.array(rows, dtype=np.int64)[None])
        try:
            got, _ = interpolate(FP, grid, d, rng)
        except InterpolationError:
            continue
        if got == f:
            successes += 1
        else:
            silent_wrong += 1
    ok = successes >= 190 and silent_wrong == 0
    _report(
        6,
        ok,
        f"interpolation recovered {successes}/{trials} "
        f"(needs >= 190), {silent_wrong} silent wrong (needs 0)",
    )


def test_criterion_7_worked_examples():
    """The worked unit-level examples hold bit-exactly (the full set lives in
    the per-module tests; this samples one per module plus the two weighted
    homogenization displays)."""
    from spgcd.field import discrete_log_bounded
    from spgcd.sparse import SparsePoly
    from spgcd.unipoly import berlekamp_massey, find_roots, solve_transposed_vandermonde

    F7 = PrimeField(7)
    checks = []
    checks.append(F7.mul(3, 5) == 1 and F7.inv(3) == 5)
    checks.append(discrete_log_bounded(F7, 3, 4, 6) == 4)
    checks.append(berlekamp_massey(F7, [5, 2]) == [1, 1])
    checks.append(sorted(find_roots(F7, [6, 2, 1], random.Random(0))) == [2, 3])
    checks.append(solve_transposed_vandermonde(F7, [6], [5]) == [2])
    # weighted homogenization of 5 x1^3 x2 + 7 x1^5 x2^8 + 4 x1^9 x2^4
    F11 = PrimeField(11)
    G = SparsePoly.from_terms(F11, 2, [(5, (3, 1)), (7, (5, 8)), (4, (9, 4))])
    h12 = homogenize(G, (1, 2))
    checks.append([d for d, _ in h12.layers] == [0, 12, 16])
    checks.append(
        [list(p.terms()) for _, p in h12.layers]
        == [[(5, (3, 1))], [(4, (9, 4))], [(7, (5, 8))]]
    )
    h11 = homogenize(G, (1, 1))
    checks.append([d for d, _ in h11.layers] == [0, 9])
    ok = all(checks)
    _report(7, ok, f"{sum(checks)}/{len(checks)} worked example groups exact")


def test_criterion_8_determinism(tmp_path):
    """Identical seeds produce byte-identical output files and identical CSV
    rows (timing column excluded)."""
    prefix = tmp_path / "det"
    rc = cli_main(
        ["gen", "--n", "4", "--terms", "8", "--deg", "10", "--seed", "77",
         "--out-prefix", str(prefix)]
    )
    assert rc == 0
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / f"{tag}.poly"
        rc = cli_main(
            ["gcd", str(prefix) + "_A.poly", str(prefix) + "_B.poly",
             "-o", str(out), "--seed", "123"]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    files_same = outs[0] == outs[1]

    def stripped(rows):
        return [(r.suite, r.n, r.terms, r.degree, r.seed, r.retries, r.success) for r in rows]

    rows1 = run_suite("terms", points=[2, 5], per_point=2, seed=99)
    rows2 = run_suite("terms", points=[2, 5], per_point=2, seed=99)
    csvs_same = stripped(rows1) == stripped(rows2)
    ok = files_same and csvs_same
    _report(8, ok, f"byte-identical files: {files_same}; identical CSV rows: {csvs_same}")
