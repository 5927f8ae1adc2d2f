"""Benchmark sweeps: one row per instance, CSV out.

Three suites mirror the experiment setups (vary the term count, the number
of variables, or the degree while the other shape parameters stay fixed).
Each sweep point runs several seeded instances against a planted GCD; the
sweep stops once a point's average wall time exceeds the time limit.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass

from .engine import GcdConfig, gcd
from .errors import GcdFailure
from .field import PrimeField
from .instances import gen_triple

STANDARD_PRIME = 10000019
STANDARD_OMEGA = 6

CSV_HEADER = ["suite", "n", "terms", "degree", "seed", "wall_ms", "retries", "success"]

DESK_POINTS = {
    "terms": [2, 5, 10, 20, 30],
    "vars": [1, 2, 3, 4, 6, 8],
    "degree": [5, 25, 100, 400],
}

FULL_POINTS = {
    "terms": list(range(2, 153, 10)),
    "vars": [1, 2, 5, 10, 25, 50, 100, 200],
    "degree": list(range(5, 29526, 500)),
}

DEFAULT_SHAPE = {
    "terms": {"n": 6, "deg": 30},
    "vars": {"terms": 30, "deg": 100},
    "degree": {"n": 6, "terms": 30},
}

DEFAULT_TIME_LIMIT = {"terms": 60.0, "vars": 60.0, "degree": 100.0}


@dataclass
class BenchRow:
    suite: str
    n: int
    terms: int
    degree: int
    seed: int
    wall_ms: float
    retries: int
    success: bool

    def as_list(self):
        return [
            self.suite,
            self.n,
            self.terms,
            self.degree,
            self.seed,
            f"{self.wall_ms:.3f}",
            self.retries,
            str(self.success).lower(),
        ]


def default_omega(omega, p: int):
    """omega when given, else the standard shift element at the standard
    prime and None (drawn in an extension field) at every other prime."""
    if omega is not None:
        return omega
    return STANDARD_OMEGA if p == STANDARD_PRIME else None


def instance_seed(base_seed: int, point: int, index: int) -> int:
    return (base_seed * 1_000_003 + point) * 1_000 + index


def run_point(suite, n, terms, deg, field, omega, base_seed, per_point):
    rows = []
    point = {"terms": terms, "vars": n, "degree": deg}[suite]
    for idx in range(per_point):
        seed = instance_seed(base_seed, point, idx)
        rng = random.Random(seed)
        A, B, G = gen_triple(field, rng, n, terms, deg)
        cfg = GcdConfig(seed=seed, omega=omega)
        t0 = time.perf_counter()
        try:
            got, trace = gcd(field, A, B, cfg)
            ok = got == G
            retries = trace.retries
        except GcdFailure:
            ok = False
            retries = cfg.max_retries
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(BenchRow(suite, n, terms, deg, seed, wall_ms, retries, ok))
    return rows


def run_suite(
    suite: str,
    *,
    p: int = STANDARD_PRIME,
    points=None,
    per_point: int = 5,
    seed: int = 0,
    omega: int | None = None,
    time_limit: float | None = None,
    full_scale: bool = False,
):
    """All rows for one sweep; stops early once a point's mean wall time
    exceeds the limit."""
    if suite not in ("terms", "vars", "degree"):
        raise ValueError(f"unknown suite {suite!r}")
    field = PrimeField(p)
    omega = default_omega(omega, p)
    shape = dict(DEFAULT_SHAPE[suite])
    points = list(points) if points is not None else list(
        (FULL_POINTS if full_scale else DESK_POINTS)[suite]
    )
    limit = DEFAULT_TIME_LIMIT[suite] if time_limit is None else time_limit
    all_rows = []
    for point in points:
        if suite == "terms":
            n, terms, deg = shape["n"], point, shape["deg"]
        elif suite == "vars":
            n, terms, deg = point, shape["terms"], shape["deg"]
        else:
            n, terms, deg = shape["n"], shape["terms"], point
        rows = run_point(suite, n, terms, deg, field, omega, seed, per_point)
        all_rows.extend(rows)
        mean_s = sum(r.wall_ms for r in rows) / len(rows) / 1000.0
        if mean_s > limit:
            break
    return all_rows


def write_csv(path: str, rows, append: bool = False) -> None:
    """Writes header plus one line per row; each row is flushed whole."""
    mode = "a" if append else "w"
    with open(path, mode, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if not append or fh.tell() == 0:
            writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_list())
            fh.flush()
