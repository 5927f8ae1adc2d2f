"""Command-line interface.

    spgcd gcd A.poly B.poly [-o OUT]     exit 0 ok, 1 usage/parse, 2 failure
    spgcd gen --n 6 --terms 30 --deg 30 --out-prefix inst
    spgcd bench --suite degree --csv out.csv
    spgcd verify G.poly A.poly B.poly    exit 3 when verification fails

verify checks that G divides A and B exactly, then that G's univariate image
matches the GCD of A's and B's at random points drawn from seed 0, or from
SPGCD_SEED when it is set (engine.check_gcd_image), which no proper divisor
passes, and compares with the dense oracle when the instance fits its budget.

--seed falls back to the SPGCD_SEED environment variable.  --omega pins the
shift element, which needs multiplicative order > 2d (d the largest partial
degree), and keeps all arithmetic in the base field; it defaults to 6 for the
standard prime 10000019.  Otherwise the engine works in extension fields and
draws a random shift element of order > 2d there.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import bench, polyfile
from .engine import GcdConfig, check_gcd_image, gcd
from .errors import BudgetExceeded, GcdFailure, InvalidInput, SpgcdError
from .field import PrimeField
from .instances import gen_triple
from .oracle import dense_gcd, divides_exactly
from .sparse import lex_monic

STANDARD_PRIME = 10000019
STANDARD_OMEGA = 6

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GCD_FAILURE = 2
EXIT_VERIFY_FAILURE = 3


def _resolve_seed(value):
    if value is not None:
        return value
    env = os.environ.get("SPGCD_SEED")
    return int(env) if env else None


def _resolve_omega(value, p):
    if value is not None:
        return value
    return STANDARD_OMEGA if p == STANDARD_PRIME else None


def _add_engine_flags(sub):
    sub.add_argument("--epsilon", type=float, default=1e-3, help="failure tolerance")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (or SPGCD_SEED)")
    sub.add_argument(
        "--omega",
        type=int,
        default=None,
        help="shift element of multiplicative order > 2d; keeps arithmetic in F_p "
        "(default: 6 for p=10000019, otherwise drawn in an extension field)",
    )
    sub.add_argument("--retries", type=int, default=3, help="retry budget")
    sub.add_argument(
        "--term-strategy",
        choices=["doubling", "linear"],
        default="linear",
        help="Hankel probe growth per round",
    )


def cmd_gcd(args) -> int:
    try:
        field_a, A = polyfile.read(args.file_a)
        field_b, B = polyfile.read(args.file_b)
        seed = _resolve_seed(args.seed)
    except (InvalidInput, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if field_a.p != field_b.p or A.nvars != B.nvars:
        print("error: inputs disagree on p or n", file=sys.stderr)
        return EXIT_USAGE
    cfg = GcdConfig(
        epsilon=args.epsilon,
        seed=seed,
        max_retries=args.retries,
        term_strategy=args.term_strategy,
        omega=_resolve_omega(args.omega, field_a.p),
    )
    try:
        G, _trace = gcd(field_a, A, B, cfg)
    except GcdFailure as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_GCD_FAILURE
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = polyfile.render(field_a, G)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        field = PrimeField(args.p)
        rng = random.Random(_resolve_seed(args.seed))
        A, B, G = gen_triple(field, rng, args.n, args.terms, args.deg)
    except (InvalidInput, SpgcdError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    paths = {}
    for tag, poly in (("A", A), ("B", B), ("G", G)):
        path = f"{args.out_prefix}_{tag}.poly"
        polyfile.write(path, field, poly)
        paths[tag] = path
    print(" ".join(paths[t] for t in ("A", "B", "G")))
    return EXIT_OK


def cmd_bench(args) -> int:
    points = None
    if args.points:
        points = [int(x) for x in args.points.split(",")]
    try:
        rows = bench.run_suite(
            args.suite,
            p=args.p,
            points=points,
            per_point=args.per_point,
            seed=_resolve_seed(args.seed) or 0,
            omega=args.omega,
            term_strategy=args.term_strategy,
            time_limit=args.time_limit,
            full_scale=args.full_scale,
        )
        bench.write_csv(args.csv, rows, append=args.append)
    except (OSError, ValueError, SpgcdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{len(rows)} rows -> {args.csv}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        field_g, G = polyfile.read(args.file_g)
        field_a, A = polyfile.read(args.file_a)
        field_b, B = polyfile.read(args.file_b)
        rng = random.Random(_resolve_seed(None) or 0)  # seed 0 unless SPGCD_SEED: the same lines on every run
    except (InvalidInput, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not (field_g.p == field_a.p == field_b.p) or not (G.nvars == A.nvars == B.nvars):
        print("error: inputs disagree on p or n", file=sys.stderr)
        return EXIT_USAGE
    field = field_g
    if G.is_zero:
        print("error: candidate GCD is zero", file=sys.stderr)
        return EXIT_USAGE
    if divides_exactly(field, G, A) is None or divides_exactly(field, G, B) is None:
        print("check: divisibility FAILED")
        return EXIT_VERIFY_FAILURE
    print("check: divisibility ok")
    ok, images, E, bound = check_gcd_image(field, A, B, G, GcdConfig.epsilon, rng)
    where = f"F_{E.p}" + (f"^{E.k}" if E.k > 1 else "")
    if not ok:
        print(f"check: gcd image FAILED (images: {images} over {where}, error bound {bound:.1e})")
        return EXIT_VERIFY_FAILURE
    print(f"check: gcd image ok (image {images} over {where}, error bound {bound:.1e})")
    try:
        want = dense_gcd(field, A, B)
    except BudgetExceeded:
        print("check: oracle skipped (instance beyond oracle budget)")
        return EXIT_OK
    if lex_monic(field, G) != want:
        print("check: oracle gcd FAILED (candidate is a proper divisor?)")
        return EXIT_VERIFY_FAILURE
    print("check: oracle gcd ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spgcd", description="sparse multivariate polynomial GCD over F_p"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("gcd", help="GCD of two polynomial files")
    s.add_argument("file_a")
    s.add_argument("file_b")
    s.add_argument("-o", "--output", default=None, help="write result here, not stdout")
    _add_engine_flags(s)
    s.set_defaults(func=cmd_gcd)

    s = subs.add_parser("gen", help="generate a planted GCD instance (A*G, B*G, G)")
    s.add_argument("--n", type=int, required=True, help="number of variables")
    s.add_argument("--terms", type=int, required=True, help="terms per factor")
    s.add_argument("--deg", type=int, required=True, help="total degree bound")
    s.add_argument("--p", type=int, default=STANDARD_PRIME, help="prime modulus")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out-prefix", required=True, help="writes <prefix>_{A,B,G}.poly")
    s.set_defaults(func=cmd_gen)

    s = subs.add_parser("bench", help="run a benchmark sweep, emit CSV")
    s.add_argument("--suite", choices=["terms", "vars", "degree"], required=True)
    s.add_argument("--csv", required=True, help="output CSV path")
    s.add_argument("--points", default=None, help="comma-separated sweep points")
    s.add_argument("--per-point", type=int, default=5, help="instances per point")
    s.add_argument("--p", type=int, default=STANDARD_PRIME)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--omega", type=int, default=None)
    s.add_argument("--term-strategy", choices=["doubling", "linear"], default="linear")
    s.add_argument("--time-limit", type=float, default=None, help="seconds per point")
    s.add_argument("--full-scale", action="store_true", help="full-size sweep ranges")
    s.add_argument("--append", action="store_true", help="append to an existing CSV")
    s.set_defaults(func=cmd_bench)

    s = subs.add_parser("verify", help="check G divides A and B (and oracle agreement)")
    s.add_argument("file_g")
    s.add_argument("file_a")
    s.add_argument("file_b")
    s.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
