"""Random instance construction for benchmarks and tests.

Supports are drawn uniformly from the exponent simplex {e : sum(e) <= deg};
coefficients are uniform in [1, p).  GCD instances are planted: A' * G and
B' * G with A', B' rejected when the dense oracle can see a common factor
(and accepted on faith, coprime with high probability, beyond its budget).
"""

from __future__ import annotations

import math
import random

from .errors import BudgetExceeded, InvalidInput
from .field import PrimeField
from .oracle import dense_gcd, sparse_mul
from .sparse import SparsePoly, lex_monic, monomial_primitive


def _simplex_size(n: int, deg: int) -> int:
    return math.comb(deg + n, n)


def random_monomial(rng: random.Random, n: int, deg: int) -> tuple:
    """Uniform over {e in N^n : sum(e) <= deg} via weighted total degree and a
    uniform composition (stars and bars)."""
    weights = [math.comb(u + n - 1, n - 1) for u in range(deg + 1)]
    u = rng.choices(range(deg + 1), weights=weights)[0]
    if n == 1:
        return (u,)
    bars = sorted(rng.sample(range(u + n - 1), n - 1))
    out = []
    prev = -1
    for b in bars:
        out.append(b - prev - 1)
        prev = b
    out.append(u + n - 2 - prev)
    return tuple(out)


def random_poly(
    field: PrimeField,
    rng: random.Random,
    n: int,
    terms: int,
    deg: int,
    distinct_coeffs: bool = False,
) -> SparsePoly:
    """Random polynomial with exactly `terms` distinct monomials."""
    if terms < 1:
        raise InvalidInput("terms must be >= 1")
    if terms > _simplex_size(n, deg):
        raise InvalidInput(f"only {_simplex_size(n, deg)} monomials of degree <= {deg}")
    support = set()
    while len(support) < terms:
        support.add(random_monomial(rng, n, deg))
    coeffs = []
    used = set()
    for _ in range(terms):
        while True:
            c = rng.randrange(1, field.p)
            if not distinct_coeffs or c not in used:
                used.add(c)
                coeffs.append(c)
                break
    return SparsePoly.from_terms(field, n, zip(coeffs, sorted(support)))


_RESAMPLES = 16  # cofactor pairs gen_triple draws before it gives up


def gen_triple(field: PrimeField, rng: random.Random, n: int, terms: int, deg: int):
    """(A' * G, B' * G, G) with G lex-monic and A', B' coprime (verified by the
    dense oracle when the shape fits its budget, accepted otherwise).

    The cofactors are made monomial-primitive: at large degree a random
    support almost surely keeps every exponent positive, so without the strip
    A' and B' would share a monomial factor and G would not be the full GCD.
    """
    G = lex_monic(field, random_poly(field, rng, n, terms, deg))
    one = SparsePoly.constant(field, n, field.one)
    for _ in range(_RESAMPLES):
        A1 = monomial_primitive(random_poly(field, rng, n, terms, deg))
        B1 = monomial_primitive(random_poly(field, rng, n, terms, deg))
        try:
            if dense_gcd(field, A1, B1) != one:
                continue
        except BudgetExceeded:
            pass  # coprime with high probability at these sizes
        return sparse_mul(field, A1, G), sparse_mul(field, B1, G), G
    raise InvalidInput("could not sample coprime cofactors (degenerate shape)")
