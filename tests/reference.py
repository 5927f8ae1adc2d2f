"""Test-side references, written on field elements one term at a time so
that they share no code with the array kernels they check; and, at the end,
the array kernels on one input as a batch of one, for tests that state
their cases one polynomial at a time."""

from spgcd.engine import _hankel_singular_rows
from spgcd.field import discrete_log_bounded, elements
from spgcd.unipoly import find_roots, monic_gcd, solve_transposed_vandermonde


def monomial(field, e, point):
    """The monomial x^e at point."""
    v = field.one
    for x, k in zip(point, e):
        if k:
            v = field.mul(v, field.pow_(x, k))
    return v


def evaluate(field, f, point):
    """f(point) for a SparsePoly f, its coefficients embedded in field."""
    acc = field.zero
    for c, e in f.terms():
        c = field.embed(c) if isinstance(c, int) else c
        acc = field.add(acc, field.mul(c, monomial(field, e, point)))
    return acc


# sparse polynomials as sorted lists of (coefficient, exponent tuple) terms


def canonical_terms(field, nvars, terms):
    """Duplicates combined, zeros dropped, sorted by exponent tuple."""
    acc = {}
    for c, e in terms:
        e = tuple(e)
        assert len(e) == nvars
        c = field.embed(c) if isinstance(c, int) else c
        acc[e] = field.add(acc[e], c) if e in acc else c
    return sorted((e, c) for e, c in acc.items() if c != field.zero)


def content(terms):
    return tuple(min(e[i] for e, _ in terms) for i in range(len(terms[0][0])))


def primitive(terms):
    cont = content(terms)
    return [(tuple(a - b for a, b in zip(e, cont)), c) for e, c in terms]


def weighted_degrees(terms, s):
    return [sum(a * b for a, b in zip(e, s)) for e, _ in terms]


def isolated(terms, s):
    dots = weighted_degrees(terms, s)
    return dots.count(max(dots)) == 1


def render(p, nvars, terms):
    lines = [f"p {p}", f"n {nvars}"] + [" ".join(map(str, (c,) + e)) for e, c in terms]
    return "\n".join(lines) + "\n"


# dense univariate polynomials: lists of field elements, low degree first


def trim(f):
    """f without trailing zeros, as a list."""
    f = list(f)
    while f and not (any(f[-1]) if isinstance(f[-1], tuple) else f[-1]):
        f.pop()
    return f


def poly_mul(field, a, b):
    if not len(a) or not len(b):
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return trim(out)


def poly_divmod(field, a, b):
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    inv_lc = field.inv(b[-1])
    q = [field.zero] * max(len(r) - db, 0)
    for k in range(len(r) - db - 1, -1, -1):
        q[k] = c = field.mul(r[k + db], inv_lc)
        for j in range(db + 1):
            r[k + j] = field.sub(r[k + j], field.mul(c, b[j]))
    return trim(q), trim(r[:db])


def monic(field, f):
    f = trim(f)
    if not f:
        return f
    inv = field.inv(f[-1])
    return [field.mul(c, inv) for c in f]


def generic_monic_gcd(field, u, v):
    """Euclid on lists of field elements, one inversion per step: the
    reference monic_gcd is compared with."""
    r0, r1 = trim(u), trim(v)
    while r1:
        d0, d1 = len(r0) - 1, len(r1) - 1
        if d0 < d1:
            r0, r1 = r1, r0
            continue
        q = field.mul(r0[-1], field.inv(r1[-1]))
        shift = d0 - d1
        for j in range(d1 + 1):
            r0[shift + j] = field.sub(r0[shift + j], field.mul(q, r1[j]))
        r0 = trim(r0)
        if len(r0) - 1 < d1:
            r0, r1 = r1, r0
    return monic(field, r0)


# the array kernels on one input, as a batch of one row


def one_row(field, f):
    """A list of field elements as an int64 batch of one row."""
    return field.kernel.array(f)[None] % field.p


def gcd_one(field, u, v):
    """monic_gcd of one pair of lists, as a list of field elements."""
    G, _ = monic_gcd(field, one_row(field, u), one_row(field, v))
    return elements(field, G[0])


def roots_one(field, f, rng):
    """find_roots of one polynomial f (a list, nonzero): its roots as a
    list of field elements, or None when f is not a product of distinct
    linear factors."""
    roots, split, _ = find_roots(field, one_row(field, f), rng)
    return elements(field, roots[0, : len(trim(f)) - 1]) if split[0] else None


def solve_one(field, nodes, values):
    """solve_transposed_vandermonde of one system on the t = len(nodes)
    nodes and the first t values, as a list of field elements."""
    t = len(nodes)
    C = solve_transposed_vandermonde(field, one_row(field, nodes), one_row(field, values[:t])[None])
    return elements(field, C[0, 0])


def dlog_one(field, omega, target, bound):
    """discrete_log_bounded of one target: an int, -1 when none matches."""
    return int(discrete_log_bounded(field, omega, field.kernel.array([target]), bound)[0])


def first_singular(field, values, T):
    """The smallest s <= T with det HK_s = 0 for one sequence values, or
    None when every HK_s is nonsingular, one _hankel_singular_rows per s."""
    values = one_row(field, values)
    for s in range(1, min(T, (values.shape[1] + 1) // 2) + 1):
        if _hankel_singular_rows(field, values, s)[0]:
            return s
    return None
