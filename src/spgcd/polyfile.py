"""Plain-text polynomial files.

    # optional comment lines
    p 10000019
    n 2
    3 0 1
    1 2 0

Header lines give the prime and the variable count; every following line is
one term, coefficient then the exponent of each variable, in lexicographically
increasing exponent order.  parse() accepts terms in any order but rejects
duplicates and out-of-range coefficients; render() always writes the
canonical order, so parse(render(f)) == f.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import InvalidInput
from .field import PrimeField
from .sparse import EXP_LIMIT, SparsePoly


def _term(lineno: int, parts: list, n: int, p: int) -> list:
    """One term line's fields as ints, coefficient first, or InvalidInput
    naming the line."""
    if len(parts) != n + 1:
        raise InvalidInput(f"line {lineno}: expected coefficient and {n} exponents")
    try:
        row = [int(x) for x in parts]
    except ValueError as exc:
        raise InvalidInput(f"line {lineno}: {exc}") from exc
    if not 1 <= row[0] < p:
        raise InvalidInput(f"line {lineno}: coefficient must lie in [1, p)")
    if not all(0 <= e < EXP_LIMIT for e in row[1:]):
        raise InvalidInput(f"line {lineno}: exponents must lie in [0, 2^62)")
    return row


def parse(text: str):
    """Returns (PrimeField, SparsePoly).  The term lines are converted and
    checked as one int64 table; an error names the first bad line that
    reading the lines in order meets."""
    p = None
    n = None
    lines, rows = [], []  # the term lines' numbers and fields
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if p is None:
            if parts[0] != "p" or len(parts) != 2:
                raise InvalidInput(f"line {lineno}: expected 'p <prime>'")
            p = int(parts[1])
        elif n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise InvalidInput(f"line {lineno}: expected 'n <nvars>'")
            n = int(parts[1])
            if n < 1:
                raise InvalidInput(f"line {lineno}: nvars must be >= 1")
        else:
            lines.append(lineno)
            rows.append(parts)
    if p is None or n is None:
        raise InvalidInput("missing 'p' or 'n' header line")
    table, error = None, None
    if all(len(parts) == n + 1 for parts in rows):
        try:
            table = np.fromiter(map(int, chain.from_iterable(rows)), np.int64).reshape(-1, n + 1)
        except (ValueError, OverflowError):
            pass
    ok = table is not None and ((table[:, 0] >= 1) & (table[:, 0] < p)).all()
    if not (ok and ((table[:, 1:] >= 0) & (table[:, 1:] < EXP_LIMIT)).all()):
        good = []  # the lines before the first bad one
        for lineno, parts in zip(lines, rows):
            try:
                good.append(_term(lineno, parts, n, p))
            except InvalidInput as exc:
                error = exc
                break
        table = np.array(good, dtype=np.int64).reshape(-1, n + 1)
    # a stable sort keeps equal rows in line order, so a row equal to the
    # one before it repeats an earlier line
    exps = table[:, 1:]
    order = np.lexsort(exps.T[::-1])
    repeats = order[1:][(exps[order][1:] == exps[order][:-1]).all(axis=1)]
    if len(repeats):
        i = repeats.min()
        raise InvalidInput(f"line {lines[i]}: duplicate exponent vector {tuple(exps[i].tolist())}")
    if error is not None:
        raise error
    return PrimeField(p), SparsePoly(n, table[order, 0], exps[order])


def render(field: PrimeField, f: SparsePoly) -> str:
    line = " ".join(["%d"] * (f.nvars + 1)) + "\n"
    table = np.column_stack([f.coeffs, f.exps])
    return f"p {field.p}\nn {f.nvars}\n" + line * len(table) % tuple(table.ravel().tolist())


def read(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def write(path: str, field: PrimeField, f: SparsePoly) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(field, f))
