"""Reference implementations kept for the tests.

The tabloid oracles walk the column stabilizer one permutation at a time
and find each tabloid through a dict of sorted-row keys: slow, and
independent of the row-word codes that ``spechtbranch.tabloids`` uses.
The polynomial oracles (x, division, gcd, lcm, evaluation at a matrix) serve
the minimal-polynomial oracles, which take the lcm of per-vector Krylov
polynomials or search annihilators exhaustively.
"""

import itertools
from functools import lru_cache

from spechtbranch.exact import Matrix, Polynomial
from spechtbranch.tabloids import ModuleVector, enumerate_tabloids


@lru_cache(maxsize=64)
def tabloid_index(shape) -> dict:
    """Tabloid key -> its index in ``enumerate_tabloids(shape)``."""
    return {key: i for i, key in enumerate(enumerate_tabloids(shape))}


def column_signed_maps(t):
    """All (symbol map, sign) pairs from the column stabilizer of t."""
    per_column = []
    for col in t.columns():
        if len(col) == 1:
            per_column.append([((col[0],), 1)])
            continue
        options = []
        for assigned in itertools.permutations(col):
            pos = {x: i for i, x in enumerate(col)}
            order = [pos[x] for x in assigned]
            sign = 1
            for i in range(len(order)):
                for j in range(i + 1, len(order)):
                    if order[i] > order[j]:
                        sign = -sign
            options.append((assigned, sign))
        per_column.append(options)
    cols = t.columns()
    for combo in itertools.product(*per_column):
        mapping = {}
        sign = 1
        for col, (assigned, s) in zip(cols, combo):
            sign *= s
            for src, dst in zip(col, assigned):
                mapping[src] = dst
        yield mapping, sign


def signed_column_sum(t, rows, field) -> ModuleVector:
    """Sum of sign(sigma) {rows sigma} over the column stabilizer of t, one
    sigma and one dict lookup at a time."""
    shape = rows.shape
    index = tabloid_index(shape)
    row = field.zeros(len(index))
    for mapping, sign in column_signed_maps(t):
        key = tuple(tuple(sorted(mapping.get(x, x) for x in r)) for r in rows)
        row[index[key]] += sign
    return ModuleVector(shape, field, field.reduce_array(row))


def poly_x(field) -> Polynomial:
    """The polynomial x."""
    return Polynomial(field, [0, 1])


def monic(f: Polynomial) -> Polynomial:
    """f divided by its leading coefficient; the zero polynomial as it is."""
    if f.is_zero():
        return f
    inv = f.field.inv(f.coeffs[-1])
    return Polynomial(f.field, [c * inv for c in f.coeffs])


def poly_divmod(f: Polynomial, g: Polynomial):
    """(quotient, remainder) of f by g, by long division."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    field = f.field
    rem = list(f.coeffs)
    dn = g.degree
    lead_inv = field.inv(g.coeffs[-1])
    quot = [0] * max(len(rem) - dn, 0)
    for i in range(len(rem) - dn - 1, -1, -1):
        c = field.scalar(rem[i + dn] * lead_inv)
        quot[i] = c
        if c != 0:
            for j, b in enumerate(g.coeffs):
                rem[i + j] = field.scalar(rem[i + j] - c * b)
    return Polynomial(field, quot), Polynomial(field, rem[:dn])


def poly_mod(f: Polynomial, g: Polynomial) -> Polynomial:
    return poly_divmod(f, g)[1]


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """The monic gcd, by Euclid's algorithm (zero when both are zero)."""
    while not g.is_zero():
        f, g = g, poly_mod(f, g)
    return monic(f)


def poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    """The monic lcm (zero when either is zero)."""
    if f.is_zero() or g.is_zero():
        return Polynomial.zero(f.field)
    q, r = poly_divmod(f * g, poly_gcd(f, g))
    assert r.is_zero()
    return monic(q)


def eval_matrix(f: Polynomial, m: Matrix) -> Matrix:
    """f(m), by Horner's rule."""
    acc = Matrix.zeros(m.field, m.nrows, m.ncols)
    for a in reversed(f.coeffs):
        acc = (acc @ m).shift(a)
    return acc
