"""Reference implementations kept for the tests.

The tabloid oracles enumerate the tabloids of a shape as sorted-row keys,
by recursion on the rows, walk the column stabilizer one permutation at a
time, move a tabloid by relabelling its key and sorting its rows
(``act_key``) and find each tabloid through a dict of those keys: slow, and
independent of the row-word table, codes and preimage tables that
``spechtbranch.tabloids`` builds.
The polynomial oracles (x, division, gcd, lcm, evaluation at a matrix) serve
the minimal-polynomial oracles, which take the lcm of per-vector Krylov
polynomials or search annihilators exhaustively.

The module oracles solve every action in the ambient tabloid space, through
a RowBasis as wide as the tabloids, the way modules were solved before the
standard minor; a submodule is rebuilt there from its rows.  ``Rebased``
holds a module in any basis, which a ``Subspace`` (reduced echelon only)
cannot, and ``conjugate_restriction`` restricts a matrix to a subspace by
conjugating with a full change of basis, not by reading pivot columns.
``split_branching``, ``coords``, ``contains``, ``intersect``,
``is_invariant``, ``rows_in`` and ``identity_perm`` are conveniences that
only the tests use.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from spechtbranch.central import block_split, branching_factors
from spechtbranch.exact import (Matrix, Polynomial, RowBasis, Subspace, kernel,
                               poly_divmod, poly_gcd, rref)
from spechtbranch.modules import GroupActionModule
from spechtbranch.partitions import Partition
from spechtbranch.perms import embed
from spechtbranch.tabloids import ModuleVector


@lru_cache(maxsize=64)
def enumerate_tabloids(shape) -> tuple:
    """All tabloids of a shape as sorted-row keys, lexicographic on their
    rows: row one takes each subset of its size in turn, and the later rows
    recurse on the symbols left."""

    def fill(avail, parts):
        if not parts:
            yield ()
            return
        for head in itertools.combinations(avail, parts[0]):
            rest = tuple(x for x in avail if x not in head)
            for tail in fill(rest, parts[1:]):
                yield (head,) + tail

    return tuple(fill(tuple(range(1, shape.size + 1)), tuple(shape)))


@lru_cache(maxsize=64)
def tabloid_index(shape) -> dict:
    """Tabloid key -> its index in ``enumerate_tabloids(shape)``."""
    return {key: i for i, key in enumerate(enumerate_tabloids(shape))}


def act_key(key, pi):
    """{t} pi on a tabloid key, each row relabelled and sorted."""
    return tuple(tuple(sorted(pi[x - 1] for x in row)) for row in key)


@lru_cache(maxsize=1024)
def key_destinations(shape, pi) -> tuple:
    """The index of {t_i} pi for each tabloid key {t_i} of shape, pi of
    degree |shape|: column i of a row moves to column dst[i]."""
    index = tabloid_index(shape)
    return tuple(index[act_key(key, pi)] for key in enumerate_tabloids(shape))


def move_columns(rows: np.ndarray, shape, pi) -> np.ndarray:
    """rows times pi, one column per tabloid key: column i moved to the
    index of its key relabelled by pi and sorted."""
    moved = np.empty_like(rows)
    moved[..., list(key_destinations(shape, embed(pi, shape.size)))] = rows
    return moved


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


def poly_mod(f: Polynomial, g: Polynomial) -> Polynomial:
    return poly_divmod(f, g)[1]


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


# -- module coordinates in the ambient tabloid space -----------------------

class AmbientSolver:
    """Coordinates over independent tabloid rows: a RowBasis as wide as the
    ambient tabloid space, every action solved there."""

    def __init__(self, field, rows: Matrix):
        self.field = field
        self.rows = rows
        self.basis = RowBasis(field, rows.ncols)
        for i in range(rows.nrows):
            if self.basis.insert(rows.a[i])[0] is None:
                raise ArithmeticError(f"basis row {i} depends on earlier rows")

    def coords(self, ambient_rows: np.ndarray) -> Matrix:
        coeffs, ok = self.basis.coords_many(self.field.reduce_array(ambient_rows))
        if not np.all(ok):
            raise ArithmeticError("action left the module's row space")
        return Matrix(self.field, coeffs)

    def perm_matrix(self, shape, pi) -> Matrix:
        return self.coords(move_columns(self.rows.a, shape, pi))

    def element_matrix(self, shape, elt) -> Matrix:
        out = np.zeros_like(self.rows.a)
        for pi, coeff in elt.terms:
            out = self.field.reduce_array(
                out + self.field.scalar(coeff) * move_columns(self.rows.a, shape, pi))
        return self.coords(out)


def ambient_solver(module, coeff_rows: Matrix = None) -> AmbientSolver:
    """The ambient solver of a tabloid module, or of the submodule spanned
    by coeff_rows times its basis, rebuilt at ambient width."""
    rows = module.basis if coeff_rows is None else coeff_rows @ module.basis
    return AmbientSolver(module.field, rows)


def integral_by_entries(a: np.ndarray):
    """(s a, s) for the rows of an object array, reading the numerator and
    denominator of every entry."""
    num = np.array([[int(x.numerator) for x in row] for row in a.tolist()],
                   dtype=object).reshape(a.shape)
    den = [[x.denominator for x in row] for row in a.tolist()]
    s = [math.lcm(*row) for row in den]
    scaled = np.array([[n * (si // d) for n, d in zip(nrow, drow)]
                       for nrow, drow, si in zip(num.tolist(), den, s)],
                      dtype=object).reshape(a.shape)
    return scaled, s


def inverse(m: Matrix) -> Matrix:
    """The inverse of a square matrix: the coordinates of the unit vectors
    over its rows, solved through a RowBasis."""
    basis = RowBasis(m.field, m.ncols)
    for i in range(m.nrows):
        if basis.insert(m.a[i])[0] is None:
            raise ArithmeticError("matrix is not invertible")
    coeffs, ok = basis.coords_many(Matrix.identity(m.field, m.ncols).a)
    if not np.all(ok):
        raise ArithmeticError("matrix is not invertible")
    return Matrix(m.field, coeffs)


class Rebased(GroupActionModule):
    """A module in the basis given by the rows of an invertible change of
    basis T (in the module's coordinates): each matrix is T M T^-1."""

    def __init__(self, module, change: Matrix):
        super().__init__(module.degree, module.field, module.shape,
                         f"{module.label} rebased")
        self.module = module
        self.change = change
        self.inverse = inverse(change)

    @property
    def dim(self) -> int:
        return self.change.nrows

    def _element_action(self, elt) -> Matrix:
        return self.change @ self.module.element_matrix(elt) @ self.inverse


def conjugate_restriction(space: Subspace, m: Matrix) -> Matrix:
    """The matrix of v -> v m on an invariant subspace, as the top left
    block of P m P^-1, P the basis of the subspace followed by the unit
    vectors off its pivot columns; the top right block must be zero."""
    field, k = space.field, space.dim
    rest = np.setdiff1d(np.arange(space.ambient), space.pivots)
    units = Matrix.identity(field, space.ambient).a[rest]
    change = Matrix(field, np.concatenate([space.basis.a, units], axis=0))
    conj = change @ m @ inverse(change)
    if np.any(conj.a[:k, k:]):
        raise ValueError("subspace is not invariant under the matrix")
    return Matrix(field, conj.a[:k, :k])


# -- convenience API that only the tests use ----------------------------------

def coords(basis: RowBasis, v: np.ndarray):
    """The coordinates of one row over the kept rows of a RowBasis, or None
    when the row is outside their span."""
    coeffs, ok = basis.coords_many(v.reshape(1, -1))
    return coeffs[0] if ok[0] else None


def contains(space: Subspace, v: np.ndarray) -> bool:
    """Whether a row lies in a subspace, solved through a RowBasis."""
    basis = RowBasis(space.field, space.ambient)
    for row in space.basis.a:
        basis.insert(row)
    return basis.contains(v)


def split_branching(module, lam, direction):
    """block_split with the factors filled in from the branching rule."""
    return block_split(module, branching_factors(Partition(lam), direction))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """The intersection of two subspaces of one space."""
    if a.ambient != b.ambient:
        raise ValueError("ambient dimensions differ")
    ker = kernel(Matrix(a.field, np.concatenate([a.basis.a, b.basis.a], axis=0)))
    left = Matrix(a.field, ker.basis.a[:, : a.dim])
    return rref(left @ a.basis)


def is_invariant(space: Subspace, m: Matrix) -> bool:
    """Whether space m lies in space."""
    return all(contains(space, row) for row in (space.basis @ m).a)


def identity_perm(k: int) -> tuple:
    """The identity permutation of degree k."""
    return tuple(range(1, k + 1))


def rows_in(module, summand) -> Matrix:
    """The basis of summand, a module of decompose(module), in the
    coordinates of module: the bases of the chain of submodules down to
    module, multiplied together."""
    rows = Matrix.identity(summand.field, summand.dim)
    while summand is not module:
        rows = rows @ summand.space.basis
        summand = summand.parent
    return rows
