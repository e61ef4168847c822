"""Exact dense linear algebra over Q and GF(p).

Matrices wrap numpy arrays of ``FieldSpec.dtype``: ``int64`` residues for
GF(p) with p < 2^16, Python ints in ``object`` arrays for larger primes and
for Q, with a ``Fraction`` only where a Q entry is not an integer.  Every
operation is exact; there is no floating point and no tolerance anywhere.
Vectors are rows and operators act on the right, so "kernel" always means
the left kernel ``{v : v A = 0}`` and spans are row spaces.  A ``Subspace``
has one form, its reduced echelon basis with unit pivots, so the
coordinates of its vectors are their entries at the pivot columns and no
solve is needed to restrict a matrix to it.

Elimination (``RowBasis``, and ``rref``, ``kernel`` and
``minimal_polynomial`` on top of it) is one fraction-free algorithm for
both fields, as in Bareiss (1968), except that an updated row is kept
small by dividing it by its content, not by the previous pivot; it works
on blocks of rows, and a single row is a block of one.  Stored rows are integral, and the
one field-specific step is ``FieldSpec.normalize_rows``: over GF(p) it
scales a row to pivot 1, over Q it divides the row by its content.  The
result is exact over Q because every step keeps an integer invariant: the
stored rows R and their combination rows C satisfy R = C K exactly, K the
kept input rows.  A block of rows v is first reduced against R by one
product d [R | C], which gives d R - L s v = d C K - L s v, an integer
combination, and d C with it.  The block is then swept in order, one pivot
step per row that is not zero: the row is scaled to its canonical
multiple, and its pivot column is cleared from the later block rows and
from the stored rows, each replaced by an integer combination of itself
and the pivot row, its C-row by the same combination; dividing a row and
its C-row by their common content is an exact integer division that keeps
the equation.  A row that is zero when its turn comes lies in the span of
the rows kept before it, and its C-row, over those rows and its own
coefficient, is its dependency: v = (dc / den) K, one division at the end,
an int whenever it is exact.  ``kernel`` and ``rref`` insert a whole
matrix as one block, which is swept in panels of ``RowBasis.PANEL`` rows,
one product each, so that over Q a pivot step does not rescale a long
tail of later rows; a caller that needs each answer before it picks the
next row (the spin of ``endo.hom_space``, ``minimal_polynomial``) inserts
one row at a time.

The matrix products of this package are made here, dense (``_mul``) or
through the nonzeros of the right factor (``_SparseRows``), in the field's
own dtype, and reduced at the end; the one other product is the gather of
``modules._act``, which contracts a group algebra element's gathered terms
with ``np.dot`` itself.  ``Matrix`` reduces every array it wraps, so a
product that becomes a ``Matrix`` is reduced a second time.  Over an int64
field an entry that sums k residue products is exact while
k (p - 1)^2 < 2^63, for every k below 2^31 since p < 2^16; ``_product``
refuses a k past that bound, which only a matrix of more than 2^31 columns
could reach.  Python ints cannot overflow.

``unipotent_inverse`` needs no elimination at all: a unipotent D = I - N
has the inverse (I + N)(I + N^2)(I + N^4)..., which ends at the first zero
power of N.

``minimal_polynomial`` inserts I, m, m^2, ... flattened into one such basis
and stops at the first power in the span of the earlier ones.  The
dependence it finds is re-verified on all d^2 entries, so the polynomial
annihilates m; it is minimal because the earlier powers are independent.
This costs deg mu products of d x d matrices and (deg mu + 1) d^2 stored
entries: cheap at the low degrees of the paper's operators, dear for a
matrix of degree near d (about d^4 operations).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .fields import INT64_LIMIT, FieldSpec


class Matrix:
    """An exact matrix over a FieldSpec."""

    __slots__ = ("field", "a")

    def __init__(self, field: FieldSpec, a: np.ndarray):
        if a.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        self.field = field
        self.a = field.reduce_array(a)

    @classmethod
    def from_rows(cls, field: FieldSpec, rows) -> "Matrix":
        """The matrix with the given rows; no rows at all give the 0 x 0
        matrix."""
        a = field.array(rows)
        return cls(field, a.reshape(0, 0) if a.shape == (0,) else a)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        a = field.zeros((n, n))
        for i in range(n):
            a[i, i] = 1
        return cls(field, a)

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        return cls(field, field.zeros((nrows, ncols)))

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, _mul(self.field, self.a, other.a))

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, self.a + other.a)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, self.a - other.a)

    def scale(self, c) -> "Matrix":
        c = self.field.scalar(c)
        return Matrix(self.field, self.a * c)

    def shift(self, c) -> "Matrix":
        """self + c * identity."""
        if self.nrows != self.ncols:
            raise ValueError("shift needs a square matrix")
        a = self.a.copy()
        c = self.field.scalar(c)
        for i in range(self.nrows):
            a[i, i] += c
        return Matrix(self.field, a)

    def pow(self, k: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("pow needs a square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = Matrix.identity(self.field, self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return not np.any(self.a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.a, other.a)

    def __str__(self) -> str:
        render = self.field.render
        cells = [[render(x) for x in row] for row in self.a]
        w = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(" ".join(c.rjust(w) for c in row) for row in cells)

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def _product(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b, not reduced; a stack of right factors gives the stack of
    products.  Over an int64 field, on reduced residues, each entry is
    exact while k (p - 1)^2 < 2^63, k the inner dimension; a larger k
    raises ValueError."""
    p = field.characteristic
    if field.dtype is not object and a.shape[1] * (p - 1) ** 2 >= INT64_LIMIT:
        raise ValueError(f"a sum of {a.shape[1]} residue products over {field} "
                         f"may leave int64")
    # np.dot skips the broadcasting machinery of @, which costs more than
    # the arithmetic of a small product
    return np.dot(a, b) if b.ndim == 2 else a @ b


def _mul(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b over the field, reduced."""
    return field.reduce_array(_product(field, a, b))


class _SparseRows:
    """The nonzeros of a matrix b, column by column, for products c b in
    rows(c) nnz(b) steps, where a dense product takes rows(c) rows(b)
    cols(b).  Entry (i, j) of c b sums one product per nonzero of column j,
    in the field's dtype, and the result is reduced once: over an int64
    field a column would need 2^31 nonzeros to leave int64."""

    # entries of a gathered block held at once: of c[:, rows] here, and of a
    # block of terms in ``modules._act`` and of codes in a tabloid table
    CHUNK = 1 << 20

    def __init__(self, field: FieldSpec, b: np.ndarray):
        cols, self.rows = np.nonzero(b.T)
        self.starts = np.flatnonzero(np.diff(cols, prepend=-1))
        self.cols = cols[self.starts]
        self.vals = b[self.rows, cols]
        self.field = field
        self.width = b.shape[1]

    def left_mul(self, c: np.ndarray) -> np.ndarray:
        c = c.astype(self.vals.dtype, copy=False)
        out = np.zeros((c.shape[0], self.width), dtype=c.dtype)
        if len(self.vals):
            step = max(1, self.CHUNK // len(self.vals))
            for lo in range(0, c.shape[0], step):
                terms = c[lo: lo + step, self.rows]
                terms *= self.vals
                out[lo: lo + step, self.cols] = np.add.reduceat(terms, self.starts, axis=1)
        return self.field.reduce_array(out)


def unipotent_inverse(m: Matrix) -> Matrix:
    """The inverse of a unipotent matrix D = I - N, N nilpotent.

    D^-1 = I + N + N^2 + ... = (I + N)(I + N^2)(I + N^4)..., and the product
    stops at the first power N^(2^j) that is zero.  It is exact, and
    integral when D is.  A nilpotent d x d matrix has N^d = 0, so a power
    N^(2^j) with 2^j >= d that is not zero shows that D is not unipotent,
    and raises ArithmeticError.  Every product has a power of N as its right
    factor and goes through its nonzeros, so a sparse N costs little.
    """
    if m.nrows != m.ncols:
        raise ValueError("unipotent_inverse needs a square matrix")
    field = m.field
    eye = Matrix.identity(field, m.nrows).a
    power = field.reduce_array(eye - m.a)
    inverse = field.reduce_array(eye + power)
    exponent = 1
    while np.any(power):
        if exponent >= m.nrows:
            raise ArithmeticError("matrix is not unipotent")
        power = _SparseRows(field, power).left_mul(power)
        exponent *= 2
        inverse = field.reduce_array(
            inverse + _SparseRows(field, power).left_mul(inverse))
    return Matrix(field, inverse)


# int() keeps a numpy integer that strayed into an object array from
# overflowing in later products
_num_den = np.frompyfunc(lambda x: (int(x.numerator), x.denominator), 1, 2)


def _integral(a: np.ndarray):
    """(s a, s) for the rows of a: s[i] clears the denominators of row i.

    GF(p) arrays hold integers already, and there s is 1; so does a Q array
    whose entries are all Python ints, which is checked by type alone.  A
    numpy integer or a Fraction takes the numerator/denominator pass.
    """
    if a.dtype != object or set(map(type, a.flat)) <= {int}:
        return a, [1] * a.shape[0]
    num, den = _num_den(a)
    s = [math.lcm(*row) for row in den.tolist()]
    if any(x != 1 for x in s):
        num = num * (np.array(s, dtype=object)[:, None] // den)
    return num, s


def _ratio(n, d):
    q, r = divmod(n, d)
    return q if r == 0 else Fraction(n, d)


_ratio_entries = np.frompyfunc(_ratio, 2, 1)


def _divide(a: np.ndarray, den: list) -> np.ndarray:
    """Row i of a divided by den[i], an int wherever the quotient is one.

    Over GF(p) every den[i] is 1, and a comes back as it is.
    """
    if den.count(1) == len(den):
        return a
    return _ratio_entries(a, np.array(den, dtype=object)[:, None])


class RowBasis:
    """Incrementally built reduced echelon basis with coordinate tracking.

    Rows are inserted in blocks; one row is a block of one.  The stored
    matrix R stays fully reduced: each pivot column is zero outside its own
    row.  C records each R-row as a combination of the kept (independent)
    input rows K, with R = C K exactly, so membership tests also produce
    coordinates over the original inputs.  R and C sit side by side in one
    array, row i being [R_i | C_i], so one product d [R | C] reduces a whole
    block and gives its coordinates with it.

    Rows are stored integrally: a stored row [R_i | C_i] is the canonical
    multiple that ``FieldSpec.normalize_rows`` picks, pivot 1 over GF(p),
    content 1 and a positive pivot over Q.  Let L be the lcm of the pivot
    entries (always 1 over GF(p)).  A row v, scaled by the lcm s of its
    denominators, reduces to d R - L s v with d integral: -L s times the
    true residual, zero exactly when v lies in the span, and then
    v = (d C / L s) K.  The division by L s is the only one, made once on
    the way out; no Fraction is formed inside the elimination.

    A block is swept in order after that one product.  Each of its rows is
    [d R - L s v | d C | -L s at its own column], which satisfies R = C K
    with v appended to K, and so does any integer combination of such rows.
    A row that is not zero takes one pivot step: it is scaled to its
    canonical multiple, its first nonzero column is cleared, fraction-free,
    from the later block rows and from the stored rows, and it is stored.
    A row that is zero lies in the span of the rows kept before it, and its
    C part is its dependency.  Rows, pivots, kept indices and dependencies
    are those of inserting the rows one at a time: each is determined by
    the span of the rows before it.

    A block of more than ``PANEL`` rows is swept in panels of that many,
    each reduced against everything stored before it by one product.  A
    pivot step costs its hit rows times the block's width, and over Q,
    where most leads are not 1, it rescales every hit row, so a long block
    would pay for its later rows at each step what one product pays once.
    """

    # rows swept per product; see the class docstring
    PANEL = 16

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self._rc = field.zeros((8, width + 8))
        self._pivots = np.zeros(8, dtype=np.intp)
        self.size = 0
        self._lcm = 1      # L, the lcm of the pivot entries
        self._mult = None  # L // pivot entry, row by row, when L != 1

    def _grow(self, n: int):
        """Room for n more rows, and their C columns; rows past size are 0."""
        cap = self._rc.shape[0]
        if self.size + n <= cap:
            return
        new = max(2 * cap, self.size + n)
        rc = self.field.zeros((new, self.width + new))
        rc[:cap, : self._rc.shape[1]] = self._rc
        self._rc = rc
        self._pivots = np.concatenate([self._pivots, np.zeros(new - cap, dtype=np.intp)])

    @property
    def pivots(self) -> np.ndarray:
        """The pivot column of each stored row, in insertion order."""
        return self._pivots[: self.size]

    def _leads(self) -> np.ndarray:
        return self._rc[np.arange(self.size), self.pivots]

    @property
    def rows(self) -> np.ndarray:
        """The rows of R scaled to pivot 1, in insertion order."""
        return _divide(self._rc[: self.size, : self.width], self._leads().tolist())

    def _reduce(self, a: np.ndarray):
        """(prod, s) for the rows of a, reduced residues over GF(p): s[i] is
        the lcm of row i's denominators, and prod = [d R - L s a | d C] row
        by row, from one product d [R | C].  Its R part is zero exactly on
        the rows in the span."""
        field = self.field
        a, s = _integral(a)
        k, w = self.size, self.width
        if k == 0:
            return field.reduce_array(-a), s
        d = a.take(self._pivots[:k], axis=1)
        if self._lcm != 1:
            a = a * self._lcm
            d = d * self._mult
        prod = _product(field, d, self._rc[:k, : w + k])
        prod[:, :w] -= a
        return field.reduce_array(prod), s

    def _insert(self, a: np.ndarray):
        """Insert the rows of a, in order, as one block: (kept, dc, den).

        kept[i] is the kept index of row i, or -1 when row i lies in the
        span of the rows kept before it; then den[i] a[i] = dc[i] K, and
        dc[i] is zero past those rows.  The rows of dc for kept rows mean
        nothing.
        """
        if len(a) <= self.PANEL:
            return self._sweep(a)
        starts = range(0, len(a), self.PANEL)
        parts = [self._sweep(a[lo: lo + self.PANEL]) for lo in starts]
        dc = self.field.zeros((len(a), self.size))
        for lo, (_, part, _) in zip(starts, parts):
            dc[lo: lo + len(part), : part.shape[1]] = part
        return [t for p in parts for t in p[0]], dc, [x for p in parts for x in p[2]]

    def _sweep(self, a: np.ndarray):
        """``_insert`` for one panel: one product, then the sweep."""
        field = self.field
        k, w = self.size, self.width
        prod, s = self._reduce(a)
        den = s if self._lcm == 1 else [self._lcm * x for x in s]
        m = len(s)
        kept = [-1] * m
        if not np.count_nonzero(prod[:, :w]):
            return kept, prod[:, w:], den
        self._grow(m)
        rc = self._rc
        end = w + k + m
        rc[k: k + m, : w + k] = prod
        for i, x in enumerate(den):
            rc[k + i, w + k + i] = field.neg(x)
        unit = self._lcm == 1  # every pivot so far is 1
        size, dead = k, []
        for r in range(k, k + m):
            nz = rc[r, :w].nonzero()[0]
            if not len(nz):
                dead.append(r)
                continue
            j = nz[0]
            # row r is zero before column j and past its own C column
            row = rc[r: r + 1, j: w + r + 1]
            lead = row[0, 0]
            if lead != 1:
                row[:] = field.normalize_rows(row, [lead])
                lead = row[0, 0]
                unit = unit and lead == 1
            col = rc[: k + m, j]
            col[r] = 0
            hit = col.nonzero()[0]
            col[r] = lead
            if len(hit):
                # with every pivot 1 only the columns of row r change;
                # otherwise the updated rows are scaled by the lead and
                # divided by their content, which keeps their entries from
                # growing with each pivot step
                cols = slice(j, w + r + 1) if unit else slice(0, end)
                upd = rc[hit, cols]
                if lead != 1:
                    upd *= lead
                upd -= col[hit][:, None] * rc[r, cols]
                upd = field.reduce_array(upd)
                if not unit:
                    # no updated row is zero, and a stored one keeps its
                    # pivot positive: row r is zero at the other pivot
                    # columns and at the C columns of the later block rows
                    upd = field.normalize_rows(upd, [1] * len(hit))
                rc[hit, cols] = upd
            # kept rows take the next indices, in order
            kept[r - k] = size
            self._pivots[size] = j
            size += 1
        if dead:
            for r in dead:
                den[r - k] = field.neg(rc[r, w + r])
            dc = self._settle(dead, kept)
            rc[size: k + m, :end] = 0
        else:
            dc = prod[:, w:]
        self.size = size
        if not unit:
            leads = self._leads()
            self._lcm = math.lcm(*leads.tolist())
            self._mult = self._lcm // leads
        return kept, dc, den

    def _settle(self, dead, kept):
        """For a swept block with rows made dependent: the dependencies of
        those rows over the kept rows, and the kept rows moved up, with
        their C columns, to their kept indices."""
        rc = self._rc
        k, w, m = self.size, self.width, len(kept)
        rows = [k + i for i, t in enumerate(kept) if t >= 0]
        nk = len(rows)
        dc = self.field.zeros((m, k + nk))
        dc[[r - k for r in dead]] = rc.take(dead, axis=0).take(
            list(range(w, w + k)) + [w + r for r in rows], axis=1)
        if nk and rows[-1] != k + nk - 1:
            # a dependent row came before a kept one
            end = w + k + m
            rc[k: k + nk, :end] = rc[rows, :end]
            rc[: k + nk, w + k: w + k + nk] = rc[: k + nk, [w + r for r in rows]]
            rc[: k + nk, w + k + nk: end] = 0
        return dc

    def insert(self, v: np.ndarray):
        """Insert a row; returns (kept_index, None) or (None, dependency).

        The dependency expresses v as a combination of previously kept rows.
        """
        kept, dc, den = self._insert(v.reshape(1, -1))
        if kept[0] >= 0:
            return kept[0], None
        return None, _divide(dc, den)[0]

    def insert_rows(self, a: np.ndarray) -> list:
        """Insert the rows of a as one block, the same as inserting them one
        at a time in order; returns each row's kept index, or -1 for a row
        in the span of the rows kept before it."""
        return self._insert(a)[0]

    def contains(self, v: np.ndarray) -> bool:
        return not np.count_nonzero(self._reduce(v.reshape(1, -1))[0][:, : self.width])

    def coords_many(self, vmat: np.ndarray):
        """Coordinates of the rows of vmat over the kept input rows: (coeff
        matrix, boolean mask of the rows in the span).  A row outside the
        span has no coordinates, and its row of the matrix means nothing."""
        prod, s = self._reduce(vmat)
        w = self.width
        # a copy, so a kept result does not pin the product's residual part
        return (_divide(prod[:, w:].copy(), [self._lcm * x for x in s]),
                ~np.any(prod[:, :w], axis=1))


def rref(m: Matrix) -> "Subspace":
    """The row space of m, as a Subspace: its reduced row echelon basis with
    unit pivots, so the rank is ``.dim`` and the pivot columns ``.pivots``.
    The rows go into one RowBasis as one block."""
    rb = RowBasis(m.field, m.ncols)
    rb.insert_rows(m.a)
    return Subspace(Matrix(m.field, rb.rows[np.argsort(rb.pivots)]))


def kernel(m: Matrix) -> "Subspace":
    """Left kernel {v : v m = 0} as a Subspace of F^nrows.

    The rows go into one tracked RowBasis as one block, last to first, and
    each row i met in the span of the rows kept before it gives one
    relation: den times unit i minus its coordinates over those rows.  Every
    row kept before i has a larger index, so the relation's first nonzero
    entry is den at column i, and it is zero at every other dependent row,
    which is either still to come (smaller index) or was not kept.  Scaled
    to pivot 1 and sorted by i, the relations are the reduced echelon basis
    already; no second elimination is needed.
    """
    field, n = m.field, m.nrows
    kept, dc, den = RowBasis(field, m.ncols)._insert(m.a[::-1])
    # block row l is row n - 1 - l; den row_i - dc . (kept rows) = 0
    dep = [l for l, t in enumerate(kept) if t < 0][::-1]
    if not dep:
        return Subspace(Matrix.zeros(field, 0, n))
    relations = field.zeros((len(dep), n))
    relations[:, [n - 1 - l for l, t in enumerate(kept) if t >= 0]] = -dc[dep]
    relations[range(len(dep)), [n - 1 - l for l in dep]] = [den[l] for l in dep]
    return Subspace(Matrix(field, _divide(relations, [den[l] for l in dep])))


class Subspace:
    """A subspace of row vectors, held in one form: its reduced echelon
    basis with unit pivots.

    At its pivot columns, the first nonzero column of each row, ascending,
    the basis is the identity matrix; the constructor checks that, so a
    basis that is not in this form, or has dependent rows, raises
    ValueError.  ``rref`` is the way in from any other rows, and
    ``kernel`` returns this form directly.  The coordinates of a vector of
    the subspace are its entries at the pivot columns.
    """

    def __init__(self, basis: Matrix):
        a = basis.a
        pivots = (a != 0).argmax(axis=1) if a.size else np.zeros(0, np.intp)
        at_pivots = a[:, pivots]
        # ascending pivots, 1 at each, and no other nonzero in their columns
        if not ((pivots[1:] > pivots[:-1]).all()
                and (at_pivots.diagonal() == 1).all()
                and np.count_nonzero(at_pivots) == len(a)):
            raise ValueError("basis is not reduced echelon with unit pivots")
        self.basis = basis
        self.pivots = pivots

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @property
    def ambient(self) -> int:
        return self.basis.ncols

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def restrict(self, m: Matrix) -> Matrix:
        """The matrix of v -> v m in the basis of this (invariant) subspace.

        The coordinates of each moved basis row are its entries at the pivot
        columns, and one product re-checks that they give the row back.
        """
        moved = _mul(self.field, self.basis.a, m.a)
        coeffs = moved[:, self.pivots]
        if not np.array_equal(_mul(self.field, coeffs, self.basis.a), moved):
            raise ValueError("subspace is not invariant under the matrix")
        return Matrix(self.field, coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"


class Polynomial:
    """A polynomial over a FieldSpec; coefficients ascending, exact."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        cs = [field.scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [1])

    @classmethod
    def from_roots(cls, field, roots) -> "Polynomial":
        """The monic product of (x - r) over the given roots, repeats kept."""
        out = cls.one(field)
        for r in roots:
            out = out * cls(field, [field.neg(field.scalar(r)), 1])
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return Polynomial(self.field, a)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] - c
        return Polynomial(self.field, a)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

    def eval_scalar(self, c):
        c = self.field.scalar(c)
        acc = self.field.scalar(0)
        for a in reversed(self.coeffs):
            acc = self.field.scalar(acc * c + a)
        return acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        if self.is_zero():
            return "0"
        render = self.field.render
        pieces = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                term = render(c)
            else:
                xpow = "x" if e == 1 else f"x^{e}"
                term = xpow if c == 1 else f"{render(c)}*{xpow}"
            pieces.append(term)
        out = pieces[0]
        for term in pieces[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return f"Polynomial({self.field}, {self})"


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


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """The monic gcd, by Euclid's algorithm (zero when both are zero)."""
    while not g.is_zero():
        f, g = g, poly_divmod(f, g)[1]
    if f.is_zero():
        return f
    inv = f.field.inv(f.coeffs[-1])
    return Polynomial(f.field, [c * inv for c in f.coeffs])


def minimal_polynomial(m: Matrix) -> Polynomial:
    """Minimal polynomial, from the first linear dependence among the powers
    of m.

    I, m, m^2, ... are inserted, each flattened to one d^2-wide row, into
    one tracked RowBasis.  The first power m^k that lies in the span of the
    ones before it gives m^k = sum_j dep_j m^j, and mu = x^k - sum_j dep_j x^j.
    The dependence is re-verified exactly, dep times the stored powers
    against m^k, so mu(m) = 0 holds on all d^2 entries.  Minimality needs
    no lcm: I, m, ..., m^(k-1) are independent, so no nonzero polynomial of
    degree below k annihilates m.

    The cost is deg mu products of d x d matrices and (deg mu + 1) d^2
    stored entries.  That is cheap for the low degrees the paper's
    operators have (the transposition sum has degree at most the number of
    removable nodes plus one, and a basis matrix of a local End(M) is a
    scalar plus a nilpotent), and dear for a matrix whose degree is near d,
    where it is about d^4 operations and d^3 stored entries: a random
    150 x 150 matrix over GF(5) takes seconds.
    """
    if m.nrows != m.ncols:
        raise ValueError("minimal polynomial needs a square matrix")
    field = m.field
    n = m.nrows
    if n == 0:
        return Polynomial.one(field)
    span = RowBasis(field, n * n)
    powers = []
    power = Matrix.identity(field, n).a
    while True:
        idx, dep = span.insert(power.reshape(-1))
        if idx is None:
            break
        powers.append(power.reshape(-1))
        power = _mul(field, power, m.a)
    recon = _mul(field, dep.reshape(1, -1), np.stack(powers))[0]
    if np.any(field.reduce_array(power.reshape(-1) - recon)):
        raise ArithmeticError("dependence among the powers failed verification")
    return Polynomial(field, [field.neg(c) for c in dep] + [1])


def fitting_split(m: Matrix):
    """Kernel and image of m^n: an exact direct sum decomposition."""
    n = m.nrows
    power = m.pow(n)
    ker = kernel(power)
    image = rref(power)
    if ker.dim + image.dim != n:
        raise ArithmeticError("fitting split dimensions do not add up")
    return ker, image
