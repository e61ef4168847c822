"""Young tableaux, tabloids and polytabloids.

A tableau stores its rows directly; a tabloid's key is its rows, sorted.
No key is stored: each shape keeps the row-label word of every tabloid,
``words[i, x-1]`` = the row holding x in tabloid i, built one row of the
shape at a time in lexicographic order on the sorted rows, and a module
vector is one dense row over its field in that order.  Polytabloids are
alternating sums over the column stabilizer; the induced variant applies
the column stabilizer of a smaller tableau sitting inside one extra node.

Tabloids are found through codes: the words read as base-l numbers (l the
number of rows) tell tabloids apart, and one search in the sorted codes
(``_index``) gives their indices; nothing else turns a code into an index.
The tabloid that pi moves onto {t_i} has the word of {t_i} read through
pi, letter x from column pi(x)-1, so ``tabloid_preimages(shape, perms,
at)`` finds the index of {t_i} pi^-1 for each pi in ``perms`` and each i in
``at`` (every tabloid by default) with no row sorted: one table, a row per
permutation, through which a group algebra element moves tabloid vectors,
v pi = v[src[k]], or reads their entries at ``at``.  A code is a sum over
the columns of a tableau, so a column stabilizer moves it by per-column
offsets; the signed tabloid indices of a polytabloid owe nothing to the
field, and are cached once per tableau for every field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

import numpy as np

from .exact import _SparseRows
from .fields import FieldSpec
from .partitions import Partition, removable_nodes, specht_dimension
from .perms import Perm, embed

TabloidKey = tuple[tuple[int, ...], ...]

# entries of a module and of E_n: S^(3,2,1,1,1) induced, 30,240 x 576, passes
COST_GUARDRAIL = 2 ** 25


class Tableau(tuple):
    """A bijective filling of a partition shape, stored as row tuples."""

    def __new__(cls, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        return super().__new__(cls, rows)

    @property
    def shape(self) -> Partition:
        return Partition(len(row) for row in self)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self)

    def act(self, pi: Perm) -> "Tableau":
        """Replace every entry x by its image under pi."""
        return Tableau(tuple(pi[x - 1] for x in row) for row in self)

    def columns(self) -> list[tuple[int, ...]]:
        ncols = len(self[0]) if self else 0
        return [tuple(row[c] for row in self if len(row) > c) for c in range(ncols)]

    def is_standard(self) -> bool:
        for row in self:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                return False
        for col in self.columns():
            if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
                return False
        return True

    def __str__(self) -> str:
        return "/".join(",".join(str(x) for x in row) for row in self)


def canonical_tableau(lam: Partition) -> Tableau:
    """The row-filling tableau: 1..lam_1 in row one, and so on."""
    lam = Partition(lam)
    _check_cost(lam)
    return Tableau(range(end - part + 1, end + 1)
                   for part, end in zip(lam, itertools.accumulate(lam)))


@lru_cache(maxsize=64)
def standard_tableaux(lam: Partition) -> tuple[Tableau, ...]:
    """All standard tableaux of the given shape, in a fixed growth order."""
    _check_cost(lam)
    n = lam.size
    out = []
    rows: list[list[int]] = [[] for _ in lam]

    def place(k: int):
        if k > n:
            out.append(Tableau(tuple(tuple(r) for r in rows)))
            return
        for r in range(len(lam)):
            c = len(rows[r])
            if c >= lam[r] or (r > 0 and len(rows[r - 1]) <= c):
                continue
            rows[r].append(k)
            place(k + 1)
            rows[r].pop()

    place(1)
    return tuple(out)


def tabloid(t: Tableau) -> TabloidKey:
    """The canonical key of the row-equivalence class of t."""
    return tuple(tuple(sorted(row)) for row in t)


def _check_cost(shape: Partition, lam: Partition | None = None) -> None:
    """Refuse S^lam induced to degree n = |shape| (None: the table alone) when
    its W = n!/prod(mu_i!) tabloids x max(dim, n), plus the n * n(n-1)/2
    entries of E_n, pass the bound; a large n is refused before W is found."""
    n = shape.size
    cost = n * n * (n - 1) // 2
    if cost <= COST_GUARDRAIL:
        dim = 0 if lam is None else specht_dimension(lam) * factorial(n) // factorial(lam.size)
        cost += factorial(n) // prod(map(factorial, shape)) * max(dim, n)
    if cost > COST_GUARDRAIL:
        raise ValueError(f"cost guardrail: M^({shape}) needs more than {COST_GUARDRAIL} entries")


@lru_cache(maxsize=64)
def _row_words(shape: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(words, weights, sorted codes, order) for the tabloids of a shape.

    ``words[i, x-1]`` is the row of symbol x in tabloid i, ``words @ weights``
    reads each word in base l (l the number of rows), and ``order`` sorts
    those codes.  The codes are int64 unless l**n would not fit, as for a
    long first row like (62, 1); then they are Python ints.
    """
    _check_cost(shape)
    n, ell = shape.size, len(shape)
    words = np.full((1, n), ell - 1, dtype=np.intp)
    for r, part in enumerate(shape[:-1]):
        free = np.nonzero(words == ell - 1)[1].reshape(len(words), -1)
        pick = list(itertools.combinations(range(free.shape[1]), part))
        words = np.repeat(words, len(pick), axis=0)
        words[np.arange(len(words))[:, None], free[:, pick].reshape(len(words), part)] = r
    dtype = np.int64 if ell ** n <= np.iinfo(np.int64).max else object
    weights = np.array([ell ** k for k in range(n)], dtype=dtype)
    codes = words @ weights
    # W < 2^25 under COST_GUARDRAIL, so int32 indices halve every cached table
    order = np.argsort(codes).astype(np.int32)
    out = (words, weights, codes[order], order)
    for a in out:
        a.flags.writeable = False
    return out


def _index(shape: Partition, codes) -> np.ndarray:
    """The index of each tabloid code of the shape, by one searchsorted."""
    _, _, sorted_codes, order = _row_words(shape)
    return order[np.searchsorted(sorted_codes, codes)]


def _code(weights: np.ndarray, rows) -> int:
    """The code of the tabloid with these rows: r * weights[x-1] summed over x in row r."""
    return sum(r * weights[x - 1] for r, row in enumerate(rows) for x in row)


def tabloid_indices(shape: Partition, tableaux) -> np.ndarray:
    """The index of each tableau's tabloid {t} among the tabloids of shape."""
    weights = _row_words(shape)[1]
    return _index(shape, np.array([_code(weights, t) for t in tableaux], dtype=weights.dtype))


@lru_cache(maxsize=4096)
def tabloid_preimages(shape: Partition, perms: tuple[Perm, ...],
                      at: tuple | None = None) -> np.ndarray:
    """Index tables of permutations on the tabloids of a shape, one row per
    permutation in ``perms``, each of degree at most |shape| and embedded in
    S_|shape|: ``src[k, j]`` is the index of {t_i} pi_k^-1, the tabloid that
    pi_k moves onto {t_i}, for i = ``at[j]`` (i = j, every tabloid, when at
    is None), so the entries of v pi_k at ``at`` are v[src[k]], and
    v pi_k = v[src[k]] for at = None.  Its word is the word of {t_i} read
    through pi_k, letter x taken from ``words[i, pi_k(x) - 1]``, so its code
    is ``words[i]`` times the weights permuted by pi_k^-1, and ``_index``
    finds it, for a chunk of permutations at a time whose codes stay
    under ``exact._SparseRows.CHUNK`` entries.  A pi that is not a
    permutation of 1..m for some m <= |shape| raises ValueError.  The int32
    table is read-only: every caller shares the cached array.
    """
    n = shape.size
    for pi in perms:
        if len(pi) > n or sorted(pi) != list(range(1, len(pi) + 1)):
            raise ValueError(f"{pi} is not a permutation of 1..m for m <= {n}")
    images = np.array([embed(pi, n) for pi in perms], dtype=np.intp).reshape(len(perms), n)
    words, weights, _, _ = _row_words(shape)
    read = (words if at is None else words[list(at)]).T
    inverses = np.argsort(images, axis=1)
    src = np.empty((len(perms), read.shape[1]), dtype=np.int32)
    step = max(1, _SparseRows.CHUNK // max(1, read.shape[1]))
    for lo in range(0, len(perms), step):
        src[lo: lo + step] = _index(shape, weights[inverses[lo: lo + step]] @ read)
    src.flags.writeable = False
    return src


@dataclass
class ModuleVector:
    """A vector in the tabloid module of a shape: one dense row over the
    field, entry i the coefficient of the i-th tabloid."""

    shape: Partition
    field: FieldSpec
    row: np.ndarray

    @classmethod
    def zero(cls, shape: Partition, field: FieldSpec) -> "ModuleVector":
        return cls(shape, field, field.zeros(len(_row_words(shape)[0])))

    def coefficient(self, key: TabloidKey):
        """Coefficient of the tabloid with this key; KeyError unless its rows
        ascend, have the shape's lengths and hold the symbols 1..n once."""
        shape = self.shape
        if (tuple(map(len, key)) != shape or any(list(row) != sorted(row) for row in key)
                or sorted(itertools.chain(*key)) != list(range(1, shape.size + 1))):
            raise KeyError(f"{key} is not a tabloid of shape {shape}")
        return self.field.scalar(self.row[tabloid_indices(shape, [key])[0]])

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if (self.shape, self.field) != (other.shape, other.field):
            raise ValueError(f"cannot add a vector of shape {other.shape} over "
                             f"{other.field} to one of shape {self.shape} over {self.field}")
        return ModuleVector(self.shape, self.field,
                            self.field.reduce_array(self.row + other.row))

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + other.scale(-1)

    def scale(self, c) -> "ModuleVector":
        return ModuleVector(self.shape, self.field,
                            self.field.reduce_array(self.row * self.field.scalar(c)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return ((self.shape, self.field) == (other.shape, other.field)
                and np.array_equal(self.row, other.row))


@lru_cache(maxsize=4096)
def _column_terms(rows: Tableau, bottom: bool) -> tuple[Partition, np.ndarray, np.ndarray]:
    """The shape of rows, the index of each tabloid {rows sigma}, sigma in
    the column stabilizer of t, and sign(sigma): what a signed column sum
    owes no field.

    t is rows, or with ``bottom`` rows without its last row, so the j-th
    entry of a column of t sits in row j of rows.  A tabloid's code is a
    sum over symbols, sum of r * l^(x-1) for x in row r, so sigma moves it
    column by column: permuting column c_0..c_{k-1} so that c_{s(j)} lands
    in row j adds sum_j j * (l^(c_{s(j)}-1) - l^(c_j-1)).  The codes of all
    sigma are outer sums of those offsets, found in the sorted codes at
    once.  The indices are distinct, since no sigma but 1 keeps the rows of
    rows.
    """
    shape = rows.shape
    weights = _row_words(shape)[1]
    codes = np.array([_code(weights, rows)], dtype=weights.dtype)
    signs = np.ones(1, dtype=np.int64)
    for col in (Tableau(rows[:-1]) if bottom else rows).columns():
        k = len(col)
        if k == 1:
            continue
        perms = np.array(list(itertools.permutations(range(k))))
        parity = np.zeros(len(perms), dtype=np.int64)
        for i, j in itertools.combinations(range(k), 2):
            parity ^= perms[:, i] > perms[:, j]
        symbols = np.asarray(col) - 1
        offsets = weights[symbols[perms]] @ np.arange(k) - weights[symbols] @ np.arange(k)
        codes = (codes[:, None] + offsets[None, :]).reshape(-1)
        signs = (signs[:, None] * (1 - 2 * parity)[None, :]).reshape(-1)
    index = _index(shape, codes)
    for a in (index, signs):
        a.flags.writeable = False
    return shape, index, signs


def _signed_column_sum(rows: Tableau, bottom: bool, field: FieldSpec) -> ModuleVector:
    """Sum of sign(sigma) {rows sigma} over the column stabilizer of rows,
    or of rows without its last row with ``bottom``: the cached
    ``_column_terms`` written into a zero row and reduced once."""
    shape, index, signs = _column_terms(rows, bottom)
    vec = ModuleVector.zero(shape, field)
    vec.row[index] = signs
    vec.row = field.reduce_array(vec.row)
    return vec


def polytabloid(t: Tableau, field: FieldSpec) -> ModuleVector:
    """Alternating sum of tabloids over the column stabilizer of t."""
    return _signed_column_sum(t, False, field)


def extension(t: Tableau) -> Tableau:
    """Append the next symbol in a new one-node row at the bottom."""
    return Tableau(tuple(t) + ((t.size + 1,),))


def induced_polytabloid(T: Tableau, lam: Partition, field: FieldSpec) -> ModuleVector:
    """Signed tabloid sum over the column stabilizer of T's restriction to lam.

    T must have shape lam plus one extra node in a new bottom row; the extra
    entry is untouched by the column stabilizer of the restriction.
    """
    if tuple(map(len, T)) != (*lam, 1):
        raise ValueError(f"shape of {T} is not {lam} plus a bottom node")
    return _signed_column_sum(T, True, field)


def region_H(t: Tableau, u: int) -> frozenset:
    """Symbols in the top r_u rows of t (empty when u = 0)."""
    rem = removable_nodes(t.shape)
    if not 0 <= u <= len(rem):
        raise ValueError(f"u out of range: {u} not in 0..{len(rem)}")
    top = rem[u - 1][0] if u else 0
    return frozenset(x for row in tuple(t)[:top] for x in row)


def region_V(t: Tableau, u: int) -> frozenset:
    """Symbols of t in columns c_{u+1}+1 .. c_u."""
    rem = removable_nodes(t.shape)
    if not 1 <= u <= len(rem):
        raise ValueError(f"u out of range: {u} not in 1..{len(rem)}")
    hi = rem[u - 1][1]
    lo = rem[u][1] if u < len(rem) else 0
    return frozenset(x for row in t for c, x in enumerate(row, start=1) if lo < c <= hi)
