"""Young tableaux, tabloids and polytabloids.

A tableau stores its rows directly; a tabloid is the canonical key obtained
by sorting each row.  Tabloids of a fixed shape are enumerated once, in
lexicographic order on their sorted rows, and a module vector is one dense
row over its field indexed by that enumeration.  Polytabloids are
alternating sums over the column stabilizer; the induced variant applies
the column stabilizer of a smaller tableau sitting inside one extra node.

Tabloids are found through codes.  Each shape keeps the row-label word of
every tabloid, ``words[i, x-1]`` = the row holding x in tabloid i, and the
words read as base-l numbers (l the number of rows), which tell tabloids
apart, in sorted order.  Acting by pi moves column x-1 of every word to
column pi(x)-1; the codes of the moved words, looked up in the sorted
codes, give ``tabloid_permutation(shape, pi)``: the index of {t_i} pi for
every i at once, with no row sorted.  A code is a sum over the columns of
a tableau, so a column stabilizer moves it by per-column offsets, and a
key's coefficient is read at its code's position.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import FieldSpec
from .partitions import Partition, removable_nodes
from .perms import Perm

TabloidKey = tuple[tuple[int, ...], ...]


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
    rows = []
    next_sym = 1
    for part in lam:
        rows.append(tuple(range(next_sym, next_sym + part)))
        next_sym += part
    return Tableau(rows)


@lru_cache(maxsize=None)
def standard_tableaux(lam: Partition) -> tuple[Tableau, ...]:
    """All standard tableaux of the given shape, in a fixed growth order."""
    n = lam.size
    out = []
    rows: list[list[int]] = [[] for _ in lam]

    def place(k: int):
        if k > n:
            out.append(Tableau(tuple(tuple(r) for r in rows)))
            return
        for r in range(len(lam)):
            c = len(rows[r])
            if c >= lam[r]:
                continue
            if r > 0 and len(rows[r - 1]) <= c:
                continue
            rows[r].append(k)
            place(k + 1)
            rows[r].pop()

    place(1)
    return tuple(out)


def tabloid(t: Tableau) -> TabloidKey:
    """The canonical key of the row-equivalence class of t."""
    return tuple(tuple(sorted(row)) for row in t)


@lru_cache(maxsize=None)
def enumerate_tabloids(shape: Partition) -> tuple[TabloidKey, ...]:
    """All tabloids of a shape, lexicographic on their sorted rows."""
    symbols = tuple(range(1, shape.size + 1))

    def fill(avail: tuple[int, ...], parts: tuple[int, ...]):
        if not parts:
            yield ()
            return
        for head in itertools.combinations(avail, parts[0]):
            chosen = set(head)
            rest = tuple(x for x in avail if x not in chosen)
            for tail in fill(rest, parts[1:]):
                yield (head,) + tail

    return tuple(fill(symbols, tuple(shape)))


@lru_cache(maxsize=64)
def _row_words(shape: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(words, weights, sorted codes, order) for the tabloids of a shape.

    ``words[i, x-1]`` is the row of symbol x in tabloid i, ``words @ weights``
    reads each word in base l (l the number of rows), and ``order`` sorts
    those codes.  The codes are int64 unless l**n would not fit, as for a
    long first row like (62, 1); then they are Python ints.
    """
    keys = enumerate_tabloids(shape)
    n, ell = shape.size, len(shape)
    symbols = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(keys)),
                          dtype=np.intp, count=len(keys) * n).reshape(len(keys), n)
    words = np.empty_like(symbols)
    words[np.arange(len(keys))[:, None], symbols - 1] = np.repeat(np.arange(ell), shape)
    dtype = np.int64 if ell ** n <= np.iinfo(np.int64).max else object
    weights = np.array([ell ** k for k in range(n)], dtype=dtype)
    codes = words @ weights
    order = np.argsort(codes)
    out = (words, weights, codes[order], order)
    for a in out:
        a.flags.writeable = False
    return out


def _code(weights: np.ndarray, rows) -> int:
    """The code of the tabloid whose rows are given: the sum of
    r * weights[x-1] over the symbols x of row r."""
    return sum(r * weights[x - 1] for r, row in enumerate(rows) for x in row)


def tabloid_indices(shape: Partition, tableaux) -> np.ndarray:
    """The index of each tableau's tabloid {t} among the tabloids of shape:
    the codes of the tableaux, found in the sorted codes by one
    searchsorted."""
    _, weights, sorted_codes, order = _row_words(shape)
    codes = np.array([_code(weights, t) for t in tableaux], dtype=weights.dtype)
    return order[np.searchsorted(sorted_codes, codes)]


@lru_cache(maxsize=4096)
def tabloid_permutation(shape: Partition, pi: Perm) -> np.ndarray:
    """Index table of pi on the tabloids of a shape: ``dst[i]`` is the index
    of {t_i} pi, where {t_i} is the i-th tabloid and pi has degree |shape|.

    The table is read-only: every caller shares the cached array.
    """
    words, weights, sorted_codes, order = _row_words(shape)
    moved = np.empty_like(words)
    moved[:, np.asarray(pi, dtype=np.intp) - 1] = words
    dst = order[np.searchsorted(sorted_codes, moved @ weights)]
    dst.flags.writeable = False
    return dst


@dataclass
class ModuleVector:
    """A vector in the tabloid module of a shape: one dense row over the
    field, entry i the coefficient of the i-th tabloid."""

    shape: Partition
    field: FieldSpec
    row: np.ndarray

    @classmethod
    def zero(cls, shape: Partition, field: FieldSpec) -> "ModuleVector":
        return cls(shape, field, field.zeros(len(enumerate_tabloids(shape))))

    def coefficient(self, key: TabloidKey):
        """Coefficient of the tabloid with this key; KeyError for a key
        that is not a tabloid of the shape."""
        _, weights, sorted_codes, order = _row_words(self.shape)
        if all(1 <= x <= self.shape.size for row in key for x in row):
            pos = int(np.searchsorted(sorted_codes, _code(weights, key)))
            if pos < len(order) and enumerate_tabloids(self.shape)[order[pos]] == key:
                return self.field.scalar(self.row[order[pos]])
        raise KeyError(f"{key} is not a tabloid of shape {self.shape}")

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


def _signed_column_sum(t: Tableau, rows: Tableau, field: FieldSpec) -> ModuleVector:
    """Sum of sign(sigma) {rows sigma} over the column stabilizer of t.

    t is rows or rows without its last row, so the j-th entry of a column
    of t sits in row j of rows.  A tabloid's code is a sum over symbols,
    sum of r * l^(x-1) for x in row r, so sigma moves it column by column:
    permuting column c_0..c_{k-1} so that c_{s(j)} lands in row j adds
    sum_j j * (l^(c_{s(j)}-1) - l^(c_j-1)).  The codes of all sigma are
    outer sums of those offsets, found in the sorted codes at once.
    """
    shape = rows.shape
    _, weights, sorted_codes, order = _row_words(shape)
    codes = np.array([_code(weights, rows)], dtype=weights.dtype)
    signs = np.ones(1, dtype=field.dtype)
    for col in t.columns():
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
    row = field.zeros(len(order))
    np.add.at(row, order[np.searchsorted(sorted_codes, codes)], signs)
    return ModuleVector(shape, field, field.reduce_array(row))


def polytabloid(t: Tableau, field: FieldSpec) -> ModuleVector:
    """Alternating sum of tabloids over the column stabilizer of t."""
    return _signed_column_sum(t, t, field)


def extension(t: Tableau) -> Tableau:
    """Append the next symbol in a new one-node row at the bottom."""
    return Tableau(tuple(t) + ((t.size + 1,),))


def induced_polytabloid(T: Tableau, lam: Partition, field: FieldSpec) -> ModuleVector:
    """Signed tabloid sum over the column stabilizer of T's restriction to lam.

    T must have shape lam plus one extra node in a new bottom row; the extra
    entry is untouched by the column stabilizer of the restriction.
    """
    if T.shape != Partition(tuple(lam) + (1,)):
        raise ValueError(f"shape of {T} is not {lam} plus a bottom node")
    return _signed_column_sum(Tableau(tuple(T)[:-1]), T, field)


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
