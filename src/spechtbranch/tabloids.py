"""Young tableaux, tabloids and polytabloids.

A tableau stores its rows directly; a tabloid is the canonical key obtained
by sorting each row.  Tabloids of a fixed shape are enumerated once, in
lexicographic order on their sorted rows, and module vectors index into
that enumeration.  Polytabloids are alternating sums over the column
stabilizer; the induced variant applies the column stabilizer of a smaller
tableau sitting inside one extra node.

Permutations act on tabloids through index tables.  Each shape keeps the
row-label word of every tabloid, ``words[i, x-1]`` = the row holding x in
tabloid i, and the words read as base-l numbers (l the number of rows),
which tell tabloids apart, in sorted order.  Acting by pi moves column x-1
of every word to column pi(x)-1; the codes of the moved words, looked up in
the sorted codes, give ``tabloid_permutation(shape, pi)``: the index of
{t_i} pi for every i at once, with no row sorted.
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


@lru_cache(maxsize=None)
def tabloid_index(shape: Partition) -> dict:
    return {key: i for i, key in enumerate(enumerate_tabloids(shape))}


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
    """A vector in the tabloid module of a shape: index -> scalar."""

    shape: Partition
    field: FieldSpec
    coords: dict

    def __post_init__(self):
        self.coords = {i: c for i, c in self.coords.items() if c != 0}

    @classmethod
    def zero(cls, shape: Partition, field: FieldSpec) -> "ModuleVector":
        return cls(shape, field, {})

    def is_zero(self) -> bool:
        return not self.coords

    def coefficient(self, key):
        """Coefficient at a tabloid key or at an index."""
        if isinstance(key, int):
            return self.coords.get(key, 0)
        return self.coords.get(tabloid_index(self.shape)[key], 0)

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if (self.shape, self.field) != (other.shape, other.field):
            raise ValueError(f"cannot add a vector of shape {other.shape} over "
                             f"{other.field} to one of shape {self.shape} over {self.field}")
        out = dict(self.coords)
        for i, c in other.coords.items():
            out[i] = self.field.scalar(out.get(i, 0) + c)
        return ModuleVector(self.shape, self.field, out)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + other.scale(-1)

    def scale(self, c) -> "ModuleVector":
        c = self.field.scalar(c)
        return ModuleVector(self.shape, self.field,
                            {i: self.field.scalar(a * c) for i, a in self.coords.items()})

    def act(self, pi: Perm) -> "ModuleVector":
        """Right action: the support is relabelled by pi's index table; pi
        is a bijection on tabloids, so no coefficient changes."""
        if len(pi) != self.shape.size:
            raise ValueError(f"permutation degree {len(pi)} != {self.shape.size}")
        dst = tabloid_permutation(self.shape, pi)
        moved = dst[np.fromiter(self.coords, dtype=np.intp, count=len(self.coords))]
        return ModuleVector(self.shape, self.field,
                            dict(zip(moved.tolist(), self.coords.values())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return (self.shape, self.field) == (other.shape, other.field) and self.coords == other.coords

def column_signed_maps(t: Tableau):
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


def _signed_column_sum(t: Tableau, rows: Tableau, field: FieldSpec) -> ModuleVector:
    """Sum of sign(sigma) {rows sigma} over the column stabilizer of t."""
    shape = rows.shape
    index = tabloid_index(shape)
    coords: dict = {}
    for mapping, sign in column_signed_maps(t):
        key = tuple(tuple(sorted(mapping.get(x, x) for x in row)) for row in rows)
        i = index[key]
        coords[i] = field.scalar(coords.get(i, 0) + sign)
    return ModuleVector(shape, field, coords)


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
