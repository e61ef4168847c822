"""Specht modules, their restrictions and inductions, as explicit row spaces.

A module built here is a row space inside the tabloid module of an ambient
shape, together with the symmetric group degree that acts.  A permutation
acts through its tabloid index table (``tabloids.tabloid_permutation``):
column i of a dense row moves to column dst[i], so a group algebra element
is a sum of scattered copies of the rows.  One scatter serves a single
tabloid vector and a module's basis rows alike.  The moved rows go back to
module coordinates through the standard minor, the columns of the basis
tableaux's own tabloids: it is unitriangular (James's standard basis
theorem), so its exact integral inverse turns d columns of a moved row into
its coordinates, which ``exact``'s sparse product re-checks.  No solve
runs at the width of the tabloid space.  A submodule, such as a block
component, holds its parent and a ``Subspace`` of the parent's
coordinates, in reduced echelon form, and restricts the parent's d x d
matrices to it.
Restriction reuses the Specht basis verbatim with the degree dropped by one.

Induction to the next symmetric group sits in M^(lam + a bottom node) and
has a basis known in advance, from James's standard basis theorem (James,
LNM 682): for each a in 1..n+1 and each standard tableau t of lam relabelled
order-preservingly onto {1..n+1} minus {a}, the induced polytabloid e_T of
T = t + (a).  e_T is supported on tabloids whose last row is {a}, so blocks
with different a are disjoint; within one block the vectors are the
standard polytabloids of S^lam on that alphabet.  The (n+1) * dim S^lam
rows are therefore independent over every field.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .exact import Matrix, Subspace, _SparseRows, unipotent_inverse
from .fields import FieldSpec
from .partitions import Partition
from .perms import Perm, adjacent, embed, transposition
from .tabloids import (
    ModuleVector,
    Tableau,
    _check_cost,
    induced_polytabloid,
    polytabloid,
    standard_tableaux,
    tabloid_indices,
    tabloid_permutation,
)


@dataclass(frozen=True)
class AlgebraElement:
    """An integer combination of permutations of one degree."""

    degree: int
    terms: tuple

    @classmethod
    def from_terms(cls, degree: int, terms) -> "AlgebraElement":
        acc: dict = {}
        for perm, coeff in terms:
            if len(perm) != degree:
                raise ValueError(f"term degree {len(perm)} != {degree}")
            acc[perm] = acc.get(perm, 0) + int(coeff)
        return cls(degree, tuple(sorted((p, c) for p, c in acc.items() if c)))

    def apply(self, vec: ModuleVector) -> ModuleVector:
        """Right action on a tabloid vector, reduced once."""
        return ModuleVector(vec.shape, vec.field,
                            vec.field.reduce_array(_scatter(self, vec.shape, vec.row)))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{p}" for p, c in self.terms)


def _scatter(elt: AlgebraElement, shape: Partition, rows: np.ndarray) -> np.ndarray:
    """rows times elt, unreduced: each term adds a multiple of the rows (one
    row or a stack of them, one column per tabloid of shape) with column i
    moved to column dst[i] of its permutation's index table."""
    out = np.zeros_like(rows)
    for perm, coeff in elt.terms:
        out[..., tabloid_permutation(shape, embed(perm, shape.size))] += coeff * rows
    return out


def murphy_element(k: int) -> AlgebraElement:
    """L_k, the sum of the transpositions (j,k) for j < k; L_1 = 0."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return AlgebraElement.from_terms(
        k, ((transposition(k, j, k), 1) for j in range(1, k)))


def transposition_sum(k: int) -> AlgebraElement:
    """E_k, the sum of all transpositions of degree k."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return AlgebraElement.from_terms(
        k, ((transposition(k, i, j), 1)
            for i in range(1, k + 1) for j in range(i + 1, k + 1)))


class GroupActionModule:
    """A symmetric group module, known through the matrices of its action.

    Matrices are computed on demand, in the module's basis, and cached.  A
    module built from tabloids is a ``TabloidModule``; a ``Submodule`` takes
    its matrices from its parent's.
    """

    def __init__(self, degree: int, field: FieldSpec, shape: Partition, label: str):
        if shape.size < degree:
            raise ValueError(f"shape {shape} too small for degree {degree}")
        self.degree = degree
        self.field = field
        self.shape = shape
        self.label = label or f"module of degree {degree} over {field}"
        self._perm_cache: dict = {}
        self._elt_cache: dict = {}

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{self.label}: dim {self.dim}>"

    def _perm_action(self, pi: Perm) -> Matrix:
        raise NotImplementedError

    def _element_action(self, elt: AlgebraElement) -> Matrix:
        raise NotImplementedError

    def perm_matrix(self, pi: Perm) -> Matrix:
        """Matrix of the right action of pi in the module basis."""
        if len(pi) > self.shape.size:
            raise ValueError(
                f"permutation degree {len(pi)} exceeds ambient size {self.shape.size}")
        if pi not in self._perm_cache:
            self._perm_cache[pi] = self._perm_action(pi)
        return self._perm_cache[pi]

    def element_matrix(self, elt: AlgebraElement) -> Matrix:
        """Matrix of a group algebra element in the module basis.

        The element may exceed the acting degree up to the ambient size
        (L_n or E_n on a restriction, say); the module must still be stable
        under it, which the coordinate solve asserts.
        """
        if elt.degree > self.shape.size:
            raise ValueError(
                f"element degree {elt.degree} exceeds ambient size {self.shape.size}")
        if elt not in self._elt_cache:
            self._elt_cache[elt] = self._element_action(elt)
        return self._elt_cache[elt]

    def gens(self) -> tuple[Matrix, ...]:
        """Matrices of the Coxeter generators s_1 .. s_{degree-1}."""
        return tuple(self.perm_matrix(adjacent(self.degree, i))
                     for i in range(1, self.degree))

    def submodule(self, space: Subspace, label: str = "") -> "Submodule":
        """The submodule whose coordinates in this module span space, with
        the reduced echelon basis of space as its basis."""
        if space.ambient != self.dim:
            raise ValueError(f"subspace of F^{space.ambient} in a module of "
                             f"dimension {self.dim}")
        return Submodule(self, space, label or f"submodule of {self.label}")


class TabloidModule(GroupActionModule):
    """A module realized as independent rows in the tabloid module M^shape.

    ``minor_cols[i]`` is the column of basis row i's leading tabloid: the
    tabloid {t} of the tableau t whose (induced) polytabloid the row is.  By
    James's standard basis theorem (LNM 682, section 8) {t} is the most
    dominant tabloid of e_t, with coefficient 1, so the minor
    D = basis[:, minor_cols] is unitriangular in any order that extends
    dominance.  Its inverse is exact and integral (``unipotent_inverse``),
    and an invertible D proves the rows independent.  A row v of the module
    is c basis with c = v[:, minor_cols] D^-1; every solve re-checks
    c basis = v exactly, which proves that the action kept the row space.
    """

    def __init__(self, degree: int, field: FieldSpec, shape: Partition,
                 basis: Matrix, minor_cols, label: str = ""):
        super().__init__(degree, field, shape, label)
        self.basis = basis
        self.minor_cols = np.asarray(minor_cols, dtype=np.intp)
        inverse = unipotent_inverse(Matrix(field, basis.a[:, self.minor_cols]))
        # D^-1 - I is sparse, so a solve costs d nnz(D^-1 - I)
        self._correction = _SparseRows(field, inverse.shift(-1).a)
        self._sparse_basis = _SparseRows(field, basis.a)

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def ambient_width(self) -> int:
        return self.basis.ncols

    def _to_module_coords(self, rows: np.ndarray) -> Matrix:
        """Coordinates of reduced rows of the module, re-checked."""
        field = self.field
        lead = rows[:, self.minor_cols]
        coeffs = field.reduce_array(lead + self._correction.left_mul(lead))
        if not np.array_equal(self._sparse_basis.left_mul(coeffs), rows):
            raise ArithmeticError("action left the module's row space")
        return Matrix(field, coeffs)

    def _perm_action(self, pi: Perm) -> Matrix:
        # a permutation of reduced rows is reduced already
        acc = np.empty_like(self.basis.a)
        acc[:, tabloid_permutation(self.shape, embed(pi, self.shape.size))] = self.basis.a
        return self._to_module_coords(acc)

    def _element_action(self, elt: AlgebraElement) -> Matrix:
        return self._to_module_coords(
            self.field.reduce_array(_scatter(elt, self.shape, self.basis.a)))


class Submodule(GroupActionModule):
    """A submodule held as its parent and a Subspace of the parent's
    coordinates.  Each matrix is the parent's, restricted to the subspace
    (``Subspace.restrict``), so no tabloid row is touched; a submodule of a
    submodule restricts twice."""

    def __init__(self, parent: GroupActionModule, space: Subspace, label: str):
        super().__init__(parent.degree, parent.field, parent.shape, label)
        self.parent = parent
        self.space = space

    @property
    def dim(self) -> int:
        return self.space.dim

    def _restricted(self, m: Matrix) -> Matrix:
        try:
            return self.space.restrict(m)
        except ValueError as exc:
            raise ArithmeticError(f"action left the submodule: {exc}") from exc

    def _perm_action(self, pi: Perm) -> Matrix:
        return self._restricted(self.parent.perm_matrix(pi))

    def _element_action(self, elt: AlgebraElement) -> Matrix:
        return self._restricted(self.parent.element_matrix(elt))


_module_cache: OrderedDict = OrderedDict()
_MODULE_CACHE_CAP = 24


def _cached_module(key, make):
    if key in _module_cache:
        _module_cache.move_to_end(key)
        return _module_cache[key]
    value = make()
    _module_cache[key] = value
    while len(_module_cache) > _MODULE_CACHE_CAP:
        _module_cache.popitem(last=False)
    return value


def clear_module_cache():
    _module_cache.clear()


def build_specht(lam, field: FieldSpec) -> GroupActionModule:
    """The Specht module S^lam, with the standard polytabloid basis."""
    lam = Partition(lam)
    n = lam.size
    if n == 0:
        raise ValueError("empty partition")

    def make():
        _check_cost(lam, lam)
        tableaux = standard_tableaux(lam)
        basis = Matrix(field, np.stack([polytabloid(t, field).row for t in tableaux]))
        return TabloidModule(n, field, lam, basis, tabloid_indices(lam, tableaux),
                             label=f"S^({lam}) over {field}")

    return _cached_module(("S", lam, field), make)


def build_restriction(lam, field: FieldSpec) -> GroupActionModule:
    """S^lam viewed as a module for the symmetric group one degree down."""
    lam = Partition(lam)
    if lam.size < 2:
        raise ValueError("restriction needs degree at least 2")

    def make():
        base = build_specht(lam, field)
        return TabloidModule(lam.size - 1, field, lam, base.basis, base.minor_cols,
                             label=f"S^({lam}) restricted, over {field}")

    return _cached_module(("R", lam, field), make)


def _induction_tableaux(lam: Partition) -> list[Tableau]:
    """The tableaux T = t + (a) whose induced polytabloids form the basis.

    For a = 1..n+1 in turn, every standard tableau t of lam (in the order of
    its columns) relabelled order-preservingly onto {1..n+1} minus {a}.
    """
    n = lam.size
    standard = sorted(standard_tableaux(lam), key=Tableau.columns)
    out = []
    for a in range(1, n + 2):
        others = [x for x in range(1, n + 2) if x != a]
        for t in standard:
            rows = tuple(tuple(others[x - 1] for x in row) for row in t)
            out.append(Tableau(rows + ((a,),)))
    return out


def build_induction(lam, field: FieldSpec) -> GroupActionModule:
    """S^lam induced to the next symmetric group, inside M^(lam + one node).

    The basis is James's standard basis, block by block: for a = 1..n+1, the
    induced polytabloids e_T with T a standard tableau of lam on the symbols
    other than a, plus a bottom node holding a.  Every tabloid in e_T has
    {a} as its last row, so distinct blocks have disjoint supports, and one
    block is the standard basis of S^lam on its n symbols; the rows are
    independent over every field and number (n+1) * dim S^lam.  The module
    constructor still proves that independence, by inverting the minor at
    the tabloids {T}.
    """
    lam = Partition(lam)
    n = lam.size
    if n == 0:
        raise ValueError("empty partition")

    def make():
        shape = Partition(tuple(lam) + (1,))
        _check_cost(shape, lam)
        tableaux = _induction_tableaux(lam)
        basis = Matrix(field, np.stack([induced_polytabloid(T, lam, field).row
                                        for T in tableaux]))
        return TabloidModule(n + 1, field, shape, basis, tabloid_indices(shape, tableaux),
                             label=f"S^({lam}) induced, over {field}")

    return _cached_module(("I", lam, field), make)
