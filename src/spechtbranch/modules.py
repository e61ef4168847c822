"""Specht modules, their restrictions and inductions, as explicit row spaces.

A module built here is a row space inside the tabloid module of an ambient
shape, together with the symmetric group degree that acts.  Coordinates
come through the standard minor, the columns of the basis tableaux's own
tabloids: it is unitriangular (James's standard basis theorem), so its
exact integral inverse turns the d minor columns of a row of the module
into its coordinates.  Every action is one lookup of the element's
preimage table, ``tabloids.tabloid_preimages(shape, perms, at)`` with a
row per term, one gather per block of terms, of a tabloid vector or of the
d minor tabloids of the basis, and one reduction of the sum, in the
field's dtype (``FieldSpec.dtype``), where no sum of terms can overflow.  The
constructor proves the row space invariant under the symmetric group of
the shape's size, once: it reads two generators' matrices that way and
checks them against the generators' moves of the basis, at the width of
the tabloid space, which no later action reads.  A submodule, such as a
block component, holds its parent and a ``Subspace`` of the parent's
coordinates, in reduced echelon form, and restricts the parent's d x d
matrices to it.  A restriction is a view of the Specht module with the
degree dropped by one, sharing its proof and its cached matrices.

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

import copy
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import Matrix, Subspace, _SparseRows, unipotent_inverse
from .fields import FieldSpec
from .partitions import Partition
from .perms import Perm, adjacent, cycle, transposition
from .tabloids import (
    ModuleVector,
    Tableau,
    _check_cost,
    induced_polytabloid,
    polytabloid,
    standard_tableaux,
    tabloid_indices,
    tabloid_preimages,
)


def _generators(n: int) -> list[Perm]:
    """(1 2) and the n-cycle (1 2 ... n), which generate S_n: (1 2) alone
    for n = 2, and nothing for n = 1."""
    if n < 2:
        return []
    swap, n_cycle = adjacent(n, 1), cycle(n, range(1, n + 1))
    return [swap] if n_cycle == swap else [swap, n_cycle]


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
            if not isinstance(coeff, (int, np.integer)):
                raise TypeError(f"coefficient {coeff!r} of {perm} is not an integer")
            acc[perm] = acc.get(perm, 0) + int(coeff)
        return cls(degree, tuple(sorted((p, c) for p, c in acc.items() if c)))

    def apply(self, vec: ModuleVector) -> ModuleVector:
        """Right action on a tabloid vector."""
        return ModuleVector(vec.shape, vec.field, _act(self, vec.field, vec.shape, vec.row))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{p}" for p, c in self.terms)


def _act(elt: AlgebraElement, field: FieldSpec, shape: Partition, rows: np.ndarray,
         at: tuple | None = None) -> np.ndarray:
    """The columns at (all if None) of reduced rows times elt, for one row
    or a stack of them with one column per tabloid of shape: one table for
    the element, src = ``tabloid_preimages(shape, perms, at)`` with a row
    per term, and c * rows[..., src[k]] summed over the terms as the
    reduced coefficients times the gathered rows, in the field's dtype.
    Terms are gathered in blocks whose entries, with numpy's intp copy of
    the indices, stay under ``_SparseRows.CHUNK``.  The sum is reduced once:
    over an int64 field it would take 2^31 terms to leave int64."""
    rows = rows.astype(field.dtype, copy=False)
    if not elt.terms:
        return np.zeros_like(rows if at is None else rows[..., :len(at)])
    perms, coeffs = zip(*elt.terms)
    src = tabloid_preimages(shape, perms, at)
    coeffs = np.array([field.scalar(c) for c in coeffs], dtype=field.dtype)
    terms, width = src.shape
    step = max(1, _SparseRows.CHUNK // (width * (rows.size // rows.shape[-1] + 1)))
    out = 0
    for lo in range(0, terms, step):
        if step == 1:  # numpy's integer dot costs more than a multiply on one term
            out = out + coeffs[lo] * rows[..., src[lo]]
        else:
            out = out + np.dot(coeffs[lo: lo + step], rows[..., src[lo: lo + step]])
    return field.reduce_array(out)


@lru_cache(maxsize=64)
def murphy_element(k: int) -> AlgebraElement:
    """L_k, the sum of the transpositions (j,k) for j < k; L_1 = 0."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return AlgebraElement.from_terms(
        k, ((transposition(k, j, k), 1) for j in range(1, k)))


@lru_cache(maxsize=64)
def transposition_sum(k: int) -> AlgebraElement:
    """E_k, the sum of all transpositions of degree k."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return AlgebraElement.from_terms(
        k, ((transposition(k, i, j), 1)
            for i in range(1, k + 1) for j in range(i + 1, k + 1)))


class GroupActionModule:
    """A symmetric group module, known through the matrices of its action.

    Matrices are computed on demand, in the module's basis, and cached, one
    cache for every element; a permutation is its one-term element.  A
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
        self._elt_cache: dict = {}

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{self.label}: dim {self.dim}>"

    def _element_action(self, elt: AlgebraElement) -> Matrix:
        raise NotImplementedError

    def perm_matrix(self, pi: Perm) -> Matrix:
        """Matrix of the right action of pi in the module basis: the matrix
        of the one-term element pi, in the one cache of ``element_matrix``."""
        return self.element_matrix(AlgebraElement(len(pi), ((pi, 1),)))

    def element_matrix(self, elt: AlgebraElement) -> Matrix:
        """Matrix of a group algebra element in the module basis.

        The element may exceed the acting degree up to the ambient size
        (L_n or E_n on a restriction, say).
        """
        if elt.degree > self.shape.size:
            raise ValueError(
                f"degree {elt.degree} exceeds ambient size {self.shape.size}")
        if elt not in self._elt_cache:
            self._elt_cache[elt] = self._element_action(elt)
        return self._elt_cache[elt]

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
    and an invertible D proves the rows independent.

    The constructor proves the row space V of the basis B invariant under
    S_m, m = |shape|: for g = (1 2) and (1 2 ... m) it takes the matrix c
    of g from ``_element_action``, as below, and checks c B = B g through
    the sparse basis, at the width of the tabloid space; both matrices are
    cached, as their one-term elements.  Proof that every later action is
    exact: V g lies in V for both generators, so V w lies in V for
    every word w in them, that is for every pi in S_m, and so V a lies in V
    for every a in the group algebra of S_m.  That covers every element of degree at most m,
    also above the acting degree, such as L_m and E_m on a restriction.  A
    row v of V is c B for one c, so v[:, minor_cols] = c D and
    c = v[:, minor_cols] D^-1.  The minor columns of B pi_k are B[:, src[k]],
    the tabloids that pi_k moves onto the minor tabloids (src = the
    element's table ``tabloid_preimages(shape, perms, minor_cols)``), so
    sum c_k pi_k acts as (sum c_k B[:, src[k]]) D^-1, at width d, with
    nothing to check.
    """

    def __init__(self, degree: int, field: FieldSpec, shape: Partition,
                 basis: Matrix, minor_cols, label: str = ""):
        super().__init__(degree, field, shape, label)
        self.basis = basis
        self.minor_cols = tuple(map(int, minor_cols))
        inverse = unipotent_inverse(Matrix(field, basis.a[:, self.minor_cols]))
        # D^-1 - I is sparse, so a solve costs d nnz(D^-1 - I)
        self._correction = _SparseRows(field, inverse.shift(-1).a)
        sparse_basis = _SparseRows(field, basis.a)
        for pi in _generators(shape.size):
            g = AlgebraElement(len(pi), ((pi, 1),))
            c = self._element_action(g)
            # a permutation of reduced rows is reduced already
            if not np.array_equal(sparse_basis.left_mul(c.a),
                                  basis.a[:, tabloid_preimages(shape, (pi,))[0]]):
                raise ArithmeticError("action left the module's row space")
            self._elt_cache[g] = c

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def ambient_width(self) -> int:
        return self.basis.ncols

    def _one_degree_down(self, label: str) -> "TabloidModule":
        """The same row space acted on by S_(degree - 1): a view that shares
        this module's basis, minor inverse, invariance proof, over S_|shape|,
        and element cache, since a matrix does not depend on the acting
        degree."""
        down = copy.copy(self)
        down.degree, down.label = self.degree - 1, label
        return down

    def _element_action(self, elt: AlgebraElement) -> Matrix:
        field = self.field
        lead = _act(elt, field, self.shape, self.basis.a, self.minor_cols)
        return Matrix(field, field.reduce_array(lead + self._correction.left_mul(lead)))


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

    def _element_action(self, elt: AlgebraElement) -> Matrix:
        return self._restricted(self.parent.element_matrix(elt))


def build_specht(lam, field: FieldSpec) -> GroupActionModule:
    """The Specht module S^lam, with the standard polytabloid basis."""
    lam = Partition(lam)
    if lam.size == 0:
        raise ValueError("empty partition")
    return _build_module("S", lam, field)


def build_restriction(lam, field: FieldSpec) -> GroupActionModule:
    """S^lam viewed as a module for the symmetric group one degree down."""
    lam = Partition(lam)
    if lam.size < 2:
        raise ValueError("restriction needs degree at least 2")

    return build_specht(lam, field)._one_degree_down(f"S^({lam}) restricted, over {field}")


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
    if lam.size == 0:
        raise ValueError("empty partition")
    return _build_module("I", lam, field)


# The one module cache, of the three builds used last: S^lam and its
# induction are reused within one (lam, field) of a sweep, where a
# restriction is a view of S^lam; the char-2 report's S^(6,1,1,1) also
# outlives two other Specht builds before its restriction needs it
@lru_cache(maxsize=3)
def _build_module(kind: str, lam: Partition, field: FieldSpec) -> TabloidModule:
    """S^lam (kind "S") or S^lam induced (kind "I") over field, with its
    standard basis."""
    shape = lam if kind == "S" else Partition(tuple(lam) + (1,))
    _check_cost(shape, lam)
    # the rows are stacked at once, so no list of them outlives the stack
    if kind == "S":
        tableaux = standard_tableaux(lam)
        basis = np.stack([polytabloid(t, field).row for t in tableaux])
        label = f"S^({lam}) over {field}"
    else:
        tableaux = _induction_tableaux(lam)
        basis = np.stack([induced_polytabloid(T, lam, field).row for T in tableaux])
        label = f"S^({lam}) induced, over {field}"
    return TabloidModule(shape.size, field, shape, Matrix(field, basis),
                         tabloid_indices(shape, tableaux), label=label)


clear_module_cache = _build_module.cache_clear
