"""Specht modules, their restrictions and inductions, as explicit row spaces.

A module here is a row space inside the tabloid module of an ambient shape,
together with the symmetric group degree that acts.  Permutations act on
tabloid coordinates by index gathering, so a matrix in the module basis is
one batched coordinate solve away from the ambient picture.  Restriction
reuses the Specht basis verbatim with the degree dropped by one; induction
to the next symmetric group is spanned by polytabloids of one-node
extensions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import Matrix, RowBasis
from .fields import FieldSpec, GF
from .partitions import Partition, specht_dimension
from .perms import Perm, adjacent, embed, inverse, transposition
from .tabloids import (
    ModuleVector,
    act_key,
    enumerate_tabloids,
    extended_tableaux,
    induced_polytabloid,
    polytabloid,
    standard_tableaux,
    tabloid_index,
)

DEGREE_GUARDRAIL = 11


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
        """Right action on a sparse tabloid vector."""
        out = ModuleVector.zero(vec.shape, vec.field)
        k = vec.shape.size
        for perm, coeff in self.terms:
            out = out + vec.act(embed(perm, k)).scale(coeff)
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{p}" for p, c in self.terms)


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


@lru_cache(maxsize=4096)
def _tabloid_src(shape: Partition, pi: Perm) -> np.ndarray:
    """Gather indices: acting by pi on dense rows is ``row[src]``."""
    keys = enumerate_tabloids(shape)
    index = tabloid_index(shape)
    sigma = inverse(pi)
    return np.array([index[act_key(k, sigma)] for k in keys], dtype=np.intp)


def _dense_row(vec: ModuleVector, field: FieldSpec) -> np.ndarray:
    row = field.zeros(len(enumerate_tabloids(vec.shape)))
    for j, c in vec.coords.items():
        row[j] = c
    return row


class GroupActionModule:
    """A symmetric group module realized as rows in a tabloid space."""

    def __init__(self, degree: int, field: FieldSpec, shape: Partition,
                 basis: Matrix, solver: RowBasis | None = None, label: str = ""):
        if shape.size < degree:
            raise ValueError(f"shape {shape} too small for degree {degree}")
        self.degree = degree
        self.field = field
        self.shape = shape
        self.basis = basis
        if solver is None:
            solver = RowBasis(field, basis.ncols)
            for i in range(basis.nrows):
                idx, _ = solver.insert(basis.a[i])
                if idx is None:
                    raise ArithmeticError(f"basis row {i} depends on earlier rows")
        self.solver = solver
        self.label = label or f"module of degree {degree} over {field}"
        self._perm_cache: dict = {}
        self._elt_cache: dict = {}

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def ambient_width(self) -> int:
        return self.basis.ncols

    def __repr__(self) -> str:
        return f"<{self.label}: dim {self.dim}>"

    def _to_module_coords(self, ambient_rows: np.ndarray) -> Matrix:
        coeffs, ok = self.solver.coords_many(self.field.reduce_array(ambient_rows))
        if not np.all(ok):
            raise ArithmeticError("action left the module's row space")
        return Matrix(self.field, coeffs)

    def perm_matrix(self, pi: Perm) -> Matrix:
        """Matrix of the right action of pi in the module basis."""
        if len(pi) > self.shape.size:
            raise ValueError(
                f"permutation degree {len(pi)} exceeds ambient size {self.shape.size}")
        if pi not in self._perm_cache:
            src = _tabloid_src(self.shape, embed(pi, self.shape.size))
            self._perm_cache[pi] = self._to_module_coords(self.basis.a[:, src])
        return self._perm_cache[pi]

    def element_matrix(self, elt: AlgebraElement) -> Matrix:
        """Matrix of a group algebra element in the module basis.

        The element may exceed the acting degree up to the ambient size
        (L_n or E_n on a restriction, say); the row space must still be
        stable under it, which the coordinate solve asserts.
        """
        if elt.degree > self.shape.size:
            raise ValueError(
                f"element degree {elt.degree} exceeds ambient size {self.shape.size}")
        if elt not in self._elt_cache:
            self._elt_cache[elt] = self._to_module_coords(self.ambient_image(elt))
        return self._elt_cache[elt]

    def ambient_image(self, elt: AlgebraElement) -> np.ndarray:
        """Basis rows acted on by elt, left in ambient tabloid coordinates."""
        if elt.degree > self.shape.size:
            raise ValueError(
                f"element degree {elt.degree} exceeds ambient size {self.shape.size}")
        acc = self.field.zeros((self.dim, self.ambient_width))
        for perm, coeff in elt.terms:
            src = _tabloid_src(self.shape, embed(perm, self.shape.size))
            acc += coeff * self.basis.a[:, src]
        return self.field.reduce_array(acc)

    def gens(self) -> tuple[Matrix, ...]:
        """Matrices of the Coxeter generators s_1 .. s_{degree-1}."""
        return tuple(self.perm_matrix(adjacent(self.degree, i))
                     for i in range(1, self.degree))

    def submodule(self, coeff_rows: Matrix, label: str = "") -> "GroupActionModule":
        """The row space spanned by combinations of basis rows."""
        sub_basis = coeff_rows @ self.basis
        return GroupActionModule(self.degree, self.field, self.shape, sub_basis,
                                 label=label or f"submodule of {self.label}")


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
    if n > DEGREE_GUARDRAIL:
        raise ValueError(f"degree guardrail: {n} > {DEGREE_GUARDRAIL}")

    def make():
        dim = specht_dimension(lam)
        width = len(enumerate_tabloids(lam))
        rows = field.zeros((dim, width))
        for i, t in enumerate(standard_tableaux(lam)):
            for j, c in polytabloid(t, field).coords.items():
                rows[i, j] = c
        basis = Matrix(field, rows)
        return GroupActionModule(n, field, lam, basis, label=f"S^({lam}) over {field}")

    return _cached_module(("S", lam, field), make)


def build_restriction(lam, field: FieldSpec) -> GroupActionModule:
    """S^lam viewed as a module for the symmetric group one degree down."""
    lam = Partition(lam)
    if lam.size < 2:
        raise ValueError("restriction needs degree at least 2")

    def make():
        base = build_specht(lam, field)
        return GroupActionModule(lam.size - 1, field, lam, base.basis,
                                 solver=base.solver,
                                 label=f"S^({lam}) restricted, over {field}")

    return _cached_module(("R", lam, field), make)


# prime used to pre-screen row independence before exact rational elimination
_SCAN_PRIME = 1048573


def _scan_independent_tableaux(lam: Partition, scan_field: FieldSpec, target: int):
    """First extended tableaux whose induced polytabloids are independent.

    Scans the spanning enumeration in order and keeps a tableau whenever its
    row enlarges the span over scan_field, stopping at target rows.
    """
    width = len(enumerate_tabloids(Partition(tuple(lam) + (1,))))
    rb = RowBasis(scan_field, width)
    kept = []
    for T in extended_tableaux(lam):
        row = _dense_row(induced_polytabloid(T, lam, scan_field), scan_field)
        idx, _ = rb.insert(row)
        if idx is not None:
            kept.append(T)
            if len(kept) == target:
                return kept
    raise ArithmeticError(
        f"induced polytabloids span only {len(kept)} of {target} dimensions")


def build_induction(lam, field: FieldSpec) -> GroupActionModule:
    """S^lam induced to the next symmetric group, inside M^(lam + one node).

    The basis is the first spanning subset of induced polytabloids e_T, with
    T running over extensions of lam by a bottom node whose restriction has
    increasing columns.  The dimension is (n+1) * dim S^lam.
    """
    lam = Partition(lam)
    n = lam.size
    if n == 0:
        raise ValueError("empty partition")
    if n + 1 > DEGREE_GUARDRAIL:
        raise ValueError(f"degree guardrail: {n + 1} > {DEGREE_GUARDRAIL}")

    def make():
        target = (n + 1) * specht_dimension(lam)
        if field.characteristic == 0:
            # rows independent modulo a prime are independent over Q, so a
            # fast residue scan picks the basis and Q only checks it
            try:
                kept = _scan_independent_tableaux(lam, GF(_SCAN_PRIME), target)
            except ArithmeticError:
                kept = _scan_independent_tableaux(lam, field, target)
        else:
            kept = _scan_independent_tableaux(lam, field, target)
        shape = Partition(tuple(lam) + (1,))
        width = len(enumerate_tabloids(shape))
        rows = field.zeros((target, width))
        for i, T in enumerate(kept):
            for j, c in induced_polytabloid(T, lam, field).coords.items():
                rows[i, j] = c
        basis = Matrix(field, rows)
        return GroupActionModule(n + 1, field, shape, basis,
                                 label=f"S^({lam}) induced, over {field}")

    return _cached_module(("I", lam, field), make)
