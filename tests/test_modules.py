"""Specht, restriction and induction modules: dimensions, relations,
guardrails, the ambient-embedding action, and the induction basis against
a rank scan over all column-increasing extended tableaux."""

import itertools
import random

import numpy as np
import pytest

from spechtbranch import modules
from spechtbranch.exact import Matrix, RowBasis, minimal_polynomial, rref
from spechtbranch.fields import GF, QQ
from spechtbranch.modules import (
    DEGREE_GUARDRAIL,
    _induction_tableaux,
    build_induction,
    build_restriction,
    build_specht,
    clear_module_cache,
    murphy_element,
    transposition_sum,
)
from spechtbranch.partitions import (
    Partition,
    conjugate,
    content_sum,
    partitions_of,
    specht_dimension,
)
from spechtbranch.perms import adjacent, compose, transposition
from spechtbranch.tabloids import (
    Tableau,
    enumerate_tabloids,
    induced_polytabloid,
)


def _random_perm(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    return tuple(img)


def test_algebra_elements():
    l3 = murphy_element(3)
    assert l3.degree == 3 and len(l3.terms) == 2
    assert murphy_element(1).terms == ()
    e3 = transposition_sum(3)
    assert len(e3.terms) == 3
    assert all(c == 1 for _, c in e3.terms)
    with pytest.raises(ValueError):
        murphy_element(0)


def test_specht_dimensions_match_hook_formula():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for field in (QQ, GF(2), GF(3)):
                module = build_specht(lam, field)
                assert module.dim == specht_dimension(lam)
                assert module.degree == n


def test_build_guardrails():
    with pytest.raises(ValueError):
        build_specht(Partition((DEGREE_GUARDRAIL + 1,)), QQ)
    with pytest.raises(ValueError):
        build_restriction(Partition((1,)), QQ)
    with pytest.raises(ValueError):
        build_induction(Partition((DEGREE_GUARDRAIL,)), QQ)


def test_generator_involution_and_braid_relations():
    for lam in (Partition((2, 1)), Partition((3, 2)), Partition((2, 2, 1))):
        n = lam.size
        for field in (QQ, GF(2), GF(5)):
            module = build_specht(lam, field)
            gens = module.gens()
            ident = Matrix.identity(field, module.dim)
            for g in gens:
                assert g @ g == ident
            for i in range(len(gens) - 1):
                a, b = gens[i], gens[i + 1]
                assert a @ b @ a == b @ a @ b
            for i in range(len(gens)):
                for j in range(i + 2, len(gens)):
                    assert gens[i] @ gens[j] == gens[j] @ gens[i]


def test_perm_matrix_is_a_homomorphism():
    rng = random.Random(97)
    lam = Partition((3, 1, 1))
    module = build_specht(lam, GF(7))
    for _ in range(10):
        p = _random_perm(rng, 5)
        q = _random_perm(rng, 5)
        assert module.perm_matrix(p) @ module.perm_matrix(q) \
            == module.perm_matrix(compose(p, q))


def test_murphy_matrices_commute():
    lam = Partition((3, 2))
    for field in (QQ, GF(3)):
        module = build_specht(lam, field)
        mats = [module.element_matrix(murphy_element(k)) for k in range(1, 6)]
        assert mats[0].is_zero()
        for i in range(5):
            for j in range(5):
                assert mats[i] @ mats[j] == mats[j] @ mats[i]


def test_element_matrix_linearity():
    lam = Partition((2, 2))
    module = build_specht(lam, GF(5))
    k = 4
    total = Matrix.zeros(GF(5), module.dim, module.dim)
    for j in range(1, k):
        total = total + module.perm_matrix(transposition(k, j, k))
    assert total == module.element_matrix(murphy_element(k))


def test_transposition_sum_scalar_on_specht():
    for lam in (Partition((2, 1)), Partition((3, 1, 1)), Partition((2, 2))):
        for field in (QQ, GF(2), GF(3)):
            module = build_specht(lam, field)
            a = module.element_matrix(transposition_sum(lam.size))
            expected = Matrix.identity(field, module.dim).scale(
                field.scalar(content_sum(lam)))
            assert a == expected


def test_rational_module_matrices_hold_python_ints():
    """Young's natural representation is integral, so over Q the generator
    and element matrices hold Python ints, not Fraction(1, 1) objects."""
    gens = build_restriction((2, 1), QQ).gens()
    e4 = build_induction((2, 1), QQ).element_matrix(transposition_sum(4))
    entries = [x for m in gens + (e4,) for x in m.a.ravel()]
    assert entries and all(type(x) is int for x in entries)


def test_restriction_shares_dimension_and_lowers_degree():
    lam = Partition((3, 2))
    module = build_restriction(lam, GF(3))
    assert module.dim == specht_dimension(lam)
    assert module.degree == 4
    e4 = module.element_matrix(transposition_sum(4))
    center = Matrix.identity(GF(3), module.dim).scale(GF(3).scalar(1))
    assert e4 != center  # genuinely non-scalar below the top level


def test_ambient_embedding_transfer_identity():
    """On the restriction, E_{n-1} + L_n = E_n = E(lam), as matrices."""
    for lam in (Partition((2, 1)), Partition((3, 2)), Partition((2, 2, 1))):
        n = lam.size
        for field in (QQ, GF(2), GF(5)):
            module = build_restriction(lam, field)
            en1 = module.element_matrix(transposition_sum(n - 1))
            ln = module.element_matrix(murphy_element(n))
            scalar = Matrix.identity(field, module.dim).scale(
                field.scalar(content_sum(lam)))
            assert en1 + ln == scalar


def test_induction_dimensions():
    for lam in (Partition((2, 1)), Partition((2,)), Partition((1, 1)),
                Partition((3, 1))):
        n = lam.size
        for field in (QQ, GF(2), GF(3)):
            module = build_induction(lam, field)
            assert module.dim == (n + 1) * specht_dimension(lam)
            assert module.degree == n + 1


def test_action_outside_submodule_raises():
    module = build_specht(Partition((2, 1)), QQ)
    line = module.submodule(
        Matrix.from_rows(QQ, [[1, 0]]), label="non-invariant line")
    with pytest.raises(ArithmeticError):
        line.perm_matrix(adjacent(3, 2))


def test_module_cache_reuse():
    a = build_specht(Partition((3, 2)), GF(3))
    b = build_specht(Partition((3, 2)), GF(3))
    assert a is b
    c = build_specht(Partition((3, 2)), GF(5))
    assert c is not a


def test_min_poly_of_murphy_on_specht():
    """L_n on S^lam has eigenvalues given by removable-node contents:
    for (3,2) the removable nodes (1,3) and (2,2) have contents 2 and 0."""
    lam = Partition((3, 2))
    module = build_specht(lam, QQ)
    ln = module.element_matrix(murphy_element(5))
    f = minimal_polynomial(ln)
    assert sorted(_rational_root_check(f)) == [0, 2]
    assert f.degree == 2


def _rational_root_check(poly):
    roots = []
    for c in range(-6, 7):
        if poly.eval_scalar(poly.field.scalar(c)) == poly.field.scalar(0):
            roots.append(c)
    return roots


def _extended_tableaux(lam):
    """Spanning enumeration for induction: tableaux of shape lam plus a
    bottom node whose restriction to lam has increasing columns.

    Signed duplicates (column re-orderings of the restriction) are omitted,
    which leaves one representative per polytabloid up to sign.  Order: the
    extra entry ascending, then column fillings lexicographically.
    """
    n = lam.size
    cols = conjugate(lam)

    def fill(avail, remaining):
        if not remaining:
            yield ()
            return
        for head in itertools.combinations(avail, remaining[0]):
            chosen = set(head)
            rest = tuple(x for x in avail if x not in chosen)
            for tail in fill(rest, remaining[1:]):
                yield (head,) + tail

    for a in range(1, n + 2):
        others = tuple(x for x in range(1, n + 2) if x != a)
        for columns in fill(others, tuple(cols)):
            rows = tuple(tuple(columns[c][r] for c in range(lam[r]))
                         for r in range(len(lam)))
            yield Tableau(rows + ((a,),))


def _scan_independent_tableaux(lam, field):
    """The first extended tableaux whose induced polytabloids enlarge the
    span, up to (n+1) * dim S^lam rows."""
    target = (lam.size + 1) * specht_dimension(lam)
    rb = RowBasis(field, len(enumerate_tabloids(Partition(tuple(lam) + (1,)))))
    kept = []
    for T in _extended_tableaux(lam):
        idx, _ = rb.insert(induced_polytabloid(T, lam, field).row)
        if idx is not None:
            kept.append(T)
            if len(kept) == target:
                return kept
    raise ArithmeticError(
        f"induced polytabloids span only {len(kept)} of {target} dimensions")


def test_extended_tableaux_cover_and_shapes():
    """Shape lam plus a new bottom cell; the restriction (all rows but the
    last) is column increasing, one representative per polytabloid sign
    class.  For (2,1): 4 choices of the moved symbol times 3 column-standard
    fillings."""
    lam = Partition((2, 1))
    seen = list(_extended_tableaux(lam))
    assert len(seen) == len(set(seen)) == 12
    for T in seen:
        assert T.shape == Partition((2, 1, 1))
        assert len(T[-1]) == 1
        rest = Tableau(T[:-1])
        assert rest.shape == lam
        for col in rest.columns():
            assert list(col) == sorted(col)
        symbols = sorted(x for row in T for x in row)
        assert symbols == [1, 2, 3, 4]


def test_induction_basis_is_the_rank_scan_choice():
    """The standard basis picks the same tableaux, in the same order, as the
    rank scan over every extended tableau, for every lam of size <= 6."""
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert _induction_tableaux(lam) == _scan_independent_tableaux(lam, GF(3))


def test_induction_row_space_matches_rank_scan():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for field in (QQ, GF(2), GF(3), GF(5)):
                scanned = Matrix(field, np.array(
                    [induced_polytabloid(T, lam, field).row
                     for T in _scan_independent_tableaux(lam, field)]))
                module = build_induction(lam, field)
                assert rref(module.basis)[0] == rref(scanned)[0], (lam, field)


def test_induction_builds_one_polytabloid_per_basis_row(monkeypatch):
    """S^(6,1,1) induced over GF(2): 9 * 21 rows from 189 polytabloids; a
    rank scan reaches its 189th independent row only at candidate 56,161."""
    calls = []

    def counting(T, lam, field):
        calls.append(T)
        return induced_polytabloid(T, lam, field)

    monkeypatch.setattr(modules, "induced_polytabloid", counting)
    clear_module_cache()
    try:
        module = build_induction(Partition((6, 1, 1)), GF(2))
    finally:
        clear_module_cache()
    assert module.dim == len(calls) == 189
