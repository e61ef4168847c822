"""Specht, restriction and induction modules: dimensions, relations,
guardrails, the ambient-embedding action, the induction basis against
a rank scan over all column-increasing extended tableaux, and the
standard-minor solve and submodule restriction against the ambient solve."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import (Rebased, ambient_solver, coxeter_matrices, enumerate_tabloids,
                     rows_in, split_branching)
from spechtbranch import modules, tabloids
from spechtbranch.central import INDUCE, RESTRICT
from spechtbranch.cli import main
from spechtbranch.endo import decompose
from spechtbranch.exact import (Matrix, RowBasis, Subspace, minimal_polynomial, rref,
                                unipotent_inverse)
from spechtbranch.fields import GF, QQ
from spechtbranch.modules import (
    AlgebraElement,
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
from spechtbranch.tabloids import (ModuleVector, Tableau, canonical_tableau,
                                   induced_polytabloid, polytabloid, standard_tableaux)
from spechtbranch.verify import sweep


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


def test_algebra_element_coefficients_must_be_integers():
    """A coefficient that is not a Python or numpy integer is refused, not
    truncated: Fraction(1, 2) and 0.5 would both become 0 and drop their
    term."""
    for coeff in (Fraction(1, 2), 0.5, Fraction(2, 1), 1.0):
        with pytest.raises(TypeError):
            AlgebraElement.from_terms(3, [((2, 1, 3), coeff)])
    elt = AlgebraElement.from_terms(3, [((2, 1, 3), np.int64(2)), ((2, 1, 3), 1)])
    assert elt.terms == (((2, 1, 3), 3),)


def test_specht_dimensions_match_hook_formula():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for field in (QQ, GF(2), GF(3)):
                module = build_specht(lam, field)
                assert module.dim == specht_dimension(lam)
                assert module.degree == n


def test_build_guardrails(monkeypatch):
    """The cost guardrail bounds W * max(dim, degree) plus the entries of E_n,
    W the tabloids of the shape tabled.  S^(3,2,1,1,1,1,1) induced (dim 1,760
    in 3,326,400 tabloids) is refused before a table or a basis is made, in
    the library and on the command line (exit 2), and so is the table of
    (1^10), which a polytabloid alone would build.  A one-row shape has one
    tabloid, so E_n bounds its degree: S^(1000) is refused with ValueError,
    not RecursionError, and so is degree 10^8, before any factorial.  Every
    lam of size <= 8 passes in both directions, and S^(1^9) (362,880
    tabloids of one row each) builds."""
    def no_table(*args):
        raise AssertionError("a table was built for a refused module")

    with monkeypatch.context() as patch:
        patch.setattr(tabloids, "_row_words", no_table)
        patch.setattr(modules, "standard_tableaux", no_table)
        with pytest.raises(ValueError, match="cost guardrail"):
            build_induction(Partition((3, 2, 1, 1, 1, 1, 1)), GF(3))
        assert main(["blocks", "--lambda", "3,2,1,1,1,1,1", "--field", "3",
                     "--direction", "induce"]) == 2
    with pytest.raises(ValueError, match="cost guardrail"):
        polytabloid(Tableau((x,) for x in range(1, 11)), GF(3))
    for lam in (Partition((1000,)), Partition((10 ** 8,))):
        for make in (standard_tableaux, canonical_tableau, lambda mu: build_specht(mu, GF(3))):
            with pytest.raises(ValueError, match="cost guardrail"):
                make(lam)
    for command in ("en-scalar", "coeff-lemma"):
        assert main([command, "--lambda", str(10 ** 8), "--field", "3"]) == 2
    with pytest.raises(ValueError):
        build_restriction(Partition((1,)), QQ)
    for lam in (lam for n in range(1, 9) for lam in partitions_of(n)):
        tabloids._check_cost(lam, lam)
        tabloids._check_cost(Partition(tuple(lam) + (1,)), lam)
    column = build_specht(Partition((1,) * 9), GF(3))
    assert (column.dim, column.ambient_width) == (1, 362880)
    clear_module_cache()


def test_generator_involution_and_braid_relations():
    for lam in (Partition((2, 1)), Partition((3, 2)), Partition((2, 2, 1))):
        n = lam.size
        for field in (QQ, GF(2), GF(5)):
            module = build_specht(lam, field)
            gens = coxeter_matrices(module)
            ident = Matrix.identity(field, module.dim)
            for g in gens:
                assert g @ g == ident
            for i in range(len(gens) - 1):
                a, b = gens[i], gens[i + 1]
                assert a @ b @ a == b @ a @ b
            for i in range(len(gens)):
                for j in range(i + 2, len(gens)):
                    assert gens[i] @ gens[j] == gens[j] @ gens[i]


def test_actions_refuse_a_non_permutation():
    """A tuple with a repeated symbol, a symbol past n or a 0 is not a
    permutation: perm_matrix and element_matrix, on a module and on a
    submodule, and AlgebraElement.apply on a tabloid vector raise
    ValueError."""
    lam = Partition((2, 1))
    module = build_specht(lam, QQ)
    sub = module.submodule(rref(Matrix.identity(QQ, module.dim)))
    vec = ModuleVector(lam, QQ, module.basis.a[0])
    for pi in ((1, 1, 3), (1, 2, 4), (0, 2, 3)):
        elt = AlgebraElement.from_terms(3, [((1, 2, 3), 1), (pi, 2)])
        for m in (module, sub):
            with pytest.raises(ValueError):
                m.perm_matrix(pi)
            with pytest.raises(ValueError):
                m.element_matrix(elt)
        with pytest.raises(ValueError):
            elt.apply(vec)


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
    gens = coxeter_matrices(build_restriction((2, 1), QQ))
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
        Subspace(Matrix.from_rows(QQ, [[1, 0]])), label="non-invariant line")
    with pytest.raises(ArithmeticError):
        line.perm_matrix(adjacent(3, 2))


def test_module_cache_reuse():
    a = build_specht(Partition((3, 2)), GF(3))
    b = build_specht(Partition((3, 2)), GF(3))
    assert a is b
    c = build_specht(Partition((3, 2)), GF(5))
    assert c is not a


def test_a_fourth_module_build_evicts_the_least_recently_used():
    """The module cache keeps the three builds used last: a fourth distinct
    build evicts the one used longest ago, and the other two stay."""
    field = GF(3)
    clear_module_cache()
    try:
        a = build_specht((2, 1), field)
        b = build_specht((3,), field)
        c = build_induction((2, 1), field)
        assert build_specht((2, 1), field) is a  # b is now the oldest use
        build_specht((1, 1, 1), field)
        assert build_specht((2, 1), field) is a
        assert build_induction((2, 1), field) is c
        assert build_specht((3,), field) is not b
    finally:
        clear_module_cache()


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
                assert rref(module.basis) == rref(scanned), (lam, field)


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


# -- the standard minor and submodules, against the ambient solve ---------

_BUILDS = ((build_specht, 1), (build_restriction, 2), (build_induction, 1))


def _assert_matches_ambient_solve(sub, module, rows=None):
    """sub, spanned by rows times module's basis (module itself when rows
    is None), has the Coxeter generator matrices and transposition sum of
    that span, and E_m and L_m for m = |shape| (above the acting degree on
    a restriction), solved through a RowBasis as wide as the tabloids."""
    oracle = ambient_solver(module, rows)
    for i in range(1, module.degree):
        pi = adjacent(module.degree, i)
        assert sub.perm_matrix(pi) == oracle.perm_matrix(module.shape, pi)
    size = module.shape.size
    for elt in (transposition_sum(module.degree), transposition_sum(size),
                murphy_element(size)):
        assert sub.element_matrix(elt) == oracle.element_matrix(module.shape, elt)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_action_matrices_match_the_ambient_solve(field):
    """The Specht, restricted and induced module of every lam |- n <= 6,
    solved through the standard minor, against the ambient solve."""
    for n in range(1, 7):
        for lam in partitions_of(n):
            for build, low in _BUILDS:
                if n >= low:
                    module = build(lam, field)
                    _assert_matches_ambient_solve(module, module)


def _count_vector(key) -> tuple:
    """m[i][r], the number of symbols <= i in the first r rows of a tabloid;
    {s} is dominated by {t} exactly when m(s) <= m(t) entry by entry."""
    n = sum(len(row) for row in key)
    return tuple(sum(1 for row in key[:r] for x in row if x <= i)
                 for i in range(1, n + 1) for r in range(1, len(key) + 1))


def test_action_matrices_at_a_large_prime_match_the_ambient_solve():
    """Over GF(2^31 - 1), where residues are Python ints, S^(3,2,1) and its
    induction give every Coxeter generator and the transposition sum, as
    reduced matrices of the field's dtype equal to the ambient solve."""
    field = GF(2147483647)
    for module in (build_specht(Partition((3, 2, 1)), field),
                   build_induction(Partition((3, 2, 1)), field)):
        _assert_matches_ambient_solve(module, module)
        assert all(g.a.dtype == field.dtype for g in coxeter_matrices(module))


def test_entries_at_a_large_prime_are_python_ints():
    """After a module build and an element action over GF(2^31 - 1), every
    entry of the basis, of an action matrix, of a block component's matrix
    and of an acted-on tabloid vector is a Python int: a numpy int64 inside
    an object array would wrap in later products."""
    field = GF(2147483647)
    lam = Partition((2, 1))
    module = build_induction(lam, field)
    elt = AlgebraElement.from_terms(4, [((2, 1, 3, 4), 2 ** 62), ((4, 3, 2, 1), -1)])
    arrays = [module.basis.a, module.element_matrix(elt).a,
              module.element_matrix(transposition_sum(4)).a]
    for comp in split_branching(module, lam, INDUCE):
        arrays.append(comp.module.element_matrix(transposition_sum(4)).a)
    vec = induced_polytabloid(Tableau(((1, 2), (3,), (4,))), lam, field)
    arrays += [vec.row, elt.apply(vec).row, elt.apply(elt.apply(vec)).row]
    for a in arrays:
        assert a.dtype == object
        assert all(type(x) is int for x in a.flat)


def test_large_element_coefficients_act_as_their_residues():
    """Over GF(2^31 - 1) a coefficient of 2^62 acts as its residue on a
    module; the matrix equals the ambient solve of the residues."""
    field = GF(2147483647)
    module = build_induction(Partition((2, 1)), field)
    terms = [((2, 1, 3, 4), 2 ** 62), ((1, 3, 4, 2), 2 ** 62), ((4, 3, 2, 1), 2 ** 62)]
    residues = AlgebraElement.from_terms(4, [(pi, c % 2147483647) for pi, c in terms])
    assert module.element_matrix(AlgebraElement.from_terms(4, terms)) == \
        ambient_solver(module).element_matrix(module.shape, residues)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_standard_minor_is_unitriangular_in_dominance_order(field):
    """basis[:, minor_cols] has 1 on the diagonal, and e_t holds the leading
    tabloid {s} of another basis row only when {s} is dominated by {t}
    (James, LNM 682, 8.3).  So ordered by the count vectors, a linear
    extension of dominance, the minor is lower unitriangular."""
    for n in range(1, 7):
        for lam in partitions_of(n):
            for build in (build_specht, build_induction):
                module = build(lam, field)
                keys = enumerate_tabloids(module.shape)
                counts = [_count_vector(keys[c]) for c in module.minor_cols]
                minor = module.basis.a[:, module.minor_cols]
                assert all(minor[i, i] == 1 for i in range(module.dim))
                for i, j in zip(*np.nonzero(minor)):
                    assert all(a <= b for a, b in zip(counts[j], counts[i]))
                order = sorted(range(module.dim), key=counts.__getitem__)
                ordered = minor[np.ix_(order, order)]
                assert not np.any(np.triu(ordered, 1)), (lam, build.__name__)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_block_components_match_the_ambient_rebuild(field):
    """Each block component of a restriction or induction through n = 5:
    its generator matrices and transposition sum, restricted from the
    module's, equal those of the component rebuilt at ambient width."""
    for n in range(1, 6):
        for lam in partitions_of(n):
            for direction, build in ((RESTRICT, build_restriction),
                                     (INDUCE, build_induction)):
                if direction == RESTRICT and n < 2:
                    continue
                module = build(lam, field)
                for comp in split_branching(module, lam, direction):
                    _assert_matches_ambient_solve(
                        comp.module, module, comp.module.space.basis)


@pytest.mark.parametrize("lam,field", [((3, 1), QQ), ((2, 1), GF(3)),
                                       ((2, 2), GF(2))], ids=str)
def test_decompose_works_on_a_nested_submodule(lam, field):
    """A restriction rebased twice, then taken whole as a submodule of a
    submodule, still decomposes into certified summands.  Each summand, a
    submodule of the nested one (or the nested one itself), and each
    summand's own summand inside the summand taken as a proper submodule,
    have the matrices rebuilt at ambient width from their rows."""
    module = build_restriction(Partition(lam), field)
    d = module.dim
    outer = Matrix(field, np.triu(np.ones((d, d), dtype=np.int64)))
    inner = Matrix(field, np.tril(np.ones((d, d), dtype=np.int64)))
    rebased = Rebased(Rebased(module, outer), inner)
    whole = rref(Matrix.identity(field, d))
    nested = rebased.submodule(whole).submodule(whole)
    assert isinstance(nested.parent, modules.Submodule)
    assert nested.dim == d
    parts = decompose(nested)
    assert sum(summand.dim for summand, _ in parts) == d
    assert len(parts) == len(decompose(module))
    for summand, cert in parts:
        assert cert.verdict == "indecomposable"
        coords = rows_in(nested, summand)
        _assert_matches_ambient_solve(summand, module, coords @ inner @ outer)
        space = rref(coords)
        middle = rebased.submodule(space)
        (part, part_cert), = decompose(middle)
        assert part_cert.verdict == "indecomposable"
        assert part.dim == space.dim
        _assert_matches_ambient_solve(part, module, rows_in(middle, part)
                                      @ space.basis @ inner @ outer)


def test_submodule_of_dependent_rows_raises():
    """Dependent rows are no Subspace, so no submodule of them is made."""
    module = build_specht(Partition((2, 1)), GF(3))
    with pytest.raises(ValueError):
        module.submodule(Subspace(Matrix.from_rows(GF(3), [[1, 2], [2, 1]])))
    with pytest.raises(ValueError):
        module.submodule(Subspace(Matrix.identity(GF(3), 3)))


@st.composite
def _module_and_action(draw):
    """A module built from a small partition over a drawn field, a
    permutation of its ambient degree and an integer combination of
    permutations."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    build, low = draw(st.sampled_from(_BUILDS))
    lam = draw(st.sampled_from(partitions_of(draw(st.integers(low, 5)))))
    module = build(lam, field)
    size = module.shape.size
    perms = st.permutations(range(1, size + 1)).map(tuple)
    pi = draw(perms)
    terms = draw(st.lists(st.tuples(perms, st.integers(-3, 3)), max_size=4))
    return module, pi, AlgebraElement.from_terms(size, terms)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@seed(0)
@given(_module_and_action(), st.data())
def test_minor_solve_property_against_ambient_solve(drawn, data):
    """Through the standard minor: a drawn permutation and a drawn group
    algebra element act as the ambient solve says, and a combination of
    basis rows, read at the minor columns and multiplied by the inverse
    minor, comes back as its coefficients."""
    module, pi, elt = drawn
    field = module.field
    oracle = ambient_solver(module)
    assert module.perm_matrix(pi) == oracle.perm_matrix(module.shape, pi)
    assert module.element_matrix(elt) == oracle.element_matrix(module.shape, elt)
    coeffs = field.array(data.draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=module.dim, max_size=module.dim),
        min_size=1, max_size=3)))
    rows = (Matrix(field, coeffs) @ module.basis).a
    cols = list(module.minor_cols)
    inverse = unipotent_inverse(Matrix(field, module.basis.a[:, cols]))
    assert Matrix(field, rows[:, cols]) @ inverse == Matrix(field, coeffs)


def test_no_ambient_row_basis_in_build_split_or_components(monkeypatch):
    """Building a restriction or an induction, splitting it into blocks and
    making each component a module, with its generator matrices, creates
    no RowBasis as wide as the tabloid space."""
    widths = []
    init = RowBasis.__init__

    def recorded(self, field, width):
        widths.append(width)
        init(self, field, width)

    monkeypatch.setattr(RowBasis, "__init__", recorded)
    clear_module_cache()
    try:
        for lam, direction, build in (((3, 2), RESTRICT, build_restriction),
                                      ((2, 1), INDUCE, build_induction)):
            for field in (QQ, GF(3)):
                widths.clear()
                module = build(Partition(lam), field)
                for comp in split_branching(module, lam, direction):
                    coxeter_matrices(comp.module)
                assert module.dim < module.ambient_width
                assert widths and module.ambient_width not in widths
    finally:
        clear_module_cache()


def test_block_component_owns_its_submodule():
    """A block component's module is one object, built by block_split, so
    the matrices it has computed stay cached on every later access."""
    lam = Partition((3, 1))
    module = build_restriction(lam, GF(3))
    for comp in split_branching(module, lam, RESTRICT):
        sub = comp.module
        gens = coxeter_matrices(sub)
        assert comp.module is sub
        assert all(a is b for a, b in zip(coxeter_matrices(comp.module), gens))
        assert sub.parent is module and sub.dim == comp.dim


def test_actions_after_the_build_reduce_nothing_at_ambient_width(monkeypatch):
    """Once the build has proved the row space invariant, perm_matrix and
    element_matrix over GF(3) read the d minor columns: on an induction and
    on a restriction, also for an element above the acting degree, they
    reduce no array as wide as the tabloids."""
    field = GF(3)
    clear_module_cache()  # so no earlier test has cached the matrices
    built = (build_induction(Partition((2, 1)), field),
             build_restriction(Partition((3, 1)), field))
    widths = []
    reduce_array = type(field).reduce_array

    def recorded(self, a):
        widths.append(a.shape[-1])
        return reduce_array(self, a)

    monkeypatch.setattr(type(field), "reduce_array", recorded)
    for module in built:
        widths.clear()
        size = module.shape.size
        module.perm_matrix(adjacent(module.degree, module.degree - 1))
        module.element_matrix(transposition_sum(module.degree))
        module.element_matrix(murphy_element(size))
        assert widths and module.ambient_width not in widths
    clear_module_cache()


def test_actions_after_the_build_ask_for_no_table_of_every_tabloid(monkeypatch):
    """Once the build has proved the row space invariant, perm_matrix and
    element_matrix(E_|shape|) look up the preimages of the d minor tabloids
    alone: on a Specht module, an induction and a restriction, over GF(3)
    and Q, no table is asked for with at=None."""
    clear_module_cache()  # so no earlier test has cached the matrices
    built = [build(Partition(lam), field) for field in (GF(3), QQ)
             for lam, build in (((3, 2), build_specht), ((2, 1), build_induction),
                                ((3, 1), build_restriction))]
    asked = []
    preimages = modules.tabloid_preimages

    def recorded(shape, perms, at=None):
        asked.append(at)
        return preimages(shape, perms, at)

    monkeypatch.setattr(modules, "tabloid_preimages", recorded)
    rng = random.Random(5)
    for module in built:
        asked.clear()
        coxeter_matrices(module)
        module.perm_matrix(_random_perm(rng, module.degree))
        module.element_matrix(transposition_sum(module.shape.size))
        assert asked and all(at == module.minor_cols for at in asked)
    clear_module_cache()


def test_a_row_space_that_is_not_invariant_is_refused_at_construction():
    """The constructor proves invariance under S_|shape| whatever the acting
    degree: the tabloid {1 2 / 3} of M^(2,1), with its own column as the
    minor, is fixed by (1 2) but moved off its span by the 3-cycle."""
    shape = Partition((2, 1))
    cols = tabloids.tabloid_indices(shape, [Tableau(((1, 2), (3,)))])
    for field in (QQ, GF(2), GF(3)):
        row = field.zeros((1, 3))
        row[0, cols] = 1
        for degree in (2, 3):
            with pytest.raises(ArithmeticError):
                modules.TabloidModule(degree, field, shape, Matrix(field, row), cols)


def test_restriction_reuses_the_specht_modules_proof(monkeypatch):
    """Building S^lam restricted after S^lam runs no unipotent_inverse and
    asks for no table of every tabloid: the restriction shares the Specht
    module's minor inverse and proof, and the proof's matrices, and every
    table it asks for is read at the Specht module's minor tabloids."""
    lam, field = Partition((3, 2, 1)), GF(3)
    clear_module_cache()
    specht = build_specht(lam, field)
    preimages = modules.tabloid_preimages
    asked = []

    def refused(*args):
        raise AssertionError("rebuilt by the restriction")

    def minor_only(shape, perms, at=None):
        asked.append(at)
        if at is None:
            raise AssertionError("a table of every tabloid in the restriction")
        return preimages(shape, perms, at)

    monkeypatch.setattr(modules, "unipotent_inverse", refused)
    monkeypatch.setattr(modules, "tabloid_preimages", minor_only)
    down = build_restriction(lam, field)
    coxeter_matrices(down)
    down.element_matrix(murphy_element(lam.size))
    assert asked and all(at == specht.minor_cols for at in asked)
    assert down.degree == lam.size - 1
    assert down.basis is specht.basis and down._correction is specht._correction
    for pi in modules._generators(lam.size):
        assert down.perm_matrix(pi) is specht.perm_matrix(pi)
    clear_module_cache()


def test_a_restriction_is_a_view_that_shares_its_specht_modules_cache(monkeypatch):
    """Every restriction of S^lam is a view of the cached Specht module: it
    shares its element cache, so E_(n-1) computed through one view is
    returned by another without a new solve, and no restriction takes an
    entry of the module cache, in a sweep or after one."""
    lam, field = Partition((3, 1, 1)), GF(3)
    clear_module_cache()
    first = build_restriction(lam, field)
    assert first._elt_cache is build_specht(lam, field)._elt_cache
    e_down = first.element_matrix(transposition_sum(lam.size - 1))
    calls = []
    element_action = modules.TabloidModule._element_action

    def counted(self, elt):
        calls.append(elt)
        return element_action(self, elt)

    monkeypatch.setattr(modules.TabloidModule, "_element_action", counted)
    second = build_restriction(lam, field)
    assert second is not first and second.degree == first.degree
    assert second.element_matrix(transposition_sum(lam.size - 1)) is e_down
    assert calls == []
    monkeypatch.undo()
    keys = []
    build_module = modules._build_module

    def recorded(kind, lam, field):
        keys.append((kind, lam, field))
        return build_module(kind, lam, field)

    monkeypatch.setattr(modules, "_build_module", recorded)
    clear_module_cache()
    try:
        sweep(4, [3])
        assert keys and {key[0] for key in keys} == {"S", "I"}
        build_specht(lam, field)
        held = build_module.cache_info()
        build_restriction(lam, field)
        after = build_module.cache_info()
        assert (after.misses, after.currsize) == (held.misses, held.currsize)
    finally:
        clear_module_cache()
