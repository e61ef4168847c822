"""Hom spaces, commutants, indecomposability certificates, decompositions."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import Rebased, coxeter_matrices, rows_in, split_branching
from spechtbranch import cli, endo
from spechtbranch.central import (
    INDUCE,
    RESTRICT,
    block_split,
    branching_factors,
    central_symmetric_action,
)
from spechtbranch.endo import (
    CENTRAL,
    LOCAL,
    NOT_CLOSED,
    ROOTLESS,
    SPLIT,
    DecompositionCertificate,
    certify_indecomposable,
    decompose,
    hom_space,
    is_isomorphic,
    locality_certificate,
)
from spechtbranch.exact import (Matrix, Polynomial, RowBasis, Subspace, fitting_split,
                                kernel, rref)
from spechtbranch.fields import GF, QQ
from spechtbranch.modules import (
    GroupActionModule,
    build_induction,
    build_restriction,
    build_specht,
)
from spechtbranch.partitions import Partition, content_sum, partitions_of
from spechtbranch.verify import verify_branching


def test_schur_endomorphisms_of_specht():
    for lam in (Partition((2, 1)), Partition((3, 1)), Partition((2, 2))):
        module = build_specht(lam, QQ)
        homs = hom_space(module, module)
        assert len(homs) == 1
        assert homs[0] == Matrix.identity(QQ, module.dim)


def test_hom_between_different_simples_is_zero():
    triv = build_specht(Partition((3,)), QQ)
    sign = build_specht(Partition((1, 1, 1)), QQ)
    assert hom_space(triv, sign) == []
    a = build_specht(Partition((3, 1)), GF(5))
    b = build_specht(Partition((2, 1, 1)), GF(5))
    assert hom_space(a, b) == []


def _hom_by_kronecker(m1, m2) -> Matrix:
    """Reference: Hom(m1, m2) as the left kernel of the linear system
    x (kron(G1^T, I) - kron(I, G2)) = 0 over every generator pair, x the
    flattened d1 x d2 matrix, as a reduced echelon basis."""
    field = m1.field
    d1, d2 = m1.dim, m2.dim
    blocks = [field.zeros((d1 * d2, 0))]
    for g1, g2 in zip(coxeter_matrices(m1), coxeter_matrices(m2)):
        blocks.append(np.kron(g1.a.T, np.eye(d2, dtype=int))
                      - np.kron(np.eye(d1, dtype=int), g2.a))
    system = Matrix(field, field.reduce_array(np.concatenate(blocks, axis=1)))
    return kernel(system).basis


def _assert_hom_matches_kronecker(m1, m2):
    got = [x.a.reshape(-1) for x in hom_space(m1, m2)]
    expected = _hom_by_kronecker(m1, m2)
    where = (m1.label, m2.label, m1.field)
    assert len(got) == expected.nrows, where
    if got:
        assert Matrix(m1.field, np.stack(got)) == expected, where


def _modules_by_degree(field, n_max):
    """The Specht, restriction and induction modules built from every lam
    with |lam| <= n_max, grouped by degree."""
    by_degree = {}
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            built = [build_specht(lam, field), build_induction(lam, field)]
            if n >= 2:
                built.append(build_restriction(lam, field))
            for module in built:
                by_degree.setdefault(module.degree, []).append(module)
    return by_degree


def test_hom_space_matches_kronecker_oracle():
    """hom_space returns the echelon basis of the Kronecker system's left
    kernel on every ordered pair of one degree (d1 * d2 <= 144).  The pairs
    include R(2,1) in the basis (e2, e1 + e2): over GF(3) its first unit
    vector spans the sign submodule, so every candidate hom into S^(2) from
    the first seed dies before the second seed brings a live one."""
    for field, n_max in ((GF(2), 4), (GF(3), 4), (GF(5), 4), (QQ, 3)):
        by_degree = _modules_by_degree(field, n_max)
        restricted = build_restriction(Partition((2, 1)), field)
        by_degree[2].append(
            Rebased(restricted, Matrix.from_rows(field, [[0, 1], [1, 1]])))
        for modules in by_degree.values():
            for m1, m2 in itertools.product(modules, repeat=2):
                if m1.dim * m2.dim > 144:
                    continue
                _assert_hom_matches_kronecker(m1, m2)


def _record_perm_requests(monkeypatch) -> list:
    """Patch GroupActionModule.perm_matrix to log each permutation asked for."""
    asked = []
    perm_matrix = GroupActionModule.perm_matrix

    def recorded(self, pi):
        asked.append(pi)
        return perm_matrix(self, pi)

    monkeypatch.setattr(GroupActionModule, "perm_matrix", recorded)
    return asked


def test_hom_space_spins_on_two_generators(monkeypatch):
    """In degree 5, hom_space asks its modules for the matrices of (1 2) and
    (1 2 3 4 5) only, not for the Coxeter generators s_2, s_3, s_4."""
    module = build_induction(Partition((2, 2)), GF(3))
    asked = _record_perm_requests(monkeypatch)
    homs = hom_space(module, module)
    assert module.degree == 5 and homs
    assert set(asked) == {(2, 1, 3, 4, 5), (2, 3, 4, 5, 1)}


class _Huge(GroupActionModule):
    """A module that only has a dimension: every element acts as the
    identity, and each element asked for is logged."""

    dim = 700

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def _element_action(self, elt):
        self.asked.append(elt)
        return Matrix.identity(self.field, self.dim)


def test_hom_space_refuses_a_spin_past_its_memory_bound(monkeypatch):
    """700 * 700^2 image entries pass HOM_GUARDRAIL (2^28, 2 GiB of int64),
    so hom_space raises ValueError naming both dimensions before any matrix
    is asked for or any array is made; the 576-dim block of
    S^(3,2,1,1,1) induced at p = 2 passes the bound.  The CLI's decompose
    gets E = 1 from the stub, which leaves k = 1 < 700 and needs the spin,
    so it exits 2 on the same ValueError."""
    huge = _Huge(3, GF(3), Partition((2, 1)), "stub")
    with pytest.raises(ValueError, match="hom guardrail.* 700 to 700"):
        hom_space(huge, huge)
    assert huge.asked == []
    assert 576 ** 3 <= endo.HOM_GUARDRAIL < 700 ** 3
    monkeypatch.setattr(cli, "build_specht", lambda lam, field: huge)
    assert cli.main(["decompose", "--lambda", "2,1", "--field", "3"]) == 2


@pytest.mark.parametrize("degree,generators", [
    (1, set()),
    (2, {(2, 1)}),
    (3, {(2, 1, 3), (2, 3, 1)}),
])
def test_hom_space_in_low_degrees(degree, generators, monkeypatch):
    """Degree 1 spins on no generator, degree 2 on (1 2) alone and degree 3
    on (1 2) and (1 2 3); every pair of modules of the degree gets the
    Kronecker oracle's basis, which is computed from the Coxeter
    generators, an independent generating set."""
    asked = _record_perm_requests(monkeypatch)
    for field in (GF(2), GF(3), QQ):
        modules = _modules_by_degree(field, 3)[degree]
        for m1, m2 in itertools.product(modules, repeat=2):
            asked.clear()
            hom_space(m1, m2)
            assert set(asked) == generators
            _assert_hom_matches_kronecker(m1, m2)


_BUILDERS = {"specht": (build_specht, 1, 5), "restriction": (build_restriction, 2, 5),
             "induction": (build_induction, 1, 3)}


@st.composite
def _small_modules(draw):
    """A field, a module built from a small partition, and a Specht module
    of the module's degree."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    build, low, high = _BUILDERS[draw(st.sampled_from(sorted(_BUILDERS)))]
    lam = draw(st.sampled_from(partitions_of(draw(st.integers(low, high)))))
    module = build(lam, field)
    mu = draw(st.sampled_from(partitions_of(module.degree)))
    return module, build_specht(mu, field)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@seed(0)
@given(_small_modules())
def test_hom_space_property_against_kronecker_oracle(modules):
    """On drawn small modules over Q, GF(2), GF(3) and GF(5), Hom(M, M) and
    Hom(M, S^mu) are the Kronecker oracle's echelon bases."""
    module, specht = modules
    _assert_hom_matches_kronecker(module, module)
    _assert_hom_matches_kronecker(module, specht)


def test_hom_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        hom_space(build_specht(Partition((2, 1)), QQ),
                  build_specht(Partition((2, 2)), QQ))
    with pytest.raises(ValueError):
        hom_space(build_specht(Partition((2, 1)), QQ),
                  build_specht(Partition((2, 1)), GF(3)))


def test_hom_restriction_to_factor():
    """Over the rationals R((2,1)) = S^(2) + S^(1,1) as a module one level
    down, so Hom(R, S^(2)) is one dimensional."""
    big = build_restriction(Partition((2, 1)), QQ)
    triv = build_specht(Partition((2,)), QQ)
    homs = hom_space(big, triv)
    assert len(homs) == 1
    g1 = coxeter_matrices(big)
    g2 = coxeter_matrices(triv)
    for a, b in zip(g1, g2):
        assert a @ homs[0] == homs[0] @ b


def test_commutant_structure():
    """hom_space(M, M) spans an algebra: it holds the identity and is closed
    under products."""
    big = build_restriction(Partition((2, 1)), QQ)
    basis = hom_space(big, big)
    assert len(basis) == 2
    span = RowBasis(QQ, 4)
    for b in basis:
        assert span.insert(b.a.reshape(-1))[0] is not None
    coords, inside = span.coords_many(Matrix.identity(QQ, 2).a.reshape(1, -1))
    assert inside[0]
    recon = Matrix.zeros(QQ, 2, 2)
    for c, b in zip(coords[0], basis):
        recon = recon + b.scale(c)
    assert recon == Matrix.identity(QQ, 2)
    for x, y in itertools.product(basis, repeat=2):
        prod = x @ y
        assert span.contains(prod.a.reshape(-1))
        for g in coxeter_matrices(big):
            assert prod @ g == g @ prod


def test_certify_simple_specht_is_indecomposable():
    for lam, field in ((Partition((2, 1)), QQ), (Partition((3, 1)), GF(5)),
                       (Partition((2, 2)), GF(3))):
        cert = certify_indecomposable(build_specht(lam, field))
        assert cert.verdict == "indecomposable"
        assert cert.deterministic
        assert cert.branch == CENTRAL


def test_certify_decomposable_restriction():
    over_q = certify_indecomposable(build_restriction(Partition((2, 1)), QQ))
    assert over_q.verdict == "decomposable"
    assert over_q.deterministic
    assert sorted(part.dim for part in over_q.split) == [1, 1]

    over_3 = certify_indecomposable(build_restriction(Partition((2, 1)), GF(3)))
    assert over_3.verdict == "decomposable"
    assert over_3.deterministic
    assert over_3.branch == "fitting-witness"


def test_certify_zero_module():
    module = build_specht(Partition((2, 1)), GF(3))
    zero = module.submodule(Subspace(Matrix.zeros(GF(3), 0, 2)), label="zero")
    cert = certify_indecomposable(zero)
    assert cert.verdict == "zero"


@pytest.mark.parametrize("p", [3, 2])
def test_a_cyclic_block_component_is_certified_without_a_spin(p, monkeypatch):
    """Where E|_M - c is nilpotent of index k = dim M, End(M) = F[E|_M] with
    no call to hom_space: each line of R(2,1) at GF(3), and R(2,1) at GF(2),
    one block of dimension 2 on which E - c = (1 2) - 1 is not zero."""
    lam, field = Partition((2, 1)), GF(p)
    comps = block_split(build_restriction(lam, field),
                        branching_factors(lam, RESTRICT))

    def no_spin(m1, m2):
        raise AssertionError("hom_space called on a cyclic component")

    monkeypatch.setattr(endo, "hom_space", no_spin)
    for comp in comps:
        cert = certify_indecomposable(comp.module)
        assert (cert.verdict, cert.branch, cert.trials) == (
            "indecomposable", CENTRAL, 0)
    assert sorted(comp.dim for comp in comps) == ([1, 1] if p == 3 else [2])


def _nilpotency_index(comp) -> int:
    """The least k with (E|_M - c)^k = 0, c the block's E value."""
    c = comp.module.field.scalar(content_sum(comp.factors[0]))
    nil = central_symmetric_action(comp.module).shift(comp.module.field.neg(c))
    k, power = 1, nil
    while not power.is_zero():
        k, power = k + 1, power @ nil
    return k


@pytest.mark.parametrize("lam,dim,verdict,branch", [
    ((3, 1, 1), 6, "indecomposable", LOCAL),
    ((5, 1, 1), 15, "decomposable", SPLIT),
], ids=["3,1,1", "5,1,1"])
def test_block_certificate_falls_back_where_the_commutant_is_larger(
        lam, dim, verdict, branch):
    """At GF(2) the restrictions of S^(3,1,1) and S^(5,1,1) are one block
    each, on which E - c has nilpotency index 2 while End(M) has dimension
    3, so End(M) is not F[E|_M] and the verdict is the locality
    certificate's: local by Wedderburn, and split by a Fitting witness."""
    lam, field = Partition(lam), GF(2)
    (comp,) = block_split(build_restriction(lam, field),
                          branching_factors(lam, RESTRICT))
    assert comp.dim == dim
    assert _nilpotency_index(comp) == 2
    assert len(hom_space(comp.module, comp.module)) == 3
    cert = certify_indecomposable(comp.module)
    assert (cert.verdict, cert.branch) == (verdict, branch)
    assert cert.deterministic


@pytest.mark.parametrize("lam", [(3, 1, 1), (5, 1, 1)], ids=["3,1,1", "5,1,1"])
def test_a_block_verdict_spins_once(lam, monkeypatch):
    """The GF(2) verdict on the one block of R(3,1,1), and of R(5,1,1),
    makes one hom_space call: the spin that finds End(M) larger than
    F[E|_M] is the basis the locality certificate reads."""
    spins = []

    def counted(m1, m2):
        spins.append(m1.label)
        return hom_space(m1, m2)

    monkeypatch.setattr(endo, "hom_space", counted)
    report = verify_branching(lam, 2, RESTRICT)
    assert report.passed and len(spins) == 1


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_decompose_splits_by_blocks_before_any_spin(field, monkeypatch):
    """R(2,1) = S^(2) + S^(1,1) has E = (1 2) with minimal polynomial
    (x - 1)(x + 1) at GF(3) and over Q, so E - 1 is a central Fitting
    witness, and each 1-dim summand is F[E|_M]: no hom_space call."""
    def no_spin(m1, m2):
        raise AssertionError("hom_space called")

    monkeypatch.setattr(endo, "hom_space", no_spin)
    parts = decompose(build_restriction(Partition((2, 1)), field))
    assert [summand.dim for summand, _ in parts] == [1, 1]
    assert [(cert.verdict, cert.branch) for _, cert in parts] == [
        ("indecomposable", CENTRAL)] * 2


def test_decompose_restriction_char_zero():
    module = build_restriction(Partition((2, 1)), QQ)
    parts = decompose(module)
    assert len(parts) == 2
    assert sorted(summand.dim for summand, _ in parts) == [1, 1]
    for summand, cert in parts:
        assert cert.verdict == "indecomposable"
        assert cert.deterministic
        # summand rows live in the ambient
        total = rows_in(module, summand) @ module.basis
        assert total.nrows == summand.dim


def test_decompose_indecomposable_is_identity():
    module = build_specht(Partition((3, 1)), GF(3))
    parts = decompose(module)
    assert len(parts) == 1
    assert parts[0][0].dim == module.dim


def test_small_specht_char_two_still_indecomposable():
    """S^(2,2) over GF(2) is indecomposable: its commutant is the scalars."""
    cert = certify_indecomposable(build_specht(Partition((2, 2)), GF(2)))
    assert cert.verdict == "indecomposable"
    assert cert.deterministic
    assert cert.branch == CENTRAL


def test_is_isomorphic_basic():
    a = build_specht(Partition((3, 1)), GF(5))
    b = build_specht(Partition((3, 1)), GF(5))
    assert is_isomorphic(a, b)
    c = build_specht(Partition((2, 1, 1)), GF(5))
    assert not is_isomorphic(a, c)
    triv = build_specht(Partition((4,)), GF(5))
    sign = build_specht(Partition((1, 1, 1, 1)), GF(5))
    assert not is_isomorphic(triv, sign)


def test_is_isomorphic_detects_shifted_copy():
    """Two block components of the same label inside R and inside a direct
    construction agree."""
    lam = Partition((3, 2))
    comps = split_branching(build_restriction(lam, GF(5)), lam, RESTRICT)
    for comp in comps:
        direct = build_specht(comp.factors[0], GF(5))
        assert is_isomorphic(comp.module, direct)


def test_is_isomorphic_matches_summands_of_decomposable_modules():
    """Decomposable modules are compared summand by summand when no basis
    element of the hom space is invertible."""
    # R(2,1) = S^(2) + S^(1,1) over GF(3), and the same module in a basis
    # where the echelon hom basis holds only the two projections
    module = build_restriction(Partition((2, 1)), GF(3))
    rebased = Rebased(module, Matrix.from_rows(GF(3), [[1, 1], [0, 2]]))
    assert not any(rref(x).dim == 2 for x in hom_space(module, rebased))
    assert is_isomorphic(module, rebased)
    # over Q, R(3,1) = S^(3) + S^(2,1) and Ind S^(1,1) = S^(1,1,1) + S^(2,1)
    restricted = build_restriction(Partition((3, 1)), QQ)
    assert is_isomorphic(restricted, build_induction(Partition((2,)), QQ))
    assert not is_isomorphic(restricted, build_induction(Partition((1, 1)), QQ))


def test_is_isomorphic_raises_on_undecided_certificate(monkeypatch):
    undecided = DecompositionCertificate("undecided", ROOTLESS, trials=2)
    monkeypatch.setattr(endo, "certify_indecomposable", lambda module: undecided)
    a = build_restriction(Partition((3, 1)), QQ)
    b = build_induction(Partition((1, 1)), QQ)
    with pytest.raises(ArithmeticError):
        is_isomorphic(a, b)


# -- the locality certificate against exhaustive enumeration --------------

def _projective_coeff_vectors(q: int, d: int):
    """One representative per scalar line of GF(q)^d."""
    for lead in range(d):
        for tail in itertools.product(range(q), repeat=d - lead - 1):
            yield (0,) * lead + (1,) + tail


def _local_by_enumeration(field, structure, identity) -> bool:
    """Reference: an algebra over GF(q) is local exactly when every element
    is nilpotent or invertible, checked on every element up to scalars."""
    d = structure.shape[0]
    for coeffs in _projective_coeff_vectors(field.characteristic, d):
        c = np.asarray(coeffs, dtype=field.dtype)
        left = Matrix(field, field.reduce_array(np.tensordot(c, structure, axes=(0, 0))))
        if rref(left).dim != d and not left.pow(d).is_zero():
            return False
    return True


def _matrix_algebra(field, basis):
    """Structure tensor and identity coordinates of the algebra with the
    given basis matrices (which must be closed under products)."""
    flat = RowBasis(field, basis[0].nrows * basis[0].ncols)
    for b in basis:
        assert flat.insert(b.a.reshape(-1))[0] is not None, "dependent basis"

    def coords(m):
        c, inside = flat.coords_many(m.a.reshape(1, -1))
        assert inside[0], "basis does not span an algebra"
        return c[0]

    structure = np.stack([np.stack([coords(x @ y) for y in basis])
                          for x in basis])
    return structure, coords(Matrix.identity(field, basis[0].nrows))


def _is_fitting_witness(witness) -> bool:
    ker, image = fitting_split(witness)
    return ker.dim > 0 and image.dim > 0


I2 = [[1, 0], [0, 1]]
E11, E12, E21 = [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]
ROT = [[0, -1], [1, 0]]  # a square root of -1
NIL = [[1, 1], [-1, -1]]  # nilpotent, with a non-scalar diagonal

HAND_BUILT = [
    # F[x]/(x^2), once with a basis element that is not nilpotent
    ("dual numbers", [I2, E12], LOCAL, (GF(2), GF(3), GF(5), QQ)),
    ("dual numbers, shifted", [[[1, 1], [0, 1]], [[2, 1], [0, 2]]], LOCAL,
     (GF(3), GF(5), QQ)),
    # F x F: a diagonal basis element has two eigenvalues
    ("F x F", [I2, E11], SPLIT, (GF(2), GF(3), GF(5), QQ)),
    ("F x F, diag(1, 2)", [I2, [[1, 0], [0, 2]]], SPLIT, (GF(3), GF(5), QQ)),
    # GF(3)[i] is the field GF(9), local with a residue field larger than
    # GF(3); over GF(5), -1 is a square and the same algebra is F x F
    ("F[i]", [I2, ROT], ROOTLESS, (GF(3), QQ)),
    ("F[i], -1 a square", [I2, ROT], SPLIT, (GF(5),)),
    # M_2(F), in bases whose elements have a single eigenvalue or none
    ("M_2, nilpotent basis", [I2, E12, E21, NIL], NOT_CLOSED,
     (GF(3), GF(5), QQ)),
    ("M_2, with a rotation", [I2, E12, ROT, NIL], ROOTLESS, (GF(3),)),
    # over GF(2) every scalar plus nilpotent has equal diagonal entries, so
    # a fourth basis element needs a minimal polynomial without roots
    ("M_2, with x^2 + x + 1", [I2, E12, E21, [[0, 1], [1, 1]]], ROOTLESS,
     (GF(2),)),
    ("M_2, with an idempotent", [I2, E11, E12, E21], SPLIT, (GF(3), QQ)),
]


@pytest.mark.parametrize("name,mats,branch,fields", HAND_BUILT,
                         ids=[case[0] for case in HAND_BUILT])
def test_locality_certificate_on_hand_built_algebras(name, mats, branch, fields):
    for field in fields:
        basis = [Matrix.from_rows(field, m) for m in mats]
        got, witness, examined = locality_certificate(field, basis)
        assert got == branch, (name, field)
        assert 1 <= examined <= len(mats)
        if got == SPLIT:
            assert _is_fitting_witness(witness), (name, field)
        else:
            assert witness is None
        if field.characteristic:
            # never call a non-local algebra local
            local = _local_by_enumeration(field, *_matrix_algebra(field, basis))
            assert local or got != LOCAL, (name, field)


def test_fitting_witness_uses_the_smallest_root():
    field = GF(5)
    basis = [Matrix.from_rows(field, m) for m in ([[3, 0], [0, 1]], I2)]
    branch, witness, examined = locality_certificate(field, basis)
    # the first basis element has roots 1 and 3; its witness is b - 1
    assert (branch, examined) == (SPLIT, 1)
    assert witness == Matrix.from_rows(field, [[2, 0], [0, 0]])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_roots_match_the_residue_scan(p):
    """The roots found through gcd(f, x^p - x) and equal-degree splitting
    are, for every monic f of degree at most 3 over GF(p), the residues
    where f vanishes, ascending and each once."""
    field = GF(p)
    for degree in range(4):
        for low in itertools.product(range(p), repeat=degree):
            f = Polynomial(field, list(low) + [1])
            assert endo._roots(f) == [c for c in range(p) if f.eval_scalar(c) == 0]


def test_roots_at_a_large_prime():
    """Over GF(2^31 - 1) the roots of (x - 5)(x - 7)^2 (x + 1) (x^2 - 3),
    3 being a non-residue, come back without a scan of the field."""
    field = GF(2147483647)
    f = Polynomial.from_roots(field, [5, 7, 7, -1]) * Polynomial(field, [-3, 0, 1])
    assert endo._roots(f) == [5, 7, 2147483646]
    assert endo._roots(Polynomial(field, [-3, 0, 1])) == []


def test_the_root_of_a_linear_polynomial_is_read_off():
    """a1 x + a0 has the one root -a0 / a1, monic or not, over Q and GF(p)."""
    assert endo._roots(Polynomial(QQ, [-2, 3])) == [QQ.scalar(Fraction(2, 3))]
    assert endo._roots(Polynomial(GF(7), [1, 3])) == [2]


def test_branching_at_a_large_prime_finishes():
    """Restriction of S^(3,2) over GF(2^31 - 1): block labels (p-cores) and
    certificates take time that grows with log p at most, not with p."""
    report = verify_branching((3, 2), 2147483647, RESTRICT)
    assert report.passed and len(report.checks) == 8


def test_locality_certificate_needs_the_identity():
    # E12 spans a closed algebra, (E12)^2 = 0, without the identity
    with pytest.raises(ArithmeticError):
        locality_certificate(GF(3), [Matrix.from_rows(GF(3), E12)])


def test_certificate_matches_exhaustive_enumeration_through_n5():
    """On the restriction and the induction of S^lam, |lam| <= 5, over GF(2),
    GF(3) and GF(5), and on each of their block components, the
    certificate's verdict is the verdict of exhaustive enumeration of the
    commutant.  The whole modules supply the decomposable cases: every
    block component in this range is indecomposable, and at p = 3 and
    p = 5 each is decided by End(M) = F[E|_M]."""
    for p in (2, 3, 5):
        field = GF(p)
        for n in range(1, 6):
            for lam in partitions_of(n):
                for direction, build in ((RESTRICT, build_restriction),
                                         (INDUCE, build_induction)):
                    if direction == RESTRICT and n < 2:
                        continue
                    module = build(lam, field)
                    factors = branching_factors(lam, direction)
                    comps = block_split(module, factors)
                    for sub in [module] + [comp.module for comp in comps]:
                        cert = certify_indecomposable(sub)
                        local = _local_by_enumeration(
                            field, *_matrix_algebra(field, hom_space(sub, sub)))
                        expected = "indecomposable" if local else "decomposable"
                        assert cert.verdict == expected, (lam, p, direction)
                        assert cert.deterministic
                        assert cert.branch == CENTRAL or p == 2 or sub is module, (
                            lam, p, direction)
