"""Full-range acceptance sweeps for the headline guarantees.

Each test here runs one guarantee over its entire advertised range and
asserts a wall-clock budget, so kernel regressions surface in this file
rather than in long downstream runs.  The unit test files exercise the
same machinery on small hand-checked instances; this file is the gate.
"""

import random
import time

from fractions import Fraction

from oracles import column_signed_maps, coxeter_matrices, enumerate_tabloids, intersect
from spechtbranch import endo, verify
from spechtbranch.central import INDUCE, RESTRICT
from spechtbranch.exact import Matrix, RowBasis, fitting_split, kernel, rref
from spechtbranch.fields import GF, QQ
from spechtbranch.modules import AlgebraElement, build_specht, murphy_element
from spechtbranch.partitions import (Partition, partitions_of, removable_nodes,
                                     restrict_at, specht_dimension)
from spechtbranch.perms import compose
from spechtbranch.tabloids import canonical_tableau, polytabloid, standard_tableaux
from spechtbranch.verify import (run_char2_counterexamples, verify_branching,
                                 verify_coefficient_induction,
                                 verify_coefficient_restriction,
                                 verify_en_scalar, verify_min_poly)

FIELDS4 = (QQ, GF(2), GF(3), GF(5))


def _sweep_partitions(lo, hi):
    for n in range(lo, hi + 1):
        for lam in partitions_of(n):
            yield lam


def test_restriction_min_poly_all_shapes_through_n7():
    """Minimal polynomial of the transposition sum on every restriction.

    For each shape the computed minimal polynomial must equal the product
    of (x - E(factor)) over the removable nodes, with repeated roots kept,
    over Q and GF(2), GF(3), GF(5) alike.
    """
    t0 = time.perf_counter()
    cases = 0
    for lam in _sweep_partitions(2, 7):
        for field in FIELDS4:
            report = verify_min_poly(lam, field, RESTRICT)
            assert report.passed, report.summary()
            cases += 1
    elapsed = time.perf_counter() - t0
    assert cases == 4 * sum(len(partitions_of(n)) for n in range(2, 8))
    assert elapsed < 120.0, f"restriction sweep took {elapsed:.1f}s (budget 120s)"
    print(f"[PASS] restriction min-poly: {cases} cases in {elapsed:.1f}s")


def test_induction_min_poly_all_shapes_through_n6():
    """Same sweep one row up: the induced module, degree m + 1."""
    t0 = time.perf_counter()
    cases = 0
    for lam in _sweep_partitions(1, 6):
        for field in FIELDS4:
            report = verify_min_poly(lam, field, INDUCE)
            assert report.passed, report.summary()
            cases += 1
    elapsed = time.perf_counter() - t0
    assert cases == 4 * sum(len(partitions_of(n)) for n in range(1, 7))
    assert elapsed < 300.0, f"induction sweep took {elapsed:.1f}s (budget 300s)"
    print(f"[PASS] induction min-poly: {cases} cases in {elapsed:.1f}s")


def test_transposition_sum_scalar_all_shapes_through_n7():
    """E_n acts on S^lam as the content sum E(lam) times the identity."""
    t0 = time.perf_counter()
    cases = 0
    for lam in _sweep_partitions(1, 7):
        for field in FIELDS4:
            report = verify_en_scalar(lam, field)
            assert report.passed, report.summary()
            cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"scalar sweep took {elapsed:.1f}s (budget 60s)"
    print(f"[PASS] E_n scalar: {cases} cases in {elapsed:.1f}s")


def test_coefficient_lemmas_all_shapes_through_n6():
    """The (0, ..., 0, 1) coefficient pattern behind both degree bounds.

    Restriction side: the coefficient of a distinguished tabloid in
    e_t L_n^i vanishes for i < m - 1 and equals 1 at i = m - 1.
    Induction side: same with L_{n+1} on the extended tableau, one
    degree higher.
    """
    t0 = time.perf_counter()
    cases = 0
    for lam in _sweep_partitions(1, 6):
        for field in FIELDS4:
            for checker in (verify_coefficient_restriction,
                            verify_coefficient_induction):
                report = checker(lam, field)
                assert report.passed, report.summary()
                cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"coefficient sweep took {elapsed:.1f}s (budget 120s)"
    print(f"[PASS] coefficient lemmas: {cases} cases in {elapsed:.1f}s")


def test_block_components_indecomposable_odd_primes_through_n7(monkeypatch):
    """The structural claim at odd primes, both directions.

    Every nonzero block component of the restriction and of the induction
    must carry a deterministic indecomposability certificate, and the
    number of summands must equal the number of distinct p-cores among
    the branching factors.  Every certificate is End(M) = F[E|_M]: no
    component falls back to the locality certificate.
    """
    branches = []
    certify = verify.certify_indecomposable

    def recorded(module):
        cert = certify(module)
        branches.append(cert.branch)
        return cert

    monkeypatch.setattr(verify, "certify_indecomposable", recorded)
    t0 = time.perf_counter()
    cases = 0
    for p in (3, 5):
        for direction, lo in ((RESTRICT, 2), (INDUCE, 1)):
            for lam in _sweep_partitions(lo, 7):
                report = verify_branching(lam, p, direction)
                assert report.passed, report.summary()
                count = next(c for c in report.checks
                             if c.name == "component-count")
                verdicts = [c for c in report.checks
                            if c.name.startswith("verdict[")]
                # one certificate per nonzero component, every verdict firm
                assert len(verdicts) == int(count.computed), report.summary()
                for check in verdicts:
                    assert check.computed == "indecomposable", report.summary()
                cases += 1
    elapsed = time.perf_counter() - t0
    assert branches and set(branches) == {endo.CENTRAL}
    assert elapsed < 900.0, f"branching sweep took {elapsed:.1f}s (budget 900s)"
    print(f"[PASS] odd-prime block indecomposability: {cases} cases in {elapsed:.1f}s")


def test_classical_restriction_splitting_over_q_through_n7():
    """Characteristic-zero sanity: the restriction splits completely.

    Over Q the block splitter must produce exactly one summand per
    removable node, with the hook-length dimensions.
    """
    t0 = time.perf_counter()
    cases = 0
    for lam in _sweep_partitions(2, 7):
        report = verify_branching(lam, 0, RESTRICT)
        assert report.passed, report.summary()
        dims = sorted(int(c.computed) for c in report.checks
                      if c.name.startswith("dim["))
        expected = sorted(specht_dimension(restrict_at(lam, u + 1))
                          for u in range(len(removable_nodes(lam))))
        assert dims == expected, report.summary()
        cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"classical sweep took {elapsed:.1f}s (budget 120s)"
    print(f"[PASS] classical splitting: {cases} cases in {elapsed:.1f}s")


def test_characteristic_two_counterexamples(monkeypatch):
    """The three GF(2) failures of the odd-characteristic statement.

    S^(6,1,1,1) splits as 8 + 48 (copies of S^(8,1) and S^(6,3)); its
    restriction sits in the single empty-core block yet decomposes; the
    2-core-(2,1) component of the induced S^(6,1,1) has dimension 56,
    is a copy of S^(6,1,1,1), and decomposes as well.  Each of the three
    decomposable modules is split once, by its certificate; decompose
    reuses the split the certificate verified.
    """
    splits = []
    fitting_split = endo.fitting_split

    def counted(m):
        splits.append(m.nrows)
        return fitting_split(m)

    monkeypatch.setattr(endo, "fitting_split", counted)
    t0 = time.perf_counter()
    report = run_char2_counterexamples()
    elapsed = time.perf_counter() - t0
    assert report.passed, report.summary()
    assert len(splits) == 3
    assert elapsed < 1200.0, f"counterexamples took {elapsed:.1f}s (budget 1200s)"
    print(f"[PASS] char-2 counterexamples in {elapsed:.1f}s")


def test_property_suite_seeded_randomized():
    """Randomized structural identities with fixed seeds, zero failures."""
    failures = []

    # Involution, braid, and distant-commutation relations for every
    # generator matrix of a spread of modules and fields.
    for lam in (Partition((2, 1)), Partition((3, 2)), Partition((2, 2, 1))):
        for field in FIELDS4:
            module = build_specht(lam, field)
            gens = coxeter_matrices(module)
            ident = Matrix.identity(field, module.dim)
            for i, g in enumerate(gens):
                if g @ g != ident:
                    failures.append(f"involution s_{i + 1} on {lam}/{field}")
            for i in range(len(gens) - 1):
                if gens[i] @ gens[i + 1] @ gens[i] != gens[i + 1] @ gens[i] @ gens[i + 1]:
                    failures.append(f"braid s_{i + 1} on {lam}/{field}")
            for i in range(len(gens)):
                for j in range(i + 2, len(gens)):
                    if gens[i] @ gens[j] != gens[j] @ gens[i]:
                        failures.append(f"commute s_{i + 1} s_{j + 1} on {lam}/{field}")

    # Right-action law on module vectors: acting by p then q equals
    # acting by the composite pq.
    rng = random.Random(101)
    lam = Partition((3, 2))
    for field in (QQ, GF(3)):
        tabs = standard_tableaux(lam)
        for _ in range(8):
            v = polytabloid(tabs[rng.randrange(len(tabs))], field)
            p = tuple(rng.sample(range(1, 6), 5))
            q = tuple(rng.sample(range(1, 6), 5))
            act = [AlgebraElement.from_terms(5, [(pi, 1)]) for pi in (p, q, compose(p, q))]
            if act[1].apply(act[0].apply(v)) != act[2].apply(v):
                failures.append(f"right action {p} {q} over {field}")

    # Garnir sanity, part one: a column-stabilizer permutation rescales
    # the polytabloid by its sign.
    t = canonical_tableau(Partition((3, 2)))
    e = polytabloid(t, QQ)
    for mapping, sign in column_signed_maps(t):
        pi = tuple(mapping.get(x, x) for x in range(1, 6))
        if polytabloid(t.act(pi), QQ) != e.scale(sign):
            failures.append(f"column sign {pi}")

    # Garnir sanity, part two: every scrambled polytabloid straightens
    # into the span of the standard ones.
    rng = random.Random(103)
    for field in (GF(2), GF(5)):
        lam = Partition((3, 2))
        span = RowBasis(field, len(enumerate_tabloids(lam)))
        for s in standard_tableaux(lam):
            span.insert(polytabloid(s, field).row)
        for _ in range(8):
            pi = tuple(rng.sample(range(1, 6), 5))
            if not span.contains(polytabloid(canonical_tableau(lam).act(pi), field).row):
                failures.append(f"straightening {pi} over {field}")

    # Murphy elements commute pairwise in every representation built here.
    for field in (QQ, GF(2), GF(3)):
        module = build_specht(Partition((3, 2)), field)
        mats = [module.element_matrix(murphy_element(k)) for k in range(1, 6)]
        for i in range(5):
            for j in range(i + 1, 5):
                if mats[i] @ mats[j] != mats[j] @ mats[i]:
                    failures.append(f"murphy L_{i + 1} L_{j + 1} over {field}")

    # Fitting splits: kernel part nilpotent, image part invertible,
    # complementary dimensions, trivial intersection.
    rng = random.Random(107)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(5):
            size = rng.randint(2, 6)
            if field.characteristic:
                data = [[rng.randrange(field.characteristic) for _ in range(size)]
                        for _ in range(size)]
            else:
                data = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(size)] for _ in range(size)]
            a = Matrix.from_rows(field, data)
            ker, img = fitting_split(a)
            ok = ker.dim + img.dim == size and intersect(ker, img).dim == 0
            if ok and ker.dim:
                ok = ker.restrict(a).pow(ker.dim).is_zero()
            if ok and img.dim:
                ok = rref(img.restrict(a)).dim == img.dim
            if not ok:
                failures.append(f"fitting {size}x{size} over {field}")

    # Rank plus nullity exhausts the row count.
    rng = random.Random(109)
    for field in FIELDS4:
        for _ in range(6):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            if field.characteristic:
                data = [[rng.randrange(field.characteristic) for _ in range(ncols)]
                        for _ in range(nrows)]
            else:
                data = [[Fraction(rng.randint(-5, 5), rng.randint(1, 2))
                         for _ in range(ncols)] for _ in range(nrows)]
            a = Matrix.from_rows(field, data)
            r = rref(a).dim
            if kernel(a).dim + r != nrows:
                failures.append(f"rank-nullity {nrows}x{ncols} over {field}")

    assert not failures, failures
    print("[PASS] property suite: zero failures")
