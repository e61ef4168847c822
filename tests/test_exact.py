"""Exact linear algebra: seeded randomized identities plus hand oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import (
    conjugate_restriction,
    contains,
    coords,
    eval_matrix,
    integral_by_entries,
    monic,
    poly_lcm,
    poly_mod,
    intersect,
    is_invariant,
    poly_x,
)
from spechtbranch import exact, fields
from spechtbranch.exact import (
    Matrix,
    Polynomial,
    RowBasis,
    Subspace,
    fitting_split,
    kernel,
    minimal_polynomial,
    poly_divmod,
    poly_gcd,
    rref,
    unipotent_inverse,
)
from spechtbranch.fields import GF, QQ, FieldSpec
from spechtbranch.modules import build_induction, transposition_sum
from spechtbranch.partitions import Partition


def _random_matrix(rng, field, nrows, ncols):
    if field.characteristic:
        data = [[rng.randrange(field.characteristic) for _ in range(ncols)]
                for _ in range(nrows)]
    else:
        data = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for _ in range(ncols)] for _ in range(nrows)]
    return Matrix.from_rows(field, data)


FIELDS = [QQ, GF(2), GF(5)]


def test_matrix_arithmetic_identities():
    rng = random.Random(11)
    for field in FIELDS:
        a = _random_matrix(rng, field, 5, 5)
        b = _random_matrix(rng, field, 5, 5)
        c = _random_matrix(rng, field, 5, 5)
        i = Matrix.identity(field, 5)
        assert a @ i == a and i @ a == a
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c
        assert a.pow(3) == a @ a @ a
        assert a.pow(0) == i
        assert (a - a).is_zero()
        assert a.shift(field.scalar(2)) == a + i.scale(field.scalar(2))


def test_a_product_is_reduced_once(monkeypatch):
    """A product comes back reduced from _mul, and Matrix wraps it without
    a second reduction."""
    field = GF(5)
    a = Matrix.from_rows(field, [[1, 4], [3, 2]]).a
    calls = []
    reduce_array = FieldSpec.reduce_array

    def counted(self, x):
        calls.append(x.shape)
        return reduce_array(self, x)

    monkeypatch.setattr(FieldSpec, "reduce_array", counted)
    m = Matrix(field, exact._mul(field, a, a))
    assert len(calls) == 1
    assert m.a.tolist() == [[3, 2], [4, 1]]


def test_matrix_is_unhashable():
    """Equal matrices must not hash differently, so a Matrix, which compares
    by value and holds mutable data, has no hash at all."""
    with pytest.raises(TypeError):
        hash(Matrix.identity(QQ, 2))


def test_rank_nullity():
    rng = random.Random(23)
    for field in FIELDS:
        for _ in range(8):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            a = _random_matrix(rng, field, nrows, ncols)
            assert kernel(a).dim + rref(a).dim == nrows
            k = kernel(a)
            if k.dim:
                assert (k.basis @ a).is_zero()


def test_rref_is_canonical_under_row_operations():
    rng = random.Random(5)
    for field in FIELDS:
        a = _random_matrix(rng, field, 4, 6)
        space = rref(a)
        again = rref(space.basis)
        assert again == space and again.pivots.tolist() == space.pivots.tolist()
        shuffled = Matrix(field, a.a[::-1].copy())
        scaled = shuffled.scale(field.scalar(3)) if field.characteristic != 3 \
            else shuffled
        assert rref(scaled) == space


def test_row_basis_coordinates_round_trip():
    rng = random.Random(31)
    for field in FIELDS:
        basis = RowBasis(field, 6)
        kept = []
        inserted = []
        for _ in range(10):
            v = _random_matrix(rng, field, 1, 6).a[0]
            idx, dep = basis.insert(v)
            if idx is not None:
                kept.append(field.reduce_array(v))
            inserted.append(v)
        kept_mat = Matrix(field, np.stack(kept))
        assert basis.size == len(kept)
        for v in inserted:
            coeffs = coords(basis, v)
            assert coeffs is not None
            recon = (Matrix(field, coeffs.reshape(1, -1)) @ kept_mat).a[0]
            assert np.array_equal(recon, field.reduce_array(np.asarray(v)))
        outside = field.zeros(6)
        outside[0] = 1
        probe = RowBasis(field, 6)
        probe.insert(field.reduce_array(np.roll(outside, 1)))
        assert coords(probe, outside) is None


def test_subspace_membership_and_intersection():
    field = GF(7)
    a = rref(Matrix.from_rows(field, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    b = rref(Matrix.from_rows(field, [[0, 1, 0, 0], [0, 0, 1, 0]]))
    meet = intersect(a, b)
    assert meet.dim == 1
    assert contains(meet, np.array([0, 3, 0, 0], dtype=np.int64))
    assert not contains(meet, np.array([1, 0, 0, 0], dtype=np.int64))


def test_subspace_invariance_and_restriction():
    field = GF(5)
    m = Matrix.from_rows(field, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    inv = rref(Matrix.from_rows(field, [[1, 0, 0], [0, 1, 0]]))
    assert is_invariant(inv, m)
    local = inv.restrict(m)
    assert local == Matrix.from_rows(field, [[1, 1], [0, 1]])
    tilted = rref(Matrix.from_rows(field, [[1, 0, 1]]))
    assert not is_invariant(tilted, m)
    with pytest.raises(ValueError):
        tilted.restrict(m)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_restrict_in_echelon_and_in_other_bases(field, monkeypatch):
    """An invariant subspace in its reduced echelon basis is restricted by
    reading the pivot columns, with no RowBasis.  Another basis T R of the
    same space is no Subspace; rref takes it back to R, with the same
    restriction.  A row that leaves the subspace raises."""
    rng = random.Random(17)
    inserts = _count_calls(monkeypatch, RowBasis, "_insert")
    checked = 0
    while checked < 4:
        m = _random_matrix(rng, field, 6, 6)
        ker, img = fitting_split(m)
        for space in (ker, img):
            if space.dim < 2:
                continue
            inserts.clear()
            local = space.restrict(m)
            assert inserts == []
            change = Matrix(field, np.triu(np.ones((space.dim, space.dim), dtype=np.int64)))
            with pytest.raises(ValueError):
                Subspace(change @ space.basis)
            other = rref(change @ space.basis)
            assert other == space and other.restrict(m) == local
            checked += 1
    line = rref(Matrix.from_rows(field, [[1, 0, 1]]))
    shear = Matrix.from_rows(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    for call in (lambda: line.restrict(shear),
                 lambda: Subspace(Matrix.from_rows(field, [[2, 0, 2]]))):
        with pytest.raises(ValueError):
            call()


def test_subspace_refuses_other_bases():
    """A Subspace holds only a reduced echelon basis with unit pivots:
    rows out of pivot order, a pivot that is not 1, a pivot column that is
    not zero in the other rows, a zero row and dependent rows all raise
    ValueError.  The empty basis and an echelon basis pass."""
    for field in FIELDS:
        bad = [[[0, 1, 0], [1, 0, 0]], [[1, 1, 0], [0, 1, 0]],
               [[1, 0, 0], [0, 0, 0]], [[1, 2, 0], [2, 4, 0]], [[0, 0, 0]]]
        if field.characteristic != 2:
            bad.append([[2, 0, 1]])
        for rows in bad:
            with pytest.raises(ValueError):
                Subspace(Matrix.from_rows(field, rows))
        assert Subspace(Matrix.zeros(field, 0, 3)).dim == 0
        assert Subspace(Matrix.zeros(field, 0, 0)).dim == 0
        echelon = Subspace(Matrix.from_rows(field, [[0, 1, 0, 2], [0, 0, 1, 1]]))
        assert echelon.pivots.tolist() == [1, 2] and echelon.ambient == 4


def test_scalar_rejects_floats():
    for field in FIELDS:
        for bad in (1.0, 2.5, np.float64(3.0), np.float32(1.0)):
            with pytest.raises(TypeError):
                field.scalar(bad)
    assert GF(5).scalar(7) == 2 and GF(5).scalar(np.int64(-1)) == 4
    assert GF(5).scalar(Fraction(1, 2)) == 3
    assert QQ.scalar(Fraction(4, 2)) == 2 and QQ.scalar(-3) == -3


def test_field_needs_residue_products_inside_int64(monkeypatch):
    """A prime is accepted when (p - 1)^2 < 2^63, a bound of input
    validation that keeps trial division short (every prime above 2^16 is
    held as Python ints): 3,037,000,493, the largest such prime, is
    accepted; 3,037,000,507 (the next prime) and 4294967291 are refused, and
    a prime near 2^64 is refused before any trial division."""
    assert GF(3037000493).characteristic == 3037000493
    for p in (3037000507, 4294967291):
        with pytest.raises(ValueError, match="too large"):
            FieldSpec(p)

    def no_primality_test(p):
        raise AssertionError(f"primality test ran on {p}")

    monkeypatch.setattr(fields, "_is_prime", no_primality_test)
    with pytest.raises(ValueError, match="too large"):
        FieldSpec(18446744073709551557)


def test_field_dtype_is_int64_exactly_below_2_16():
    """FieldSpec.dtype is int64 for every prime below 2^16, where a residue
    product is under 2^32, and object (Python ints) for every larger prime
    and for Q; zeros, array and reduce_array follow it."""
    for p in range(2, 2**16 + 200):
        if fields._is_prime(p):
            assert (FieldSpec(p).dtype is np.int64) == (p < 2**16)
    for p in (0, 2147483647, 3037000493):
        assert FieldSpec(p).dtype is object
    for field in (GF(65521), GF(65537)):
        p = field.characteristic
        made = [field.zeros((2, 2)), field.array([[p - 1, -1]]),
                field.reduce_array(np.array([[p, 2 * p - 1]], dtype=np.int64))]
        assert all(a.dtype == field.dtype for a in made)
        if field.dtype is object:
            assert all(type(x) is int for a in made for x in a.flat)


def test_product_refuses_an_int64_sum_that_may_leave_int64(monkeypatch):
    """Over an int64 field a product whose inner dimension k has
    k (p - 1)^2 >= 2^63 raises ValueError; with the limit patched low, a
    k that reaches it is refused and the one below it is not.  An object
    field is never refused."""
    monkeypatch.setattr(exact, "INT64_LIMIT", 5 * 2 ** 2)  # k = 5 at GF(3)
    field = GF(3)
    ones = [field.array([[2] * k]) for k in (4, 5)]
    assert exact._mul(field, ones[0], ones[0].T).tolist() == [[1]]
    with pytest.raises(ValueError, match="may leave int64"):
        exact._mul(field, ones[1], ones[1].T)
    with pytest.raises(ValueError, match="may leave int64"):
        Matrix(field, ones[1]) @ Matrix(field, ones[1].T)
    big = GF(65537)
    row = big.array([[65536] * 9])
    assert exact._mul(big, row, row.T).tolist() == [[9]]


# the largest int64 field, the smallest object field, and two primes near
# the largest FieldSpec admits
LARGE_PRIMES = [GF(65521), GF(65537), GF(2147483647), GF(3037000493)]


def _entry(rng, field):
    """A residue, often one of the largest; over Q a big int or a Fraction."""
    p = field.characteristic
    if p:
        return rng.choice([rng.randrange(p), p - 1 - rng.randrange(3)])
    return rng.choice([rng.randint(-2**70, 2**70),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 9))])


def _assert_field_array(field, a):
    """a has the field's dtype; over GF(p) it holds residues, and an object
    array Python ints only (a numpy int64 inside it would wrap in later
    products)."""
    assert a.dtype == field.dtype
    p = field.characteristic
    if p:
        assert all(0 <= x < p for x in a.flat)
        if a.dtype == object:
            assert all(type(x) is int for x in a.flat)


@pytest.mark.parametrize("field", [GF(3), *LARGE_PRIMES, QQ], ids=str)
def test_products_match_the_object_product(field):
    """The dense and the sparse product against products of Python objects,
    on seeded matrices whose columns hold several nonzeros, one, or none,
    with entries at p - 1 and just below: over GF(65521) the sums stay in
    int64, and above 2^16 they are Python ints.  Over GF(p) both come back
    reduced, in the field's dtype."""
    rng = random.Random(field.characteristic + 17)
    for trial in range(30):
        rows, cols = rng.randint(1, 6), 6
        inner = 1 if trial < 3 else rng.randint(2, 9)
        c = field.array([[_entry(rng, field) for _ in range(inner)]
                         for _ in range(rows)])
        b = field.array([[_entry(rng, field) if j > 1 and rng.random() < 0.6 else 0
                          for j in range(cols)] for _ in range(inner)])
        b[rng.randrange(inner), 1] = 1 + rng.randrange(max(field.characteristic - 1, 9))
        expected = c.astype(object) @ b.astype(object)
        if field.characteristic:
            expected %= field.characteristic
        for got in (exact._mul(field, c, b), exact._SparseRows(field, b).left_mul(c)):
            assert np.array_equal(got, expected)
            _assert_field_array(field, got)


@pytest.mark.parametrize("field", [GF(3), *LARGE_PRIMES, QQ], ids=str)
def test_exact_results_are_int64_at_large_primes(field):
    """Products, sums, differences, scalings, shifts, powers, elimination,
    kernels, restriction and the unipotent inverse at GF(3), at the largest
    int64 prime and above give reduced matrices in the field's dtype, int64
    below 2^16 and Python ints above, and exact ones, on entries at p - 1
    and just below as often as not.  Over Q, on integer entries, every
    result holds Python ints, and a Fraction only where an entry is not an
    integer."""
    rng = random.Random(field.characteristic)
    a = Matrix(field, field.array([[_entry(rng, field) if field.characteristic
                                    else rng.randint(-2**70, 2**70) for _ in range(6)]
                                   for _ in range(6)]))
    singular = Matrix(field, np.concatenate([a.a[:5], field.reduce_array(a.a[:1] + a.a[1:2])]))
    unit = Matrix(field, np.triu(a.a, 1)).shift(1)
    ker, image = fitting_split(singular)
    arithmetic = [a + a, a - unit, a.scale(-1), a.scale(field.characteristic - 2),
                  a.shift(-1), a.pow(5)]
    results = [a @ a, rref(a).basis, ker.basis, image.basis,
               ker.restrict(singular), unipotent_inverse(unit), *arithmetic]
    for m in results:
        _assert_field_array(field, m.a)
    relations = kernel(singular).basis.a
    _assert_field_array(field, relations)
    if not field.characteristic:
        assert all(type(x) is int for m in arithmetic for x in m.a.flat)
        assert all(type(x) is int or x.denominator != 1 for x in relations.flat)
    assert rref(a).dim == 6 and (ker.basis @ singular.pow(6)).is_zero()
    assert unipotent_inverse(unit) @ unit == Matrix.identity(field, 6)
    assert minimal_polynomial(a) == _oracle_min_poly(a)


@pytest.mark.parametrize("field", LARGE_PRIMES, ids=str)
def test_sparse_product_stays_int64_at_large_primes(field):
    """A column of k nonzeros sums k residue products, in int64 at
    GF(65521) and in Python ints above 2^16, where two or three of them
    would leave int64; the sparse product keeps the field's dtype, reduces
    once, and equals the object product."""
    rng = random.Random(field.characteristic % 1000)
    p = field.characteristic
    for k in (1, 2, 3, 9, 40):
        c = field.array([[_entry(rng, field) for _ in range(k)] for _ in range(4)])
        b = field.array([[_entry(rng, field) if j == 0 or rng.random() < 0.5 else 0
                          for j in range(5)] for _ in range(k)])
        sparse = exact._SparseRows(field, b)
        got = sparse.left_mul(c)
        assert sparse.vals.dtype == field.dtype
        _assert_field_array(field, got)
        assert np.array_equal(got, c.astype(object) @ b.astype(object) % p)


def test_matrix_entries_are_reduced_by_scalar():
    """A Fraction entry of a GF(p) matrix is reduced, not truncated.  The
    constructor wraps an array of the field's dtype as given and reduces
    one of another dtype into the field's."""
    assert Matrix.from_rows(GF(5), [[Fraction(1, 2), Fraction(7, 2)]]).a.tolist() == [[3, 1]]
    assert Matrix.from_rows(GF(5), [[-1, 12]]).a.tolist() == [[4, 2]]
    assert Matrix.from_rows(QQ, [[Fraction(4, 2), Fraction(1, 2)]]).a.tolist() == [
        [2, Fraction(1, 2)]]
    for field in FIELDS:
        with pytest.raises(TypeError):
            Matrix.from_rows(field, [[1, 0.5]])
    a = GF(5).zeros((1, 2))
    assert Matrix(GF(5), a).a is a
    for field, entries, want in ((GF(5), [[-1, 12]], [[4, 2]]),
                                 (GF(65537), [[-1, 65538]], [[65536, 1]]),
                                 (QQ, [[-1, 12]], [[-1, 12]])):
        for dtype in (np.int64, object):
            if dtype == field.dtype:
                continue
            got = Matrix(field, np.array(entries, dtype=dtype)).a
            assert got.dtype == field.dtype and got.tolist() == want


def test_polynomial_ring_identities():
    rng = random.Random(7)
    for field in FIELDS:
        def rand_poly(deg):
            if field.characteristic:
                cs = [rng.randrange(field.characteristic) for _ in range(deg)]
            else:
                cs = [rng.randint(-4, 4) for _ in range(deg)]
            return Polynomial(field, cs + [1])

        f, g = rand_poly(3), rand_poly(2)
        q, r = poly_divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree
        h = rand_poly(1)
        assert monic(poly_gcd(f, f * h)) == monic(f)
        assert (f * g).degree == f.degree + g.degree
        lc = poly_lcm(f, g)
        assert poly_mod(lc, f).is_zero() and poly_mod(lc, g).is_zero()


def test_from_roots_keeps_multiplicity():
    field = GF(5)
    f = Polynomial.from_roots(field, [1, 1, 2])
    x = poly_x(field)
    one = Polynomial.one(field)
    assert f == (x - one) * (x - one) * (x - Polynomial(field, [2]))
    assert Polynomial.from_roots(field, []) == Polynomial.one(field)


def test_eval_matrix_matches_naive_power_sum():
    rng = random.Random(13)
    for field in FIELDS:
        a = _random_matrix(rng, field, 4, 4)
        f = Polynomial(field, [field.scalar(c) for c in (2, -1, 0, 3)])
        naive = Matrix.zeros(field, 4, 4)
        for i, c in enumerate(f.coeffs):
            naive = naive + a.pow(i).scale(c)
        assert eval_matrix(f, a) == naive


def _brute_min_poly(m: Matrix) -> Polynomial:
    """Smallest-degree monic annihilator by exhaustive search (tiny fields)."""
    field = m.field
    p = field.characteristic
    for deg in range(1, m.nrows + 1):
        best = None
        for tail in range(p ** deg):
            cs, t = [], tail
            for _ in range(deg):
                cs.append(t % p)
                t //= p
            f = Polynomial(field, cs + [1])
            if eval_matrix(f, m).is_zero():
                if best is None or f.coeffs < best.coeffs:
                    best = f
        if best is not None:
            return best
    raise AssertionError("no annihilator up to the matrix size")


def test_minimal_polynomial_against_brute_force():
    rng = random.Random(41)
    for field in (GF(2), GF(3)):
        for _ in range(6):
            a = _random_matrix(rng, field, 4, 4)
            assert minimal_polynomial(a) == _brute_min_poly(a)


def test_minimal_polynomial_oracles():
    field = QQ
    diag = Matrix.from_rows(field, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert minimal_polynomial(diag) == Polynomial.from_roots(field, [1, 2])
    jordan = Matrix.from_rows(field, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    x = poly_x(field)
    assert minimal_polynomial(jordan) == x * x * x
    companion = Matrix.from_rows(GF(7), [[0, 1], [3, 2]])
    f = minimal_polynomial(companion)
    assert f == Polynomial(GF(7), [-3, -2, 1])
    empty = Matrix.zeros(field, 0, 0)
    assert minimal_polynomial(empty) == Polynomial.one(field)


def test_minimal_polynomial_of_a_nilpotent_jordan_block():
    """A nilpotent Jordan block of size 12 has minimal polynomial x^12: every
    power below the 12th is nonzero, far past the degrees the sweeps meet."""
    for field in (QQ, GF(3)):
        block = Matrix.zeros(field, 12, 12)
        for i in range(11):
            block.a[i, i + 1] = 1
        assert minimal_polynomial(block) == Polynomial(field, [0] * 12 + [1])


def test_minimal_polynomial_of_a_companion_matrix():
    """The companion matrix of a monic f of degree 8 has minimal polynomial f."""
    for field, tail in ((QQ, [3, 0, -1, Fraction(2, 5), 0, 7, -4, 1]),
                        (GF(7), [3, 0, 6, 2, 0, 5, 4, 1])):
        f = Polynomial(field, tail + [1])
        companion = Matrix.zeros(field, 8, 8)
        for i in range(7):
            companion.a[i, i + 1] = 1
        companion.a[7] = field.array([field.neg(c) for c in f.coeffs[:8]])
        assert minimal_polynomial(companion) == f


def test_minimal_polynomial_over_a_large_prime():
    """Over GF(2^31 - 1) residues are Python ints, whose products cannot
    overflow, and the result matches the oracle."""
    field = GF(2147483647)
    rng = random.Random(71)
    a = _random_matrix(rng, field, 6, 6)
    assert minimal_polynomial(a) == _oracle_min_poly(a)
    # two equal diagonal blocks, so the degree is at most 3
    twice = Matrix.zeros(field, 6, 6)
    twice.a[:3, :3] = twice.a[3:, 3:] = a.a[:3, :3]
    f = minimal_polynomial(twice)
    assert f == _oracle_min_poly(twice) and f.degree <= 3


def test_minimal_polynomial_rejects_a_non_square_matrix():
    for field in FIELDS:
        with pytest.raises(ValueError):
            minimal_polynomial(Matrix.zeros(field, 2, 3))


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_minimal_polynomial_inserts_one_row_per_power(field, monkeypatch):
    """The transposition sum E on S^(2,2,1) induced (d = 30) has degree 3, so
    minimal_polynomial makes exactly deg + 1 = 4 insertions, one per power
    I, E, E^2, E^3, and no more."""
    module = build_induction(Partition((2, 2, 1)), field)
    e = module.element_matrix(transposition_sum(module.degree))
    calls = []
    insert = RowBasis._insert

    def counted(self, v):
        calls.append(v)
        return insert(self, v)

    monkeypatch.setattr(RowBasis, "_insert", counted)
    f = minimal_polynomial(e)
    assert e.nrows == 30 and f.degree == 3
    assert len(calls) == f.degree + 1 == 4


@pytest.mark.parametrize("field,c", [(GF(5), 0), (GF(5), 3), (QQ, Fraction(-2, 3))],
                         ids=["GF(5)-0", "GF(5)-3", "Q"])
def test_minimal_polynomial_of_a_scalar_matrix_needs_no_elimination(
        field, c, monkeypatch):
    """c*1 has minimal polynomial x - c, read off with no insertion into a
    RowBasis; one more nonzero entry off the diagonal makes it (x - c)^2."""
    scalar = Matrix.identity(field, 4).scale(c)
    nudged = Matrix(field, scalar.a.copy())
    nudged.a[0, 3] = 1
    assert minimal_polynomial(nudged) == Polynomial.from_roots(field, [c, c])

    def no_insert(self, v):
        raise AssertionError("RowBasis used for a scalar matrix")

    monkeypatch.setattr(RowBasis, "_insert", no_insert)
    assert minimal_polynomial(scalar) == Polynomial.from_roots(field, [c])


def test_from_rows_of_no_rows_is_the_empty_matrix():
    for field in FIELDS:
        empty = Matrix.from_rows(field, [])
        assert (empty.nrows, empty.ncols) == (0, 0)
        assert empty == Matrix.zeros(field, 0, 0)
        assert minimal_polynomial(empty) == Polynomial.one(field)
        with pytest.raises(ValueError):
            Matrix.from_rows(field, [1, 2])


def test_fitting_split_soundness():
    rng = random.Random(59)
    for field in (GF(3), QQ):
        for _ in range(6):
            a = _random_matrix(rng, field, 5, 5)
            ker, img = fitting_split(a)
            assert ker.dim + img.dim == 5
            assert is_invariant(ker, a) and is_invariant(img, a)
            if ker.dim:
                assert ker.restrict(a).pow(ker.dim).is_zero()
            if img.dim:
                local = img.restrict(a)
                assert rref(local).dim == img.dim
            assert intersect(ker, img).dim == 0


class _UnitPivotBasis:
    """The elimination RowBasis ran before it kept integral rows: every
    stored row is scaled to pivot 1 with FieldSpec.inv, so over Q each
    product is a Fraction product.  The oracle for the integral elimination.
    """

    def __init__(self, field, width):
        self.field = field
        self.rows = np.zeros((0, width), dtype=field.dtype)
        self.combos = np.zeros((0, 0), dtype=field.dtype)
        self.pivots = []

    def _product(self, a, b):
        return (Matrix(self.field, a) @ Matrix(self.field, b)).a

    def reduce(self, v):
        """(residual, coefficients over the stored rows) for one row."""
        d = v[self.pivots].reshape(1, -1)
        return self.field.reduce_array(v - self._product(d, self.rows)[0]), d

    def insert(self, v):
        """(kept index, None), or (None, v over the kept input rows)."""
        field = self.field
        residual, d = self.reduce(v)
        dep = self._product(d, self.combos)[0]
        nz = np.nonzero(residual)[0]
        if len(nz) == 0:
            return None, dep
        j = int(nz[0])
        inv = field.inv(residual[j])
        row = field.reduce_array(residual * inv)
        crow = field.reduce_array(np.append(-dep, 1) * inv)
        col = self.rows[:, j].copy()
        self.rows = field.reduce_array(
            np.vstack([self.rows - np.outer(col, row), row]))
        combos = np.hstack([self.combos, field.zeros((len(col), 1))])
        self.combos = field.reduce_array(
            np.vstack([combos - np.outer(col, crow), crow]))
        self.pivots.append(j)
        return len(self.pivots) - 1, None

    def coords(self, v):
        """v over the kept input rows, or None outside the span."""
        residual, d = self.reduce(v)
        return None if np.any(residual) else self._product(d, self.combos)[0]


def _oracle_rref(m):
    basis = _UnitPivotBasis(m.field, m.ncols)
    for row in m.a:
        basis.insert(row)
    order = np.argsort(basis.pivots).astype(int)
    return (Matrix(m.field, basis.rows[order]), len(order),
            [basis.pivots[i] for i in order])


def _oracle_kernel(m):
    field = m.field
    basis = _UnitPivotBasis(field, m.ncols)
    kept, rows = [], []
    for i, v in enumerate(m.a):
        idx, dep = basis.insert(v)
        if idx is not None:
            kept.append(i)
            continue
        row = field.zeros(m.nrows)
        row[kept] = field.reduce_array(-dep)
        row[i] = 1
        rows.append(row)
    if not rows:
        return field.zeros((0, m.nrows))
    return _oracle_rref(Matrix(field, np.stack(rows)))[0].a


def _oracle_min_poly(m):
    """lcm of the local minimal polynomials of the unit vectors."""
    field, n = m.field, m.nrows
    f = Polynomial.one(field)
    for i in range(n):
        chain = _UnitPivotBasis(field, n)
        v = field.zeros(n)
        v[i] = 1
        while True:
            idx, dep = chain.insert(v)
            if idx is None:
                f = poly_lcm(f, Polynomial(field, [field.neg(c) for c in dep] + [1]))
                break
            v = (Matrix(field, v.reshape(1, -1)) @ m).a[0]
    return f


def _awkward_matrix(rng, field, nrows, ncols):
    """Random rows of low rank, with zero rows and repeated rows mixed in;
    over Q the entries are Fractions."""
    rank = rng.randint(0, min(nrows, ncols))
    gens = _random_matrix(rng, field, rank, ncols).a if rank else None
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rank == 0 or kind < 0.15:
            rows.append(field.zeros(ncols))
        elif kind < 0.3 and rows:
            rows.append(rows[rng.randrange(len(rows))].copy())
        else:
            coeffs = _random_matrix(rng, field, 1, rank).a
            rows.append((Matrix(field, coeffs) @ Matrix(field, gens)).a[0])
    return Matrix(field, np.stack(rows))


def _is_int_or_proper_fraction(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_elimination_matches_unit_pivot_oracle(field):
    """rref, kernel, insert dependencies, coords_many (values and the
    in-span mask) and minimal polynomials agree with the unit-pivot
    elimination on random matrices; over Q every result entry is an int
    unless it is a proper fraction, and every stored row, with its
    combination row, is primitive with a positive pivot."""
    rng = random.Random(20261018)
    for _ in range(40):
        m = _awkward_matrix(rng, field, rng.randint(1, 12), rng.randint(1, 12))
        space = rref(m)
        r0, rank0, pivots0 = _oracle_rref(m)
        assert isinstance(space, Subspace)
        assert (space.basis, space.dim, space.pivots.tolist()) == (r0, rank0, pivots0)
        assert np.array_equal(kernel(m).basis.a, _oracle_kernel(m))

        basis, oracle = RowBasis(field, m.ncols), _UnitPivotBasis(field, m.ncols)
        for row in m.a:
            idx, dep = basis.insert(row)
            idx0, dep0 = oracle.insert(row)
            assert idx == idx0
            assert (dep is None) == (dep0 is None)
            if dep is not None:
                assert np.array_equal(dep, dep0)
        probes = np.vstack([m.a, _awkward_matrix(rng, field, 6, m.ncols).a,
                            _random_matrix(rng, field, 3, m.ncols).a])
        coeffs, ok = basis.coords_many(probes)
        for v, c, inside in zip(probes, coeffs, ok):
            c0 = oracle.coords(v)
            assert inside == (c0 is not None)
            if inside:
                assert np.array_equal(c, c0)

        if field.characteristic == 0:
            stored = basis._rc[: basis.size, : m.ncols + basis.size]
            for i, j in enumerate(basis.pivots):
                assert all(type(x) is int for x in stored[i])
                assert math.gcd(*stored[i]) == 1 and stored[i, j] > 0
            assert all(_is_int_or_proper_fraction(x)
                       for x in np.concatenate([space.basis.a.ravel(), coeffs.ravel()]))

        n = rng.randint(1, 8)
        square = _awkward_matrix(rng, field, n, n)
        assert minimal_polynomial(square) == _oracle_min_poly(square)


def test_rational_inverse_is_an_int_when_integral():
    assert type(QQ.inv(1)) is int and type(QQ.inv(Fraction(-1, 1))) is int
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(2) == Fraction(1, 2)


def _kernel_cases(rng, field):
    """Square and oblong matrices: seeded random ones of low rank, with zero
    and repeated rows mixed in, the zero matrix, and full-rank ones."""
    cases = [Matrix.zeros(field, 4, 3), Matrix.zeros(field, 1, 1)]
    for n in (1, 4, 7):
        upper = _random_matrix(rng, field, n, n)
        for i in range(n):
            upper.a[i, :i] = 0
            upper.a[i, i] = 1
        cases.append(upper)
    for _ in range(30):
        cases.append(_awkward_matrix(rng, field, rng.randint(1, 10),
                                     rng.randint(1, 10)))
    return cases


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_is_the_unit_pivot_rref_of_its_relations(field):
    """kernel reads the reduced echelon basis off its relations without a
    second elimination; it equals the unit-pivot oracle's rref of the
    stacked relations, entry for entry, and over Q every entry is an int
    unless it is a proper fraction."""
    rng = random.Random(4242)
    for m in _kernel_cases(rng, field):
        k = kernel(m)
        assert np.array_equal(k.basis.a, _oracle_kernel(m))
        assert k.basis.a.dtype == field.dtype
        assert k.dim + rref(m).dim == m.nrows
        if field.characteristic == 0:
            assert all(_is_int_or_proper_fraction(x) for x in k.basis.a.ravel())
    assert kernel(Matrix.zeros(field, 3, 2)).basis == Matrix.identity(field, 3)


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_inserts_each_row_once(field, monkeypatch):
    """The kernel of a d x d matrix inserts its d rows once, as one block
    against an empty basis, so with no product at all, however large its
    nullity: the relations are not eliminated a second time."""
    rng = random.Random(97)
    matrices = [_awkward_matrix(rng, field, 8, 8) for _ in range(6)]
    matrices.append(Matrix.zeros(field, 5, 5))
    calls = _count_calls(monkeypatch, RowBasis, "_insert")
    products = _count_calls(monkeypatch, exact, "_product")
    nullities = []
    for m in matrices:
        calls.clear()
        products.clear()
        nullities.append(kernel(m).dim)
        assert [len(block) for _, block in calls] == [m.nrows]
        assert products == []
    assert min(nullities) > 0


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_row_basis_makes_one_product_per_row(field, monkeypatch):
    """A block inserted into a non-empty tracked basis makes one product
    against the stored basis, which yields the residuals and the
    combination rows together, whatever the block holds: a row alone (a
    block of one), kept or dependent, or several rows, kept, dependent and
    zero.  A coords_many batch makes one product as well, and a block of
    more than ``RowBasis.PANEL`` rows one per panel."""
    rng = random.Random(3)
    basis = RowBasis(field, 6)
    rows = _random_matrix(rng, field, 5, 6).a
    basis.insert_rows(rows[:2])
    assert basis.size == 2
    calls = _count_calls(monkeypatch, exact, "_product")
    for block in (rows[2:3], field.reduce_array(rows[:1] + rows[1:2]),
                  np.vstack([rows[3:], field.zeros((1, 6)), rows[:1], rows[3:4]])):
        calls.clear()
        basis.insert_rows(block)
        assert len(calls) == 1
    assert basis.size == 5
    calls.clear()
    basis.coords_many(_random_matrix(rng, field, 4, 6).a)
    assert len(calls) == 1
    paneled = RowBasis(field, 6)
    paneled.PANEL = 2
    paneled.insert_rows(rows[:1])
    calls.clear()
    paneled.insert_rows(rows[1:])
    assert len(calls) == 2


@pytest.mark.parametrize("entries,fast", [
    ([[1, -2, 0], [3, 0, 5]], True),
    ([[2**70, -(2**64), 1], [0, 2**63, -7]], True),
    ([[1, Fraction(1, 3), 2], [Fraction(-5, 4), 0, 6]], False),
    ([[1, np.int64(2**62), 3], [4, 5, np.int64(-7)]], False),
    ([[Fraction(2**70, 3), np.int64(9), 2**65], [0, 1, Fraction(1, 2**64)]], False),
], ids=["small ints", "ints above 2^63", "a Fraction", "stray int64", "mixed"])
def test_integral_reads_entries_only_when_some_is_not_an_int(entries, fast, monkeypatch):
    """A Q array of Python ints is integral as it is, and skips the
    numerator/denominator pass; a Fraction or a numpy integer takes it.
    Both paths agree with reading every entry, and give Python ints."""
    a = np.empty((2, 3), dtype=object)
    a[:] = entries
    calls = _count_calls(monkeypatch, exact, "_num_den")
    got, scale = exact._integral(a)
    want, want_scale = integral_by_entries(a)
    assert len(calls) == (0 if fast else 1)
    assert scale == want_scale
    assert got.tolist() == want.tolist()
    assert all(type(x) is int for x in got.flat)


@st.composite
def _low_rank_matrix(draw, square=False):
    """A field and a matrix L R of drawn sizes up to 7, L and R with a drawn
    inner dimension, so the rank is often below both sizes; over Q the
    entries of L and R are small fractions."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    nrows = draw(st.integers(0, 7))
    ncols = nrows if square else draw(st.integers(0, 7))
    inner = draw(st.integers(0, 7))
    entries = (st.fractions(-3, 3, max_denominator=3) if field.characteristic == 0
               else st.integers(0, field.characteristic - 1))

    def draw_matrix(r, c):
        rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                             min_size=r, max_size=r))
        return Matrix(field, field.array(rows).reshape(r, c))

    return field, draw_matrix(nrows, inner) @ draw_matrix(inner, ncols)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@seed(0)
@given(_low_rank_matrix())
def test_kernel_property(drawn):
    """The kernel rows annihilate the matrix, there are nrows - rank of
    them, and they are a basis that Subspace accepts as it is."""
    field, m = drawn
    k = kernel(m)
    assert (k.basis.ncols, k.dim) == (m.nrows, m.nrows - rref(m).dim)
    assert (k.basis @ m).is_zero()
    assert Subspace(k.basis) == k


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@seed(0)
@given(_low_rank_matrix(square=True))
def test_restrict_property_against_conjugation(drawn):
    """On both spaces of a Fitting split, restrict, which reads the pivot
    columns, equals the top left block of the conjugate P m P^-1."""
    field, m = drawn
    for space in fitting_split(m):
        assert space.restrict(m) == conjugate_restriction(space, m)


@st.composite
def _square_matrix(draw):
    """A field and a square matrix c I + L R, L and R with a drawn inner
    dimension, so low degrees come up: sizes up to 4 over GF(2) and GF(3),
    where every monic polynomial of degree up to 4 can be tried, and up to 6
    over Q, with small fractions in L and R."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    n = draw(st.integers(1, 6 if field.characteristic == 0 else 4))
    inner = draw(st.integers(0, n))
    entries = (st.fractions(-3, 3, max_denominator=3) if field.characteristic == 0
               else st.integers(0, field.characteristic - 1))

    def draw_matrix(r, c):
        rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                             min_size=r, max_size=r))
        return Matrix(field, field.array(rows).reshape(r, c))

    return (draw_matrix(n, inner) @ draw_matrix(inner, n)).shift(draw(entries))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@seed(0)
@given(_square_matrix())
def test_minimal_polynomial_property(m):
    """Over GF(2) and GF(3) the minimal polynomial is the first monic
    annihilator of an exhaustive search by degree; over Q it is monic,
    mu(m) = 0 on every entry, and I, m, ..., m^(deg - 1) are independent
    under the unit-pivot Fraction elimination."""
    mu = minimal_polynomial(m)
    if m.field.characteristic:
        assert mu == _brute_min_poly(m)
        return
    assert mu.coeffs[-1] == 1
    assert eval_matrix(mu, m).is_zero()
    powers = Matrix(m.field, np.stack([m.pow(k).a.reshape(-1) for k in range(mu.degree)]))
    assert _oracle_rref(powers)[1] == mu.degree


@st.composite
def _block_insert_case(draw):
    """A field, a width, a prefix and a block of rows.  The rows combine a
    few drawn generators, with zero rows and repeated rows mixed in, and the
    block often has more rows than the width.  Over Q the generators hold
    small fractions or ints near 2^70."""
    kind = draw(st.sampled_from(["Q fractions", "Q big ints", 2, 3, 2147483647]))
    field = QQ if kind in ("Q fractions", "Q big ints") else GF(kind)
    entries = {"Q fractions": st.fractions(-3, 3, max_denominator=3),
               "Q big ints": st.integers(-2**70, 2**70)}.get(
                   kind, st.integers(0, max(field.characteristic - 1, 0)))
    width = draw(st.integers(0, 5))
    gens = [field.array(draw(st.lists(entries, min_size=width, max_size=width)))
            .reshape(width) for _ in range(draw(st.integers(0, 3)))]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        choice = draw(st.integers(0, 3))
        if choice == 0 or not gens:
            rows.append(field.zeros(width))
        elif choice == 1 and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))].copy())
        else:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(gens),
                                   max_size=len(gens)))
            row = field.zeros(width)
            for c, g in zip(coeffs, gens):
                row = row + field.scalar(c) * g
            rows.append(field.reduce_array(row))
    a = np.stack(rows) if rows else field.zeros((0, width))
    split = draw(st.integers(0, len(rows)))
    return field, width, a[:split], a[split:]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@seed(0)
@given(_block_insert_case())
def test_block_insert_matches_one_row_inserts_and_the_fraction_oracle(case):
    """Inserting a block after a prefix gives what inserting its rows one at
    a time gives, and what the unit-pivot Fraction elimination gives: the
    same kept indices, dependencies, pivots and rows; the stored [R | C] of
    the block and the one-row bases agree entry for entry.  A basis that
    sweeps its blocks in panels of two rows gives the same again."""
    field, width, prefix, block = case
    blocked, single = RowBasis(field, width), RowBasis(field, width)
    paneled = RowBasis(field, width)
    paneled.PANEL = 2
    oracle = _UnitPivotBasis(field, width)
    kept = blocked.insert_rows(prefix)
    assert paneled.insert_rows(prefix) == kept
    for i, row in enumerate(prefix):
        idx = single.insert(row)[0]
        assert idx == oracle.insert(row)[0] == (None if kept[i] < 0 else kept[i])
    kept, dc, den = blocked._insert(block)
    pkept, pdc, pden = paneled._insert(block)
    assert pkept == kept
    deps, pdeps = exact._divide(dc, den), exact._divide(pdc, pden)
    for i, row in enumerate(block):
        idx, dep = single.insert(row)
        idx0, dep0 = oracle.insert(row)
        assert idx == idx0 == (None if kept[i] < 0 else kept[i])
        if idx is None:
            assert np.array_equal(dep, dep0)
            for got in (deps[i], pdeps[i]):
                assert np.array_equal(got[: len(dep)], dep)
                assert not np.any(got[len(dep):])
    size = single.size
    assert blocked.size == paneled.size == size == len(oracle.pivots)
    assert (blocked.pivots.tolist() == paneled.pivots.tolist()
            == single.pivots.tolist() == oracle.pivots)
    for basis in (blocked, paneled):
        assert np.array_equal(basis._rc[:size, : width + size],
                              single._rc[:size, : width + size])
    assert np.array_equal(blocked.rows, oracle.rows)
    assert blocked.rows.dtype == field.dtype


@st.composite
def _unipotent(draw):
    """A field and D = P (I - L) P^T: L strictly lower triangular with drawn
    entries, P a drawn permutation, so D is unitriangular up to order."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(7)]))
    d = draw(st.integers(0, 8))
    lower = np.tril(np.array(draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d),
        min_size=d, max_size=d)), dtype=np.int64).reshape(d, d), -1)
    order = draw(st.permutations(range(d)))
    unit = np.eye(d, dtype=np.int64) - lower
    return field, Matrix(field, field.array(unit[np.ix_(order, order)].tolist()).reshape(d, d))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@seed(0)
@given(_unipotent())
def test_unipotent_inverse_property(drawn):
    """The inverse of a matrix unitriangular up to order, over Q and GF(p),
    is exact on both sides, and integral over Q."""
    field, m = drawn
    inverse = unipotent_inverse(m)
    eye = Matrix.identity(field, m.nrows)
    assert inverse @ m == eye and m @ inverse == eye
    assert all(type(x) is int for x in inverse.a.flat) or field.characteristic


def test_unipotent_inverse_of_a_nilpotent_part_that_is_not_triangular():
    """D = I - N with N = [[1, 1], [-1, -1]], nilpotent though no order makes
    it triangular: the product still gives the inverse."""
    for field in (QQ, GF(5)):
        m = Matrix.from_rows(field, [[0, -1], [1, 2]])
        assert unipotent_inverse(m) @ m == Matrix.identity(field, 2)


def test_unipotent_inverse_rejects_other_matrices():
    for field in (QQ, GF(3)):
        with pytest.raises(ArithmeticError):
            unipotent_inverse(Matrix.from_rows(field, [[1, 0], [1, 2]]))
        with pytest.raises(ArithmeticError):
            unipotent_inverse(Matrix.from_rows(field, [[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            unipotent_inverse(Matrix.from_rows(field, [[1, 0, 0]]))
