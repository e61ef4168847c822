"""Exact linear algebra: seeded randomized identities plus hand oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest

from spechtbranch.exact import (
    Matrix,
    Polynomial,
    RowBasis,
    Subspace,
    fitting_split,
    kernel,
    minimal_polynomial,
    rref,
)
from spechtbranch.fields import GF, QQ


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
            _, rank, _ = rref(a)
            assert kernel(a).dim + rank == nrows
            k = kernel(a)
            if k.dim:
                assert (k.basis @ a).is_zero()


def test_rref_is_canonical_under_row_operations():
    rng = random.Random(5)
    for field in FIELDS:
        a = _random_matrix(rng, field, 4, 6)
        r, rank, pivots = rref(a)
        r2, rank2, pivots2 = rref(r)
        assert (r, rank, pivots) == (r2, rank2, pivots2)
        shuffled = Matrix(field, a.a[::-1].copy())
        scaled = shuffled.scale(field.scalar(3)) if field.characteristic != 3 \
            else shuffled
        r3, rank3, _ = rref(scaled)
        assert rank3 == rank and r3 == r


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
            coeffs = basis.coords(v)
            assert coeffs is not None
            recon = (Matrix(field, coeffs.reshape(1, -1)) @ kept_mat).a[0]
            assert np.array_equal(recon, field.reduce_array(np.asarray(v)))
        outside = field.zeros(6)
        outside[0] = 1
        probe = RowBasis(field, 6)
        probe.insert(field.reduce_array(np.roll(outside, 1)))
        assert probe.coords(outside) is None


def test_subspace_membership_and_intersection():
    field = GF(7)
    a = Subspace.from_rows(field, Matrix.from_rows(field, [[1, 0, 0, 0],
                                                           [0, 1, 0, 0]]))
    b = Subspace.from_rows(field, Matrix.from_rows(field, [[0, 1, 0, 0],
                                                           [0, 0, 1, 0]]))
    meet = a.intersect(b)
    assert meet.dim == 1
    assert meet.contains(np.array([0, 3, 0, 0], dtype=np.int64))
    assert not meet.contains(np.array([1, 0, 0, 0], dtype=np.int64))


def test_subspace_invariance_and_restriction():
    field = GF(5)
    m = Matrix.from_rows(field, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    inv = Subspace.from_rows(field, Matrix.from_rows(field, [[1, 0, 0], [0, 1, 0]]))
    assert inv.is_invariant(m)
    local = inv.restrict(m)
    assert local == Matrix.from_rows(field, [[1, 1], [0, 1]])
    tilted = Subspace.from_rows(field, Matrix.from_rows(field, [[1, 0, 1]]))
    assert not tilted.is_invariant(m)
    with pytest.raises(ValueError):
        tilted.restrict(m)


def test_scalar_rejects_floats():
    for field in FIELDS:
        for bad in (1.0, 2.5, np.float64(3.0), np.float32(1.0)):
            with pytest.raises(TypeError):
                field.scalar(bad)
    assert GF(5).scalar(7) == 2 and GF(5).scalar(np.int64(-1)) == 4
    assert GF(5).scalar(Fraction(1, 2)) == 3
    assert QQ.scalar(Fraction(4, 2)) == 2 and QQ.scalar(-3) == -3


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
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree
        h = rand_poly(1)
        assert f.gcd(f * h).monic() == f.monic()
        assert (f * g).degree == f.degree + g.degree
        lc = f.lcm(g)
        assert (lc % f).is_zero() and (lc % g).is_zero()


def test_from_roots_keeps_multiplicity():
    field = GF(5)
    f = Polynomial.from_roots(field, [1, 1, 2])
    x = Polynomial.x(field)
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
        assert f.eval_matrix(a) == naive


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
            if f.eval_matrix(m).is_zero():
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
    x = Polynomial.x(field)
    assert minimal_polynomial(jordan) == x * x * x
    companion = Matrix.from_rows(GF(7), [[0, 1], [3, 2]])
    f = minimal_polynomial(companion)
    assert f == Polynomial(GF(7), [-3, -2, 1])
    empty = Matrix.zeros(field, 0, 0)
    assert minimal_polynomial(empty) == Polynomial.one(field)


def test_fitting_split_soundness():
    rng = random.Random(59)
    for field in (GF(3), QQ):
        for _ in range(6):
            a = _random_matrix(rng, field, 5, 5)
            ker, img = fitting_split(a)
            assert ker.dim + img.dim == 5
            assert ker.is_invariant(a) and img.is_invariant(a)
            if ker.dim:
                assert ker.restrict(a).pow(ker.dim).is_zero()
            if img.dim:
                local = img.restrict(a)
                _, rank, _ = rref(local)
                assert rank == img.dim
            assert ker.intersect(img).dim == 0
