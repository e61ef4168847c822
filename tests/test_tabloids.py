"""Tableaux, tabloids and polytabloids: hand expansions and action laws."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import (act_key, column_signed_maps, enumerate_tabloids, identity_perm,
                     signed_column_sum, tabloid_index)
from spechtbranch.exact import RowBasis, _SparseRows
from spechtbranch.fields import GF, QQ
from spechtbranch.partitions import (
    Partition,
    content_sum,
    partitions_of,
    specht_dimension,
)
from spechtbranch.perms import adjacent, compose, embed, transposition
from spechtbranch import modules
from spechtbranch.modules import (
    AlgebraElement,
    _induction_tableaux,
    build_specht,
    clear_module_cache,
    murphy_element,
    transposition_sum,
)
from spechtbranch.tabloids import (
    ModuleVector,
    Tableau,
    _column_terms,
    _row_words,
    canonical_tableau,
    extension,
    induced_polytabloid,
    polytabloid,
    region_H,
    region_V,
    standard_tableaux,
    tabloid,
    tabloid_preimages,
)


def _apply_per_term(elt, vec):
    """vec * elt as a sum over terms, one act_key per nonzero coordinate per
    term: the oracle for ``AlgebraElement.apply``."""
    keys = enumerate_tabloids(vec.shape)
    index = tabloid_index(vec.shape)
    out = ModuleVector.zero(vec.shape, vec.field)
    for perm, coeff in elt.terms:
        pi = embed(perm, vec.shape.size)
        moved = vec.field.zeros(len(keys))
        for i in np.flatnonzero(vec.row):
            moved[index[act_key(keys[i], pi)]] = vec.row[i]
        out = out + ModuleVector(vec.shape, vec.field, moved).scale(coeff)
    return out


def _act(vec, pi):
    """{vec} pi, through the one-term group algebra element pi."""
    return AlgebraElement.from_terms(len(pi), [(pi, 1)]).apply(vec)


def _random_perm(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    return tuple(img)


def test_tableau_basics():
    t = Tableau(((1, 2), (3,)))
    assert t.shape == Partition((2, 1))
    assert t.size == 3
    assert t.columns() == [(1, 3), (2,)]
    assert t.is_standard()
    assert not Tableau(((2, 1), (3,))).is_standard()
    assert str(t) == "1,2/3"
    swapped = t.act(transposition(3, 1, 3))
    assert swapped == Tableau(((3, 2), (1,)))


def test_canonical_and_standard_tableaux():
    lam = Partition((3, 2))
    assert canonical_tableau(lam) == Tableau(((1, 2, 3), (4, 5)))
    tabs = standard_tableaux(lam)
    assert len(tabs) == specht_dimension(lam) == 5
    assert len(set(tabs)) == 5
    assert all(t.is_standard() and t.shape == lam for t in tabs)
    assert canonical_tableau(lam) in tabs
    for lam in partitions_of(6):
        assert len(standard_tableaux(lam)) == specht_dimension(lam)


def _decode(words, shape):
    """The sorted-row key of every word of a table, in table order."""
    rows = [np.nonzero(words == r)[1].reshape(len(words), part) + 1
            for r, part in enumerate(shape)]
    return [tuple(tuple(row[i].tolist()) for row in rows) for i in range(len(words))]


def test_tabloid_enumeration_counts():
    """The word table spells the oracle's keys, in its order, for every
    shape of size <= 8 and for (62, 1), whose codes pass int64."""
    for lam in [lam for n in range(9) for lam in partitions_of(n)] + [Partition((62, 1))]:
        words = _row_words(lam)[0]
        assert words.shape == (len(enumerate_tabloids(lam)), lam.size)
        assert _decode(words, lam) == list(enumerate_tabloids(lam)), lam
        assert len(ModuleVector.zero(lam, GF(2)).row) == len(words)
    assert len(enumerate_tabloids(Partition((2, 1)))) == 3
    assert len(enumerate_tabloids(Partition((1, 1, 1)))) == 6
    lam = Partition((5, 3, 1))
    count = math.factorial(9) // (
        math.factorial(5) * math.factorial(3) * math.factorial(1))
    assert len(enumerate_tabloids(lam)) == count == 504
    index = tabloid_index(lam)
    assert len(index) == count
    keys = enumerate_tabloids(lam)
    assert all(index[k] == i for i, k in enumerate(keys))


def test_act_key_right_action_law():
    rng = random.Random(17)
    lam = Partition((3, 2, 1))
    keys = enumerate_tabloids(lam)
    for _ in range(20):
        k = keys[rng.randrange(len(keys))]
        p = _random_perm(rng, 6)
        q = _random_perm(rng, 6)
        assert act_key(act_key(k, p), q) == act_key(k, compose(p, q))


def test_tabloid_permutation_matches_act_key():
    rng = random.Random(71)
    # (62, 1): its base-2 codes have 63 digits, past int64
    shapes = [lam for n in range(7) for lam in partitions_of(n)] + [Partition((62, 1))]
    for lam in shapes:
        n = lam.size
        keys = enumerate_tabloids(lam)
        perms = [adjacent(n, i) for i in range(1, n)] + [_random_perm(rng, n) for _ in range(3)]
        for pi in perms:
            src = tabloid_preimages(lam, (pi,))[0]
            assert all(act_key(keys[src[j]], pi) == keys[j] for j in range(len(keys))), (lam, pi)


# (62, 1): its codes are Python ints, past int64
_TABLE_SHAPES = [lam for n in range(1, 8) for lam in partitions_of(n)] + [Partition((62, 1))]


@st.composite
def _shape_perms_and_tabloids(draw):
    shape = draw(st.sampled_from(_TABLE_SHAPES))
    perms = st.permutations(range(1, shape.size + 1)).map(tuple)
    width = len(enumerate_tabloids(shape))
    at = st.lists(st.integers(0, width - 1), max_size=8).map(tuple)
    return shape, draw(perms), draw(perms), draw(at)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@seed(0)
@given(_shape_perms_and_tabloids())
def test_preimage_tables_compose_as_a_right_action(drawn):
    """v (p q) = (v p) q gives src_pq = src_p[src_q]; the identity gives
    arange(W), every table is a permutation of range(W), and none can be
    written.  The table of a tuple of tabloids is the full table read at
    them, also for the object-dtype codes of (62, 1), and the table of a
    tuple of permutations stacks their one-permutation tables."""
    shape, p, q, at = drawn
    width = len(enumerate_tabloids(shape))
    perms = (p, q, compose(p, q))
    tables = [tabloid_preimages(shape, (pi,))[0] for pi in perms]
    assert np.array_equal(tables[2], tables[0][tables[1]])
    assert np.array_equal(tabloid_preimages(shape, (identity_perm(shape.size),))[0],
                          np.arange(width))
    for pi, table in zip(perms, tables):
        assert sorted(table.tolist()) == list(range(width))
        read = tabloid_preimages(shape, (pi,), at)[0]
        assert np.array_equal(read, table[list(at)])
        for t in (table, read):
            assert not t.flags.writeable
            with pytest.raises(ValueError):
                t[:1] = 0
    for at_ in (None, at):
        stacked = tabloid_preimages(shape, perms, at_)
        one = [tabloid_preimages(shape, (pi,), at_)[0] for pi in perms]
        assert stacked.dtype == np.int32 and np.array_equal(stacked, np.stack(one))
        assert not stacked.flags.writeable
        with pytest.raises(ValueError):
            stacked[:1] = 0


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=str)
def test_apply_matches_per_term_sparse_sum(field):
    for n in range(2, 6):
        elements = (murphy_element(n), murphy_element(n + 1),
                    transposition_sum(n - 1), transposition_sum(n + 1))
        for lam in partitions_of(n):
            for t in standard_tableaux(lam):
                vectors = [polytabloid(t, field), induced_polytabloid(extension(t), lam, field)]
                if not field.characteristic:
                    vectors += [v.scale(Fraction(1, 2)) for v in vectors]
                for vec in vectors:
                    for elt in elements:
                        if elt.degree > vec.shape.size:
                            continue
                        once = elt.apply(vec)
                        assert once == _apply_per_term(elt, vec), (lam, t, elt)
                        assert elt.apply(once) == _apply_per_term(elt, once), (lam, t, elt)


def test_apply_reduces_large_coefficients():
    """Over GF(2^31 - 1) the coefficients 2^62 and 2^62 - 2 act as their
    residues, 1 and p - 1: each coefficient is reduced, and a sum of three
    products (p - 1)^2, which would leave int64, is summed in Python ints,
    also on a vector handed in as int64 and with one term per block."""
    p = 2147483647
    field = GF(p)
    shape = Partition((2, 1))
    vectors = [polytabloid(t, field) for t in standard_tableaux(shape)]
    vectors.append(ModuleVector(shape, field, np.full(3, p - 1)))
    two = [((2, 1, 3), 2 ** 62), ((1, 3, 2), 2 ** 62)]
    three = [((2, 1, 3), 2 ** 62 - 2), ((1, 3, 2), 2 ** 62 - 2), ((3, 2, 1), 2 ** 62 - 2)]
    for terms, chunk in itertools.product((two, three), (_SparseRows.CHUNK, 1)):
        residues = AlgebraElement.from_terms(3, [(pi, c % p) for pi, c in terms])
        with mock.patch.object(_SparseRows, "CHUNK", chunk):
            for v in vectors:
                assert AlgebraElement.from_terms(3, terms).apply(v) == residues.apply(v)
                assert residues.apply(v) == _apply_per_term(residues, v)


def _act_per_term(elt, field, shape, rows, at):
    """rows * elt read at at (every column if None), one act_key and one
    Python scalar per tabloid per term: the oracle for ``modules._act``."""
    keys = enumerate_tabloids(shape)
    index = tabloid_index(shape)
    out = []
    for row in np.atleast_2d(rows).tolist():
        acc = [0] * len(keys)
        for perm, coeff in elt.terms:
            pi = embed(perm, shape.size)
            for i, key in enumerate(keys):
                acc[index[act_key(key, pi)]] += coeff * row[i]
        out.append([field.scalar(acc[j]) for j in (range(len(keys)) if at is None else at)])
    return out if rows.ndim == 2 else out[0]


_GATHER_FIELDS = [GF(2), GF(3), GF(2 ** 31 - 1), QQ]


@st.composite
def _element_rows_and_at(draw):
    lam = draw(st.sampled_from([lam for n in range(2, 7) for lam in partitions_of(n)]))
    field = draw(st.sampled_from(_GATHER_FIELDS))
    degree = draw(st.integers(1, lam.size))
    perm = st.permutations(range(1, degree + 1)).map(tuple)
    coeff = st.sampled_from([2 ** 62, -2 ** 62]) | st.integers(-3, 3)
    elt = AlgebraElement.from_terms(
        degree, draw(st.lists(st.tuples(perm, coeff), min_size=1, max_size=15)))
    width = len(enumerate_tabloids(lam))
    p = field.characteristic
    # residues near p - 1, so that three products over GF(2^31 - 1) leave int64
    entry = (st.sampled_from([p - 1, p - 2]) | st.integers(0, p - 1) if p
             else st.fractions(max_denominator=4) | st.integers(-2 ** 70, 2 ** 70))
    stack = draw(st.none() | st.integers(1, 4))
    count = width if stack is None else stack * width
    rows = field.array(draw(st.lists(entry, min_size=count, max_size=count)))
    if stack is not None:
        rows = rows.reshape(stack, width)
    at = draw(st.none() | st.lists(st.integers(0, width - 1), min_size=1, max_size=8).map(tuple))
    return elt, field, lam, rows, at


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@seed(0)
@given(_element_rows_and_at())
def test_blocked_gathers_match_the_per_term_sum(drawn):
    """_act on one row or a stack, read at every tabloid or a tuple of them,
    equals the sum over the terms one tabloid at a time, for coefficients
    +-2^62 and over GF(2^31 - 1), where two products already leave int64;
    the same with blocks bounded to one entry, one term per block."""
    elt, field, lam, rows, at = drawn
    expected = _act_per_term(elt, field, lam, rows, at)
    assert modules._act(elt, field, lam, rows, at).tolist() == expected
    with mock.patch.object(_SparseRows, "CHUNK", 1):
        assert modules._act(elt, field, lam, rows, at).tolist() == expected


def test_polytabloid_terms_are_cached_once_for_every_field():
    """The signed tabloid indices of a polytabloid owe nothing to the field:
    over GF(2), GF(3) and GF(5), polytabloid and induced_polytabloid are the
    Q vector reduced mod p, for every standard tableau of size <= 6 and
    every induction tableau of lam |- 5; the cached indices are distinct,
    so one assignment writes them, and neither cached array can be
    written.  Building S^lam over GF(5) after GF(3) adds no cache miss."""
    cases = [(t, False, lambda field, t=t: polytabloid(t, field))
             for n in range(1, 7) for lam in partitions_of(n) for t in standard_tableaux(lam)]
    cases += [(T, True, lambda field, T=T, lam=lam: induced_polytabloid(T, lam, field))
              for lam in partitions_of(5) for T in _induction_tableaux(lam)]
    for rows, bottom, build in cases:
        over_q = np.array(build(QQ).row.tolist(), dtype=np.int64)
        for p in (2, 3, 5):
            assert np.array_equal(build(GF(p)).row, over_q % p), (rows, p)
        shape, index, signs = _column_terms(rows, bottom)
        assert shape == rows.shape
        assert len(np.unique(index)) == len(index)
        for a in (index, signs):
            with pytest.raises(ValueError):
                a[:1] = 0
    for lam in (Partition((3, 2)), Partition((2, 2, 1)), Partition((3, 1, 1, 1))):
        clear_module_cache()
        build_specht(lam, GF(3))
        misses = (_column_terms.cache_info().misses, tabloid_preimages.cache_info().misses)
        build_specht(lam, GF(5))
        assert (_column_terms.cache_info().misses, tabloid_preimages.cache_info().misses) == misses
    clear_module_cache()


def test_module_vector_sum_needs_one_shape_and_field():
    v = polytabloid(canonical_tableau(Partition((2, 1))), GF(3))
    for other in (polytabloid(canonical_tableau(Partition((1, 1, 1))), GF(3)),
                  polytabloid(canonical_tableau(Partition((2, 1))), GF(5))):
        with pytest.raises(ValueError):
            v + other
        with pytest.raises(ValueError):
            v - other


def test_module_vector_right_action_law():
    rng = random.Random(29)
    lam = Partition((2, 2, 1))
    field = GF(7)
    for _ in range(10):
        t = standard_tableaux(lam)[rng.randrange(specht_dimension(lam))]
        v = polytabloid(t, field)
        p = _random_perm(rng, 5)
        q = _random_perm(rng, 5)
        assert _act(_act(v, p), q) == _act(v, compose(p, q))
    with pytest.raises(ValueError):
        _act(polytabloid(canonical_tableau(lam), field), identity_perm(6))


def test_polytabloid_hand_expansions():
    field = QQ
    t = Tableau(((1, 2), (3,)))
    e = polytabloid(t, field)
    assert e.coefficient(tabloid(t)) == 1
    assert e.coefficient(tabloid(Tableau(((3, 2), (1,))))) == -1
    assert np.count_nonzero(e.row) == 2

    col = Tableau(((1,), (2,)))
    e2 = polytabloid(col, field)
    assert e2.coefficient(tabloid(col)) == 1
    assert e2.coefficient(tabloid(Tableau(((2,), (1,))))) == -1

    row = Tableau(((1, 2, 3),))
    e3 = polytabloid(row, field)
    assert np.count_nonzero(e3.row) == 1 and e3.coefficient(tabloid(row)) == 1


def test_polytabloids_match_the_per_sigma_sum():
    """polytabloid against the sum over the column stabilizer one sigma at a
    time, for every standard tableau of size <= 7 and of (62, 1), whose
    codes are Python ints; induced_polytabloid likewise on every tableau of
    the induced basis for |lam| <= 6."""
    shapes = [lam for n in range(1, 8) for lam in partitions_of(n)] + [Partition((62, 1))]
    for field in (QQ, GF(2), GF(3)):
        for lam in shapes:
            for t in standard_tableaux(lam):
                assert polytabloid(t, field) == signed_column_sum(t, t, field), (t, field)
            if lam.size > 6:
                continue
            for T in _induction_tableaux(lam):
                expected = signed_column_sum(Tableau(tuple(T)[:-1]), T, field)
                assert induced_polytabloid(T, lam, field) == expected, (T, field)


def test_coefficient_reads_one_tabloid():
    lam = Partition((2, 1))
    for field in (QQ, GF(3)):
        e = polytabloid(canonical_tableau(lam), field)
        got = [e.coefficient(key) for key in enumerate_tabloids(lam)]
        assert got == [field.scalar(c) for c in e.row.tolist()]
        assert all(type(c) is int for c in got)
        for foreign in (((1, 2, 3),), ((1, 2), (4,)), ((1, 1), (2,)), ((2, 1), (3,)),
                        ((1,), (2,), (3,))):
            with pytest.raises(KeyError):
                e.coefficient(foreign)
    long_row = polytabloid(canonical_tableau(Partition((62, 1))), GF(2))
    assert long_row.coefficient((tuple(range(1, 63)), (63,))) == 1
    assert long_row.coefficient((tuple(range(2, 64)), (1,))) == 1
    assert long_row.coefficient(((1,) + tuple(range(3, 64)), (2,))) == 0


def test_column_signed_maps_group_structure():
    t = canonical_tableau(Partition((2, 2, 1)))
    maps = list(column_signed_maps(t))
    assert len(maps) == math.factorial(3) * math.factorial(2)
    total = sum(sign for _, sign in maps)
    assert total == 0
    assert sum(1 for _, s in maps if s == 1) == len(maps) // 2


def test_column_stabilizer_sign_identity():
    """e_{t pi} = sgn(pi) e_t for pi in the column stabilizer."""
    field = QQ
    t = canonical_tableau(Partition((3, 2)))
    e = polytabloid(t, field)
    for mapping, sign in column_signed_maps(t):
        pi = tuple(mapping.get(x, x) for x in range(1, 6))
        assert polytabloid(t.act(pi), field) == e.scale(sign)


def test_straightening_membership():
    """Any polytabloid lies in the span of the standard ones."""
    rng = random.Random(43)
    field = GF(3)
    lam = Partition((3, 2))
    span = RowBasis(field, len(enumerate_tabloids(lam)))
    for t in standard_tableaux(lam):
        span.insert(polytabloid(t, field).row)
    for _ in range(10):
        pi = _random_perm(rng, 5)
        scrambled = canonical_tableau(lam).act(pi)
        assert span.contains(polytabloid(scrambled, field).row)


def test_polytabloid_transposition_sum_eigenvector():
    rng = random.Random(61)
    for lam in (Partition((2, 1)), Partition((3, 2)), Partition((2, 2, 1, 1))):
        n = lam.size
        for field in (QQ, GF(3)):
            tabs = standard_tableaux(lam)
            t = tabs[rng.randrange(len(tabs))]
            e = polytabloid(t, field)
            assert transposition_sum(n).apply(e) == e.scale(content_sum(lam))


def test_regions():
    t = canonical_tableau(Partition((2, 1)))
    assert region_V(t, 1) == frozenset({2})
    assert region_V(t, 2) == frozenset({1, 3})
    assert region_H(t, 0) == frozenset()
    assert region_H(t, 1) == frozenset({1, 2})
    assert region_H(t, 2) == frozenset({1, 2, 3})
    with pytest.raises(ValueError):
        region_V(t, 3)
    with pytest.raises(ValueError):
        region_H(t, 5)
    big = canonical_tableau(Partition((4, 4, 2, 1)))
    assert region_V(big, 1) == frozenset({3, 4, 7, 8})
    assert region_V(big, 2) == frozenset({2, 6, 10})
    assert region_V(big, 3) == frozenset({1, 5, 9, 11})
    assert region_H(big, 2) == frozenset(range(1, 11))


def test_extension_and_induced_polytabloid():
    t = Tableau(((1, 3), (2,)))
    big = extension(t)
    assert big == Tableau(((1, 3), (2,), (4,)))
    assert big.shape == Partition((2, 1, 1))
    lam = Partition((2, 1))
    e = induced_polytabloid(big, lam, QQ)
    restricted_cols = polytabloid(t, QQ)
    assert np.count_nonzero(e.row) == np.count_nonzero(restricted_cols.row)
    with pytest.raises(ValueError):
        induced_polytabloid(t, lam, QQ)

