"""Partition combinatorics against independent oracles."""

import itertools

import pytest

from spechtbranch.partitions import (
    Partition,
    addable_nodes,
    conjugate,
    content_sum,
    contents,
    hook_lengths,
    induce_at,
    p_core,
    partitions_of,
    removable_nodes,
    restrict_at,
    specht_dimension,
)


def test_parse_and_validate():
    assert Partition.parse("6,1,1,1") == Partition((6, 1, 1, 1))
    assert Partition.parse("3") == Partition((3,))
    assert Partition(()).size == 0
    lam = Partition((3, 1))
    assert Partition(lam) is lam
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition.parse("2,x")


def test_removable_and_addable_nodes():
    lam = Partition((3, 2))
    assert removable_nodes(lam) == [(1, 3), (2, 2)]
    assert addable_nodes(lam) == [(1, 4), (2, 3), (3, 1)]
    with pytest.raises(ValueError):
        removable_nodes(Partition(()))
    assert addable_nodes(Partition(())) == [(1, 1)]
    hook = Partition((6, 1, 1, 1))
    assert removable_nodes(hook) == [(1, 6), (4, 1)]


def test_restrict_and_induce():
    lam = Partition((3, 2))
    assert restrict_at(lam, 1) == Partition((2, 2))
    assert restrict_at(lam, 2) == Partition((3, 1))
    assert induce_at(lam, 3) == Partition((3, 2, 1))
    with pytest.raises(ValueError):
        restrict_at(lam, 3)
    for n in range(1, 8):
        for lam in partitions_of(n):
            ups = [induce_at(lam, u) for u in range(1, len(addable_nodes(lam)) + 1)]
            assert all(mu.size == n + 1 for mu in ups)
            downs = [restrict_at(lam, u)
                     for u in range(1, len(removable_nodes(lam)) + 1)]
            assert all(mu.size == n - 1 for mu in downs)
            assert len(set(ups)) == len(ups)
            assert len(set(downs)) == len(downs)


def test_contents_and_sums():
    lam = Partition((2, 1))
    assert sorted(contents(lam)) == [-1, 0, 1]
    assert content_sum(lam) == 0
    assert content_sum(Partition((6, 1, 1, 1))) == 9
    assert content_sum(Partition((3,))) == 3
    assert content_sum(Partition((1, 1, 1))) == -3


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def _hook_len(rows, r, c):
    arm = rows[r] - c - 1
    leg = sum(1 for i in range(r + 1, len(rows)) if rows[i] > c)
    return arm + leg + 1


def _rim_hook_core(lam, p):
    """Independent p-core oracle: strip rim p-hooks off the diagram directly."""
    rows = list(lam)
    while True:
        spots = [(r, c) for r in range(len(rows)) for c in range(rows[r])
                 if _hook_len(rows, r, c) == p]
        if not spots:
            return Partition(x for x in rows if x > 0)
        r, c = spots[0]
        q = r + sum(1 for i in range(r + 1, len(rows)) if rows[i] > c)
        rows = rows[:r] + [rows[i + 1] - 1 for i in range(r, q)] + [c] + rows[q + 1:]
        rows = [x for x in rows if x > 0]


def test_p_core_against_rim_hook_stripping():
    for n in range(0, 9):
        for lam in partitions_of(n):
            for p in (2, 3, 5):
                assert p_core(lam, p) == _rim_hook_core(lam, p), (lam, p)


def test_p_core_spot_values():
    assert p_core(Partition((6, 1, 1, 1)), 2) == Partition((2, 1))
    assert p_core(Partition((5, 1, 1, 1)), 2) == Partition(())
    assert p_core(Partition((6, 1, 1)), 2) == Partition(())
    assert p_core(Partition((7, 1, 1)), 2) == Partition((1,))
    assert p_core(Partition((6, 2, 1)), 2) == Partition((1,))
    assert p_core(Partition((2, 1)), 2) == Partition((2, 1))
    assert p_core(Partition((2, 1)), 3) == Partition(())
    assert p_core(Partition((3, 2, 1)), 3) == Partition(())


def test_branching_factors_share_a_block_exactly_when_e_agrees():
    """Among the restriction factors of lam, or among its induction factors,
    two have equal content sums mod p exactly when they share a p-core, and
    over Q (p = 0) no two have equal content sums.  This is what lets the
    transposition sum alone split a branching module into blocks."""
    for n in range(1, 11):
        for lam in partitions_of(n):
            restricted = [restrict_at(lam, u)
                          for u in range(1, len(removable_nodes(lam)) + 1)]
            induced = [induce_at(lam, u)
                       for u in range(1, len(addable_nodes(lam)) + 1)]
            for factors in (restricted, induced):
                for mu, nu in itertools.combinations(factors, 2):
                    diff = content_sum(mu) - content_sum(nu)
                    assert diff != 0, (lam, mu, nu)
                    for p in (2, 3, 5, 7):
                        same_block = p_core(mu, p) == p_core(nu, p)
                        assert (diff % p == 0) == same_block, (lam, mu, nu, p)


def test_hook_lengths_and_dimension():
    flat = sorted(h for row in hook_lengths(Partition((2, 1))) for h in row)
    assert flat == [1, 1, 3]
    assert specht_dimension(Partition((2, 1))) == 2
    assert specht_dimension(Partition((3, 2))) == 5
    assert specht_dimension(Partition((6, 1, 1, 1))) == 56
    assert specht_dimension(Partition((8, 1))) == 8
    assert specht_dimension(Partition((6, 3))) == 48
    assert specht_dimension(Partition(())) == 1
    for n in range(1, 8):
        assert sum(specht_dimension(lam) ** 2 for lam in partitions_of(n)) \
            == _prod(range(1, n + 1))


def test_branching_dimension_bookkeeping():
    for n in range(2, 9):
        for lam in partitions_of(n):
            down = sum(specht_dimension(restrict_at(lam, u))
                       for u in range(1, len(removable_nodes(lam)) + 1))
            assert down == specht_dimension(lam)
            up = sum(specht_dimension(induce_at(lam, u))
                     for u in range(1, len(addable_nodes(lam)) + 1))
            assert up == (n + 1) * specht_dimension(lam)


def test_partitions_of_counts_and_order():
    assert len(partitions_of(6)) == 11
    assert len(partitions_of(9)) == 30
    assert partitions_of(0) == (Partition(()),)
    for n in range(1, 9):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts)
        assert all(lam.size == n for lam in parts)


def test_dominance_and_conjugate():
    assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
    assert conjugate(Partition((6, 1, 1, 1))) == Partition((4, 1, 1, 1, 1, 1))
    for lam in partitions_of(7):
        assert conjugate(conjugate(lam)) == lam
