"""Reference implementations of the tabloid layer, kept for the tests.

They walk the column stabilizer one permutation at a time and find each
tabloid through a dict of sorted-row keys: slow, and independent of the
row-word codes that ``spechtbranch.tabloids`` uses.
"""

import itertools
from functools import lru_cache

from spechtbranch.tabloids import ModuleVector, enumerate_tabloids


@lru_cache(maxsize=64)
def tabloid_index(shape) -> dict:
    """Tabloid key -> its index in ``enumerate_tabloids(shape)``."""
    return {key: i for i, key in enumerate(enumerate_tabloids(shape))}


def column_signed_maps(t):
    """All (symbol map, sign) pairs from the column stabilizer of t."""
    per_column = []
    for col in t.columns():
        if len(col) == 1:
            per_column.append([((col[0],), 1)])
            continue
        options = []
        for assigned in itertools.permutations(col):
            pos = {x: i for i, x in enumerate(col)}
            order = [pos[x] for x in assigned]
            sign = 1
            for i in range(len(order)):
                for j in range(i + 1, len(order)):
                    if order[i] > order[j]:
                        sign = -sign
            options.append((assigned, sign))
        per_column.append(options)
    cols = t.columns()
    for combo in itertools.product(*per_column):
        mapping = {}
        sign = 1
        for col, (assigned, s) in zip(cols, combo):
            sign *= s
            for src, dst in zip(col, assigned):
                mapping[src] = dst
        yield mapping, sign


def signed_column_sum(t, rows, field) -> ModuleVector:
    """Sum of sign(sigma) {rows sigma} over the column stabilizer of t, one
    sigma and one dict lookup at a time."""
    shape = rows.shape
    index = tabloid_index(shape)
    row = field.zeros(len(index))
    for mapping, sign in column_signed_maps(t):
        key = tuple(tuple(sorted(mapping.get(x, x) for x in r)) for r in rows)
        row[index[key]] += sign
    return ModuleVector(shape, field, field.reduce_array(row))
