"""Permutations as 1-based one-line tuples, acting on the right.

``p[i-1]`` is the image of ``i``.  Products compose left to right:
``compose(p, q)`` applies p first, matching the row-vector convention used
by the module code (vectors times matrices, matrices multiplied in
application order).
"""

from __future__ import annotations

Perm = tuple[int, ...]


def transposition(k: int, i: int, j: int) -> Perm:
    if not (1 <= i <= k and 1 <= j <= k and i != j):
        raise ValueError(f"bad transposition ({i},{j}) in degree {k}")
    img = list(range(1, k + 1))
    img[i - 1], img[j - 1] = j, i
    return tuple(img)


def adjacent(k: int, i: int) -> Perm:
    """The Coxeter generator s_i = (i, i+1) in degree k."""
    return transposition(k, i, i + 1)


def cycle(k: int, symbols) -> Perm:
    """The cycle s_1 -> s_2 -> ... -> s_r -> s_1 in degree k."""
    img = list(range(1, k + 1))
    symbols = list(symbols)
    for a, b in zip(symbols, symbols[1:] + symbols[:1]):
        img[a - 1] = b
    return tuple(img)


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    if len(p) != len(q):
        raise ValueError("degrees differ")
    return tuple(q[x - 1] for x in p)


def embed(p: Perm, k: int) -> Perm:
    """View p inside the symmetric group of (larger) degree k."""
    if len(p) > k:
        raise ValueError(f"cannot embed degree {len(p)} into degree {k}")
    return p + tuple(range(len(p) + 1, k + 1))
