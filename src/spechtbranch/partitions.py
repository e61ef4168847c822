"""Partitions of n, their nodes, contents and p-cores.

Conventions, used consistently everywhere downstream:

* parts are weakly decreasing positive integers; nodes ``(r, c)`` are 1-based
  with ``r`` the row and ``c`` the column;
* the removable nodes of a partition with ``m`` distinct part sizes are
  ``(r_1,c_1), ..., (r_m,c_m)`` with ``r_1 < ... < r_m`` and
  ``c_1 > ... > c_m``; setting ``r_0 = 0`` and ``c_{m+1} = 0``, the addable
  nodes are ``(r_u + 1, c_{u+1} + 1)`` for ``u = 0..m``;
* the content of node ``(r, c)`` is ``c - r``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial

Node = tuple[int, int]


class Partition(tuple):
    """A partition, stored as a tuple of weakly decreasing positive parts.
    A Partition given to the constructor comes back as it is."""

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts
        parts = tuple(int(x) for x in parts)
        for i, x in enumerate(parts):
            if x <= 0:
                raise ValueError(f"parts must be positive, got {parts}")
            if i and parts[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse a comma-separated part list such as ``"6,1,1,1"``."""
        text = text.strip()
        if not text:
            return cls()
        return cls(int(piece) for piece in text.split(","))

    def __str__(self) -> str:
        return ",".join(str(x) for x in self)

    def __repr__(self) -> str:
        return f"Partition(({', '.join(str(x) for x in self)}))"

    @property
    def size(self) -> int:
        return sum(self)


def removable_nodes(lam: Partition) -> list[Node]:
    """Nodes whose removal leaves a partition, ordered by row."""
    if not lam:
        raise ValueError("empty partition")
    out = []
    for r in range(1, len(lam) + 1):
        below = lam[r] if r < len(lam) else 0
        if lam[r - 1] > below:
            out.append((r, lam[r - 1]))
    return out


def addable_nodes(lam: Partition) -> list[Node]:
    """Nodes whose addition gives a partition, ordered by row."""
    if not lam:
        return [(1, 1)]
    rem = removable_nodes(lam)
    rows = [0] + [r for r, _ in rem]
    cols = [c for _, c in rem] + [0]
    return [(rows[u] + 1, cols[u] + 1) for u in range(len(rem) + 1)]


def restrict_at(lam: Partition, u: int) -> Partition:
    """Remove the u-th removable node (1-based)."""
    rem = removable_nodes(lam)
    if not 1 <= u <= len(rem):
        raise ValueError(f"u out of range: {u} not in 1..{len(rem)}")
    r, _ = rem[u - 1]
    parts = list(lam)
    parts[r - 1] -= 1
    if parts[r - 1] == 0:
        parts.pop(r - 1)
    return Partition(parts)


def induce_at(lam: Partition, u: int) -> Partition:
    """Add the u-th addable node (1-based); u = m+1 appends a new row."""
    add = addable_nodes(lam)
    if not 1 <= u <= len(add):
        raise ValueError(f"u out of range: {u} not in 1..{len(add)}")
    r, _ = add[u - 1]
    parts = list(lam)
    if r == len(parts) + 1:
        parts.append(1)
    else:
        parts[r - 1] += 1
    return Partition(parts)


def contents(lam: Partition) -> list[int]:
    """All node contents c - r, row by row."""
    return [c - r for r in range(1, len(lam) + 1) for c in range(1, lam[r - 1] + 1)]


def content_sum(lam: Partition) -> int:
    """Integer sum of all node contents (the transposition-sum scalar)."""
    return sum(contents(lam))


@lru_cache(maxsize=64)
def p_core(lam: Partition, p: int) -> Partition:
    """The p-core, via bead slides on first-column hook lengths."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    beads = max(len(lam), 1)
    beta = [lam[i] + (beads - 1 - i) if i < len(lam) else beads - 1 - i
            for i in range(beads)]
    # the beads on runway r (positions = r mod p) slide down to r, r + p, ...
    runways = Counter(b % p for b in beta)
    slid = sorted((r + p * i for r, count in runways.items() for i in range(count)),
                  reverse=True)
    parts = [b - (beads - 1 - i) for i, b in enumerate(slid)]
    return Partition(x for x in parts if x > 0)


def hook_lengths(lam: Partition) -> list[list[int]]:
    conj = conjugate(lam)
    return [[lam[r] - c - 1 + conj[c] - r for c in range(lam[r])]
            for r in range(len(lam))]


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return Partition()
    return Partition(sum(1 for x in lam if x > c) for c in range(lam[0]))


@lru_cache(maxsize=64)
def specht_dimension(lam: Partition) -> int:
    """Number of standard tableaux, by the hook length formula."""
    n = lam.size
    prod = 1
    for row in hook_lengths(lam):
        for h in row:
            prod *= h
    dim, rem = divmod(factorial(n), prod)
    if rem:
        raise ArithmeticError(f"hook product does not divide {n}! for {lam}")
    return dim


@lru_cache(maxsize=64)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(Partition(p) for p in gen(n, n))
