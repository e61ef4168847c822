"""Exact coefficient fields: the rationals and the prime fields GF(p).

Scalars are plain Python objects: ``int`` residues in ``0..p-1`` for GF(p);
``int`` or ``Fraction`` for the rationals, where ``scalar`` and ``inv``
return an ``int`` whenever the value is one.  No floating point anywhere.
``FieldSpec.dtype`` alone decides how residues are stored: int64 for
p < 2^16 (``INT64_PRIMES``), where a residue product is under 2^32 and a
sum of fewer than 2^31 of them fits int64, and Python ints in ``object``
arrays, as for Q, for every larger prime, where no sum can overflow;
``zeros``, ``array`` and ``reduce_array`` follow it.  A prime must have
(p - 1)^2 < 2^63, p <= 3,037,000,500, which keeps trial division short.
Over Q the linear algebra runs on integers: rows are held as integer
vectors, a rational row is first scaled by the lcm of its denominators,
and ``normalize_rows`` divides a row by its content, an exact division
(see ``exact``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

INT64_LIMIT = 2**63
# primes below this are held as int64 residues; see the module docstring
INT64_PRIMES = 2**16


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field, given by its characteristic (0 or a prime)."""

    characteristic: int

    def __post_init__(self):
        c = self.characteristic
        if not isinstance(c, int):
            raise TypeError(f"characteristic must be an int, got {c!r} "
                            f"({type(c).__name__})")
        if c > 0 and (c - 1) ** 2 >= INT64_LIMIT:
            raise ValueError(f"characteristic {c} is too large: (p - 1)^2 >= 2^63")
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or a prime, got {c}")

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        return cls(int(text.strip()))

    @property
    def is_modular(self) -> bool:
        return self.characteristic != 0

    def __str__(self) -> str:
        if self.characteristic == 0:
            return "Q"
        return f"GF({self.characteristic})"

    # -- scalar arithmetic ------------------------------------------------

    def scalar(self, x) -> "int | Fraction":
        """Reduce an integer or Fraction into the field.

        Floats are rejected with TypeError: a float is not an exact scalar,
        and reducing it would silently truncate it.
        """
        p = self.characteristic
        if isinstance(x, int):
            return x % p if p else x
        if isinstance(x, Fraction):
            if not p:
                return x.numerator if x.denominator == 1 else x
            if x.denominator % p == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            return x.numerator * pow(x.denominator, p - 2, p) % p
        if isinstance(x, (float, np.floating)):
            raise TypeError(f"not an exact scalar: {x!r}")
        return int(x) % p if p else x

    def inv(self, a):
        p = self.characteristic
        if p:
            a = int(a) % p
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, p - 2, p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        inv = 1 / Fraction(a)
        return inv.numerator if inv.denominator == 1 else inv

    def neg(self, a):
        if self.characteristic:
            return (-a) % self.characteristic
        return -a

    def render(self, a) -> str:
        """Scalar as text: a residue for GF(p), num/den for Q."""
        if self.characteristic:
            return str(int(a) % self.characteristic)
        return str(Fraction(a))

    # -- array support -----------------------------------------------------

    def normalize_rows(self, rows: np.ndarray, leads) -> np.ndarray:
        """Each row scaled to its canonical multiple; leads[i] is the pivot
        (first nonzero) entry of row i.

        GF(p): the multiple with pivot 1.  Q, for integral rows: the row
        divided by its content (the gcd of its entries), signed so that the
        pivot is positive; the division is exact, and the row stays integral.
        """
        p = self.characteristic
        if p:
            inv = [self.inv(x) for x in leads]
            if inv.count(1) == len(inv):
                return rows
            inv = inv[0] if len(inv) == 1 else np.array(inv, dtype=rows.dtype)[:, None]
            return rows * inv % p
        content = [math.gcd(*row) if lead > 0 else -math.gcd(*row)
                   for row, lead in zip(rows.tolist(), leads)]
        if all(x == 1 for x in content):
            return rows
        return rows // np.array(content, dtype=object)[:, None]

    @cached_property
    def dtype(self):
        """int64 for 0 < p < 2^16, object (Python ints) otherwise."""
        return np.int64 if 0 < self.characteristic < INT64_PRIMES else object

    def reduce_array(self, a: np.ndarray) -> np.ndarray:
        """a mod p, as an array of ``dtype``; over Q, a itself."""
        if self.characteristic:
            return (a % self.characteristic).astype(self.dtype, copy=False)
        return a

    def array(self, data) -> np.ndarray:
        """Nested rows of scalars as a field array, every entry through
        ``scalar``: a Fraction is reduced, not truncated, and a float is
        rejected."""
        raw = np.array(data, dtype=object)
        out = np.empty(raw.shape, dtype=self.dtype)
        out.flat = [self.scalar(x) for x in raw.flat]
        return out

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    spec = FieldSpec(p)
    if not spec.is_modular:
        raise ValueError("GF needs a prime; use QQ for characteristic 0")
    return spec
