"""Endomorphism algebras, Fitting splits and indecomposability certificates.

hom_space computes intertwiners in one spin, the spin-and-solve of the
MeatAxe (Parker 1984): the source module is generated from unit seed vectors
by the matrices of two generators of S_n, (1 2) and (1 2 ... n), and every
vertex reached carries its images under all candidate homs that are still
alive.  Spin-and-solve needs only a generating set of the group, so each
vertex costs two insertions and two image products, where the n - 1 Coxeter
generators would cost n - 1 of each.  A new seed
brings dim(target) candidates, a vertex reached by generator g takes its
parent's images times the target's g, and every linear dependence met on
the way keeps only the combinations of candidates whose images obey it
too.  Each dependence costs (candidates x target dim) elimination, never
(dim x dim) unknowns.

A block component M of a restricted or induced module is certified by
one argument, End(M) = F[E|_M] for the central transposition sum E, a
local algebra (certify_block).  The general certificate runs only where
that equality fails.

The general certificate, certify_indecomposable, decides any module on the
commutant E = End(M), held as the d x d basis matrices that
hom_space(M, M) returns: a module is indecomposable exactly when E is
local.  Each basis matrix b of E is sorted by the roots in F of its minimal
polynomial.  An element with a root lam whose minimal polynomial is not a
power of (x - lam) gives a Fitting witness b - lam that splits the module;
when every basis element is a scalar plus a nilpotent and the nilpotent
parts span a subalgebra, Wedderburn's theorem makes that span the radical
of codimension one, so E is local.  Anything else is reported undecided,
never guessed.  It serves the block components that End(M) = F[E|_M]
leaves open (at p = 2), decompose and is_isomorphic.  A split is the pair
of ``Subspace`` objects that the certificate verified, and decompose makes
each a submodule of the module it splits as it is, with no change of basis
and no second split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .central import BlockComponent, central_symmetric_action
from .exact import (
    Matrix,
    Polynomial,
    RowBasis,
    Subspace,
    _mul,
    fitting_split,
    kernel,
    minimal_polynomial,
    poly_divmod,
    poly_gcd,
    rref,
)
from .fields import FieldSpec
from .modules import GroupActionModule, _generators

# entries of the spin's image array, d1 x d2 x d2 at most: 2 GiB of int64
HOM_GUARDRAIL = 2 ** 28


def hom_space(m1: GroupActionModule, m2: GroupActionModule) -> list[Matrix]:
    """Basis of {X : G1[g] X = X G2[g] for every g in S_n}.

    A matrix commutes with the action of a group exactly when it commutes
    with the action of a generating set, so the spin and the final check
    use two generators, (1 2) and (1 2 ... n), n the acting degree, not the
    n - 1 Coxeter generators.  The source is spun from unit seed vectors,
    and the images of its spun vertices under every surviving candidate hom
    are carried along.  A new seed adds dim m2 candidates, sending it to
    each unit vector of m2 and every earlier vertex to zero; a dependency
    met while spinning keeps the combinations of candidates that respect it.
    The basis is echelon-canonical in flattened coordinates, so it does not
    depend on the generators chosen, and every element is re-verified to
    intertwine both generator pairs.  The image array holds up to
    d1 * d2 * d2 entries, so a pair past ``HOM_GUARDRAIL`` is refused with
    ValueError before the spin.
    """
    if m1.degree != m2.degree:
        raise ValueError(f"degrees differ: {m1.degree} != {m2.degree}")
    if m1.field != m2.field:
        raise ValueError(f"fields differ: {m1.field} != {m2.field}")
    field = m1.field
    d1, d2 = m1.dim, m2.dim
    if d1 == 0 or d2 == 0:
        return []
    if d1 * d2 * d2 > HOM_GUARDRAIL:
        raise ValueError(f"hom guardrail: a spin from dimension {d1} to {d2} holds "
                         f"{d1} * {d2}^2 entries, more than {HOM_GUARDRAIL}")
    perms = _generators(m1.degree)
    gens1 = [m1.perm_matrix(pi).a for pi in perms]
    gens2 = [m2.perm_matrix(pi).a for pi in perms]

    span = RowBasis(field, d1)
    vertices: list[np.ndarray] = []
    # images[v, r] is the image of vertex v under candidate r
    images = field.zeros((d1, 0, d2))
    for i in range(d1):
        if span.size == d1:
            break  # the spin has reached every vertex; no seed is new
        seed = field.zeros(d1)
        seed[i] = 1
        if span.insert(seed)[0] is None:
            continue
        fresh = field.zeros((d1, d2, d2))
        fresh[len(vertices)] = Matrix.identity(field, d2).a
        images = np.concatenate([images, fresh], axis=1)
        vertices.append(seed)
        expand = len(vertices) - 1
        while expand < len(vertices):
            for g1, g2 in zip(gens1, gens2):
                w = _mul(field, vertices[expand].reshape(1, -1), g1)[0]
                moved = _mul(field, images[expand], g2)
                idx, dep = span.insert(w)
                if idx is not None:
                    vertices.append(w)
                    images[idx] = moved
                    continue
                # w = sum dep_j v_j, so its image must be sum dep_j image(v_j)
                spun = len(dep)
                spanned = _mul(field, dep.reshape(1, -1),
                               images[:spun].reshape(spun, -1))
                violation = field.reduce_array(moved - spanned.reshape(moved.shape))
                if np.any(violation):
                    keep = kernel(Matrix(field, violation)).basis.a
                    # the product before the new array, so at most three
                    # image arrays are alive at once, not four
                    kept = _mul(field, keep, images[:spun])
                    images = field.zeros((d1, len(keep), d2))
                    images[:spun] = kept
            expand += 1

    k = images.shape[1]
    if k == 0:
        return []
    ident_coords, ok = span.coords_many(Matrix.identity(field, d1).a)
    if not np.all(ok):
        raise ArithmeticError("spin basis does not span the module")
    unit = _mul(field, ident_coords, images.reshape(d1, -1)).reshape(d1, k, d2)
    flat = unit.transpose(1, 0, 2).reshape(k, d1 * d2)

    out = []
    for row in rref(Matrix(field, flat)).basis.a:
        x = Matrix(field, row.reshape(d1, d2).copy())
        for g1, g2 in zip(gens1, gens2):
            if not np.array_equal(_mul(field, g1, x.a), _mul(field, x.a, g2)):
                raise ArithmeticError("solved hom fails to intertwine")
        out.append(x)
    return out


@dataclass
class DecompositionCertificate:
    """The outcome of an indecomposability check.

    deterministic means the verdict is proved: a zero module, a commutant
    equal to F[E|_M] or to the scalars, a Wedderburn locality proof, or a
    verified Fitting witness.
    An "undecided" verdict is not deterministic and claims nothing.
    trials counts the commutant basis elements examined; split is the
    verified (kernel, image) pair of a decomposable verdict's witness.
    """

    verdict: str
    branch: str
    split: tuple[Subspace, Subspace] | None = None
    trials: int = 0

    @property
    def deterministic(self) -> bool:
        return self.verdict != "undecided"


def _rational_roots(poly) -> list[Fraction]:
    """All rational roots of a polynomial over Q, by the rational root test."""
    coeffs = [Fraction(c) for c in poly.coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]  # factor out x; zero is handled separately
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    ints = [int(c * scale) for c in coeffs]
    roots = []
    if len(coeffs) < len(poly.coeffs):
        roots.append(Fraction(0))
    if not ints or len(ints) == 1:
        return roots

    def divisors(n):
        n = abs(n)
        out = set()
        f = 1
        while f * f <= n:
            if n % f == 0:
                out.add(f)
                out.add(n // f)
            f += 1
        return sorted(out)

    for num in divisors(ints[0]):
        for den in divisors(ints[-1]):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if poly.eval_scalar(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


def _pow_mod(f: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    """f^e mod a polynomial of positive degree, e >= 1, by repeated
    squaring."""
    out = None
    while True:
        if e & 1:
            out = f if out is None else poly_divmod(out * f, mod)[1]
        e >>= 1
        if not e:
            return poly_divmod(out, mod)[1]
        f = poly_divmod(f * f, mod)[1]


def _split_roots(g: Polynomial) -> list:
    """The roots of a monic g over GF(p) that is a product of distinct
    factors x - r, by equal-degree splitting (Cantor and Zassenhaus 1981):
    gcd(g, (x + a)^((p-1)/2) - 1) keeps the roots r with r + a a nonzero
    square.  For two roots r != s, (p - 1)/2 shifts a in 0..p-1 make
    exactly one of r + a, s + a a nonzero square, so a = 0, 1, ... splits
    g within p tries, in practice within a few."""
    field = g.field
    p = field.characteristic
    if g.degree < 2:
        return [field.neg(c) for c in g.coeffs[:g.degree]]
    if g.degree == p:
        return list(range(p))
    one = Polynomial.one(field)
    for a in range(p):
        h = poly_gcd(g, _pow_mod(Polynomial(field, [a, 1]), (p - 1) // 2, g) - one)
        if 0 < h.degree < g.degree:
            return _split_roots(h) + _split_roots(poly_divmod(g, h)[0])
    raise ArithmeticError(f"{g} does not split into distinct linear factors")


def _roots(poly: Polynomial) -> list:
    """The roots of a nonzero polynomial in its field, ascending, each once.

    Over GF(p) they are the roots of gcd(poly, x^p - x), the product of the
    factors x - r of poly, with x^p reduced mod poly by repeated squaring;
    the cost grows with log p, not with p."""
    field = poly.field
    p = field.characteristic
    if not p:
        return _rational_roots(poly)
    if poly.degree == 0:
        return []
    x = Polynomial(field, [0, 1])
    return sorted(_split_roots(poly_gcd(poly, _pow_mod(x, p, poly) - x)))


CENTRAL = "central-commutant"
LOCAL = "wedderburn-locality"
SPLIT = "fitting-witness"
ROOTLESS = "no-root-in-field"
NOT_CLOSED = "nilpotent-span-not-closed"


def locality_certificate(field: FieldSpec, basis: list[Matrix]):
    """Certify a matrix algebra E local, or find an element that splits it.

    basis is a basis b_1..b_d of E, a set of square matrices closed under
    products whose span holds the identity, as hom_space(M, M) returns it.
    Returns (branch, witness matrix or None, basis elements examined), where
    branch is

    - SPLIT: some b_i has a root lam in F of its minimal polynomial mu_i
      with mu_i != (x - lam)^k; the witness b_i - lam (lam the smallest such
      root) is singular and not nilpotent.
    - LOCAL: every mu_i = (x - lam_i)^k_i and the nilpotent parts
      n_i = b_i - lam_i span a subalgebra N; then E is local with
      E/J(E) = F (the proof is in certify_indecomposable).
    - ROOTLESS: no witness, and some mu_i has no root in F, so E/J(E) is
      not F: E is not local, or its residue algebra is larger than F.
    - NOT_CLOSED: no witness, and N is not closed under products, so E is
      not local (a local E whose basis elements all have one eigenvalue in
      F has E/J(E) = F and passes, see certify_indecomposable).

    Raises ArithmeticError when the identity is not in the span of the
    basis: every branch above reads E as F*1 + N.
    """
    d = len(basis)
    size = basis[0].nrows
    span = RowBasis(field, size * size)
    span.insert_rows(np.stack([b.a.reshape(-1) for b in basis]))
    if not span.contains(Matrix.identity(field, size).a.reshape(-1)):
        raise ArithmeticError("the algebra does not contain the identity")
    parts = []
    rootless = False
    for i, b in enumerate(basis):
        mu = minimal_polynomial(b)
        roots = _roots(mu)
        if not roots:
            rootless = True
            continue
        lam = roots[0]
        shifted = b.shift(-lam)
        if mu != Polynomial.from_roots(field, [lam] * mu.degree):
            return SPLIT, shifted, i + 1
        parts.append(shifted)
    if rootless:
        return ROOTLESS, None, d
    nilpotent = RowBasis(field, size * size)
    nilpotent.insert_rows(np.stack([u.a.reshape(-1) for u in parts]))
    for u in parts:
        for v in parts:
            if not nilpotent.contains((u @ v).a.reshape(-1)):
                return NOT_CLOSED, None, d
    return LOCAL, None, d


def certify_indecomposable(module: GroupActionModule) -> DecompositionCertificate:
    """Decide whether a module is zero, indecomposable, or decomposable.

    M is indecomposable exactly when E = End(M) is local.  A commutant of
    dimension one is the scalars, which are local.  Otherwise the argument
    runs on the echelon basis b_1..b_d of E from hom_space
    (locality_certificate):

    - A basis element b with a root lam of its minimal polynomial that is
      not a power of (x - lam) makes b - lam singular and not nilpotent, so
      the Fitting split of M under b - lam is a nontrivial direct sum.  The
      split is computed and checked before "decomposable" is returned.
    - If every b_i is lam_i + n_i with n_i nilpotent, then E = F*1 + N for
      N = span(n_i).  When N is closed under products it is an associative
      algebra spanned by nilpotent elements, so N is nilpotent by
      Wedderburn's theorem.  Then 1 is not in N and E = F*1 (+) N; N is an
      ideal, since E N = (F*1 + N) N lies in N; and a nilpotent ideal of
      codimension one is the radical J(E), with E/J(E) = F.  So E is local
      and M is indecomposable.
    - Otherwise the verdict is "undecided" (deterministic False): E/J(E)
      is not F, and no basis element exposes a witness.  That happens when
      E is local with a residue algebra larger than F (End/rad not split),
      or when E is not local but each basis element has at most one
      eigenvalue in F.  Nothing is guessed.

    Every local E with E/J(E) = F passes: lam_i is the image of b_i in F, so
    each n_i lies in J(E), and N = J(E) is closed.  So does every local E
    whose basis elements all have one eigenvalue in F, as the images of the
    b_i then span E/J(E) = F.
    """
    if module.dim == 0:
        return DecompositionCertificate("zero", "zero-module")
    basis = hom_space(module, module)
    if len(basis) == 1:
        return DecompositionCertificate("indecomposable", "scalar-commutant")
    branch, witness, examined = locality_certificate(module.field, basis)
    if branch == LOCAL:
        return DecompositionCertificate("indecomposable", branch, trials=examined)
    if branch != SPLIT:
        return DecompositionCertificate("undecided", branch, trials=examined)
    ker, image = fitting_split(witness)
    if ker.dim == 0 or image.dim == 0:
        raise ArithmeticError("witness produced a trivial split")
    return DecompositionCertificate(
        "decomposable", branch, split=(ker, image), trials=examined)


def certify_block(comp: BlockComponent) -> DecompositionCertificate:
    """Certify a block component by End(M) = F[E|_M], E the transposition
    sum of the acting degree, or else by certify_indecomposable.

    E|_M, the parent's E matrix from block_split restricted to M, must
    commute with the two generator matrices, so F[E|_M] lies in End(M),
    and N = E|_M - c, c the block's E value, must have N^m = 0, m the
    factor count; either failure raises ArithmeticError.  F[E|_M] = F[N]
    is F[x]/(x^k), local of dimension k, the nilpotency index of N.  It is
    End(M) when k = dim M, as the centralizer of one nilpotent Jordan
    block is F[N] (no spin; every component of dimension one), or when a
    spin gives dim End(M) = k: then M is indecomposable (branch CENTRAL).
    """
    module = comp.module
    e = central_symmetric_action(module)
    for pi in _generators(module.degree):
        g = module.perm_matrix(pi)
        if g @ e != e @ g:
            raise ArithmeticError(f"E does not commute with {pi} on {module.label}")
    nil = e.shift(module.field.neg(comp.value))
    k, power = 1, nil
    while not power.is_zero():
        if k == len(comp.factors):
            raise ArithmeticError(f"(E - c)^{k} is not zero on {module.label}")
        k, power = k + 1, power @ nil
    if k == module.dim or len(hom_space(module, module)) == k:
        return DecompositionCertificate("indecomposable", CENTRAL)
    return certify_indecomposable(module)


def decompose(module: GroupActionModule
              ) -> list[tuple[GroupActionModule, DecompositionCertificate]]:
    """Split a module into certified summands by recursive Fitting splits.

    Returns (summand, certificate) pairs of the modules certified: the
    input, or submodules of the parts of verified splits, independent and
    exhaustive by construction.  A summand whose certificate is undecided
    is returned as it is, with that certificate.
    """
    cert = certify_indecomposable(module)
    if cert.split is None:
        return [(module, cert)]
    out = [pair for part in cert.split for pair in decompose(module.submodule(part))]
    if sum(summand.dim for summand, _ in out) != module.dim:
        raise ArithmeticError("summand dimensions do not sum to the module")
    return out


def _has_invertible_hom(m1: GroupActionModule, m2: GroupActionModule) -> bool:
    """Whether some echelon basis element of Hom(m1, m2) is invertible."""
    return m1.dim == m2.dim and any(rref(x).dim == m1.dim
                                    for x in hom_space(m1, m2))


def _summands(module: GroupActionModule) -> list[GroupActionModule]:
    """The certified indecomposable summands of a module."""
    out = []
    for summand, cert in decompose(module):
        if cert.verdict != "indecomposable":
            raise ArithmeticError(
                f"isomorphism undecided: a summand of {module.label} is "
                f"{cert.verdict} ({cert.branch})")
        out.append(summand)
    return out


def is_isomorphic(m1: GroupActionModule, m2: GroupActionModule) -> bool:
    """Whether the modules are isomorphic; both answers are proofs.

    True when some basis element h_i of Hom(m1, m2) is invertible.  When
    none is and m1 is indecomposable, the answer is False: its commutant is
    local, and an isomorphism f = sum c_i h_i with inverse g = sum d_j g_j
    (g_j a basis of Hom(m2, m1)) would write 1 = sum c_i d_j h_i g_j; in a
    local ring a sum of non-units is a non-unit, so some h_i g_j would be
    invertible, making h_i injective between equal dimensions.  Otherwise
    both modules are decomposed into certified indecomposable summands and
    matched up to isomorphism, summand by summand (Krull-Schmidt).  Raises
    ArithmeticError only when some certificate is undecided.
    """
    if m1.dim != m2.dim:
        return False
    if m1.dim == 0:
        return True
    if _has_invertible_hom(m1, m2):
        return True
    parts1 = _summands(m1)
    if len(parts1) == 1:
        return False
    unmatched = _summands(m2)
    for part in parts1:
        match = next((other for other in unmatched
                      if _has_invertible_hom(part, other)), None)
        if match is None:
            return False
        unmatched.remove(match)
    return not unmatched
