"""Verification suites: scalar actions, minimal polynomials, coefficient
patterns, branching indecomposability, and the characteristic-2 exceptions.

Every verifier returns a VerificationReport whose checks carry exact
expected/computed strings.  Reports are deterministic given (inputs, seed);
only the timing field varies between reruns.

The characteristic-2 cases where the branching theorem's hypothesis fails
are recorded with inverted expectations, so a run distinguishes "theorem
violated where it should hold" from "hypothesis violated as predicted".
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dataclass_field

from .central import (
    INDUCE,
    RESTRICT,
    block_split,
    branching_factors,
    branching_module,
    predicted_min_poly,
)
from .endo import certify_indecomposable, decompose, is_isomorphic
from .exact import Matrix, minimal_polynomial
from .fields import GF, QQ, FieldSpec
from .modules import (
    AlgebraElement,
    build_induction,
    build_restriction,
    build_specht,
    murphy_element,
    transposition_sum,
)
from .partitions import (
    Partition,
    content_sum,
    p_core,
    partitions_of,
    removable_nodes,
)
from .perms import cycle
from .tabloids import (
    ModuleVector,
    _check_cost,
    canonical_tableau,
    extension,
    induced_polytabloid,
    polytabloid,
    region_H,
    region_V,
    standard_tableaux,
    tabloid,
)


@dataclass
class Check:
    name: str
    expected: str
    computed: str
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "expected": self.expected,
                "computed": self.computed, "pass": self.passed}


@dataclass
class VerificationReport:
    """The checks of one case; ``with report:`` times the block it runs
    and sets ``millis`` on exit."""

    case: str
    field: str
    direction: str | None
    checks: list = dataclass_field(default_factory=list)
    seed: int | None = None
    millis: int = 0

    def __enter__(self) -> "VerificationReport":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.millis = int((time.perf_counter() - self._start) * 1000)
        return False

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, expected, computed, passed: bool):
        self.checks.append(Check(name, str(expected), str(computed), passed))

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "field": self.field,
            "direction": self.direction,
            "checks": [c.to_dict() for c in self.checks],
            "seed": self.seed,
            "millis": self.millis,
        }

    def summary(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        lines = [f"[{mark}] {self.case} (field {self.field}"
                 + (f", {self.direction}" if self.direction else "") + ")"]
        for c in self.checks:
            cm = "ok" if c.passed else "FAIL"
            lines.append(f"  {cm:4} {c.name}: expected {c.expected}, got {c.computed}")
        return "\n".join(lines)


def _scalar_of(matrix: Matrix):
    """The scalar c if the matrix is c*identity, else None."""
    if matrix.nrows == 0:
        return 0
    c = matrix.field.scalar(matrix.a[0, 0])
    return c if matrix == Matrix.identity(matrix.field, matrix.nrows).scale(c) else None


def verify_en_scalar(lam, field: FieldSpec) -> VerificationReport:
    """The full transposition sum acts on S^lam as the content-sum scalar."""
    lam = Partition(lam)
    report = VerificationReport(f"en-scalar ({lam})", str(field), None)
    with report:
        module = build_specht(lam, field)
        a = module.element_matrix(transposition_sum(lam.size))
        expected = field.scalar(content_sum(lam))
        got = _scalar_of(a)
        report.add("acts-as-scalar", field.render(expected),
                   "non-scalar" if got is None else field.render(got),
                   got == expected)
    return report


def verify_min_poly(lam, field: FieldSpec, direction: str) -> VerificationReport:
    """Minimal polynomial of the transposition sum on the restriction or
    induction equals the product over branching factors, with the degree
    bound checked separately."""
    lam = Partition(lam)
    report = VerificationReport(f"min-poly ({lam})", str(field), direction)
    with report:
        module = branching_module(lam, field, direction)
        a = module.element_matrix(transposition_sum(module.degree))
        computed = minimal_polynomial(a)
        predicted = predicted_min_poly(lam, direction, field)
        degree = len(removable_nodes(lam)) + (1 if direction == INDUCE else 0)
        report.add("minimal-polynomial", predicted, computed, computed == predicted)
        report.add("degree-bound", f"<= {degree}", computed.degree,
                   computed.degree <= degree)
        report.add("degree", degree, computed.degree, computed.degree == degree)
    return report


def _apply_affine_poly(vec: ModuleVector, coeffs, shift, sign: int,
                       elt: AlgebraElement) -> ModuleVector:
    """vec * f(shift + sign*elt) for f with the given ascending coefficients,
    by Horner's rule: each step acc * shift + sign * (acc elt) + a vec on
    the raw rows, in the field's dtype, reduced once."""
    field = vec.field
    shift = field.scalar(shift)
    acc = ModuleVector.zero(vec.shape, field)
    for a in reversed(coeffs):
        raw = shift * acc.row + sign * elt.apply(acc).row + field.scalar(a) * vec.row
        acc = ModuleVector(vec.shape, field, field.reduce_array(raw))
    return acc


# seeded (tableau, polynomial) draws per poly-transfer report
POLY_TRANSFER_ROUNDS = 3


def verify_poly_transfer(lam, field: FieldSpec, seed: int = 0) -> VerificationReport:
    """On polytabloids, polynomials in the transposition sum transfer to
    polynomials in a single Murphy element:
    e_t f(E_{n-1}) = e_t f(E(lam) - L_n) and, on the extension,
    e_T f(E_{n+1}) = e_T f(E(lam) + L_{n+1})."""
    lam = Partition(lam)
    n = lam.size
    if n < 2:
        raise ValueError("needs degree at least 2")
    report = VerificationReport(f"poly-transfer ({lam})", str(field), None, seed=seed)
    with report:
        rng = random.Random(seed)
        m = len(removable_nodes(lam))
        e_lam = content_sum(lam)
        tableaux = standard_tableaux(lam)
        for r in range(POLY_TRANSFER_ROUNDS):
            tab = tableaux[rng.randrange(len(tableaux))]
            deg = rng.randrange(m + 2)
            if field.characteristic:
                coeffs = [rng.randrange(field.characteristic) for _ in range(deg + 1)]
            else:
                coeffs = [rng.randint(-5, 5) for _ in range(deg + 1)]

            et = polytabloid(tab, field)
            lhs = _apply_affine_poly(et, coeffs, 0, 1, transposition_sum(n - 1))
            rhs = _apply_affine_poly(et, coeffs, e_lam, -1, murphy_element(n))
            report.add(f"restrict-transfer[{r}]", "equal",
                       "equal" if lhs == rhs else "different", lhs == rhs)

            big = extension(tab)
            e_big = induced_polytabloid(big, lam, field)
            lhs = _apply_affine_poly(e_big, coeffs, 0, 1, transposition_sum(n + 1))
            rhs = _apply_affine_poly(e_big, coeffs, e_lam, 1, murphy_element(n + 1))
            report.add(f"induce-transfer[{r}]", "equal",
                       "equal" if lhs == rhs else "different", lhs == rhs)
    return report


def _lemma_choices(lam: Partition):
    """The canonical tableau plus the smallest x_u in V_u minus H_{u-1}."""
    t = canonical_tableau(lam)
    m = len(removable_nodes(lam))
    xs = []
    for u in range(1, m + 1):
        pool = region_V(t, u) - region_H(t, u - 1)
        if not pool:
            raise ArithmeticError(f"empty choice set at u = {u} for {lam}")
        xs.append(min(pool))
    return t, xs


def _coefficient_pattern(report: VerificationReport, name: str,
                         vec: ModuleVector, target, elt: AlgebraElement,
                         top: int):
    """Record the coefficient of the tabloid target in vec elt^i for
    i = 0..top, expected 0 below top and 1 at top."""
    field = vec.field
    for i in range(top + 1):
        expected = field.scalar(1 if i == top else 0)
        got = vec.coefficient(target)
        report.add(f"{name}[i={i}]", field.render(expected),
                   field.render(got), got == expected)
        if i < top:
            vec = elt.apply(vec)


def verify_coefficient_restriction(lam, field: FieldSpec) -> VerificationReport:
    """In e_t L_n^i, the tabloid moved down the removable-node regions by an
    m-cycle appears with coefficient 0 for i < m-1 and 1 at i = m-1."""
    lam = Partition(lam)
    n = lam.size
    report = VerificationReport(f"coeff-restriction ({lam})", str(field), None)
    with report:
        tab, xs = _lemma_choices(lam)
        target = tabloid(tab.act(cycle(n, [n] + xs[:-1][::-1])))
        _coefficient_pattern(report, "coefficient", polytabloid(tab, field),
                             target, murphy_element(n), len(xs) - 1)
    return report


def verify_coefficient_induction(lam, field: FieldSpec) -> VerificationReport:
    """Same pattern one level up: in e_T L_{n+1}^i with T the extension, the
    (m+1)-cycled tabloid has multiplicity 0 for i < m and 1 at i = m."""
    lam = Partition(lam)
    n = lam.size
    report = VerificationReport(f"coeff-induction ({lam})", str(field), None)
    with report:
        tab, xs = _lemma_choices(lam)
        big = extension(tab)
        target = tabloid(big.act(cycle(n + 1, [n + 1] + xs[::-1])))
        _coefficient_pattern(report, "multiplicity",
                             induced_polytabloid(big, lam, field), target,
                             murphy_element(n + 1), len(xs))
    return report


# branching cases where decomposability is the predicted outcome: the
# characteristic-2 exceptions traced through the examples
_EXPECTED_DECOMPOSABLE = {
    (Partition((6, 1, 1, 1)), 2, RESTRICT): {Partition(())},
    (Partition((6, 1, 1)), 2, INDUCE): {Partition((2, 1))},
}


def verify_branching(lam, p: int, direction: str,
                     seed: int | None = None) -> VerificationReport:
    """Block components of the restriction or induction are 0 or
    indecomposable (for odd p), with the component count equal to the
    number of distinct p-cores among the branching factors.

    Each component M at p > 0 is certified by certify_indecomposable: by
    End(M) = F[E|_M] at odd p, and where that fails (at p = 2) by the
    locality certificate on the same spun basis.
    For p = 2 the two known exception components are expected decomposable;
    other characteristic-2 components are recorded without an expectation.
    For p = 0 the classical splitting is checked by dimensions alone.
    The certificates are deterministic; seed is only recorded in the report.
    """
    lam = Partition(lam)
    field = GF(p) if p else QQ
    report = VerificationReport(f"branching ({lam})", str(field), direction, seed=seed)
    with report:
        module = branching_module(lam, field, direction)
        factors = branching_factors(lam, direction)
        components = block_split(module, factors)

        distinct_cores = len({p_core(mu, p) for mu in factors}) if p else len(factors)
        report.add("component-count", distinct_cores, len(components),
                   len(components) == distinct_cores)
        report.add("dimension-sum", module.dim,
                   sum(c.dim for c in components),
                   sum(c.dim for c in components) == module.dim)

        inverted = _EXPECTED_DECOMPOSABLE.get((lam, p, direction), set())
        for comp in components:
            tag = f"core ({comp.core})"
            report.add(f"dim[{tag}]", comp.expected_dim, comp.dim,
                       comp.dim == comp.expected_dim)
            if p == 0:
                continue
            cert = certify_indecomposable(comp.module)
            if comp.core in inverted:
                report.add(f"verdict[{tag}]", "decomposable (known exception)",
                           cert.verdict, cert.verdict == "decomposable")
            elif p == 2:
                report.add(f"verdict[{tag}]", "unconstrained at p=2",
                           cert.verdict, True)
            else:
                report.add(f"verdict[{tag}]", "indecomposable", cert.verdict,
                           cert.verdict == "indecomposable")
                report.add(f"deterministic[{tag}]", True, cert.deterministic,
                           cert.deterministic)
    return report


def run_char2_counterexamples() -> VerificationReport:
    """The three characteristic-2 failures of the branching theorem's
    hypothesis: the decomposable Specht module S^(6,1,1,1), its decomposable
    restriction sitting in a single block, and the decomposable block
    component of the induction of S^(6,1,1).  The certificates are
    deterministic."""
    two = GF(2)
    report = VerificationReport("char-2 counterexamples", "GF(2)", None)
    with report:
        lam = Partition((6, 1, 1, 1))

        s_mod = build_specht(lam, two)
        parts = decompose(s_mod)
        dims = sorted(summand.dim for summand, _ in parts)
        report.add("specht-summand-dims", [8, 48], dims, dims == [8, 48])
        by_dim = {summand.dim: summand for summand, _ in parts}
        if dims == [8, 48]:
            hook = build_specht(Partition((8, 1)), two)
            same = is_isomorphic(by_dim[8], hook)
            report.add("summand-8-is-S^(8,1)", "isomorphic",
                       "isomorphic" if same else "not isomorphic", same)
            twor = build_specht(Partition((6, 3)), two)
            same = is_isomorphic(by_dim[48], twor)
            report.add("summand-48-is-S^(6,3)", "isomorphic",
                       "isomorphic" if same else "not isomorphic", same)

        restriction = build_restriction(lam, two)
        comps = block_split(restriction, branching_factors(lam, RESTRICT))
        report.add("restriction-block-count", 1, len(comps), len(comps) == 1)
        report.add("restriction-core", "()", f"({comps[0].core})",
                   comps[0].core == Partition(()))
        cert = certify_indecomposable(comps[0].module)
        report.add("restriction-verdict", "decomposable", cert.verdict,
                   cert.verdict == "decomposable")

        mu = Partition((6, 1, 1))
        induced = build_induction(mu, two)
        factors = branching_factors(mu, INDUCE)
        cores = sorted(str(p_core(nu, 2)) for nu in factors)
        report.add("induction-factor-cores", ["1", "1", "2,1"], cores,
                   cores == ["1", "1", "2,1"])
        comps = block_split(induced, factors)
        target = [c for c in comps if c.core == Partition((2, 1))]
        report.add("induction-(2,1)-component", "present",
                   "present" if len(target) == 1 else "absent", len(target) == 1)
        if target:
            comp = target[0]
            report.add("induction-(2,1)-dim", 56, comp.dim, comp.dim == 56)
            same = is_isomorphic(comp.module, s_mod)
            report.add("induction-(2,1)-is-S^(6,1,1,1)", "isomorphic",
                       "isomorphic" if same else "not isomorphic", same)
            cert = certify_indecomposable(comp.module)
            report.add("induction-(2,1)-verdict", "decomposable", cert.verdict,
                       cert.verdict == "decomposable")
    return report


def sweep(n_max: int, primes, directions=(RESTRICT, INDUCE), seed: int = 0,
          only=None) -> dict:
    """Run every verifier over all lam of size 2..n_max and every field.

    Results are ordered by (n, lam lexicographic, field characteristic,
    direction).  `only` restricts to the given partitions, each of size
    2..n_max.  Every module and table the sweep will build passes
    ``_check_cost`` before the first report, and a sweep of no case is
    refused, both with ValueError.  Returns a dict with per-case reports
    and an exit code (nonzero iff anything failed).
    """
    directions = sorted(set(directions))
    for d in directions:
        if d not in (RESTRICT, INDUCE):
            raise ValueError(f"unknown direction {d!r}")
    fields = sorted(set(int(p) for p in primes))
    if only:
        lams = sorted({Partition(mu) for mu in only}, key=lambda lam: (lam.size, lam))
        bad = [f"({lam})" for lam in lams if not 2 <= lam.size <= n_max]
        if bad:
            raise ValueError(f"{', '.join(bad)} not of a size in 2..{n_max}")
    else:
        lams = (lam for n in range(2, n_max + 1) for lam in sorted(partitions_of(n)))
    cases = []
    try:  # case by case, so a refused n stops the enumeration of larger ones
        for lam in lams:
            _check_cost(lam, lam)
            _check_cost(Partition(lam + (1,)), lam if INDUCE in directions else None)
            cases.append(lam)
    except ValueError as exc:
        raise ValueError(f"sweep guardrail: {exc}") from None
    if not (cases and fields):
        raise ValueError(f"empty sweep: no partition of 2..{n_max} or no field")

    reports = []
    for lam in cases:
        for p in fields:
            f = GF(p) if p else QQ
            reports.append(verify_en_scalar(lam, f))
            reports.append(verify_poly_transfer(lam, f, seed=seed))
            reports.append(verify_coefficient_restriction(lam, f))
            reports.append(verify_coefficient_induction(lam, f))
            for direction in directions:
                reports.append(verify_min_poly(lam, f, direction))
                reports.append(verify_branching(lam, p, direction, seed=seed))

    failed = [r for r in reports if not r.passed]
    return {
        "n_max": n_max,
        "fields": fields,
        "directions": list(directions),
        "seed": seed,
        "cases": len(reports),
        "failures": len(failed),
        "exit_code": 1 if failed else 0,
        "reports": reports,
    }
