"""Block components of restricted and induced modules.

Restriction of S^lam one degree down is filtered by the Specht modules at
the removable nodes; induction one degree up by those at the addable nodes.
Each factor S^mu lies in one block of the acting group algebra, named by
the p-core of mu over GF(p) (Nakayama) and by mu itself over Q, where each
Specht module is its own block; ``BlockComponent.core`` holds that name.
The transposition sum E of the acting degree is central and acts on S^mu
by content_sum(mu).  Every factor differs from lam by one node, so two
factors share a block exactly when their E values agree in the field, and
a block's component is one generalized eigenspace of E, held as a
submodule of the whole module: a ``Subspace`` of its coordinates, built
once by ``block_split``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import Matrix, Polynomial, kernel
from .fields import FieldSpec
from .modules import (
    GroupActionModule,
    build_induction,
    build_restriction,
    transposition_sum,
)
from .partitions import (
    Partition,
    addable_nodes,
    content_sum,
    induce_at,
    p_core,
    removable_nodes,
    restrict_at,
    specht_dimension,
)

RESTRICT = "restrict"
INDUCE = "induce"


def branching_factors(lam: Partition, direction: str) -> tuple[Partition, ...]:
    """The Specht factors of the restriction or induction of S^lam, in the
    filtration order (removable/addable node index ascending)."""
    lam = Partition(lam)
    if direction == RESTRICT:
        return tuple(restrict_at(lam, u)
                     for u in range(1, len(removable_nodes(lam)) + 1))
    if direction == INDUCE:
        return tuple(induce_at(lam, u)
                     for u in range(1, len(addable_nodes(lam)) + 1))
    raise ValueError(f"direction must be {RESTRICT!r} or {INDUCE!r}")


def branching_module(lam, field: FieldSpec, direction: str) -> GroupActionModule:
    """S^lam restricted one degree down or induced one degree up."""
    if direction == RESTRICT:
        return build_restriction(lam, field)
    if direction == INDUCE:
        return build_induction(lam, field)
    raise ValueError(f"direction must be {RESTRICT!r} or {INDUCE!r}")


def predicted_min_poly(lam: Partition, direction: str, field: FieldSpec) -> Polynomial:
    """Product of (x - E(factor)) over the branching factors, with
    multiplicity; degree m for restriction, m+1 for induction."""
    roots = [field.scalar(content_sum(mu))
             for mu in branching_factors(lam, direction)]
    return Polynomial.from_roots(field, roots)


@dataclass
class BlockComponent:
    """One block's slice of a restricted or induced module, as a submodule
    of it.  The block is named by core: the shared p-core of its factors
    over GF(p), the one factor itself over Q."""

    core: Partition
    factors: tuple
    module: GroupActionModule

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def expected_dim(self) -> int:
        return sum(specht_dimension(mu) for mu in self.factors)

    @property
    def value(self):
        """The scalar by which E acts on each factor, in the field."""
        return self.module.field.scalar(content_sum(self.factors[0]))

    def __repr__(self) -> str:
        return f"<block core ({self.core}): dim {self.dim}>"


def central_symmetric_action(module: GroupActionModule) -> Matrix:
    """Matrix of the transposition sum E of the acting degree on the module.

    E is central and acts on S^mu by content_sum(mu).
    """
    return module.element_matrix(transposition_sum(module.degree))


def block_split(module: GroupActionModule, candidate_factors) -> list[BlockComponent]:
    """Split a restricted or induced module into its block components.

    candidate_factors are the Specht factors of a filtration of the module.
    They are grouped by core, p_core(mu, p) over GF(p) and mu itself over
    Q, and the component of a core is ker (E - c)^m on the whole module,
    with E the transposition sum, c the core's E value content_sum(mu) in
    the field and m its factor count.
    Why that is the block component:

    * the filtration gives prod_i (E - c_i) = 0 over the factors, so the
      module is the direct sum of the generalized eigenspaces of E, and the
      one at c is ker (E - c)^m when c occurs m times among the c_i;
    * E is central, so each of them is a submodule, and it holds exactly the
      factors with E value c;
    * factors with one core have one content multiset mod p, hence one E
      value; branching factors with different cores differ from lam by
      nodes of different residues, hence have different E values.  A
      caller-supplied list can break this, and two cores with one E value
      raise ArithmeticError.

    Each component's dimension must be the sum of its factors' dimensions,
    and the components' dimensions must add up to the module's.  Kernels at
    distinct E values are independent, so these checks certify the direct
    sum whatever factors were supplied.  Over Q a branching factor is its
    own core, so m = 1 and no power is taken.  Components come back in the
    order the blocks first appear along the filtration.
    """
    field = module.field
    p = field.characteristic
    factors = tuple(Partition(mu) for mu in candidate_factors)
    if not factors:
        raise ValueError("no candidate factors")
    if any(mu.size != module.degree for mu in factors):
        raise ValueError("factor sizes must equal the acting degree")

    by_core: dict = {}
    for mu in factors:
        by_core.setdefault(p_core(mu, p) if p else mu, []).append(mu)
    values = {core: field.scalar(content_sum(mus[0]))
              for core, mus in by_core.items()}
    if len(set(values.values())) != len(values):
        raise ArithmeticError(
            "factors in different blocks share a transposition-sum value")

    e = central_symmetric_action(module)
    out = []
    for core, mus in by_core.items():
        name = f"{p}-core ({core})" if p else f"factor ({core})"
        shifted = e.shift(field.neg(values[core]))
        space = kernel(shifted if len(mus) == 1 else shifted.pow(len(mus)))
        comp = BlockComponent(core, tuple(mus), module.submodule(
            space, label=f"{name} component of {module.label}"))
        if comp.dim != comp.expected_dim:
            raise ArithmeticError(f"component {name} has dimension {comp.dim}, "
                                  f"expected {comp.expected_dim}")
        out.append(comp)

    if sum(c.dim for c in out) != module.dim:
        raise ArithmeticError("block dimensions do not sum to the module dimension")
    return out

