"""Predicted spectra, block cores and block splitting."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import split_branching
from spechtbranch.central import (
    INDUCE,
    RESTRICT,
    block_split,
    branching_factors,
    branching_module,
    central_symmetric_action,
    predicted_min_poly,
)
from spechtbranch.exact import Matrix, Polynomial, kernel, minimal_polynomial, rref
from spechtbranch.fields import GF, QQ
from spechtbranch.modules import (
    build_induction,
    build_restriction,
    build_specht,
    transposition_sum,
)
from spechtbranch.partitions import (
    Partition,
    content_sum,
    p_core,
    partitions_of,
    specht_dimension,
)


def test_branching_factors():
    lam = Partition((3, 2))
    assert branching_factors(lam, RESTRICT) == (Partition((2, 2)),
                                                Partition((3, 1)))
    assert branching_factors(lam, INDUCE) == (Partition((4, 2)),
                                              Partition((3, 3)),
                                              Partition((3, 2, 1)))
    with pytest.raises(ValueError):
        branching_factors(lam, "sideways")


def test_predicted_min_poly_examples():
    lam = Partition((2, 1))
    assert predicted_min_poly(lam, RESTRICT, QQ) == Polynomial(QQ, [-1, 0, 1])
    assert predicted_min_poly(lam, INDUCE, QQ) == Polynomial(QQ, [0, -4, 0, 1])
    assert predicted_min_poly(lam, INDUCE, GF(2)) == Polynomial(GF(2), [0, 0, 0, 1])
    lam = Partition((3, 2))
    assert predicted_min_poly(lam, RESTRICT, QQ) == Polynomial(QQ, [0, -2, 1])


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_block_split_names_each_block_by_its_core(field):
    """For every lam of 5 and 6, both directions: over GF(p) the component
    cores are the distinct p-cores of the branching factors, in the order
    they first appear, and each component holds the factors of its core;
    over Q each factor is its own block, named by itself."""
    p = field.characteristic
    for lam in partitions_of(5) + partitions_of(6):
        for direction in (RESTRICT, INDUCE):
            factors = branching_factors(lam, direction)
            cores = [p_core(mu, p) for mu in factors] if p else list(factors)
            comps = block_split(branching_module(lam, field, direction), factors)
            assert [c.core for c in comps] == list(dict.fromkeys(cores)), \
                (lam, direction)
            for comp in comps:
                assert comp.factors == tuple(
                    mu for mu, core in zip(factors, cores) if core == comp.core)


def test_central_symmetric_action_first_level():
    module = build_restriction(Partition((3, 2)), GF(3))
    e = central_symmetric_action(module)
    assert e == module.element_matrix(transposition_sum(module.degree))


def test_central_symmetric_action_commutes_with_generators():
    for lam, field in ((Partition((3, 1)), GF(2)), (Partition((2, 2)), QQ)):
        module = build_restriction(lam, field)
        e = central_symmetric_action(module)
        for g in module.gens():
            assert e @ g == g @ e


def test_central_action_scalar_on_specht():
    """On S^mu the transposition sum acts by the content sum of mu."""
    for mu in (Partition((3, 1)), Partition((2, 2, 1))):
        for field in (QQ, GF(3)):
            module = build_specht(mu, field)
            want = Matrix.identity(field, module.dim).scale(content_sum(mu))
            assert central_symmetric_action(module) == want, (mu, field)


def test_block_split_classical_restriction():
    module = build_restriction(Partition((2, 1)), GF(3))
    comps = block_split(module, branching_factors(Partition((2, 1)), RESTRICT))
    assert len(comps) == 2
    assert sorted(c.dim for c in comps) == [1, 1]
    cores = {c.core for c in comps}
    assert cores == {Partition((2,)), Partition((1, 1))}
    assert sum(c.dim for c in comps) == module.dim


def test_block_split_merges_same_core():
    """At p = 2 both restriction factors of (2,1) share the empty core."""
    module = build_restriction(Partition((2, 1)), GF(2))
    comps = block_split(module, branching_factors(Partition((2, 1)), RESTRICT))
    assert len(comps) == 1
    assert comps[0].dim == 2
    assert comps[0].core == Partition(())
    assert comps[0].factors == branching_factors(Partition((2, 1)), RESTRICT)


def test_block_split_induction_char_zero():
    lam = Partition((2, 1))
    module = build_induction(lam, QQ)
    comps = block_split(module, branching_factors(lam, INDUCE))
    assert len(comps) == 3
    dims = {tuple(c.factors[0]): c.dim for c in comps}
    assert dims == {(3, 1): 3, (2, 2): 2, (2, 1, 1): 3}
    for c in comps:
        assert c.dim == specht_dimension(c.factors[0])


def test_block_split_validates_inputs():
    module = build_restriction(Partition((2, 1)), GF(3))
    with pytest.raises(ValueError, match="no candidate factors"):
        block_split(module, ())
    with pytest.raises(ValueError, match="factor sizes"):
        block_split(module, (Partition((3,)),))


def test_split_branching_convenience():
    comps = split_branching(build_restriction(Partition((3, 2)), GF(5)),
                            Partition((3, 2)), RESTRICT)
    assert sum(c.dim for c in comps) == specht_dimension(Partition((3, 2)))
    sub = comps[0].module
    e4 = sub.element_matrix(transposition_sum(4))
    f = minimal_polynomial(e4)
    assert f.degree == 1  # single factor per block at p = 5 here


def test_component_modules_carry_action():
    lam = Partition((3, 1))
    module = build_restriction(lam, GF(3))
    comps = block_split(module, branching_factors(lam, RESTRICT))
    for comp in comps:
        sub = comp.module
        ident = Matrix.identity(GF(3), sub.dim)
        for g in sub.gens():
            assert g @ g == ident


def _eigenspace_oracle(module, lam, direction):
    """Each block's generalized eigenspace as ker (E - c)^dim on the whole
    module, keyed by the block's p-core (by the factor itself over Q)."""
    field = module.field
    p = field.characteristic
    e = module.element_matrix(transposition_sum(module.degree))
    values = {}
    for mu in branching_factors(lam, direction):
        values.setdefault(p_core(mu, p) if p else mu, content_sum(mu))
    return {core: kernel(e.shift(-c).pow(module.dim))
            for core, c in values.items()}


@pytest.mark.parametrize("field,n_max", [(QQ, 5), (GF(2), 6), (GF(3), 6),
                                         (GF(5), 6)], ids=str)
def test_block_split_matches_generalized_eigenspace_oracle(field, n_max):
    builders = {RESTRICT: build_restriction, INDUCE: build_induction}
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            for direction, build in builders.items():
                if direction == RESTRICT and n == 1:
                    continue
                module = build(lam, field)
                got = {c.core: c.module.space
                       for c in split_branching(module, lam, direction)}
                assert got == _eigenspace_oracle(module, lam, direction), \
                    (lam, field, direction)


def test_block_split_rejects_blocks_sharing_an_e_value():
    """(4,1,1) and (3,3) both have content sum 3, and 5-cores of their own."""
    for field in (QQ, GF(5)):
        module = build_specht(Partition((3, 3)), field)
        with pytest.raises(ArithmeticError, match="share"):
            block_split(module, [Partition((4, 1, 1)), Partition((3, 3))])


@st.composite
def _branching_and_order(draw):
    """A restriction or induction of a drawn lam |- 2..5 over a drawn field,
    with its branching factors in a drawn order."""
    field = draw(st.sampled_from([GF(2), GF(3), GF(5), QQ]))
    direction = draw(st.sampled_from([RESTRICT, INDUCE]))
    lam = draw(st.sampled_from(partitions_of(draw(st.integers(2, 5)))))
    build = build_restriction if direction == RESTRICT else build_induction
    factors = branching_factors(lam, direction)
    return build(lam, field), factors, tuple(draw(st.permutations(factors)))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@seed(0)
@given(_branching_and_order())
def test_block_split_property(drawn):
    """Each component has its expected dimension and is killed by
    (E - c)^m, c its E value and m its factor count; the components span
    the module; and any order of the factors gives the same components, in
    the order their blocks first appear in it."""
    module, factors, shuffled = drawn
    field = module.field
    comps = block_split(module, shuffled)
    e = transposition_sum(module.degree)
    for comp in comps:
        assert comp.dim == comp.expected_dim
        c = field.scalar(content_sum(comp.factors[0]))
        on_comp = comp.module.element_matrix(e).shift(field.neg(c))
        assert on_comp.pow(len(comp.factors)).is_zero()
    stacked = Matrix(field, np.vstack([comp.module.space.basis.a for comp in comps]))
    assert rref(stacked).dim == module.dim
    p = field.characteristic
    first_seen = list(dict.fromkeys(p_core(mu, p) if p else mu for mu in shuffled))
    assert [comp.core for comp in comps] == first_seen
    in_order = {comp.core: comp.module.space for comp in block_split(module, factors)}
    assert {comp.core: comp.module.space for comp in comps} == in_order
