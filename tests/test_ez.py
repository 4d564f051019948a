import random
from math import comb

from effhom.abgroup import AbGroup, Z, ZERO_GROUP
from effhom.chains import (Chain, TensorCCx, complex_homology, homology_groups,
                           normalized_chains, tensor_of_chains)
from effhom.ez import (ez_reduction, product_equivalence,
                       tensor_of_equivalences, tensor_of_reductions)
from effhom.reduction import (identity_reduction, random_chain,
                              reduction_as_equivalence, trivial_equipment,
                              trivial_equivalence)
from effhom.simplicial import ProductSSet, nondeg, sphere, standard_simplex
from helpers import assert_chain_map, assert_reduction_axioms, rp2


def ez_of(X, Y):
    """The Eilenberg-Zilber reduction of X x Y, on fresh chain complexes."""
    P = ProductSSet(X, Y)
    return ez_reduction(P, normalized_chains(P), TensorCCx(
        [normalized_chains(X), normalized_chains(Y)]))


def test_aw_low_degrees():
    X = standard_simplex(1)
    red = ez_of(X, X)
    P = ProductSSet(X, X)
    # degree 0: (v, w) -> v (x) w
    v, w = nondeg((0,), 0), nondeg((1,), 0)
    cell = nondeg(P.pair(v, w).base, 0)
    out = red.f.on_cell(cell)
    assert len(out.terms) == 1
    # degree 1 on a nondegenerate diagonal cell: two terms
    e = nondeg((0, 1), 1)
    diag = nondeg(P.pair(e, e).base, 1)
    out = red.f.on_cell(diag)
    assert len(out.terms) == 2


def test_eml_shuffle_count_and_signs():
    X = sphere(1)
    C = normalized_chains(X)
    red = ez_of(X, X)
    from effhom.chains import TensorCell
    e = nondeg((0, 1), 1)
    cell = TensorCell((e, e), (1, 1))
    out = red.g.on_cell(cell)
    assert len(out.terms) == comb(2, 1)
    assert sorted(out.terms.values()) == [-1, 1]
    # term count = C(p+q, p) in higher degree too
    X2 = sphere(2)
    red2 = ez_of(X2, X2)
    t = nondeg((0, 1, 2), 2)
    cell2 = TensorCell((t, t), (2, 2))
    assert len(red2.g.on_cell(cell2).terms) == comb(4, 2)


def test_aw_eml_identity_on_basis():
    red = ez_of(sphere(1), sphere(1))
    for k in range(4):
        for c in red.target.basis(k):
            assert red.f(red.g.on_cell(c)) == Chain.single(c, k)


def test_shi_vanishes_on_vertices():
    red = ez_of(sphere(1), sphere(1))
    for c in red.source.basis(0):
        assert red.h.on_cell(c).is_zero()


def test_ez_axioms_on_torus():
    red = ez_of(sphere(1), sphere(1))
    assert_reduction_axioms(red, 3, samples=25)
    assert_chain_map(red.f, 3)
    assert_chain_map(red.g, 3)


def test_ez_axioms_on_mixed_product():
    red = ez_of(sphere(2), standard_simplex(1))
    assert_reduction_axioms(red, 3, samples=15)


def test_torus_homology_via_ez():
    red = ez_of(sphere(1), sphere(1))
    # homology of the tensor target agrees with brute force on the product
    assert homology_groups(red.target, 2) == [Z, AbGroup((0, 0)), Z]
    brute = normalized_chains(ProductSSet(sphere(1), sphere(1)))
    assert homology_groups(brute, 2) == homology_groups(red.target, 2)


def test_s2_x_s1_homology_via_ez():
    red = ez_of(sphere(2), sphere(1))
    assert homology_groups(red.target, 3) == [Z, Z, Z, Z]


def test_rp2_x_s1_homology_via_ez():
    red = ez_of(rp2(), sphere(1))
    # Kunneth: (Z, Z + Z/2, Z/2, 0)
    assert homology_groups(red.target, 3) == \
        [Z, AbGroup((0, 2)), AbGroup((2,)), ZERO_GROUP]
    brute = normalized_chains(ProductSSet(rp2(), sphere(1)))
    assert homology_groups(brute, 3) == homology_groups(red.target, 3)


def test_tensor_of_reductions_identity():
    C = normalized_chains(sphere(1))
    r = tensor_of_reductions([identity_reduction(C), identity_reduction(C)])
    rng = random.Random(0)
    for k in range(3):
        x = random_chain(r.source.basis(k), k, rng)
        assert (r.f(x) - x).is_zero()
        assert r.h(x).is_zero()


def test_tensor_of_reductions_axioms():
    from test_reduction import sphere_morse_reduction, small_reduction
    r1 = sphere_morse_reduction(2)
    _, r2 = small_reduction()
    rr = tensor_of_reductions([r1, r2])
    assert_reduction_axioms(rr, 4, samples=15)
    # (f (x) f)(a (x) b) = f(a) (x) f(b)
    rng = random.Random(1)
    a = random_chain(r1.source.basis(2), 2, rng)
    b = random_chain(r2.source.basis(1), 1, rng)
    lhs = rr.f(tensor_of_chains([a, b]))
    rhs = tensor_of_chains([r1.f(a), r2.f(b)])
    assert (lhs - rhs).is_zero()


def test_tensor_of_equivalences():
    from test_reduction import sphere_morse_reduction
    r = sphere_morse_reduction(2)
    e = reduction_as_equivalence(r)
    te = tensor_of_equivalences([e, trivial_equivalence(r.source)],
                                TensorCCx([e.big, r.source]))
    assert_reduction_axioms(te.left, 3, samples=8)
    assert_reduction_axioms(te.right, 3, samples=8)


def test_product_equivalence_two_spheres():
    E1 = trivial_equipment(sphere(1), normalized_chains(sphere(1)))
    E2 = trivial_equipment(sphere(1), normalized_chains(sphere(1)))
    E = product_equivalence([E1, E2])
    assert homology_groups(E.effective, 2) == [Z, AbGroup((0, 0)), Z]
    # representatives transported back are honest cycles upstairs
    H = complex_homology(E.effective, 2)
    rep = E.pull(H.rep_of((1,)))
    assert E.chains.diff(rep).is_zero()
    assert H.class_of(E.push(rep)) == (1,)


def test_product_equivalence_reduction_and_roof_legs():
    # S^1 x S^2: red is Eilenberg-Zilber, the roof the tensor of the roofs
    factors = [trivial_equipment(sphere(n), normalized_chains(sphere(n)))
               for n in (1, 2)]
    E = product_equivalence(factors)
    assert E.red.source is E.chains and E.red.target is E.eq.big
    for red in (E.red, E.eq.left, E.eq.right):
        assert_reduction_axioms(red, 4, samples=10)
    groups = homology_groups(E.effective, 3)
    assert groups == [Z, Z, Z, Z]


def test_product_equivalence_single_factor_passthrough():
    E1 = trivial_equipment(sphere(2), normalized_chains(sphere(2)))
    assert product_equivalence([E1]) is E1


def test_product_equivalence_three_factors():
    factors = [trivial_equipment(sphere(1), normalized_chains(sphere(1)))
               for _ in range(3)]
    E = product_equivalence(factors)
    groups = homology_groups(E.effective, 3)
    assert groups == [Z, AbGroup((0,) * 3), AbGroup((0,) * 3), Z]
