import random

import pytest

from effhom.abgroup import AbGroup, Z, ZERO_GROUP, cyclic
from effhom.chains import (Chain, Cochain, ConeCCx, TensorCCx, circle_complex,
                           complex_homology, homology_groups,
                           induced_chain_map, normalized_chains,
                           tensor_of_chains, z_complex, zero_map)
from effhom.simplicial import ProductSSet, nondeg, sphere, standard_simplex
from helpers import (assert_chain_map, assert_dd_zero, coboundary,
                     cochain_value, rp2, torus_complex, vertex_map)


def test_chain_arithmetic():
    a = Chain(1, {"x": 2, "y": -1})
    b = Chain(1, {"y": 1, "z": 3})
    assert (a + b).terms == {"x": 2, "z": 3}
    assert (a - a).is_zero()
    assert (3 * a).terms == {"x": 6, "y": -3}
    assert (-a).terms == {"x": -2, "y": 1}
    with pytest.raises(ValueError):
        a + Chain(2, {"w": 1})


def test_dd_zero_on_spaces():
    for X in (sphere(2), rp2(), torus_complex()):
        assert_dd_zero(normalized_chains(X), X.top_dim)


def test_homology_sphere_and_rp2():
    assert homology_groups(normalized_chains(sphere(2)), 3) == \
        [Z, ZERO_GROUP, Z, ZERO_GROUP]
    assert homology_groups(normalized_chains(rp2()), 2) == \
        [Z, cyclic(2), ZERO_GROUP]
    assert homology_groups(normalized_chains(torus_complex()), 2) == \
        [Z, AbGroup((0, 0)), Z]


def test_homology_of_finite_product():
    # brute-force torus homology via nondegenerate cells of S1 x S1
    P = ProductSSet(sphere(1), sphere(1))
    C = normalized_chains(P)
    assert_dd_zero(C, 3)
    assert homology_groups(C, 2) == [Z, AbGroup((0, 0)), Z]


def test_solver_roundtrips():
    C = normalized_chains(rp2())
    solver = complex_homology(C, 1)
    assert solver.group == cyclic(2)
    rep = solver.rep_of((1,))
    assert C.diff(rep).is_zero()
    assert solver.class_of(rep) == (1,)


def test_induced_chain_map_is_chain_map():
    X = standard_simplex(2)
    Y = standard_simplex(1)
    f = vertex_map(X, Y, {0: 0, 1: 0, 2: 1})
    m = induced_chain_map(f, normalized_chains(X), normalized_chains(Y))
    assert_chain_map(m, 2)
    # the collapsed 2-cell maps to a degenerate simplex, hence to zero
    assert m.on_cell(nondeg((0, 1, 2), 2)).is_zero()


def test_tensor_complex():
    C = normalized_chains(sphere(1))
    T = TensorCCx([C, C])
    assert_dd_zero(T, 3)
    assert [len(T.basis(k)) for k in range(3)] == [9, 18, 9]
    assert homology_groups(T, 2) == [Z, AbGroup((0, 0)), Z]
    S = TensorCCx([circle_complex(), circle_complex()])
    assert [len(S.basis(k)) for k in range(3)] == [1, 2, 1]
    assert homology_groups(S, 2) == [Z, AbGroup((0, 0)), Z]


def test_tensor_of_chains_leibniz():
    rng = random.Random(3)
    C = normalized_chains(sphere(2))
    T = TensorCCx([C, C])
    from effhom.reduction import random_chain
    for _ in range(10):
        a = random_chain(C.basis(2), 2, rng)
        b = random_chain(C.basis(1), 1, rng)
        ab = tensor_of_chains([a, b])
        lhs = T.diff(ab)
        rhs = tensor_of_chains([C.diff(a), b]) + \
            (-1) ** a.degree * tensor_of_chains([a, C.diff(b)])
        assert (lhs - rhs).is_zero()


def test_mapping_cone_of_identity_is_acyclic():
    C = normalized_chains(sphere(2))
    from effhom.chains import identity_chain_map
    cone = ConeCCx(identity_chain_map(C))
    assert_dd_zero(cone, 4)
    assert all(g.is_trivial() for g in homology_groups(cone, 4))


def test_mapping_cone_of_zero_map():
    C = normalized_chains(sphere(1))
    D = z_complex()
    cone = ConeCCx(zero_map(C, D))
    assert_dd_zero(cone, 3)
    # cone of 0: H_k = H_k(D) + H_{k-1}(C)
    assert homology_groups(cone, 2) == [Z, Z, Z]


def test_circle_and_point_complexes():
    assert homology_groups(circle_complex(), 2) == [Z, Z, ZERO_GROUP]
    assert homology_groups(z_complex(), 1) == [Z, ZERO_GROUP]


def test_cochain_and_coboundary():
    C = normalized_chains(sphere(1))
    g = cyclic(2)
    c = Cochain(g, 0, lambda cell: (1,) if cell == (0,) else (0,))
    dc = coboundary(c, C)
    # (dc)(edge) = c(d edge)
    for cell in C.basis(1):
        assert dc.eval_cell(cell) == cochain_value(c, C.diff_cell(cell))
    total = Chain(1, {cell: 1 for cell in C.basis(1)})
    assert cochain_value(dc, total) == \
        g.reduce((sum(dc.eval_cell(e)[0] for e in C.basis(1)),))
