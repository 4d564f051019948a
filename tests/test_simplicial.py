import random

import pytest

from effhom.simplicial import (ProductSSet, Simplex, from_facets, identity_map,
                               nondeg, sphere, standard_simplex)
from helpers import rp2, torus_complex, vertex_map


def random_simplices(X, dims, rng, count=40, max_degs=3):
    """Random (possibly degenerate) simplices over the cells of X."""
    out = []
    pool = [(c, d) for d in dims for c in X.cells(d)]
    for _ in range(count):
        c, d = rng.choice(pool)
        s = nondeg(c, d)
        for _ in range(rng.randint(0, max_degs)):
            i = rng.randint(0, s.dim)
            s = X.degeneracy(i, s)
        out.append(s)
    return out


def test_simplex_encoding():
    s = Simplex("c", (0, 2), 4)
    assert s.base_dim == 2
    assert s.is_degenerate()
    assert not nondeg("c", 2).is_degenerate()
    with pytest.raises(ValueError):
        Simplex("c", (2, 0), 4)
    with pytest.raises(ValueError):
        Simplex("c", (1, 1), 4)


def test_degeneracy_insertion():
    X = standard_simplex(2)
    s = nondeg((0, 1, 2), 2)
    s01 = X.degeneracy(1, X.degeneracy(0, s))
    # s_1 s_0 = s_0 s_0 by the identity s_i s_j = s_{j+1} s_i (i <= j)
    assert s01 == X.degeneracy(0, X.degeneracy(0, s))
    assert s01.degs == (0, 1)


def test_simplicial_identities_random():
    rng = random.Random(7)
    for X in (standard_simplex(3), sphere(2), rp2()):
        for s in random_simplices(X, range(X.top_dim + 1), rng):
            n = s.dim
            # d_i d_j = d_{j-1} d_i  (i < j)
            if n >= 2:
                for i in range(n):
                    for j in range(i + 1, n + 1):
                        assert X.face(i, X.face(j, s)) == \
                               X.face(j - 1, X.face(i, s))
            # d_i s_j relations
            for j in range(n + 1):
                sj = X.degeneracy(j, s)
                for i in range(n + 2):
                    got = X.face(i, sj)
                    if i < j:
                        assert got == X.degeneracy(j - 1, X.face(i, s))
                    elif i in (j, j + 1):
                        assert got == s
                    else:
                        assert got == X.degeneracy(j, X.face(i - 1, s))
            # s_i s_j = s_{j+1} s_i  (i <= j)
            for i in range(n + 1):
                for j in range(i, n + 1):
                    assert X.degeneracy(i, X.degeneracy(j, s)) == \
                           X.degeneracy(j + 1, X.degeneracy(i, s))


def test_from_facets_closure_counts():
    X = sphere(2)
    assert [len(X.cells(d)) for d in range(3)] == [4, 6, 4]
    T = torus_complex()
    assert [len(T.cells(d)) for d in range(3)] == [7, 21, 14]
    P = rp2()
    assert [len(P.cells(d)) for d in range(3)] == [6, 15, 10]
    with pytest.raises(ValueError):
        from_facets([(0, 0, 1)])
    with pytest.raises(ValueError):
        from_facets([()])


def test_faces_drop_ith_vertex():
    X = standard_simplex(3)
    s = nondeg((0, 1, 2, 3), 3)
    assert X.face(1, s) == nondeg((0, 2, 3), 2)
    assert X.face(3, s) == nondeg((0, 1, 2), 2)


def test_vertex_map_collapse():
    X = standard_simplex(2)
    Y = standard_simplex(1)
    f = vertex_map(X, Y, {0: 0, 1: 0, 2: 1})
    img = f(nondeg((0, 1, 2), 2))
    assert img == Simplex((0, 1), (0,), 2)
    # naturality: f(d_i s) = d_i f(s)
    for i in range(3):
        assert f(X.face(i, nondeg((0, 1, 2), 2))) == Y.face(i, img)
    with pytest.raises(ValueError):
        vertex_map(X, Y, {0: 1, 1: 0, 2: 0})(nondeg((0, 1, 2), 2))


def test_identity_map():
    X = sphere(1)
    f = identity_map(X)
    s = X.degeneracy(0, nondeg((0, 1), 1))
    assert f(s) == s


def test_product_cells_count():
    I = standard_simplex(1)
    P = ProductSSet(I, I)
    # nondegenerate cells of the square: 4 vertices, 5 edges, 2 triangles
    assert len(P.cells(0)) == 4
    assert len(P.cells(1)) == 5
    assert len(P.cells(2)) == 2
    assert len(P.cells(3)) == 0


def test_product_pair_canonicalization():
    I = standard_simplex(1)
    P = ProductSSet(I, I)
    e = nondeg((0, 1), 1)
    a = I.degeneracy(0, e)            # s0 e, dim 2
    s = P.pair(a, a)                  # shared stall -> degenerate pair
    assert s.degs == (0,)
    assert s.base.a == e and s.base.b == e
    ca, cb = P.components(s)
    assert ca == a and cb == a


def test_product_simplicial_identities():
    rng = random.Random(11)
    P = ProductSSet(sphere(1), standard_simplex(1))
    pool = [P.simplex(c) for d in range(3) for c in P.cells(d)]
    for s in rng.sample(pool, min(12, len(pool))):
        n = s.dim
        if n < 2:
            continue
        for i in range(n):
            for j in range(i + 1, n + 1):
                assert P.face(i, P.face(j, s)) == P.face(j - 1, P.face(i, s))
        # faces commute with taking components
        for i in range(n + 1):
            fa, fb = P.components(P.face(i, s))
            a, b = P.components(s)
            assert fa == P.X.face(i, a) and fb == P.Y.face(i, b)


def test_product_euler_characteristic():
    # chi(S1 x S1) = 0 through nondegenerate cell counts
    S1 = sphere(1)
    P = ProductSSet(S1, S1)
    chi = sum((-1) ** d * len(P.cells(d)) for d in range(4))
    assert chi == 0
