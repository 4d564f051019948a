import random
import warnings
from itertools import combinations

import pytest
import sympy

from effhom.abgroup import AbGroup, Z, ZERO_GROUP, cyclic
from effhom.bar import (TwistedProductSSet, _zero_face_twist,
                        pullback_fibration)
from effhom.chains import (Chain, complex_homology, diff_matrix,
                           homology_groups, induced_chain_map,
                           normalized_chains)
from effhom.em import EMSpace, cone_raw
from effhom.postnikov import (build_tower, evaluate_k_invariant, evaluate_phi,
                              homotopy_group, point_space, verify_tower)
from effhom.reduction import (collapse_equipment, cone_equipment,
                              trivial_equipment)
from effhom.simplicial import (FinSSet, ProductSSet, Simplex, from_facets,
                               nondeg, sphere)
from effhom.smith import smith_normal_form
from helpers import (RP2_FACETS, assert_reduction_axioms, equipment_samples,
                     random_cocycle_raw, stacked_sphere, tower_fingerprint,
                     zero_face_twist_oracle)


def equip(X, name):
    return trivial_equipment(X, normalized_chains(X, name=name))


def suspended_rp2():
    susp = [f + (7,) for f in RP2_FACETS] + [f + (8,) for f in RP2_FACETS]
    return from_facets(susp)


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def test_point_tower_is_trivial():
    Y = equip(point_space(), "C(pt)")
    T = build_tower(Y, 3)
    for i in range(1, 4):
        assert T.stage(i).pi_i == ZERO_GROUP
    assert all(verify_tower(T).values())


def test_s2_tower():
    Y = equip(sphere(2), "C(S2)")
    T = build_tower(Y, 3)
    assert T.stage(1).pi_i == ZERO_GROUP
    assert T.stage(2).pi_i == Z
    assert T.stage(3).pi_i == Z
    # Hurewicz cross-check: pi_2 = H_2 of the finite input
    assert homology_groups(Y.chains, 2)[2] == T.stage(2).pi_i
    assert all(verify_tower(T).values())


def test_s3_tower():
    Y = equip(sphere(3), "C(S3)")
    T = build_tower(Y, 4)
    assert [T.stage(i).pi_i for i in range(1, 5)] == \
        [ZERO_GROUP, ZERO_GROUP, Z, cyclic(2)]
    assert homology_groups(Y.chains, 3)[3] == T.stage(3).pi_i
    assert all(verify_tower(T).values())


def test_pi4_s2():
    Y = equip(sphere(2), "C(S2)")
    assert homotopy_group(Y, 4) == cyclic(2)


def test_suspended_rp2_tower():
    Y = equip(suspended_rp2(), "C(SRP2)")
    T = build_tower(Y, 3)
    assert T.stage(2).pi_i == cyclic(2)
    assert T.stage(3).pi_i == cyclic(4)
    assert all(verify_tower(T).values())


def test_tower_memoized_and_extended():
    Y = equip(sphere(2), "C(S2)")
    T2 = build_tower(Y, 2)
    T3 = build_tower(Y, 3)
    assert T3 is T2
    assert T3.k >= 3


def test_non_simply_connected_input_rejected():
    circle = from_facets([(1, 2), (2, 3), (1, 3)])
    Y = equip(circle, "C(circle)")
    with pytest.raises(ValueError, match="not\\s+simply connected"):
        build_tower(Y, 2)


def collapse(X, name):
    return collapse_equipment(X, normalized_chains(X, name=name))


@pytest.mark.parametrize("equipment", [equip, collapse],
                         ids=["trivial", "collapse"])
@pytest.mark.parametrize("X, reason", [
    (from_facets([f for v in (0, 4) for f in
                  combinations(range(v, v + 4), 3)]),
     "not connected: it has 2 components"),
    (FinSSet({}, {}), "empty"),
], ids=["two-spheres", "empty"])
def test_empty_or_disconnected_input_rejected(equipment, X, reason):
    Y = equipment(X, "C(X)")
    with pytest.raises(ValueError, match=f"the input is {reason}"):
        build_tower(Y, 3)


def test_evaluate_phi_examples():
    Y = equip(sphere(2), "C(S2)")
    T = build_tower(Y, 3)
    top = nondeg((0, 1, 2), 2)
    # stage 0 is the point
    assert evaluate_phi(T, 0, top).dim == 2
    # below the stage dimension the fiber coordinate is forced (degenerate)
    v = nondeg((0,), 0)
    img = evaluate_phi(T, 2, v)
    a, _b = T.stage(2).P_i.obj.components(img)
    assert a.is_degenerate() or a.dim == 0
    # a full-dimensional evaluation passes the membership assertions
    for cell in Y.chains.basis(2):
        evaluate_phi(T, 3, nondeg(cell.base, 2))


def test_k_invariant_is_simplicial():
    Y = equip(sphere(2), "C(S2)")
    T = build_tower(Y, 3)
    st = T.stage(3)
    P2 = T.stage(2).P_i.obj
    for cell in Y.chains.basis(2):
        sigma = T.stage(2).phi_i(nondeg(cell.base, 2))
        img = evaluate_k_invariant(T, 3, sigma)
        for i in range(3):
            assert st.k_invariant(P2.face(i, sigma)) == \
                st.K_space.face(i, img)


def test_stage_reduction_and_roof_legs():
    """Stage 3 of the S^2 tower keeps the perturbed product reduction in
    front of its roof; both pass the reduction axioms on seeded simplices
    (a3, a2, degenerate vertex of P_1) of P_3."""
    T = build_tower(equip(sphere(2), "C(S2)"), 3)
    P1, P2, E = T.stage(1).P_i.obj, T.stage(2).P_i.obj, T.stage(3).P_i
    P3 = E.obj
    vertex = T.stage(1).phi_i(nondeg((0,), 0))
    rng = random.Random(3)

    def cells(k):
        out = set()
        for _ in range(4):
            a2 = P2.X.canon(random_cocycle_raw(P2.X, k, rng, density=0.6))
            a3 = P3.X.canon(random_cocycle_raw(P3.X, k, rng, density=0.6))
            s = P3.pair(a3, P2.pair(a2, P1.apply_degeneracies(vertex, range(k))))
            if not s.is_degenerate():
                out.add(s)
        return sorted(out, key=repr)

    assert E.red.source is E.chains and E.red.target is E.eq.big
    basis = equipment_samples(E, 4, cells)
    assert all(basis(E.chains, k) for k in (3, 4))
    for red in (E.red, E.eq.left, E.eq.right):
        assert_reduction_axioms(red, 4, seed=3, samples=8, basis=basis)


def minimal_sphere(n):
    """S^n as one vertex and one n-cell whose faces all collapse to it
    (the `minimal_sphere` input of perfbench/inputs.py)."""
    collapsed = (Simplex("v", tuple(range(n - 1)), n - 1),) * (n + 1)
    return FinSSet({0: ["v"], n: ["c"]}, {"c": collapsed})


def test_k4_of_s3_is_simplicial(own_caches):
    T = build_tower(equip(minimal_sphere(3), "C(S3)"), 5)
    P2, P3, P4 = (T.stage(i).P_i.obj for i in (2, 3, 4))
    st = T.stage(5)
    # the totally degenerate 6-simplex on the vertex of P_2
    base = P2.apply_degeneracies(T.stage(2).phi_i(nondeg("v", 0)), range(6))
    rng = random.Random(1)
    for _ in range(2):
        # a3 = delta of a Z 2-cochain, a4 = delta of a Z/2 3-cochain
        a3 = P3.X.canon(random_cocycle_raw(P3.X, 6, rng, density=0.3))
        a4 = P4.X.canon(random_cocycle_raw(P4.X, 6, rng, density=0.3))
        sigma = P4.pair(a4, P3.pair(a3, base))
        img = evaluate_k_invariant(T, 5, sigma)
        for j in range(7):
            assert st.k_invariant(P4.face(j, sigma)) == \
                st.K_space.face(j, img)


def test_pi6_s3_is_z12(own_caches):
    # Toda: the first homotopy group of S^3 with an element of order > 2
    T = build_tower(equip(minimal_sphere(3), "C(S3)"), 6)
    assert [T.stage(i).pi_i for i in range(1, 7)] == \
        [ZERO_GROUP, ZERO_GROUP, Z, cyclic(2), cyclic(2), cyclic(12)]
    assert all(verify_tower(T).values())


def test_corrupted_kappa_fails_verification():
    Y = equip(suspended_rp2(), "C(SRP2)")
    T = build_tower(Y, 3)
    st = T.stage(3)
    effP = st.eff_P_prev
    target = None
    for cell in effP.basis(5):
        for fcell, c in effP.diff_cell(cell).items():
            if c:
                target = fcell
                break
        if target is not None:
            break
    if target is None:
        pytest.skip("no boundary relations to violate")
    saved = dict(st.kappa_ef)
    try:
        cur = st.kappa_ef.get(target, st.pi_i.zero())
        st.kappa_ef[target] = st.pi_i.add(cur, (1,))
        assert verify_tower(T)["kappa_cocycle_stage_3"] is False
    finally:
        st.kappa_ef.clear()
        st.kappa_ef.update(saved)


def test_determinism_of_stage_data():
    X1, X2 = sphere(3), sphere(3)
    Y1, Y2 = equip(X1, "C(S3)a"), equip(X2, "C(S3)b")
    T1, T2 = build_tower(Y1, 4), build_tower(Y2, 4)
    for i in range(1, 5):
        s1, s2 = T1.stage(i), T2.stage(i)
        assert s1.pi_i.mm == s2.pi_i.mm
        assert {repr(k): v for k, v in s1.kappa_ef.items()} == \
            {repr(k): v for k, v in s2.kappa_ef.items()}
        assert {repr(k): v for k, v in s1.lambda_ef.items()} == \
            {repr(k): v for k, v in s2.lambda_ef.items()}


def sphere_wedge(n):
    """n two-spheres on one common vertex, each a 2-cell with collapsed faces."""
    cells = [f"c{i}" for i in range(n)]
    collapsed = (Simplex("v", (0,), 1),) * 3
    return FinSSet({0: ["v"], 2: cells}, {c: collapsed for c in cells})


@pytest.mark.parametrize("n", [2, 3])
def test_wedge_towers_with_split_fibres(own_caches, n):
    """pi_2 and pi_3 of a wedge of n two-spheres are Z^n and Z^(n(n+1)/2)
    (Hilton-Milnor), with the fibre K(Z^n,2) equipped as a product."""
    T = build_tower(equip(sphere_wedge(n), "C(Y)"), 3)
    assert [st.pi_i for st in T.stages] == \
        [ZERO_GROUP, AbGroup((0,) * n), AbGroup((0,) * (n * (n + 1) // 2))]
    assert all(verify_tower(T).values())
    P1, P2, st = T.stage(1).P_i.obj, T.stage(2).P_i.obj, T.stage(3)
    vertex = T.stage(1).phi_i(nondeg("v", 0))
    rng = random.Random(n)
    for m in (4, 4, 4, 5, 5):
        a = P2.X.canon(random_cocycle_raw(P2.X, m, rng, density=0.4))
        sigma = P2.pair(a, P1.apply_degeneracies(vertex, range(m)))
        img = evaluate_k_invariant(T, 3, sigma)
        if m == 4:
            for j in range(5):
                assert st.k_invariant(P2.face(j, sigma)) == \
                    st.K_space.face(j, img)
        else:
            assert st.K_space.is_cocycle(st.K_space.uncanon(img))


# digests of `helpers.tower_fingerprint`; any change to them is a change in
# the computed towers, not only in their speed
TOWER_DIGESTS = {
    "S2": "64fa18493ff853b65d0a13dcc286b8f9633928b15c5945f581de17d8bf3d68db",
    "wedge3": "2d3b3039190c7e20df4596af059fc91e1cd05bb4b77c40dc2024fbc2cafeae73",
    # stage 5 reads P_4, whose fibre K(Z/2,4) is an EM step over Z/2
    "S3": "e92d4c155493321c35cfa41e4bc15f5726fcf3e3181cdd70063e9f3f1858dcc3",
}


@pytest.mark.parametrize("name, X, k", [("S2", sphere(2), 4),
                                        ("wedge3", sphere_wedge(3), 3),
                                        ("S3", sphere(3), 5)],
                         ids=["S2", "wedge3", "S3"])
def test_tower_fingerprint_is_pinned(name, X, k):
    T = build_tower(equip(X, "C(Y)"), k)
    assert tower_fingerprint(T) == TOWER_DIGESTS[name]


def stage_cell(T, i, m, fibre_simplex):
    """The m-simplex (a_i, (a_{i-1}, ..., (a_1, pt))) of P_i, where a_j is
    fibre_simplex(j, K) for the fibre K = K(pi_j, j) of P_j."""
    pt = T.P0.obj
    s = pt.apply_degeneracies(pt.simplex(pt.cells(0)[0]), range(m))
    for j in range(1, i + 1):
        P = T.stage(j).P_i.obj
        s = P.pair(fibre_simplex(j, P.X), s)
    return s


@pytest.mark.parametrize("X, k, plain", [(sphere(2), 4, {1, 2}),
                                         (minimal_sphere(3), 5, {1, 2, 3}),
                                         (sphere_wedge(3), 3, {1, 2})],
                         ids=["S2", "S3", "wedge3"])
def test_untwisted_stage_is_the_zero_twist_pullback(own_caches, X, k, plain):
    """A stage whose kappa vanishes is the plain product K(pi_i,i) x P_{i-1}
    and every later stage is twisted.  The plain stage agrees with the
    pullback of the path fibration along its k-invariant, built here as the
    oracle: same effective complex up to the degree cap, same push on seeded
    cells, and the k-invariant is the zero simplex on seeded simplices."""
    T = build_tower(equip(X, "C(Y)"), k)
    assert {st.i for st in T.stages
            if not isinstance(st.P_i.obj, TwistedProductSSet)} == plain
    assert all(isinstance(st.P_i.obj, ProductSSet) for st in T.stages)
    rng = random.Random(k)

    def seeded(i, m):
        if i == 0:
            pt = T.P0.obj
            return pt.apply_degeneracies(pt.simplex(pt.cells(0)[0]), range(m))
        return stage_cell(T, i, m, lambda j, K: K.canon(random_cocycle_raw(
            K, m, rng, rng.choice((0.3, 0.6)))))

    pushed = 0
    for i in sorted(plain):
        st = T.stage(i)
        P_prev = T.stage(i - 1).P_i if i > 1 else T.P0
        oracle = pullback_fibration(P_prev, st.k_invariant, st.fiber)
        for d in range(T.degree_cap + 1):
            basis = st.P_i.effective.basis(d)
            assert basis == oracle.effective.basis(d), (i, d)
            for c in basis:
                assert st.P_i.effective.diff_cell(c) == \
                    oracle.effective.diff_cell(c), (i, c)
        for m in range(1, i + 3):
            for _ in range(3):
                s = seeded(i, m)
                if not s.is_degenerate():
                    z = Chain.single(s, m)
                    assert st.P_i.push(z) == oracle.push(z), (i, s)
                    pushed += 1
                p = seeded(i - 1, m)
                assert st.k_invariant(p) == st.K_space.zero_simplex(m)
    assert pushed


def cone_over_degenerate(K, m, rng):
    """A seeded m-simplex of K = K(pi,n) whose 0-face is degenerate: the
    cone (`em.cone_raw`) over a degenerated (m-2)-simplex."""
    z = K.raw_degeneracy(rng.randrange(m - 1),
                         random_cocycle_raw(K, m - 2, rng, 0.5))
    gamma = random_cocycle_raw(EMSpace(K.group, K.n - 1), m - 1, rng, 0.5)
    return K.canon(cone_raw(K, gamma, z))


@pytest.mark.parametrize("X, k", [(sphere(2), 4), (minimal_sphere(3), 5),
                                  (sphere_wedge(3), 3)],
                         ids=["S2", "S3", "wedge3"])
def test_zero_face_twist_is_the_difference_of_differentials(own_caches, X, k):
    """On every twisted stage P_i = K(pi_i,i) x_tau P_{i-1}, the twist
    perturbation read off the 0-faces equals d(C(P_i)) - d(C(K x P_{i-1}))
    on seeded cells: random ones up to dimension i + 1 (5 at most, which
    keeps the k-invariants cheap), and (i + 1)-cells (unit, b) whose base
    b = (cone over a degenerate simplex, unit) of P_{i-1} has a degenerate
    0-face.  The sample has cells whose 0-faces differ, and among them
    cells with a degenerate 0-face, which drops out."""
    T = build_tower(equip(X, "C(Y)"), k)
    differ = degenerate = 0
    for i in range(1, k + 1):
        TP = T.stage(i).P_i.obj
        # fresh complexes: the stage's own chains keep no differential
        CTP = normalized_chains(TP)
        CP = normalized_chains(ProductSSet(TP.X, TP.Y))
        delta = _zero_face_twist(TP, CP)
        oracle = zero_face_twist_oracle(CTP, CP)
        rng = random.Random(i)
        cells = [stage_cell(T, i, m, lambda j, K: K.canon(random_cocycle_raw(
                     K, m, rng, rng.choice((0.2, 0.5)))))
                 for m in range(1, min(i + 1, 5) + 1) for _ in range(4)]
        if i >= 3:
            cells += [stage_cell(T, i, i + 1, lambda j, K: (
                          cone_over_degenerate(K, i + 1, rng) if j == i - 1
                          else K.zero_simplex(i + 1)))
                      for _ in range(8)]
        for s in cells:
            if s.is_degenerate():
                continue
            assert delta.on_cell(s) == oracle(s), (i, s)
            a, b = TP.components(s)
            faces = TP.face(0, s), TP.pair(TP.X.face(0, a), TP.Y.face(0, b))
            if faces[0] != faces[1]:
                differ += 1
                degenerate += any(f.is_degenerate() for f in faces)
    assert differ > degenerate > 0


def test_k2_evaluation_reads_no_twisted_differential(own_caches):
    """The perturbation series behind k_2 perturb each twisted product by
    its 0-faces alone: after k_2 on seeded 4-simplices of P_2, no stage's
    twisted chains has evaluated its differential."""
    T = build_tower(equip(sphere(2), "C(S2)"), 4)
    P1, P2 = T.stage(1).P_i.obj, T.stage(2).P_i.obj
    b = P1.apply_degeneracies(T.stage(1).phi_i(nondeg((0,), 0)), range(4))
    rng = random.Random(2)
    for _ in range(6):
        a = P2.X.canon(random_cocycle_raw(P2.X, 4, rng, density=0.4))
        if not a.is_degenerate():
            evaluate_k_invariant(T, 3, P2.pair(a, b))
    assert [len(st.P_i.chains._diff_cache) for st in T.stages] == [0] * 4


# two boundaries of tetrahedra sharing the vertex 0
TWO_SPHERES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
               (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)]


@pytest.mark.parametrize("X, k, groups", [
    (stacked_sphere(24, 3), 3, [ZERO_GROUP, Z, Z]),
    (sphere(3), 4, [ZERO_GROUP, ZERO_GROUP, Z, cyclic(2)]),
    (from_facets(TWO_SPHERES), 3, [ZERO_GROUP, AbGroup((0, 0)),
                                   AbGroup((0, 0, 0))]),
], ids=["stacked24", "S3", "S2vS2"])
def test_collapsed_tower_matches_the_trivial_one(own_caches, X, k, groups):
    Y = collapse(X, "C(Y)")
    T = build_tower(Y, k)
    trivial = build_tower(equip(X, "C(Y)"), k)
    assert [st.pi_i for st in T.stages] == groups
    assert [st.pi_i for st in trivial.stages] == groups
    assert sum(len(Y.effective.basis(d)) for d in range(X.top_dim + 1)) \
        < sum(len(Y.chains.basis(d)) for d in range(X.top_dim + 1))
    assert all(verify_tower(T).values())


def projected_classes(EC, degree):
    """class_of the projection onto ker d along the Smith complement, per cell.

    The projection is rebuilt from its definition: W = [kernel | complement]
    holds the columns of V from the Smith form of d (kernel columns are
    those of a zero pivot), and a vector x projects to the kernel part of
    W^-1 x, with W inverted by sympy.
    """
    d = diff_matrix(EC, degree)
    snf = smith_normal_form(d)
    diag = snf.diagonal
    n = d.cols
    kernel = [j for j in range(n) if j >= len(diag) or diag[j] == 0]
    cols = kernel + [j for j in range(n) if j not in kernel]
    W = sympy.Matrix(n, n, lambda i, c: snf.V.get(i, cols[c]))
    Winv = W.inv()
    solver = complex_homology(EC, degree)
    basis = EC.basis(degree)
    out = {}
    for j, cell in enumerate(basis):
        y = Winv[:, j]
        proj = W[:, :len(kernel)] * y[:len(kernel), :]
        assert all(v.is_integer for v in proj)
        out[cell] = solver.class_of(
            Chain(degree, [(b, int(v)) for b, v in zip(basis, proj)]))
    return solver, out


@pytest.mark.parametrize("X", [sphere(2), stacked_sphere(24, 3)],
                         ids=["S2", "stacked24"])
def test_projected_class_matches_kernel_projection(X):
    Y = equip(X, "C(Y)")
    T = build_tower(Y, 3)
    for i in range(1, 4):
        P_prev = T.stage(i - 1).P_i if i > 1 else T.P0
        phi_prev = T.stage(i - 1).phi_i if i > 1 else T.phi0
        phi_star = induced_chain_map(phi_prev, Y.chains, P_prev.chains)
        EC = cone_equipment(phi_star, Y, P_prev).effective
        solver, expected = projected_classes(EC, i + 1)
        st = T.stage(i)
        for cell, cls in expected.items():
            assert solver.projected_class_of(Chain.single(cell, i + 1)) == cls
            stored = st.kappa_ef if cell.tag == "b" else st.lambda_ef
            assert stored[cell.cell] == cls



def test_division_asserts_the_zero_small_perturbation(monkeypatch,
                                                      own_caches):
    """Twisted division relies on the induced perturbation on C(B) being
    zero.  A bar contraction whose f also keeps the one-letter words with a
    non-unit algebra coordinate breaks that, and the tower must refuse it."""
    import effhom.bar as bar
    from effhom.chains import ChainMap
    from effhom.reduction import Reduction

    exact = bar.bar_inverse_reduction

    def leaky_inverse(bar_cx, M, unit):
        red = exact(bar_cx, M, unit)

        def f_cell(cell):
            if len(cell.parts) == 1:
                return Chain.single(cell.parts[0].parts[1], cell.degree)
            return Chain.zero(cell.degree)

        return Reduction(red.source, red.target,
                         ChainMap(red.source, red.target, f_cell),
                         red.g, red.h)

    monkeypatch.setattr(bar, "bar_inverse_reduction", leaky_inverse)
    # stages 2 and 3 never hand f a one-letter word with a non-unit
    # algebra coordinate; building stage 4 (pi_4 = Z/2) does
    with pytest.raises(AssertionError, match="induced perturbation"):
        build_tower(equip(sphere(2), "C(S2)"), 4)
