import itertools
import random
from math import gcd

import pytest

from effhom.abgroup import AbGroup, Z, ZERO_GROUP, cyclic
from effhom.chains import (Chain, Cochain, complex_homology, homology_groups,
                           normalized_chains)
from effhom.em import (EMSpace, _cell_from_bars, cochain_to_map, cone_raw,
                       delta_map, em1_equivalence, em_equivalence, kzm1_field,
                       path_fibration, pseudo_section_psi, split_maps,
                       twisting_tau)
from effhom.reduction import morse_reduction
from effhom.simplicial import ProductSSet, nondeg, standard_simplex
from helpers import (assert_dd_zero, assert_reduction_axioms,
                     check_twist_axioms, coboundary, equipment_samples, ev,
                     map_to_cochain, random_cochain_raw, random_cocycle_raw)


def test_face_degeneracy_examples():
    K = EMSpace(Z, 1)
    edge = K.make_raw(1, [((0, 1), (5,))])
    assert K.raw_face(0, edge) == (0, ())
    assert K.raw_face(1, edge) == (0, ())
    # s0 of the edge labeled b: labels (02) = (12) = b, (01) = 0
    s0 = K.raw_degeneracy(0, edge)
    assert s0 == (2, (((0, 2), (5,)), ((1, 2), (5,))))


def test_simplicial_identities_on_raws():
    rng = random.Random(11)
    for space in (EMSpace(cyclic(3), 1), EMSpace(Z, 2, "E")):
        for _ in range(25):
            m = rng.randint(2, 4)
            z = random_cochain_raw(space, m, rng)
            for j in range(m + 1):
                for i in range(j):
                    assert space.raw_face(i, space.raw_face(j, z)) == \
                        space.raw_face(j - 1, space.raw_face(i, z))
            for i in range(m):
                for j in range(i, m):
                    assert space.raw_degeneracy(i, space.raw_degeneracy(j, z)) \
                        == space.raw_degeneracy(j + 1, space.raw_degeneracy(i, z))
            for i in range(m):
                assert space.raw_face(i, space.raw_degeneracy(i, z)) == z
                assert space.raw_face(i + 1, space.raw_degeneracy(i, z)) == z


def degeneracy_oracle(space, i, raw):
    """s_i by its definition: the pullback along the codegeneracy that merges
    the vertices i and i+1, label by label over every tuple of Delta^(m+1),
    rebuilt with `make_raw`."""
    m = raw[0]
    items = []
    for u in itertools.combinations(range(m + 2), space.n + 1):
        t = tuple(j if j <= i else j - 1 for j in u)
        if len(set(t)) == len(t):
            items.append((u, space.label(raw, t)))
    return space.make_raw(m + 1, items)


@pytest.mark.parametrize("space", [EMSpace(Z, 2), EMSpace(cyclic(2), 3),
                                   EMSpace(cyclic(12), 2), EMSpace(Z, 2, "E")],
                         ids=["K(Z,2)", "K(Z/2,3)", "K(Z/12,2)", "E(Z,2)"])
def test_raw_degeneracy_matches_the_general_formula(space):
    rng = random.Random(space.name)
    make = random_cochain_raw if space.kind == "E" else random_cocycle_raw
    raws = []
    for m in range(space.n, space.n + 4):
        for density in (0.2, 0.5, 0.9):
            raws.append(make(space, m, rng, density))
    # degenerate raws are canonical too
    raws += [space.raw_degeneracy(rng.randrange(r[0] + 1), r) for r in raws[:6]]
    assert sum(1 for r in raws if r[1]) > 10
    for raw in raws:
        for i in range(raw[0] + 1):
            assert space.raw_degeneracy(i, raw) == \
                degeneracy_oracle(space, i, raw), (raw, i)


def test_canon_consistency():
    rng = random.Random(5)
    K = EMSpace(cyclic(2), 1)
    for _ in range(20):
        z = random_cochain_raw(K, 3, rng)
        s = K.canon(z)
        assert K.uncanon(s) == z
        for i in range(4):
            assert K.canon(K.raw_degeneracy(i, z)) == K.degeneracy(i, s)


def test_cocycle_condition_preserved():
    rng = random.Random(7)
    K = EMSpace(cyclic(4), 2)
    for _ in range(15):
        z = random_cocycle_raw(K, 4, rng)
        assert K.is_cocycle(z)
        for i in range(5):
            assert K.is_cocycle(K.raw_face(i, z))
        assert K.is_cocycle(K.raw_degeneracy(2, z))
        w = random_cocycle_raw(K, 4, rng)
        assert K.is_cocycle(K.raw_add(z, w))


def test_delta_map_examples():
    E = EMSpace(Z, 0, "E")
    K = EMSpace(Z, 1)
    d = delta_map(E, K)
    # potential a(0)=0, a(1)=x gives edge label x
    raw = E.make_raw(1, [((1,), (7,))])
    img = d(nondeg(raw, 1))
    assert K.uncanon(img) == (1, (((0, 1), (7,)),))
    # delta of the zero cochain
    assert d(nondeg(E.raw_unit(2), 2)).is_degenerate()
    # delta is a group homomorphism (sampled)
    rng = random.Random(3)
    for _ in range(10):
        a = random_cochain_raw(E, 2, rng)
        b = random_cochain_raw(E, 2, rng)
        from effhom.em import _delta_raw
        lhs = _delta_raw(E, E.raw_add(a, b))
        rhs = K.raw_add(_delta_raw(E, a), _delta_raw(E, b))
        assert lhs == rhs


def test_delta_commutes_with_operators():
    rng = random.Random(9)
    E = EMSpace(cyclic(3), 1, "E")
    K = EMSpace(cyclic(3), 2)
    from effhom.em import _delta_raw
    for _ in range(15):
        z = random_cochain_raw(E, 3, rng)
        for i in range(4):
            assert _delta_raw(E, E.raw_face(i, z)) == \
                K.raw_face(i, _delta_raw(E, z))
            assert _delta_raw(E, E.raw_degeneracy(i, z)) == \
                K.raw_degeneracy(i, _delta_raw(E, z))


def test_twisting_tau_example_and_axioms():
    G = EMSpace(cyclic(5), 1)
    K = EMSpace(cyclic(5), 2)
    z = K.make_raw(2, [((0, 1, 2), (3,))])
    assert twisting_tau(G, z) == (1, (((0, 1), (3,)),))
    rng = random.Random(13)
    for _ in range(20):
        m = rng.randint(2, 4)
        b = random_cocycle_raw(K, m, rng)
        tb = twisting_tau(G, b)
        # (i) d0 tau(b) = tau(d1 b) - tau(d0 b)
        assert G.raw_face(0, tb) == G.raw_add(
            twisting_tau(G, K.raw_face(1, b)),
            G.raw_neg(twisting_tau(G, K.raw_face(0, b))))
        # (ii) d_i tau(b) = tau(d_{i+1} b), i >= 1
        for i in range(1, m):
            assert G.raw_face(i, tb) == twisting_tau(G, K.raw_face(i + 1, b))
        # (iii) s_i tau(b) = tau(s_{i+1} b)
        for i in range(m):
            assert G.raw_degeneracy(i, tb) == \
                twisting_tau(G, K.raw_degeneracy(i + 1, b))
        # (iv) tau(s_0 b) = unit
        assert twisting_tau(G, K.raw_degeneracy(0, b)) == G.raw_unit(m)


def test_pseudo_section():
    rng = random.Random(17)
    K = EMSpace(cyclic(6), 2)
    E = EMSpace(cyclic(6), 1, "E")
    from effhom.em import _delta_raw
    for _ in range(20):
        m = rng.randint(1, 4)
        z = random_cocycle_raw(K, m, rng)
        p = pseudo_section_psi(E, z)
        assert _delta_raw(E, p) == z
        # compatibility with the inner faces
        for i in range(1, m):
            assert E.raw_face(i, p) == \
                pseudo_section_psi(E, K.raw_face(i, z))
        # d0 psi(z) = psi(d0 z) + tau(z) pulled to a cochain
        G = EMSpace(cyclic(6), 1)
        lhs = E.raw_face(0, p)
        rhs = E.raw_add(pseudo_section_psi(E, K.raw_face(0, z)),
                        twisting_tau(G, z))
        assert lhs == rhs


def test_ev_and_boundaries():
    K = EMSpace(cyclic(4), 1)
    C = normalized_chains(K)
    s = nondeg(K.make_raw(1, [((0, 1), (3,))]), 1)
    assert ev(K, Chain.single(s, 1)) == (3,)
    rng = random.Random(19)
    for _ in range(15):
        z = random_cocycle_raw(K, 2, rng)
        cell = K.canon(z)
        if cell.is_degenerate():
            continue
        assert ev(K, C.diff(Chain.single(cell, 2))) == K.group.zero()


def test_cochain_map_bridge():
    X = standard_simplex(2)
    g = cyclic(3)
    kappa = Cochain(g, 1, lambda cell: (len(cell.base) % 3,))
    E = EMSpace(g, 1, "E")
    f = cochain_to_map(kappa, X, E)
    back = map_to_cochain(f, E)
    C = normalized_chains(X)
    for cell in C.basis(1):
        assert back.eval_cell(cell) == kappa.eval_cell(cell)
    # naturality: f commutes with faces on the top cell
    top = nondeg((0, 1, 2), 2)
    for i in range(3):
        assert f(X.face(i, top)) == E.face(i, f(top))


def test_cochain_to_map_cocycle_lands_in_K():
    X = standard_simplex(3)
    g = cyclic(2)
    # the coboundary of a 0-cochain is a cocycle
    c0 = Cochain(g, 0, lambda cell: (cell.base[0] % 2,))
    C = normalized_chains(X)
    kappa = coboundary(c0, C)
    K = EMSpace(g, 1)
    f = cochain_to_map(kappa, X, K)
    for cell in C.basis(2) + C.basis(3):
        img = f(nondeg(cell.base, cell.dim))
        assert K.is_cocycle(K.uncanon(img))


def path_cells(G, K1, TP, ell, rng, draws=6):
    """Seeded nondegenerate ell-cells (gamma, z) of K(pi,n) x_tau K(pi,n+1)."""
    cells = []
    for _ in range(draws):
        gamma = random_cocycle_raw(G, ell, rng, density=0.6)
        z = random_cocycle_raw(K1, ell, rng, density=0.6)
        cell = TP.pair(G.canon(gamma), K1.canon(z))
        if not cell.is_degenerate():
            cells.append(cell)
    return cells


@pytest.mark.parametrize("group, n", [(Z, 1), (cyclic(2), 1), (Z, 2)],
                         ids=["Z1", "Z2_1", "Z2"])
def test_path_fibration_contraction(group, n):
    G = EMSpace(group, n)
    total = path_fibration(G)
    TP, C = total.obj, total.chains
    K1 = TP.Y
    assert TP.X is G and K1.group == group and K1.n == n + 1
    red = total.eq.right
    rng = random.Random(43 + n)
    # the cone simplex: d0 c = z, tau(c) = gamma, and c is a cocycle
    for _ in range(20):
        ell = rng.randint(0, 4)
        gamma = random_cocycle_raw(G, ell, rng)
        z = random_cocycle_raw(K1, ell, rng)
        c = cone_raw(K1, gamma, z)
        assert K1.raw_face(0, c) == z
        assert twisting_tau(G, c) == gamma
        assert K1.is_cocycle(c)
    check_twist_axioms(TP, [K1.canon(random_cocycle_raw(K1, m, rng))
                            for m in (1, 2, 3, 3, 4)])
    # contraction axioms on seeded chains (the source has no basis)
    for k in range(1, 5):
        for _ in range(3):
            cells = path_cells(G, K1, TP, k, rng)
            assert cells or (n, k) == (2, 1)     # K(Z,2) is 1-reduced
            x = Chain(k, {c: rng.randint(-3, 3) for c in cells})
            assert red.h(red.h(x)).is_zero()
            assert red.f(red.h(x)).is_zero()
            lhs = C.diff(red.h(x)) + red.h(C.diff(x))
            assert (lhs - (x - red.g(red.f(x)))).is_zero()


def test_kz1_equivalence_contract():
    E = em1_equivalence(Z)
    K, C = E.obj, E.chains
    red = E.eq.right
    vertex, one = _cell_from_bars(K, []), _cell_from_bars(K, [(1,)])
    assert E.effective.basis(0) == (vertex,) and E.effective.basis(1) == (one,)
    assert E.effective.basis(2) == ()
    # f1([b]) = b [1], f_m = 0 for m >= 2
    for b in (1, 3, -2):
        cell = _cell_from_bars(K, [(b,)])
        assert red.f.on_cell(cell) == Chain.single(one, 1, b)
    two = _cell_from_bars(K, [(2,), (3,)])
    assert red.f.on_cell(two).is_zero()
    # g is the inclusion of the critical cells
    assert red.g.on_cell(one) == Chain.single(one, 1)
    # h1([3]) = -([1|1] + [2|1]) and d of that is [3] - 3[1]
    h3 = red.h.on_cell(_cell_from_bars(K, [(3,)]))
    expect = -(Chain.single(_cell_from_bars(K, [(1,), (1,)]), 2)
               + Chain.single(_cell_from_bars(K, [(2,), (1,)]), 2))
    assert h3 == expect
    d = C.diff(expect)
    assert d == Chain.single(_cell_from_bars(K, [(3,)]), 1) - \
        3 * Chain.single(one, 1)
    # five axioms, sampled on random bar-coordinate chains (the source has
    # no finite basis, so build cells by hand)
    rng = random.Random(41)
    for k in range(4):
        for _ in range(12):
            cells = [_cell_from_bars(K, [(rng.choice([-2, -1, 1, 2, 3]),)
                                         for _ in range(k)])
                     for _ in range(3)]
            x = Chain(k, {c: rng.randint(-3, 3) for c in cells})
            assert red.h(red.h(x)).is_zero()
            assert red.f(red.h(x)).is_zero()
            lhs = C.diff(red.h(x)) + red.h(C.diff(x))
            rhs = x - red.g(red.f(x))
            assert (lhs - rhs).is_zero()
    for y in (Chain.single(vertex, 0, 2), Chain.single(one, 1, 4)):
        assert (red.f(red.g(y)) - y).is_zero()
        assert red.h(red.g(y)).is_zero()
    groups = homology_groups(E.effective, 3)
    assert groups == [Z, Z, ZERO_GROUP, ZERO_GROUP]


# ---------------------------------------------------------------------------
# equipped Eilenberg-MacLane spaces
# ---------------------------------------------------------------------------

def primary_invariants(group):
    """(rank, sorted prime-power torsion) -- compares groups up to iso."""
    prim = []
    for m in group.torsion:
        d = 2
        while d * d <= m:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if e:
                prim.append(d ** e)
            d += 1
        if m > 1:
            prim.append(m)
    return (group.rank, tuple(sorted(prim)))


def bar_words(K, m, k):
    """Every nondegenerate k-simplex of K(Z/m,1), as bar words."""
    return [_cell_from_bars(K, [(b,) for b in bars])
            for bars in itertools.product(range(1, m), repeat=k)]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_kzm1_field_is_an_admissible_involution(m):
    """Over every cell of degree 1-5: the field pairs sources with targets
    both ways, its critical cells are exactly critical(k), and the Morse
    reduction evaluates h everywhere, refusing no pairing and no cycle."""
    K = EMSpace(cyclic(m), 1)
    field, critical = kzm1_field(K, m)
    C = normalized_chains(K)
    red = morse_reduction(C, field, critical=critical)
    for k in range(1, 6):
        crit = []
        for cell in bar_words(K, m, k):
            cls = field(cell)
            if cls is None:
                crit.append(cell)
                continue
            kind, partner = cls
            assert partner.dim == k + (1 if kind == "s" else -1)
            assert field(partner) == ("t" if kind == "s" else "s", cell)
            if kind == "s":
                assert abs(C.diff_cell(partner).coeff(cell)) == 1
            red.h.on_cell(cell)
        assert crit == list(critical(k))
    assert critical(0) == [K.zero_simplex(0)]
    assert_reduction_axioms(red, 5, seed=m, samples=8,
                            basis=lambda D, k: bar_words(K, m, k)
                            if D is C else D.basis(k))


def test_cyclic_em1_homology():
    for m in (2, 3, 4, 12):
        E = em1_equivalence(cyclic(m))
        groups = homology_groups(E.effective, 6)
        assert groups == [Z] + [cyclic(m), ZERO_GROUP] * 3
        assert [len(E.effective.basis(k)) for k in range(7)] == [1] * 7


def test_mixed_group_em1():
    pi = AbGroup((0, 2))
    E = em_equivalence(pi, 1)
    assert E.obj.group is pi
    h1 = complex_homology(E.effective, 1).group
    assert primary_invariants(h1) == (1, (2,))


# H_0..H_5 of K(Z/2,2) as `primary_invariants`
KZ2_2_TABLE = [(1, ()), (0, ()), (0, (2,)), (0, ()), (0, (4,)), (0, (2,))]


def test_em2_homology_tables():
    E = em_equivalence(Z, 2)
    groups = homology_groups(E.effective, 6)
    assert groups == [Z, ZERO_GROUP, Z, ZERO_GROUP, Z, ZERO_GROUP, Z]
    E2 = em_equivalence(cyclic(2), 2)
    for k, inv in enumerate(KZ2_2_TABLE):
        assert primary_invariants(
            complex_homology(E2.effective, k).group) == inv


def test_ev_induces_isomorphism_on_top_homology():
    for pi in (Z, cyclic(2), cyclic(6)):
        for n in (1, 2):
            E = em_equivalence(pi, n)
            H = complex_homology(E.effective, n)
            assert primary_invariants(H.group) == primary_invariants(pi)
            # H_n is cyclic here; ev of a generating cycle generates pi
            gen = tuple(1 if i == 0 else 0 for i in range(H.group.ngens))
            rep = E.pull(H.rep_of(gen))
            assert E.chains.diff(rep).is_zero()
            v = ev(E.obj, rep)
            if pi.rank:
                assert v in ((1,), (-1,))
            else:
                assert gcd(v[0], pi.mm[0]) == 1


# ---------------------------------------------------------------------------
# K(pi,n) of a decomposable pi, equipped as the product of its cyclic factors
# ---------------------------------------------------------------------------

SPLIT_GROUPS = [AbGroup((0, 0)), AbGroup((0, 2)), AbGroup((2, 2))]
SPLIT_IDS = ["Z+Z", "Z+Z2", "Z2+Z2"]


def nondegenerate_cocycles(K, k, rng, draws=6):
    cells = dict.fromkeys(K.canon(random_cocycle_raw(K, k, rng, density=0.6))
                          for _ in range(draws))
    return [c for c in cells if not c.is_degenerate()]


def factor_equipments(pi, n):
    return [em_equivalence(AbGroup((m,)), n) for m in pi.mm]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pi", SPLIT_GROUPS, ids=SPLIT_IDS)
def test_split_equipment(pi, n):
    E = em_equivalence(pi, n)
    top = n + 2
    rng = random.Random(n)
    basis = equipment_samples(
        E, top, lambda k: nondegenerate_cocycles(E.obj, k, rng))
    for red in (E.red, E.eq.left, E.eq.right):
        assert_reduction_axioms(red, top, seed=n, samples=8, basis=basis)
    assert_dd_zero(E.eq.small, top + 1)
    # the effective end is the tensor product of the factors' effective ends
    a, b = ([len(F.eq.small.basis(k)) for k in range(top + 2)]
            for F in factor_equipments(pi, n))
    assert [len(E.eq.small.basis(k)) for k in range(top + 2)] == \
        [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(top + 2)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pi", SPLIT_GROUPS, ids=SPLIT_IDS)
def test_split_and_merge_are_inverse_simplicial_maps(pi, n):
    K = em_equivalence(pi, n).obj
    X, Y = (F.obj for F in factor_equipments(pi, n))
    P = ProductSSet(X, Y)
    split, merge = split_maps(K, P)
    rng = random.Random(n)
    for m in range(n, n + 4):
        for _ in range(8):
            s = K.canon(random_cocycle_raw(K, m, rng))
            assert merge(split(s)) == s
            for i in range(m + 1):
                assert split(K.face(i, s)) == P.face(i, split(s))
            # the j-th factor carries the j-th pi-coordinate of the cocycle
            labels = K.uncanon(s)[1]
            for j, (S, c) in enumerate(zip((X, Y), P.components(split(s)))):
                assert S.uncanon(c) == \
                    S.make_raw(m, [(t, (v[j],)) for t, v in labels])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ev_induces_isomorphism_on_h_n_of_z_plus_z(n):
    E = em_equivalence(AbGroup((0, 0)), n)
    H = complex_homology(E.effective, n)
    assert H.group == AbGroup((0, 0))
    reps = [E.pull(H.rep_of(gen)) for gen in ((1, 0), (0, 1))]
    assert all(E.chains.diff(rep).is_zero() for rep in reps)
    (p, q), (r, s) = (ev(E.obj, rep) for rep in reps)
    assert abs(p * s - q * r) == 1


def kunneth(HX, HY, k):
    """H_k(X x Y) from the `primary_invariants` tables of X and Y."""
    rank, tors = 0, []
    for i in range(k + 1):
        (ra, ta), (rb, tb) = HX[i], HY[k - i]
        rank += ra * rb
        tors += list(ta) * rb + list(tb) * ra
        tors += [gcd(p, q) for p in ta for q in tb if gcd(p, q) > 1]
    for i in range(k):
        # Tor(H_i X, H_{k-1-i} Y)
        (_, ta), (_, tb) = HX[i], HY[k - 1 - i]
        tors += [gcd(p, q) for p in ta for q in tb if gcd(p, q) > 1]
    return (rank, tuple(sorted(tors)))


def test_split_em2_homology_is_kunneth_of_the_tables():
    kz2 = [(1, ()), (0, ())] * 3                  # Z, 0, Z, 0, Z, 0
    E = em_equivalence(AbGroup((0, 2)), 2)
    for k in range(6):
        assert primary_invariants(complex_homology(E.effective, k).group) == \
            kunneth(kz2, KZ2_2_TABLE, k)
