import random

import pytest

from effhom.abgroup import AbGroup, Z, ZERO_GROUP, cyclic
from effhom.bar import (TwistedProductSSet, _bar, _coefficient_twist,
                        _division_bars, _strata, _word_complex,
                        bar_inverse_reduction, em_product, pullback_fibration,
                        suspended_ideal, suspended_ideal_equivalence,
                        twisted_division, twisted_product_equivalence)
from effhom.chains import (Chain, TensorCCx, TensorCell, homology_groups,
                           normalized_chains, z_complex)
from effhom.em import (EMSpace, _cell_from_bars, em1_equivalence,
                       em_equivalence, path_fibration)
from effhom.ez import ez_reduction, product_equivalence, tensor_of_reductions
from effhom.reduction import (Equipped, compose_reductions, identity_reduction,
                              reduction_as_equivalence, trivial_equipment,
                              trivial_equivalence)
from effhom.simplicial import ProductSSet, sphere
from helpers import (assert_dd_zero, assert_reduction_axioms, chain_product,
                     coefficient_twist_oracle, equipment_samples,
                     random_cocycle_raw)


def unit_twist(G):
    return lambda s: G.zero_simplex(s.dim - 1)


def km1_cells(G, rng, k, count):
    """Seeded distinct nondegenerate k-cells of K(Z/m,1) in bar
    coordinates, at most `count` of them."""
    m = G.group.mm[0]
    words = (_cell_from_bars(G, [(rng.randint(1, m - 1),) for _ in range(k)])
             for _ in range(count))
    return list(dict.fromkeys(words))


def test_twisted_product_unit_twist_is_plain_product():
    G = EMSpace(cyclic(3), 1)
    B = sphere(2)
    TP = TwistedProductSSet(G, B, unit_twist(G))
    P = ProductSSet(G, B)
    rng = random.Random(0)
    base = [B.simplex(c) for d in range(3) for c in B.cells(d)]
    for _ in range(10):
        k = rng.randint(1, 3)
        g = km1_cells(G, rng, k, 1)[0]
        b = rng.choice([s for s in base if s.dim <= k])
        b = B.apply_degeneracies(b, sorted(rng.sample(range(k), k - b.dim)))
        cell = TP.pair(g, b)
        for i in range(k + 1):
            assert TP.face(i, cell) == P.face(i, cell), (cell, i)


def test_em_product_basics():
    G = EMSpace(cyclic(3), 1)
    A = normalized_chains(G)
    mul_cells = em_product(G)
    unit = G.zero_simplex(0)
    e = _cell_from_bars(G, [(1,)])
    # unit acts as identity
    assert mul_cells(unit, e) == Chain.single(e, 1)
    assert mul_cells(e, unit) == Chain.single(e, 1)
    # degree adds and the Leibniz rule holds, on seeded pairs of cells
    rng = random.Random(2)
    cells1 = km1_cells(G, rng, 1, 6)
    cells2 = km1_cells(G, rng, 2, 6)
    assert len(cells1) == 2 and len(cells2) >= 3
    nonzero = 0
    for a in cells1:
        for b in cells2:
            ab = mul_cells(a, b)
            assert ab.is_zero() or ab.degree == 3
            nonzero += not ab.is_zero()
            lhs = A.diff(ab)
            rhs = (chain_product(mul_cells, A.diff_cell(a), Chain.single(b, 2))
                   - chain_product(mul_cells, Chain.single(a, 1),
                                   A.diff_cell(b)))
            assert (lhs - rhs).is_zero()
    assert nonzero > 1
    # associativity on 1-cells
    for a in cells1:
        x = Chain.single(a, 1)
        assert (chain_product(mul_cells, chain_product(mul_cells, x, x), x)
                - chain_product(mul_cells, x, chain_product(mul_cells, x, x))
                ).is_zero()


def test_em_product_on_kz1_leibniz():
    G = EMSpace(Z, 1)
    A = normalized_chains(G)
    mul_cells = em_product(G)
    a = _cell_from_bars(G, [(2,)])
    b = _cell_from_bars(G, [(3,), (1,)])
    ab = mul_cells(a, b)
    lhs = A.diff(ab)
    rhs = chain_product(mul_cells, A.diff_cell(a), Chain.single(b, 2)) \
        - chain_product(mul_cells, Chain.single(a, 1), A.diff_cell(b))
    assert (lhs - rhs).is_zero()


def test_suspended_ideal_shape():
    kz1 = em1_equivalence(Z)
    A = kz1.chains
    Abar = suspended_ideal(A)
    c = _cell_from_bars(kz1.obj, [(3,)])
    assert Abar.cell_dim(c) == 2
    d = Abar.diff_cell(_cell_from_bars(kz1.obj, [(2,), (3,)]))
    assert d.terms == (-A.diff_cell(_cell_from_bars(kz1.obj, [(2,), (3,)]))).terms
    assert d.degree == 2


def test_suspended_ideal_equivalence_homology():
    kz1 = em1_equivalence(Z)
    eq = suspended_ideal_equivalence(kz1.eq)
    Abar, E = eq.big, eq.small
    assert E.basis(0) == () and E.basis(1) == ()
    assert len(E.basis(2)) == 1
    assert_dd_zero(E, 4)
    # transport: the effective degree-2 cell pulls back to a cycle of Abar
    rep = eq.pull(Chain.single(E.basis(2)[0], 2))
    assert Abar.diff(rep).is_zero()
    assert not eq.push(rep).is_zero()


@pytest.mark.parametrize("pi", [Z, cyclic(2), cyclic(3)],
                         ids=["K(Z,2)", "K(Z/2,2)", "K(Z/3,2)"])
def test_suspended_legs_are_reductions(pi):
    """The entries of the division that equips K(pi,2): both legs of the
    suspended roof of K(pi,1) keep the five reduction axioms."""
    G_eq = em_equivalence(pi, 1)
    K = G_eq.obj
    eq = suspended_ideal_equivalence(G_eq.eq)
    entries = [-2, -1, 1, 2, 3] if pi == Z else range(1, pi.mm[0])
    rng = random.Random(len(entries))

    def cells(k):
        """Seeded bar words of length k - 1, suspended to degree k."""
        words = (_cell_from_bars(K, [(rng.choice(entries),)
                                     for _ in range(k - 1)])
                 for _ in range(6 if k >= 2 else 0))
        return list(dict.fromkeys(words))

    basis = equipment_samples(Equipped(K, eq.big, eq), 6, cells)
    for red in (eq.left, eq.right):
        assert_reduction_axioms(red, 6, seed=len(entries), samples=8,
                                basis=basis)
    assert_dd_zero(eq.small, 7)


def test_bar_inverse_reduction_axioms():
    G = EMSpace(cyclic(2), 1)
    A = normalized_chains(G)
    Abar = suspended_ideal(A)
    Zc = z_complex()
    bar = _bar(_word_complex(_strata(Abar, TensorCCx([A, Zc]))),
               em_product(G))
    # dd = 0 on a spread of handmade bar words
    rng = random.Random(3)
    words = []
    for _ in range(25):
        n = rng.randint(0, 3)
        entries = tuple(_cell_from_bars(G, [(1,)] * rng.randint(1, 2))
                        for _ in range(n))
        ycell = _cell_from_bars(G, [(1,)] * rng.randint(0, 2))
        y = TensorCell((ycell, "*"), (ycell.dim, 0))
        dims = tuple(e.dim + 1 for e in entries) + (y.degree,)
        words.append(TensorCell(entries + (y,), dims))
    for w in words:
        dd = bar.diff(bar.diff_cell(w))
        assert dd.is_zero(), f"dd != 0 on {w!r}: {dd!r}"
    # the standard contraction onto M = Z
    red = bar_inverse_reduction(bar, Zc, G.zero_simplex(0))
    for w in words:
        k = w.degree
        x = Chain.single(w, k)
        assert red.h(red.h(x)).is_zero()
        assert red.f(red.h(x)).is_zero()
        lhs = bar.diff(red.h(x)) + red.h(bar.diff(x))
        rhs = x - red.g(red.f(x))
        assert (lhs - rhs).is_zero(), f"homotopy identity fails on {w!r}"
        # f is a chain map
        assert (red.f(bar.diff(x)) - Zc.diff(red.f(x))).is_zero()
    y = Chain.single("*", 0)
    assert (red.f(red.g(y)) - y).is_zero()
    assert red.h(red.g(y)).is_zero()


def unit_twist_total(kz1, B):
    """K(Z,1) x_tau B for the unit twist, equipped by one reduction.

    The unit twist leaves d_0 untouched, so the Eilenberg-Zilber reduction
    of the plain product serves the twisted one, and the collapse
    of K(Z,1) follows it slotwise: a roof that starts at the chains.
    """
    TP = TwistedProductSSet(kz1.obj, B, unit_twist(kz1.obj))
    CTP = normalized_chains(TP)
    CB = normalized_chains(B)
    ez = ez_reduction(TP, CTP, TensorCCx([kz1.chains, CB]))
    red = compose_reductions(ez, tensor_of_reductions(
        [kz1.eq.right, identity_reduction(CB)], source=ez.target))
    return Equipped(TP, CTP, reduction_as_equivalence(red))


def test_twisted_division_unit_twist_sphere():
    kz1 = em1_equivalence(Z)
    for B, total_groups, expected in (
            (sphere(2), [Z, Z, Z], [Z, ZERO_GROUP, Z]),
            (sphere(1), [Z, AbGroup((0, 0)), Z], [Z, Z, ZERO_GROUP])):
        total = unit_twist_total(kz1, B)
        assert homology_groups(total.effective, 2) == total_groups
        out = twisted_division(kz1, total)
        assert out.obj is B
        assert homology_groups(out.effective, 2) == expected


def test_twisted_division_refuses_a_reduction_in_front_of_the_roof():
    kz1 = em1_equivalence(Z)
    B = sphere(2)
    CB = normalized_chains(B)
    total = twisted_product_equivalence(kz1, trivial_equipment(B, CB),
                                        unit_twist(kz1.obj))
    assert total.red is not None
    with pytest.raises(ValueError, match="roofs start at their chains"):
        twisted_division(kz1, total)
    # the collapse of K(Z,1) in front of a trivial roof on the fibre
    red_first = Equipped(kz1.obj, kz1.chains,
                         trivial_equivalence(kz1.effective), kz1.eq.right)
    with pytest.raises(ValueError, match="roofs start at their chains"):
        twisted_division(red_first, unit_twist_total(kz1, B))


def test_twisted_division_refuses_a_fibre_or_total_it_cannot_read():
    kz1 = em1_equivalence(Z)
    total = unit_twist_total(kz1, sphere(2))
    other = em1_equivalence(Z)
    assert other.obj is not total.obj.X
    with pytest.raises(ValueError, match="does not equip the fibre"):
        twisted_division(other, total)
    # the untwisted S^1 x S^2, equipped by Eilenberg-Zilber alone
    S1, S2 = (trivial_equipment(X, normalized_chains(X))
              for X in (sphere(1), sphere(2)))
    plain = product_equivalence([S1, S2])
    untwisted = Equipped(plain.obj, plain.chains,
                         reduction_as_equivalence(plain.red))
    with pytest.raises(ValueError, match="needs a twisted product"):
        twisted_division(S1, untwisted)


def test_twisted_product_equivalence_unit_twist():
    kz1 = em1_equivalence(Z)
    B = sphere(2)
    E = twisted_product_equivalence(kz1, trivial_equipment(
        B, normalized_chains(B)), unit_twist(kz1.obj))
    groups = homology_groups(E.effective, 3)
    assert groups == [Z, Z, Z, Z]


def test_pullback_fibration_along_zero_map():
    from effhom.em import em_equivalence
    from effhom.simplicial import SMap
    B = sphere(2)
    K2 = EMSpace(Z, 2)
    f = SMap(B, K2, lambda base: K2.zero_simplex(B.dim_of(base)))
    out = pullback_fibration(trivial_equipment(B, normalized_chains(B)),
                             f, em_equivalence(Z, 1))
    groups = homology_groups(out.effective, 3)
    assert groups == [Z, Z, Z, Z]


def test_pullback_fibration_path_loop_space_is_contractible():
    from effhom.em import em_equivalence
    from effhom.simplicial import SMap
    K2eq = em_equivalence(Z, 2)
    K2 = K2eq.obj
    f = SMap(K2, K2, lambda raw: K2.canon(raw), name="id")
    out = pullback_fibration(K2eq, f, em_equivalence(Z, 1))
    groups = homology_groups(out.effective, 3)
    assert groups == [Z, ZERO_GROUP, ZERO_GROUP, ZERO_GROUP]


def path_division(pi):
    """The fibre and total space that K(pi,2) is divided from."""
    G_eq = em_equivalence(pi, 1)
    return G_eq, path_fibration(G_eq.obj)


@pytest.mark.parametrize("division", [
    lambda: path_division(Z), lambda: path_division(cyclic(2)),
    lambda: path_division(cyclic(3))], ids=["K(Z,2)", "K(Z/2,2)", "K(Z/3,2)"])
def test_coefficient_twist_is_the_difference_of_bar_differentials(division):
    """The twist of a bar construction, read off the coefficient slot,
    equals the difference of the bar differentials over Q and over the
    untwisted tensor complex, on seeded words (a_1, ..., a_n, (g, b)) of
    length n = 0, 1, 2.  The sample has words on which it is nonzero, with
    an even and with an odd suspended prefix degree."""
    G_eq, total = division()
    bar_eq, Q, inv = _division_bars(G_eq, total)
    delta = _coefficient_twist(inv.source, Q)
    oracle = coefficient_twist_oracle(bar_eq.big, inv.source)
    G, B = total.obj.X, total.obj.Y
    rng = random.Random(5)

    def simplex(S, m):
        """A seeded nondegenerate m-simplex of S (m = 0 or m >= S.n)."""
        while True:
            s = S.canon(random_cocycle_raw(S, m, rng, rng.choice((0.3, 0.6))))
            if not s.is_degenerate():
                return s

    nonzero_parities = set()
    for n in range(3):
        for _ in range(12):
            entries = [simplex(G, rng.randint(1, 2)) for _ in range(n)]
            g = simplex(G, rng.randint(0, 2))
            b = simplex(B, B.n + rng.randint(0, 1))
            y = TensorCell((g, b), (g.dim, b.dim))
            word = TensorCell((*entries, y),
                              tuple(a.dim + 1 for a in entries) + (y.degree,))
            out = delta.on_cell(word)
            assert out == oracle(word), word
            if not out.is_zero():
                nonzero_parities.add(sum(word.dims[:-1]) % 2)
    assert nonzero_parities == {0, 1}
