import random

import pytest

from effhom.abgroup import AbGroup, Z, ZERO_GROUP
from effhom.chains import (CCx, Chain, ChainMap, TensorCCx, TensorCell,
                           complex_homology, homology_groups,
                           normalized_chains, z_complex)
from effhom.reduction import (Equipped, StrongEq,
                              basic_perturbation, compose_reductions,
                              cone_equipment, easy_perturbation,
                              identity_reduction, iso_as_reduction,
                              morse_reduction,
                              perturb_strong_equivalence, perturbed_complex,
                              random_chain, reduction_as_equivalence,
                              trivial_equipment, trivial_equivalence,
                              zero_map)
from effhom.simplicial import sphere, standard_simplex
from helpers import assert_dd_zero, assert_reduction_axioms, vertex_map


def cone_field(X, apex=0):
    """Discrete vector field collapsing a cone-like complex toward `apex`.

    Pairs a cell sigma not containing the apex with apex*sigma when the
    latter is present; cells containing the apex are the targets.
    """
    cells = set(X.all_cells())

    def field(s):
        c = s.base
        if apex in c:
            rest = tuple(v for v in c if v != apex)
            if rest:
                from effhom.simplicial import nondeg
                return ("t", nondeg(rest, len(rest) - 1))
            return None
        up = tuple(sorted((apex,) + c))
        if up in cells:
            from effhom.simplicial import nondeg
            return ("s", nondeg(up, len(up) - 1))
        return None

    return field


def sphere_morse_reduction(n=2):
    X = sphere(n)
    C = normalized_chains(X)
    return morse_reduction(C, cone_field(X))


def small_reduction():
    """Four-cell complex collapsed onto two critical cells.

    w (deg 2) -> x (deg 1); y (deg 1) and z (deg 0) critical.
    """
    dims = {"w": 2, "x": 1, "y": 1, "z": 0}

    def diff_cell(c):
        if c == "w":
            return Chain.single("x", 1)
        return Chain.zero(dims[c] - 1)

    def basis(k):
        return [c for c, d in dims.items() if d == k]

    C = CCx(lambda c: dims[c], diff_cell, basis, name="small")
    field = {"w": ("t", "x"), "x": ("s", "w"), "y": None, "z": None}
    return C, morse_reduction(C, field.get)


def test_identity_and_trivial():
    C = normalized_chains(sphere(1))
    r = identity_reduction(C)
    assert_reduction_axioms(r, 2)
    assert compose_reductions(r, r).f.on_cell(C.basis(1)[0]) == \
        Chain.single(C.basis(1)[0], 1)
    eq = trivial_equivalence(C)
    assert eq.big is C and eq.small is C


def test_morse_reduction_on_simplex():
    X = standard_simplex(3)
    C = normalized_chains(X)
    red = morse_reduction(C, cone_field(X))
    assert_reduction_axioms(red, 4, samples=15)
    assert [len(red.target.basis(k)) for k in range(4)] == [1, 0, 0, 0]
    assert homology_groups(red.target, 3) == [Z, ZERO_GROUP, ZERO_GROUP,
                                              ZERO_GROUP]


def test_morse_reduction_on_sphere():
    red = sphere_morse_reduction(2)
    assert_reduction_axioms(red, 3, samples=15)
    # critical cells: the apex vertex and the top cell not containing it
    assert [len(red.target.basis(k)) for k in range(3)] == [1, 0, 1]
    assert homology_groups(red.target, 2) == [Z, ZERO_GROUP, Z]
    assert_dd_zero(red.target, 3)


def test_compose_two_step_formula():
    r1 = sphere_morse_reduction(2)
    r2 = identity_reduction(r1.target)
    comp = compose_reductions(r1, r2)
    rng = random.Random(1)
    for k in range(3):
        x = random_chain(r1.source.basis(k), k, rng)
        # h = h1 + g1 h2 f1 with h2 = 0 here
        assert (comp.h(x) - r1.h(x)).is_zero()
        assert (comp.f(x) - r2.f(r1.f(x))).is_zero()
    assert_reduction_axioms(comp, 3, samples=10)


def test_basic_perturbation_zero_delta():
    C, red = small_reduction()
    delta = zero_map(C, C, shift=-1)
    Cp = perturbed_complex(C, delta)
    out = basic_perturbation(red, Cp, delta)
    assert out.source is Cp
    rng = random.Random(3)
    for k in range(3):
        x = random_chain(C.basis(k), k, rng)
        assert (out.f(x) - red.f(x)).is_zero()
        assert (out.h(x) - red.h(x)).is_zero()
    assert_reduction_axioms(out, 2)


def test_basic_perturbation_two_term_series():
    # two collapse pairs; delta(w2) = x1 feeds one pair into the other,
    # so the series has exactly two nonzero terms
    dims = {"w1": 2, "w2": 2, "x1": 1, "x2": 1, "z": 0}

    def diff_cell(c):
        if c == "w1":
            return Chain.single("x1", 1)
        if c == "w2":
            return Chain.single("x2", 1)
        return Chain.zero(dims[c] - 1)

    C = CCx(lambda c: dims[c], diff_cell,
            lambda k: [c for c, d in dims.items() if d == k])
    field = {"w1": ("t", "x1"), "x1": ("s", "w1"),
             "w2": ("t", "x2"), "x2": ("s", "w2"), "z": None}
    red = morse_reduction(C, field.get)
    assert_reduction_axioms(red, 3)

    def delta_cell(c):
        if c == "w2":
            return Chain.single("x1", 1)
        return Chain.zero(dims[c] - 1)

    delta = ChainMap(C, C, delta_cell, shift=-1)
    out = basic_perturbation(red, perturbed_complex(C, delta), delta)
    assert_dd_zero(out.source, 3)
    assert_dd_zero(out.target, 3)
    assert_reduction_axioms(out, 3)
    assert homology_groups(out.target, 2) == [Z, ZERO_GROUP, ZERO_GROUP]


def test_basic_perturbation_detects_non_nilpotent():
    C, red = small_reduction()

    def delta_cell(c):
        if c == "w":
            return Chain.single("x", 1)
        return Chain.zero(C.cell_dim(c) - 1)

    delta = ChainMap(C, C, delta_cell, shift=-1)
    with pytest.raises(ArithmeticError):
        out = basic_perturbation(red, perturbed_complex(C, delta), delta)
        out.h(Chain.single("x", 1))


def test_basic_perturbation_checks_zero_small_delta_in_g():
    C, red = small_reduction()

    def delta_cell(c):
        if c == "y":
            return Chain.single("z", 0, 2)
        return Chain.zero(C.cell_dim(c) - 1)

    # delta joins the two critical cells, so f psi delta g (y) = 2z
    delta = ChainMap(C, C, delta_cell, shift=-1)
    out = basic_perturbation(red, perturbed_complex(C, delta), delta,
                             check_zero_small_delta=True)
    assert out.target is red.target
    assert out.g.on_cell("z") == Chain.single("z", 0)
    with pytest.raises(AssertionError, match="induced perturbation"):
        out.g.on_cell("y")


def test_easy_perturbation():
    C, red = small_reduction()

    def delta_small(c):
        if c == "y":
            return Chain.single("z", 0, 2)
        return Chain.zero(red.target.cell_dim(c) - 1)

    delta = ChainMap(red.target, red.target, delta_small, shift=-1)
    Dp = perturbed_complex(red.target, delta)
    out = easy_perturbation(red, Dp, delta)
    assert out.target is Dp
    assert_dd_zero(out.source, 2)
    assert_reduction_axioms(out, 2)
    assert homology_groups(out.source, 1) == [AbGroup((2,)), ZERO_GROUP]
    assert homology_groups(out.target, 1) == [AbGroup((2,)), ZERO_GROUP]


def test_perturb_strong_equivalence():
    C, red = small_reduction()
    eq = StrongEq(C, identity_reduction(C), red)

    def delta_cell(c):
        if c == "y":
            return Chain.single("z", 0, 2)
        return Chain.zero(C.cell_dim(c) - 1)

    delta = ChainMap(C, C, delta_cell, shift=-1)
    Cp = perturbed_complex(C, delta)
    out = perturb_strong_equivalence(eq, Cp, delta)
    assert out.big is Cp
    assert out.left.source is out.middle is out.right.source
    assert_dd_zero(out.middle, 2)
    assert_reduction_axioms(out.left, 2)
    assert_reduction_axioms(out.right, 2)
    assert homology_groups(out.small, 1) == [AbGroup((2,)), ZERO_GROUP]


def test_iso_as_reduction_swap_factors():
    C = normalized_chains(sphere(1))
    T = TensorCCx([C, C])
    T2 = TensorCCx([C, C])

    def swap(sign_from):
        def on_cell(cell):
            a, b = cell.parts
            p, q = cell.dims
            return Chain.single(TensorCell((b, a), (q, p)), p + q,
                                (-1) ** (p * q))
        return on_cell

    fwd = ChainMap(T, T2, swap(T))
    bwd = ChainMap(T2, T, swap(T2))
    red = iso_as_reduction(T, T2, fwd, bwd)
    assert_reduction_axioms(red, 2)
    rng = random.Random(5)
    for k in range(1, 3):
        x = random_chain(T.basis(k), k, rng)
        assert (fwd(T.diff(x)) - T2.diff(fwd(x))).is_zero()


def test_equipped_homology_trivial_and_morse():
    C = normalized_chains(sphere(2))
    E = trivial_equipment(sphere(2), C)
    H = complex_homology(E.effective, 2)
    assert H.group == Z
    rep = E.pull(H.rep_of((1,)))
    assert C.diff(rep).is_zero()
    assert H.class_of(E.push(rep)) == (1,)

    red = sphere_morse_reduction(2)
    E2 = Equipped(sphere(2), red.source, reduction_as_equivalence(red))
    H2 = complex_homology(E2.effective, 2)
    assert H2.group == Z
    rep2 = E2.pull(H2.rep_of((1,)))
    assert red.source.diff(rep2).is_zero()
    assert H2.class_of(E2.push(rep2)) == (1,)


def test_perturbed_complex_shares_basis():
    C, _ = small_reduction()
    delta = zero_map(C, C, shift=-1)
    P = perturbed_complex(C, delta)
    assert P.basis(1) == C.basis(1)
    assert (P.diff_cell("w") - C.diff_cell("w")).is_zero()
    assert P.delta is delta


def test_cone_equipment_multiplication_map():
    # cone of (x m): Z -> Z has H_0 = Z/m
    C, D = z_complex(), z_complex()
    phi = ChainMap(C, D, lambda c: Chain.single("*", 0, 3))
    E = cone_equipment(phi, trivial_equipment(C, C), trivial_equipment(D, D))
    # without reductions on either side the equipment is the cone roof
    assert E.red is None and E.chains is E.eq.big and E.chains.phi is phi
    assert_dd_zero(E.eq.middle, 2)
    assert_reduction_axioms(E.eq.left, 2)
    assert_reduction_axioms(E.eq.right, 2)
    assert homology_groups(E.effective, 1) == [AbGroup((3,)), ZERO_GROUP]


def test_cone_equipment_nontrivial_legs():
    from effhom.chains import induced_chain_map
    X = sphere(2)
    red = sphere_morse_reduction(2)
    CX = red.source
    pt = standard_simplex(0)
    Cpt = normalized_chains(pt)
    phi = induced_chain_map(vertex_map(X, pt, {v: 0 for v in range(4)}),
                            CX, Cpt)
    E = cone_equipment(phi, Equipped(X, CX, reduction_as_equivalence(red)),
                       trivial_equipment(pt, Cpt))
    assert_dd_zero(E.eq.middle, 4)
    assert_reduction_axioms(E.eq.left, 3, samples=10)
    assert_reduction_axioms(E.eq.right, 3, samples=10)
    # cone of S^2 -> pt kills H_0 and shifts H_2 up
    assert homology_groups(E.effective, 3) == [ZERO_GROUP, ZERO_GROUP,
                                               ZERO_GROUP, Z]


def test_cone_equipment_nontrivial_legs_on_both_sides():
    X = sphere(2)
    C = normalized_chains(X)

    def equipment(a, b):
        # red: C => crit_a, then the roof crit_a <= C => crit_b; h is
        # nonzero on the reduction and on both legs
        ra = morse_reduction(C, cone_field(X, a))
        rb = morse_reduction(C, cone_field(X, b))
        return Equipped(X, C, StrongEq(C, ra, rb), ra)

    eqX, eqY = equipment(0, 1), equipment(2, 3)
    phi = ChainMap(C, C, lambda c: Chain.single(c, C.cell_dim(c), 2))
    E = cone_equipment(phi, eqX, eqY)
    for red in (eqX.red, eqX.eq.right, eqY.red, eqY.eq.right):
        assert any(not red.h.on_cell(c).is_zero()
                   for k in range(3) for c in red.source.basis(k))
    assert E.chains is E.red.source and E.red.target is E.eq.big
    assert_dd_zero(E.chains, 4)
    assert_dd_zero(E.eq.middle, 4)
    for red in (E.red, E.eq.left, E.eq.right):
        assert_reduction_axioms(red, 3, samples=10)
    # the cone of multiplication by 2 on S^2: coker in H_0 and H_2
    assert homology_groups(E.effective, 3) == [AbGroup((2,)), ZERO_GROUP,
                                               AbGroup((2,)), ZERO_GROUP]
    H = complex_homology(E.effective, 2)
    rep = E.pull(H.rep_of((1,)))
    assert E.chains.diff(rep).is_zero() and H.class_of(E.push(rep)) == (1,)


def test_equipped_refuses_a_reduction_off_the_roof():
    red = sphere_morse_reduction(2)
    C = red.source
    X = sphere(2)
    Equipped(X, C, reduction_as_equivalence(red))
    Equipped(X, C, trivial_equivalence(red.target), red)
    with pytest.raises(ValueError, match="big end of the roof"):
        # the roof starts at a copy of crit, not at red's target
        crit = CCx(red.target.cell_dim, red.target.diff_cell,
                   red.target._basis_fn)
        Equipped(X, C, trivial_equivalence(crit), red)
    with pytest.raises(ValueError, match="big end of the roof"):
        Equipped(X, C, reduction_as_equivalence(red), red)
    with pytest.raises(ValueError, match="start at the object's chains"):
        Equipped(X, red.target, reduction_as_equivalence(red))


def test_suspended_ideal_equivalence_refuses_several_vertices():
    from effhom.bar import suspended_ideal_equivalence
    C = normalized_chains(standard_simplex(1))      # 2 vertices, 1 edge
    with pytest.raises(ValueError, match="not 0-reduced: it has 2 vertices"):
        suspended_ideal_equivalence(trivial_equivalence(C))
    # without a basis, the edge is refused when its differential is read
    A = CCx(C.cell_dim, C.diff_cell)
    eq = suspended_ideal_equivalence(trivial_equivalence(A))
    with pytest.raises(ValueError, match="not 0-reduced: d does not vanish"):
        eq.middle.diff_cell(C.basis(1)[0])
