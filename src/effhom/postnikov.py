"""Postnikov stages and homotopy groups of equipped 1-connected objects.

The stage loop: cone the chain map of phi_{i-1}: Y -> P_{i-1}, read
pi_i = H_{i+1} off the effective cone, split the degree-(i+1) chain group
into kernel + complement to get the classifying cocycle rho, restrict it
to the two cone summands (kappa on P_{i-1}, lambda on Y), and glue the
next stage as the pullback of the path-loop fibration along kappa, or the
plain product when kappa vanishes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .abgroup import AbGroup
from .bar import pullback_fibration
from .chains import (Chain, Cochain, Tag, complex_homology,
                     induced_chain_map, normalized_chains)
from .em import (EMSpace, cochain_to_map, delta_map, pseudo_section_psi,
                 em_equivalence)
from .ez import product_equivalence
from .reduction import Equipped, cone_equipment, trivial_equipment
from .simplicial import SMap, Simplex, from_facets, nondeg


@dataclass
class StageData:
    """Everything attached to the i-th stage of a tower."""

    i: int
    pi_i: AbGroup
    kappa_ef: dict                # effective (i+1)-cells of P_{i-1} -> pi_i
    lambda_ef: dict               # effective i-cells of Y -> pi_i
    P_i: Equipped                 # the stage, a (twisted) product over P_{i-1}
    phi_i: SMap                   # Y -> P_i
    k_invariant: SMap             # P_{i-1} -> K(pi_i, i+1)
    # internals used by the evaluators and the verifier
    ell_map: SMap = None          # Y -> E(pi_i, i)
    K_space: EMSpace = None       # K(pi_i, i+1)
    fiber: Equipped = None
    eff_P_prev: object = None     # effective complex of P_{i-1}


@dataclass
class PostnikovTower:
    Y: Equipped
    k: int
    stages: list = field(default_factory=list)   # stages[i-1] is stage i
    P0: Equipped = None
    phi0: SMap = None
    degree_cap: int = None

    def stage(self, i: int) -> StageData:
        return self.stages[i - 1]


def point_space():
    return from_facets([(0,)])


def _constant_map(X, T, vertex: Simplex) -> SMap:
    """X -> T, every m-simplex to the totally degenerate m-simplex on vertex."""
    return SMap(X, T, lambda base: T.apply_degeneracies(vertex,
                                                         range(X.dim_of(base))))


def _build_stage(tower: PostnikovTower, i: int,
                 P_prev: Equipped, phi_prev: SMap) -> StageData:
    Y = tower.Y
    phi_star = induced_chain_map(phi_prev, Y.chains, P_prev.chains)
    cone = cone_equipment(phi_star, Y, P_prev)
    EC = cone.effective

    solver = complex_homology(EC, i + 1)
    pi = solver.group
    basis = EC.basis(i + 1)
    # rho: class of the projection onto the cycles along the Smith complement
    rho_chain = solver.projected_class_of

    def rho_f(z: Chain):
        return rho_chain(cone.push(z))

    kappa_ef = {c.cell: rho_chain(Chain.single(c, i + 1))
                for c in basis if c.tag == "b"}
    lambda_ef = {c.cell: rho_chain(Chain.single(c, i + 1))
                 for c in basis if c.tag == "a"}

    lambda_full = Cochain(
        pi, i, lambda cell: rho_f(Chain.single(Tag("a", cell), i + 1)))
    kappa_full = Cochain(
        pi, i + 1, lambda cell: rho_f(Chain.single(Tag("b", cell), i + 1)))

    Kup = EMSpace(pi, i + 1)
    E = EMSpace(pi, i, "E")
    ell_map = cochain_to_map(lambda_full, Y.obj, E)

    fiber = em_equivalence(pi, i)
    if any(not pi.is_zero(v) for v in kappa_ef.values()):
        k_invariant = cochain_to_map(kappa_full, P_prev.obj, Kup)
        P_i = pullback_fibration(P_prev, k_invariant, fiber)
    else:
        # kappa = kappa_ef o push is zero: push keeps a cell of P_{i-1} in
        # the P_{i-1} summand and rho is linear, so the pullback along the
        # constant k-invariant is the plain product
        k_invariant = _constant_map(P_prev.obj, Kup, Kup.zero_simplex(0))
        P_i = product_equivalence([fiber, P_prev])
    TP = P_i.obj
    Kn = fiber.obj

    def phi_base(base):
        sigma = nondeg(base, Y.obj.dim_of(base))
        p = phi_prev(sigma)
        e_raw = E.uncanon(ell_map(sigma))
        psi_raw = pseudo_section_psi(E, Kup.uncanon(k_invariant(p)))
        g_raw = E.raw_add(e_raw, E.raw_neg(psi_raw))
        return TP.pair(Kn.canon(g_raw), p)

    phi_i = SMap(Y.obj, TP, phi_base)
    return StageData(i, pi, kappa_ef, lambda_ef, P_i, phi_i, k_invariant,
                     ell_map=ell_map, K_space=Kup, fiber=fiber,
                     eff_P_prev=P_prev.effective)


_tower_cache = {}


def build_tower(Y: Equipped, k: int, degree_cap=None) -> PostnikovTower:
    """Stages P_1..P_k of an equipped Y, assumed 1-connected.

    Empty or disconnected Y (read off H_0 of its effective complex) and Y
    with a nontrivial stage-1 group are refused with a ValueError.  The
    result is cached per equipped object and extended in place when a
    larger k is requested later.
    """
    if k < 2:
        raise ValueError("build_tower needs k >= 2")
    cap = degree_cap if degree_cap is not None else k + 2
    if cap < k + 2:
        raise ValueError("degree cap must be at least k + 2")
    cached = _tower_cache.get(id(Y))
    if cached is None or cached[0] is not Y:
        components = complex_homology(Y.effective, 0).group.rank
        if components == 0:
            raise ValueError("the input is empty")
        if components > 1:
            raise ValueError(f"the input is not connected: it has "
                             f"{components} components")
        warnings.warn("homotopy groups are only meaningful for 1-connected "
                      "input; this is not checked beyond H_1", stacklevel=2)
        P0obj = point_space()
        P0 = trivial_equipment(P0obj, normalized_chains(P0obj, name="C(pt)"))
        vertex = nondeg(P0obj.cells(0)[0], 0)
        tower = PostnikovTower(Y, 0, [], P0,
                               _constant_map(Y.obj, P0obj, vertex), cap)
        _tower_cache[id(Y)] = (Y, tower)
    else:
        tower = cached[1]
        tower.degree_cap = max(tower.degree_cap, cap)
    while tower.k < k:
        i = tower.k + 1
        P_prev = tower.stages[-1].P_i if tower.stages else tower.P0
        phi_prev = tower.stages[-1].phi_i if tower.stages else tower.phi0
        stage = _build_stage(tower, i, P_prev, phi_prev)
        if i == 1 and not stage.pi_i.is_trivial():
            raise ValueError(
                f"stage-1 group is {stage.pi_i.render()}; the input is not "
                "simply connected and the tower is undefined")
        tower.stages.append(stage)
        tower.k = i
    return tower


def homotopy_group(Y: Equipped, k: int) -> AbGroup:
    """The isomorphism type of pi_k for equipped 1-connected Y (k >= 2)."""
    return build_tower(Y, k).stage(k).pi_i


def evaluate_phi(T: PostnikovTower, i: int, sigma: Simplex) -> Simplex:
    """phi_i(sigma), with the pullback membership equations asserted."""
    if i == 0:
        return T.phi0(sigma)
    if i > T.k:
        raise ValueError(f"tower only has {T.k} stages")
    out = T.stage(i).phi_i(sigma)
    # membership: the E-coordinate of each level maps to kappa of the one
    # below under the fibration projection
    prev = T.phi0(sigma) if i == 1 else T.stage(i - 1).phi_i(sigma)
    st = T.stage(i)
    lhs = delta_map(st.ell_map.target, st.K_space)(st.ell_map(sigma))
    rhs = st.k_invariant(prev)
    if lhs != rhs:
        raise AssertionError(
            f"phi_{i}({sigma!r}) leaves the pullback: delta(ell) != kappa")
    return out


def evaluate_k_invariant(T: PostnikovTower, i: int, sigma: Simplex) -> Simplex:
    """k_{i-1}(sigma) for sigma a simplex of P_{i-1}."""
    if not 1 <= i <= T.k:
        raise ValueError(f"tower only has {T.k} stages")
    return T.stage(i).k_invariant(sigma)


def verify_tower(T: PostnikovTower) -> dict:
    """Run the stage-consistency checks; returns {check name: passed}."""
    report = {}
    Y = T.Y
    cap = T.degree_cap
    report["pi1_trivial"] = T.stage(1).pi_i.is_trivial() if T.k >= 1 else True
    for st in T.stages:
        i = st.i
        # kappa^ef is a cocycle on the effective complex of P_{i-1}
        ok = True
        effP = st.eff_P_prev
        for cell in effP.basis(i + 2):
            acc = st.pi_i.zero()
            for fcell, c in effP.diff_cell(cell).items():
                val = st.kappa_ef.get(fcell, st.pi_i.zero())
                acc = st.pi_i.add(acc, st.pi_i.scale(c, val))
            if not st.pi_i.is_zero(acc):
                ok = False
        report[f"kappa_cocycle_stage_{i}"] = ok

        # delta ell_i = kappa_{i-1} . phi_{i-1} on Y-simplices up to cap
        ok = True
        delta = delta_map(st.ell_map.target, st.K_space)
        phi_prev = T.phi0 if i == 1 else T.stage(i - 1).phi_i
        for d in range(cap + 1):
            for cell in Y.chains.basis(d):
                sigma = nondeg(cell.base, d)
                if delta(st.ell_map(sigma)) != st.k_invariant(phi_prev(sigma)):
                    ok = False
        report[f"cochain_identity_stage_{i}"] = ok

        # phi_i images satisfy the pullback equations
        ok = True
        for d in range(min(cap, T.k + 1) + 1):
            for cell in Y.chains.basis(d):
                try:
                    evaluate_phi(T, i, nondeg(cell.base, d))
                except AssertionError:
                    ok = False
        report[f"membership_stage_{i}"] = ok
    return report
