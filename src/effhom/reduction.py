"""Reductions, strong equivalences, perturbation lemmas, equipped objects.

A reduction (f, g, h): C => D is the basic unit of effective homology:
f: C -> D and g: D -> C are chain maps with fg = id, id - gf = dh + hd,
and the side conditions fh = 0, hg = 0, hh = 0.  A strong equivalence is
a roof C <= M => E of two reductions out of a common middle complex.
Everything downstream (products, fibrations, Postnikov stages) is built
by composing and perturbing these.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .chains import (CCx, Chain, ChainMap, ConeCCx, compose_chain_maps,
                     cone_chain, identity_chain_map, zero_map)


@dataclass
class Reduction:
    source: CCx           # the big complex
    target: CCx           # the small complex
    f: ChainMap           # source -> target
    g: ChainMap           # target -> source
    h: ChainMap           # source -> source, degree +1


def identity_reduction(C: CCx) -> Reduction:
    ident = identity_chain_map(C)
    return Reduction(C, C, ident, ident, zero_map(C, C, shift=1))


def iso_as_reduction(C: CCx, D: CCx, fwd: ChainMap,
                     bwd: ChainMap) -> Reduction:
    """An isomorphism of complexes as a reduction with h = 0."""
    return Reduction(C, D, fwd, bwd, zero_map(C, C, shift=1))


def compose_reductions(r1: Reduction, r2: Reduction) -> Reduction:
    """(f1,g1,h1): A => B then (f2,g2,h2): B => C gives A => C with
    (f2 f1, g1 g2, h1 + g1 h2 f1)."""
    if r2.source is not r1.target:
        raise ValueError("reductions do not chain: target/source mismatch")
    h_extra = compose_chain_maps(r1.g, r2.h, r1.f)

    def h_cell(cell):
        return r1.h.on_cell(cell) + h_extra.on_cell(cell)

    return Reduction(r1.source, r2.target, compose_chain_maps(r2.f, r1.f),
                     compose_chain_maps(r1.g, r2.g),
                     ChainMap(r1.source, r1.source, h_cell, shift=1))


@dataclass
class StrongEq:
    """Roof big <= middle => small of two reductions."""
    middle: CCx
    left: Reduction       # middle => big
    right: Reduction      # middle => small

    def __post_init__(self):
        if self.left.source is not self.middle or self.right.source is not self.middle:
            raise ValueError("legs must share the middle complex")

    @property
    def big(self) -> CCx:
        return self.left.target

    @property
    def small(self) -> CCx:
        return self.right.target

    def push(self, z: Chain) -> Chain:
        """Transport a cycle of the big complex to the small one."""
        return self.right.f(self.left.g(z))

    def pull(self, z: Chain) -> Chain:
        """Transport a cycle of the small complex to the big one."""
        return self.left.f(self.right.g(z))


def trivial_equivalence(C: CCx) -> StrongEq:
    return StrongEq(C, identity_reduction(C), identity_reduction(C))


def reduction_as_equivalence(r: Reduction) -> StrongEq:
    """big <= big => small with the identity as left leg."""
    return StrongEq(r.source, identity_reduction(r.source), r)


# ---------------------------------------------------------------------------
# perturbation lemmas
# ---------------------------------------------------------------------------

def perturbed_complex(C: CCx, delta: ChainMap) -> CCx:
    """The complex with the same basis and differential d + delta.

    It keeps delta as `delta`, so that a lemma perturbing a reduction
    further reads the perturbation off the complex it was given.
    """

    def diff_cell(cell):
        return C.diff_cell(cell) + delta.on_cell(cell)

    Cp = CCx(C.cell_dim, diff_cell, C._basis_fn,
             name=f"{C.name}'" if C.name else None)
    Cp.delta = delta
    return Cp


def _series(step, x: Chain) -> Chain:
    """sum_i (-1)^i step^i (x), stopping at the first zero term.

    Every perturbation here lowers a filtration bounded by the degree, so
    the series must stop within degree + 2 terms; a longer one is refused.
    """
    acc = Chain(x.degree, dict(x.terms))
    term = x
    sign = -1
    cap = x.degree + 2
    for _ in range(cap):
        term = step(term)
        if term.is_zero():
            return acc
        acc = acc + sign * term
        sign = -sign
    raise ArithmeticError(
        f"perturbation series did not terminate within {cap} steps "
        "(the perturbation is not nilpotent)")


def basic_perturbation(red: Reduction, Cp: CCx, delta: ChainMap,
                       check_zero_small_delta=False) -> Reduction:
    """Perturb the big complex of a reduction by delta (degree -1).

    Cp is the big complex with differential d + delta; the result starts
    at it.  Requires h.delta locally nilpotent.  With
    phi = sum (-1)^i (h delta)^i and psi = sum (-1)^i (delta h)^i, the new
    reduction is (f psi, phi g, phi h) from Cp to (target, d + f psi delta g),
    and the target keeps the induced perturbation f psi delta g as `delta`.

    With check_zero_small_delta the induced perturbation f psi delta g is
    a structural zero (true in some constructions, not generically): the
    target is kept as it is, and the new g asserts the zero on every cell
    it is evaluated on.
    """
    D, f, g, h = red.target, red.f, red.g, red.h

    def phi(x):
        return _series(lambda t: h(delta(t)), x)

    def psi(x):
        return _series(lambda t: delta(h(t)), x)

    def small_delta_cell(cell):
        return f(psi(delta(g.on_cell(cell))))

    if check_zero_small_delta:
        Dp = D
    else:
        Dp = perturbed_complex(D, ChainMap(D, D, small_delta_cell, shift=-1))

    def g_cell(cell):
        if check_zero_small_delta:
            out = small_delta_cell(cell)
            if not out.is_zero():
                raise AssertionError(
                    f"induced perturbation expected to vanish on {cell!r}, "
                    f"got {out!r}")
        return phi(g.on_cell(cell))

    return Reduction(
        Cp, Dp,
        ChainMap(Cp, Dp, lambda c: f(psi(Chain.single(c, Cp.cell_dim(c))))),
        ChainMap(Dp, Cp, g_cell),
        ChainMap(Cp, Cp, lambda c: phi(h.on_cell(c)), shift=1))


def easy_perturbation(red: Reduction, Dp: CCx, delta: ChainMap) -> Reduction:
    """Perturb the small complex by delta; Dp is it with differential d + delta.

    The big complex gets d + g delta f, which it keeps as `delta`, and the
    maps are unchanged.
    """
    C, f, g, h = red.source, red.f, red.g, red.h

    def big_delta_cell(cell):
        return g(delta(f.on_cell(cell)))

    Cp = perturbed_complex(C, ChainMap(C, C, big_delta_cell, shift=-1))
    return Reduction(Cp, Dp,
                     ChainMap(Cp, Dp, f.on_cell),
                     ChainMap(Dp, Cp, g.on_cell),
                     ChainMap(Cp, Cp, h.on_cell, shift=1))


def perturb_strong_equivalence(eq: StrongEq, big: CCx,
                               delta: ChainMap) -> StrongEq:
    """Carry a perturbation of the big complex across a strong equivalence.

    `big` is the big complex with differential d + delta; the result ends
    at it.  The middle is perturbed by g_L delta f_L (easy lemma on the
    left leg), and that induced perturbation is pushed through the right
    leg with the basic lemma.
    """
    left = easy_perturbation(eq.left, big, delta)
    right = basic_perturbation(eq.right, left.source, left.source.delta)
    return StrongEq(left.source, left, right)


# ---------------------------------------------------------------------------
# discrete vector fields
# ---------------------------------------------------------------------------

def morse_reduction(C: CCx, field, critical=None) -> Reduction:
    """Reduction of C onto the span of its critical cells.

    `field(cell)` classifies each basis element: None for critical,
    ("s", tau) when the cell is a source paired with target tau, and
    ("t", sigma) when it is the target paired with source sigma.  The
    pairing must be admissible: the coefficient of sigma in d(tau) is
    +-1 and the induced flow terminates.  The flow is walked with an
    explicit stack, so a long gradient path costs no recursion depth, and
    a flow that returns to a cell it is still resolving is refused; every
    cell it resolves goes into the memo of h.  `critical(k)` lists the
    degree-k critical cells; the small complex takes it as its basis when
    C has none of its own.
    """

    def flow_step(cell):
        """(eps, tau, rest of d(tau)) for a source cell, else None."""
        cls = field(cell)
        if cls is None or cls[0] == "t":
            return None
        tau = cls[1]
        dtau = C.diff_cell(tau)
        eps = dtau.coeff(cell)
        if eps not in (1, -1):
            raise ValueError(
                f"inadmissible pairing: incidence {eps} of {cell!r} in d({tau!r})")
        return eps, tau, [(c, v) for c, v in dtau.items() if c != cell]

    def h_cell(cell):
        # h(sigma) = eps (tau - h(d tau - eps sigma)) for a source sigma
        h_cache = h._cache
        stack, waiting = [cell], {}    # waiting: sources whose faces are resolving
        while stack:
            top = stack[-1]
            if top in h_cache:
                stack.pop()
                continue
            step = waiting.get(top) or flow_step(top)
            if step is None:
                h_cache[top] = Chain.zero(C.cell_dim(top) + 1)
                stack.pop()
                continue
            eps, tau, rest = step
            pending = [c for c, _ in rest if c not in h_cache]
            if pending:
                if any(c in waiting for c in pending):
                    raise ValueError(f"the flow of the field cycles through {top!r}")
                waiting[top] = step
                stack.extend(pending)
                continue
            out = Chain.single(tau, C.cell_dim(tau), eps)
            for c, v in rest:
                for icell, ic in h_cache[c].items():
                    out._add(icell, -eps * v * ic)
            h_cache[top] = out
            stack.pop()
        return h_cache[cell]

    h = ChainMap(C, C, h_cell, shift=1)

    def p_chain(chain):
        return chain - C.diff(h(chain)) - h(C.diff(chain))

    def crit_part(chain):
        out = Chain(chain.degree)
        for cell, c in chain.items():
            if field(cell) is None:
                out._add(cell, c)
        return out

    basis_fn = critical
    if C.is_effective:
        def basis_fn(k):
            return [c for c in C.basis(k) if field(c) is None]

    def small_diff(cell):
        return crit_part(C.diff(g.on_cell(cell)))

    small = CCx(C.cell_dim, small_diff, basis_fn,
                name=f"{C.name}crit" if C.name else "crit")
    g = ChainMap(small, C, lambda c: p_chain(Chain.single(c, C.cell_dim(c))))
    f = ChainMap(C, small,
                 lambda c: crit_part(p_chain(Chain.single(c, C.cell_dim(c)))))
    return Reduction(C, small, f, g, h)


# ---------------------------------------------------------------------------
# equipped objects
# ---------------------------------------------------------------------------

@dataclass
class Equipped:
    """A space/complex with a reduction and a roof to an effective complex.

    `red` reduces the object's chains onto the big end of the roof `eq`;
    it is None when the roof already starts at the chains.  Products, and
    so twisted products and split K(pi,n), keep their Eilenberg-Zilber
    reduction here, in front of the tensor of the factors' roofs.
    """
    obj: object                 # SimplicialSet or CCx, for reference
    chains: CCx                 # its chain complex
    eq: StrongEq
    red: Reduction = None       # chains => eq.big

    def __post_init__(self):
        if self.red is None:
            if self.eq.big is not self.chains:
                raise ValueError("equipment must start at the object's chains")
        elif (self.red.source is not self.chains
              or self.red.target is not self.eq.big):
            raise ValueError("the reduction must run from the object's chains "
                             "to the big end of the roof")
        if not self.eq.small.is_effective:
            raise ValueError("effective end of the equipment has no basis")

    @property
    def effective(self) -> CCx:
        return self.eq.small

    def push(self, z: Chain) -> Chain:
        """Transport a cycle of the chains to the effective complex."""
        return self.eq.push(z if self.red is None else self.red.f(z))

    def pull(self, z: Chain) -> Chain:
        """Transport a cycle of the effective complex to the chains."""
        z = self.eq.pull(z)
        return z if self.red is None else self.red.g(z)


def trivial_equipment(obj, C: CCx) -> Equipped:
    """A finite complex is equipped with itself via identity reductions."""
    return Equipped(obj, C, trivial_equivalence(C))


def collapse_field(C: CCx, top_dim: int) -> dict:
    """A greedy acyclic matching on C in degrees 0..top_dim, by collapses.

    The result maps a source sigma to ("s", tau) and its target tau to
    ("t", sigma); critical cells are absent.  A live cell sigma whose only
    live coface is tau, with incidence exactly +-1 in d(tau), is paired
    with tau, and both leave.  When no cell is free, the first live cell
    of the highest live degree becomes critical and leaves.  Free cells
    are queued in basis order, lowest degree first, and queued again as
    their cofaces leave, so the matching does not depend on the hash
    seed.  A triangulated 2-sphere keeps one critical vertex and one
    critical triangle, whatever its size.

    The matching is acyclic, so the flow of `morse_reduction` ends.  Let
    (sigma_k, tau_k) be the k-th pair removed.  A face of tau_k other
    than sigma_k cannot already have been removed as a source: at that
    earlier step tau_k was live, so the face had a second live coface
    besides its partner.  Along a gradient path sigma_k, tau_k, sigma', ...
    the removal steps rise strictly, and no path closes.
    """
    by_degree = [C.basis(k) for k in range(top_dim + 1)]
    cells = [c for cs in by_degree for c in cs]
    cofaces = {c: {} for c in cells}
    for tau in cells:
        for sigma, eps in C.diff_cell(tau).items():
            cofaces[sigma][tau] = eps
    live = set(cells)
    n_live = {c: len(up) for c, up in cofaces.items()}
    first_live = [0] * len(by_degree)   # degree-k cells before it have left
    field = {}
    queue = deque(cells)

    def remove(cell):
        live.remove(cell)
        for face in C.diff_cell(cell).terms:
            n_live[face] -= 1
            if n_live[face] == 1:
                queue.append(face)

    def first_of_top_degree():
        for k in reversed(range(len(by_degree))):
            cs = by_degree[k]
            while first_live[k] < len(cs) and cs[first_live[k]] not in live:
                first_live[k] += 1
            if first_live[k] < len(cs):
                return cs[first_live[k]]

    while live:
        while queue:
            sigma = queue.popleft()
            if sigma not in live or n_live[sigma] != 1:
                continue
            tau = next(t for t in cofaces[sigma] if t in live)
            if cofaces[sigma][tau] in (1, -1):
                field[sigma], field[tau] = ("s", tau), ("t", sigma)
                remove(sigma)
                remove(tau)
        if live:
            remove(first_of_top_degree())
    return field


def collapse_equipment(X, C: CCx) -> Equipped:
    """Equip the chains C of a finite simplicial set X with the Morse
    reduction onto the critical cells of `collapse_field`."""
    field = collapse_field(C, X.top_dim)
    return Equipped(X, C, reduction_as_equivalence(morse_reduction(C, field.get)))


# ---------------------------------------------------------------------------
# relocating the big end of a strong equivalence
# ---------------------------------------------------------------------------

def conjugate_big(eq: StrongEq, red: Reduction) -> StrongEq:
    """Extend the left leg by a further reduction eq.big => C'."""
    if red.source is not eq.big:
        raise ValueError("reduction must start at the big end")
    return StrongEq(eq.middle, compose_reductions(eq.left, red), eq.right)


# ---------------------------------------------------------------------------
# mapping cones over a strong equivalence
# ---------------------------------------------------------------------------

def cone_reduction(rA: Reduction, rB: Reduction, src: ConeCCx,
                   tgt: ConeCCx) -> Reduction:
    """Cone(phi: A -> B) => Cone(f_B phi g_A: A' -> B') from rA: A => A'
    and rB: B => B', with phi = src.phi.

    This is the direct sum of rA (shifted, so h_A changes sign) and rB,
    perturbed by phi.  The series stops after one term, because phi maps
    the A summand into the B summand and nothing maps back:

        F(a, b)   = (f_A a, f_B b + f_B phi h_A a)
        G(a', b') = (g_A a', g_B b' - h_B phi g_A a')
        H(a, b)   = (-h_A a, h_B b + h_B phi h_A a)
    """
    phi = src.phi
    fA, gA, hA, fB, gB, hB = rA.f, rA.g, rA.h, rB.f, rB.g, rB.h
    phi_h = compose_chain_maps(phi, hA)

    def F_cell(cell):
        k = src.cell_dim(cell)
        if cell.tag == "b":
            return cone_chain(k, b=fB.on_cell(cell.cell))
        return cone_chain(k, a=fA.on_cell(cell.cell),
                           b=fB(phi_h.on_cell(cell.cell)))

    def G_cell(cell):
        k = tgt.cell_dim(cell)
        if cell.tag == "b":
            return cone_chain(k, b=gB.on_cell(cell.cell))
        ga = gA.on_cell(cell.cell)
        return cone_chain(k, a=ga, b=-hB(phi(ga)))

    def H_cell(cell):
        k = src.cell_dim(cell) + 1
        if cell.tag == "b":
            return cone_chain(k, b=hB.on_cell(cell.cell))
        return cone_chain(k, a=-hA.on_cell(cell.cell),
                           b=hB(phi_h.on_cell(cell.cell)))

    return Reduction(src, tgt, ChainMap(src, tgt, F_cell),
                     ChainMap(tgt, src, G_cell),
                     ChainMap(src, src, H_cell, shift=1))


def cone_roof(phi: ChainMap, eqX: StrongEq, eqY: StrongEq) -> StrongEq:
    """The roof of Cone(phi: X -> Y) given roofs of X and Y.

    The middle is the cone of phi lifted to the middles, g_Y phi f_X.  Its
    cone reductions along the left legs land on Cone(phi), since
    f_Y g_Y phi f_X g_X = phi, and along the right legs on the effective
    cone.
    """
    if phi.source is not eqX.big or phi.target is not eqY.big:
        raise ValueError("phi must run between the big ends")
    LX, LY, RX, RY = eqX.left, eqY.left, eqX.right, eqY.right
    mid = ConeCCx(compose_chain_maps(LY.g, phi, LX.f))
    big = ConeCCx(phi)
    eff = ConeCCx(compose_chain_maps(RY.f, mid.phi, RX.g))
    return StrongEq(mid, cone_reduction(LX, LY, mid, big),
                    cone_reduction(RX, RY, mid, eff))


def cone_equipment(phi: ChainMap, X: Equipped, Y: Equipped) -> Equipped:
    """Equip Cone(phi: X.chains -> Y.chains) given equipped X and Y.

    When X or Y has a reduction, the cone reduction along the two
    reductions (an identity on a side without one) leads to the cone of
    f_Y phi g_X between the big ends of the roofs, and `cone_roof` equips
    that.
    """
    if phi.source is not X.chains or phi.target is not Y.chains:
        raise ValueError("phi must run between the equipped chains")
    if X.red is None and Y.red is None:
        eq = cone_roof(phi, X.eq, Y.eq)
        return Equipped(eq.big, eq.big, eq)
    rX = X.red or identity_reduction(X.chains)
    rY = Y.red or identity_reduction(Y.chains)
    eq = cone_roof(compose_chain_maps(rY.f, phi, rX.g), X.eq, Y.eq)
    cone = ConeCCx(phi)
    return Equipped(cone, cone, eq, cone_reduction(rX, rY, cone, eq.big))


# ---------------------------------------------------------------------------
# sampling the reduction axioms
# ---------------------------------------------------------------------------

def random_chain(basis, k, rng) -> Chain:
    """A degree-k chain: three draws of a basis element, coefficients in
    -4..4."""
    out = Chain(k)
    for _ in range(min(3, len(basis))):
        out._add(rng.choice(basis), rng.randint(-4, 4))
    return out


def _basis_or_none(C: CCx, k: int):
    return C.basis(k) if C.is_effective else None


def check_reduction(red: Reduction, max_deg: int, rng, samples=20,
                    basis=_basis_or_none):
    """Sample the five reduction axioms; return the first broken one or None.

    In each degree 0..max_deg, `samples` times: a random chain y on the
    target's basis tests fg = id and hg = 0, and a random x on the source's
    basis tests id - gf = dh + hd, fh = 0 and hh = 0.  `basis(C, k)` lists
    the degree-k basis of C, or gives None when C has none to sample on;
    a side with no basis elements is skipped.
    """
    C, D, f, g, h = red.source, red.target, red.f, red.g, red.h
    for k in range(max_deg + 1):
        tb, sb = basis(D, k), basis(C, k)
        for _ in range(samples):
            if tb:
                y = random_chain(tb, k, rng)
                if not (f(g(y)) - y).is_zero():
                    return "fg=id"
                if not h(g(y)).is_zero():
                    return "hg=0"
            if sb:
                x = random_chain(sb, k, rng)
                if not (x - g(f(x)) - C.diff(h(x)) - h(C.diff(x))).is_zero():
                    return "id-gf=dh+hd"
                if not f(h(x)).is_zero():
                    return "fh=0"
                if not h(h(x)).is_zero():
                    return "hh=0"
    return None
