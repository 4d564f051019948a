"""Twisted cartesian products, the bar construction, and twisted division.

A twisted product G x_tau B glues a simplicial group G over a base B by
redefining the 0-th face through a twisting operator tau.  Equipment for
such products is obtained by perturbing the equipment of the untwisted
product (the twist only changes the differential, not the cells).  Going
the other way -- recovering equipment for B from equipment of the total
space and the fibre -- is "twisted division": run the bar construction of
A = C(G) over the (perturbed) total tensor complex and collapse it back
onto C(B) with the standard bar contraction.  The entries of the bar
construction, the suspended augmentation ideal of A, are equipped by
suspending the roof of A end by end and leg by leg.

Each twist is evaluated only where it acts (Shih; Brown, "The twisted
Eilenberg-Zilber theorem"): on a product cell the perturbation is the
twisted minus the untwisted 0-face, and on a bar word it is the induced
twist of the total tensor complex applied to the coefficient slot.
"""

from __future__ import annotations

from functools import cache

from .chains import (CCx, Chain, ChainMap, TensorCCx, TensorCell,
                     normalized_chains)
from .ez import (ez_reduction, product_equivalence, shuffle_terms,
                 tensor_of_equivalences)
from .reduction import (Equipped, Reduction, StrongEq, basic_perturbation,
                        conjugate_big, perturb_strong_equivalence,
                        perturbed_complex)
from .simplicial import ProductSSet, Simplex


# ---------------------------------------------------------------------------
# twisted cartesian products
# ---------------------------------------------------------------------------

class TwistedProductSSet(ProductSSet):
    """G x_tau B: the cartesian product with the 0-face twisted by tau.

    d0(g, b) = (d0(g) + tau(b), d0 b); every other operator is the plain
    componentwise one, so the cells coincide with those of G x B.
    """

    def __init__(self, G, B, tau):
        super().__init__(G, B)
        self.tau = tau

    def base_face(self, i, base) -> Simplex:
        if i != 0:
            return super().base_face(i, base)
        G, B = self.X, self.Y
        rg = G.raw_face(0, G.uncanon(base.a))
        rt = G.uncanon(self.tau(base.b))
        return self.pair(G.canon(G.raw_add(rg, rt)), B.face(0, base.b))


def _zero_face_twist(TP: TwistedProductSSet, CP: CCx) -> ChainMap:
    """The twist perturbation d(C(G x_tau B)) - d(C(G x B)), on CP = C(G x B).

    The twist changes only the 0-face, so on a cell sigma it is
    [d0^tau sigma] - [d0 sigma]: the twisted minus the untwisted 0-face,
    each dropped when degenerate, and zero when the two agree (for
    instance when tau of the base is the unit).
    """
    G, B = TP.X, TP.Y

    def on_cell(cell):
        out = Chain(cell.dim - 1)
        if cell.dim == 0:
            return out
        a, b = TP.components(cell)
        twisted = TP.face(0, cell)
        plain = TP.pair(G.face(0, a), B.face(0, b))
        if twisted != plain:
            if not twisted.is_degenerate():
                out._add(twisted, 1)
            if not plain.is_degenerate():
                out._add(plain, -1)
        return out

    return ChainMap(CP, CP, on_cell, shift=-1)


def _twisted_reduction(red: Reduction, TP: TwistedProductSSet,
                       CTP: CCx) -> Reduction:
    """Carry a reduction of C(G x B) over to CTP = C(G x_tau B).

    The perturbation is `_zero_face_twist`.  It strictly drops the base
    filtration, so the basic lemma's series are nilpotent within
    degree + 1 steps.
    """
    return basic_perturbation(red, CTP, _zero_face_twist(TP, red.source))


def twisted_product_equivalence(F_eq: Equipped, B_eq: Equipped,
                                tau) -> Equipped:
    """Equip G x_tau B by perturbing the equipment of the plain product.

    The basic lemma perturbs the product's reduction by the twist, and the
    perturbation it induces on the big end of the roof is carried across
    the roof.
    """
    TP = TwistedProductSSet(F_eq.obj, B_eq.obj, tau)
    CTP = normalized_chains(TP)
    un = product_equivalence([F_eq, B_eq])
    red = _twisted_reduction(un.red, TP, CTP)
    eq = perturb_strong_equivalence(un.eq, red.target, red.target.delta)
    return Equipped(TP, CTP, eq, red)


def pullback_fibration(P_eq: Equipped, f, fiber_eq: Equipped) -> Equipped:
    """Equip the pullback of the path-loop fibration along f: P -> K(pi,n+1).

    The pullback is modelled as the twisted product K(pi,n) x_{tau o f} P;
    the literal pullback {(p, e): f(p) = delta(e)} is isomorphic to it via
    (g, p) -> (psi(f(p)) + g, p).
    """
    from .em import twisting_operator
    tau = twisting_operator(fiber_eq.obj, f.target)
    return twisted_product_equivalence(fiber_eq, P_eq, lambda s: tau(f(s)))


# ---------------------------------------------------------------------------
# the Eilenberg-MacLane product (C(G) as a dg-algebra)
# ---------------------------------------------------------------------------

def em_product(G):
    """The shuffle product on C(G) for an abelian simplicial group G, as
    (cell, cell) -> Chain, memoized.

    a.b is the sum over (p,q)-shuffles of the signed pointwise group sum of
    the two degenerated factors; degenerate results drop out.  The unit is
    the vertex G.zero_simplex(0).
    """

    def pair(a: Simplex, b: Simplex) -> Simplex:
        return G.canon(G.raw_add(G.uncanon(a), G.uncanon(b)))

    return cache(lambda a, b: shuffle_terms(a, b, pair))


# ---------------------------------------------------------------------------
# the suspended augmentation ideal and its equipment
# ---------------------------------------------------------------------------

def suspended_ideal(A: CCx) -> CCx:
    """Cells of A in degrees >= 1, shifted up one degree, differential -d.

    Well defined when A is 0-reduced: A has one vertex, so the degree-1
    cells of A are cycles and the differential never exits the ideal.  An
    effective A with several vertices is refused at once, and a degree-1
    cell with a nonzero boundary when its differential is evaluated.
    """
    if A.is_effective and len(A.basis(0)) != 1:
        raise ValueError(f"complex is not 0-reduced: it has "
                         f"{len(A.basis(0))} vertices")

    def dim_fn(cell):
        return A.cell_dim(cell) + 1

    def diff_cell(cell):
        d = A.diff_cell(cell)
        if A.cell_dim(cell) == 1 and not d.is_zero():
            raise ValueError("complex is not 0-reduced: d does not vanish in degree 1")
        return Chain(d.degree + 1, [(c, -v) for c, v in d.items()])

    basis_fn = None
    if A.is_effective:
        def basis_fn(k):
            return A.basis(k - 1) if k >= 2 else []

    return CCx(dim_fn, diff_cell, basis_fn,
               name=f"{A.name}^" if A.name else "Abar")


def _suspended_map(m: ChainMap, source: CCx, target: CCx, sign=1) -> ChainMap:
    """m between suspended ideals: each image one degree up, times sign."""

    def on_cell(cell):
        x = m.on_cell(cell)
        return Chain(x.degree + 1, [(c, sign * v) for c, v in x.items()])

    return ChainMap(source, target, on_cell, shift=m.shift)


def suspended_ideal_equivalence(eqA: StrongEq) -> StrongEq:
    """The roof s(big) <= s(middle) => s(small) of the suspended
    augmentation ideals of a roof of 0-reduced complexes.

    Each leg (f, g, h) becomes (f, g, -h) one degree up: the differentials
    change sign, so dh + hd and the side conditions are kept, and the
    degree-0 cells that the legs leave out are the single vertices.
    """
    mid = suspended_ideal(eqA.middle)

    def leg(red: Reduction) -> Reduction:
        end = suspended_ideal(red.target)
        return Reduction(mid, end, _suspended_map(red.f, mid, end),
                         _suspended_map(red.g, end, mid),
                         _suspended_map(red.h, mid, mid, -1))

    return StrongEq(mid, leg(eqA.left), leg(eqA.right))


# ---------------------------------------------------------------------------
# the bar construction
# ---------------------------------------------------------------------------

def _strata(abar: CCx, N: CCx):
    """n -> the tensor complex abar^(x)n (x) N, cached."""
    return cache(lambda n: TensorCCx([abar] * n + [N]))


def external_differential(mul_cells):
    """The part of the bar differential that shortens the word.

    On a1 (x) ... (x) an (x) y it merges consecutive entries through the
    algebra product and lets the last entry act on the algebra slot of the
    coefficient y = (a, x) in A (x) M.  A merge of two (suspended) entries
    carries the sign of the shifted prefix including the left operand; the
    action on the (unsuspended) coefficient slot additionally picks up the
    parity of the acting entry, which compensates the suspension sign of
    the entry differentials.
    """

    def ext_cell(cell: TensorCell) -> Chain:
        parts, dims = cell.parts, cell.dims
        n = len(parts) - 1
        out = Chain(cell.degree - 1)
        pref = 0
        for i in range(1, n):
            pref += dims[i - 1]
            sign = -1 if pref % 2 else 1
            for c, v in mul_cells(parts[i - 1], parts[i]).items():
                out._add(TensorCell(parts[:i - 1] + (c,) + parts[i + 1:],
                                    dims[:i - 1] + (c.dim + 1,) + dims[i + 1:]),
                         sign * v)
        if n >= 1:
            # inclusive prefix plus the degree of the acting entry
            sign = 1 if sum(dims[:n - 1]) % 2 else -1
            (ac, xc), xdim = parts[n].parts, parts[n].dims[1]
            degree = parts[n - 1].dim + parts[n].degree
            for c, v in mul_cells(parts[n - 1], ac).items():
                y = TensorCell((c, xc), (c.dim, xdim))
                out._add(TensorCell(parts[:n - 1] + (y,),
                                    dims[:n - 1] + (degree,)), sign * v)
        return out

    return ext_cell


def _word_complex(stratum) -> CCx:
    """The sum over n of the strata abar^(x)n (x) N, on tensor words.

    Cells are words (a1, ..., an, y), and the differential is the tensor
    differential of the word's stratum.  The complex has a basis exactly
    when its strata do; enumeration relies on the entries having degree
    >= 2, which the suspended ideal guarantees.
    """

    def diff_cell(cell):
        return stratum(len(cell.parts) - 1).diff_cell(cell)

    basis_fn = None
    if stratum(1).is_effective:
        def basis_fn(k):
            out = []
            for n in range(k // 2 + 1):
                out.extend(stratum(n).basis(k))
            return out

    return CCx(lambda c: c.degree, diff_cell, basis_fn)


def _bar(words: CCx, mul_cells) -> CCx:
    """The bar construction: a word complex perturbed by the external
    differential of the product `mul_cells`, kept as `delta`."""
    return perturbed_complex(words, ChainMap(
        words, words, external_differential(mul_cells), shift=-1))


def _stratified_reduction(get_red, src: CCx, tgt: CCx) -> Reduction:
    """Glue per-stratum reductions along the word-length decomposition."""

    def part(attr, shift, source, target):
        def on_cell(cell):
            red = get_red(len(cell.parts) - 1)
            return getattr(red, attr).on_cell(cell)
        return ChainMap(source, target, on_cell, shift=shift)

    return Reduction(src, tgt, part("f", 0, src, tgt), part("g", 0, tgt, src),
                     part("h", 1, src, src))


def bar_equivalence(entry_eq: StrongEq, N_eq: StrongEq,
                    mul_cells) -> StrongEq:
    """Equip the bar complex of entry_eq.big over N_eq.big.

    Tensor the entry and coefficient equivalences stratum by stratum,
    then carry the external differential of the product `mul_cells`
    across as a perturbation; it lowers the word length, so the series
    stop within degree + 1 steps.  The result starts at the bar complex.
    """
    stratum_big = _strata(entry_eq.big, N_eq.big)

    @cache
    def stratum_eq(n):
        return tensor_of_equivalences([entry_eq] * n + [N_eq],
                                      big=stratum_big(n))

    big = _word_complex(stratum_big)
    mid = _word_complex(lambda n: stratum_eq(n).middle)
    small = _word_complex(lambda n: stratum_eq(n).small)
    left = _stratified_reduction(lambda n: stratum_eq(n).left, mid, big)
    right = _stratified_reduction(lambda n: stratum_eq(n).right, mid, small)
    bar = _bar(big, mul_cells)
    return perturb_strong_equivalence(StrongEq(mid, left, right), bar,
                                      bar.delta)


def bar_inverse_reduction(bar: CCx, M: CCx, unit: Simplex) -> Reduction:
    """Reduction Bar(Z, A (x) M) => M for the free A-module A (x) M.

    f keeps words with an empty bar part and unit algebra coordinate; g
    includes through the unit; h shifts the algebra coordinate of the
    coefficient into the bar word, with the usual bar sign.
    """

    def f_cell(cell):
        parts = cell.parts
        if len(parts) == 1 and parts[0].parts[0] == unit:
            return Chain.single(parts[0].parts[1], cell.degree)
        return Chain.zero(cell.degree)

    def g_cell(x):
        k = M.cell_dim(x)
        y = TensorCell((unit, x), (0, k))
        return Chain.single(TensorCell((y,), (k,)), k)

    def h_cell(cell):
        parts, dims = cell.parts, cell.dims
        n = len(parts) - 1
        ac, xc = parts[n].parts
        if ac == unit:
            return Chain.zero(cell.degree + 1)
        adeg, xdeg = parts[n].dims
        expo = sum(dims[:n]) + 1
        y = TensorCell((unit, xc), (0, xdeg))
        newc = TensorCell(parts[:n] + (ac, y),
                          dims[:n] + (adeg + 1, xdeg))
        return Chain.single(newc, cell.degree + 1, -1 if expo % 2 else 1)

    return Reduction(bar, M,
                     ChainMap(bar, M, f_cell),
                     ChainMap(M, bar, g_cell),
                     ChainMap(bar, bar, h_cell, shift=1))


# ---------------------------------------------------------------------------
# twisted division
# ---------------------------------------------------------------------------

def _coefficient_twist(bar0: CCx, Q: CCx) -> ChainMap:
    """The twist perturbation of the bar construction, on bar0.

    bar0 is the bar construction over the untwisted tensor complex and Q
    that complex perturbed by `Q.delta`.  The bar constructions over the
    two differ in the coefficient slot only:

        delta_bar(a1, ..., an, y) = (-1)^e (a1, ..., an, Q.delta(y)),

    where e = |a1| + ... + |an| sums the suspended degrees.
    """
    delta = Q.delta

    def on_cell(cell):
        *word, y = cell.parts
        dy = delta.on_cell(y)
        sign = -1 if sum(cell.dims[:-1]) % 2 else 1
        dims = cell.dims[:-1] + (dy.degree,)
        out = Chain(cell.degree - 1)
        for c, v in dy.items():
            out._add(TensorCell((*word, c), dims), sign * v)
        return out

    return ChainMap(bar0, bar0, on_cell, shift=-1)


def _division_bars(G_eq: Equipped, total_eq: Equipped):
    """The bar constructions of a twisted division, as (bar_eq, Q, inv).

    Q = A (x) C(B) with the twisted differential that the perturbed
    Eilenberg-Zilber reduction induces; bar_eq equips the bar construction
    of A = C(G) over Q, its big end; inv is the standard bar contraction of
    the bar construction over the untwisted A (x) C(B) onto C(B).
    """
    TP = total_eq.obj
    if not isinstance(TP, TwistedProductSSet):
        raise ValueError("twisted division needs a twisted product as its "
                         "total space")
    if G_eq.obj is not TP.X:
        raise ValueError("the fibre equipment does not equip the fibre of "
                         "the total space")
    if G_eq.red is not None or total_eq.red is not None:
        raise ValueError("twisted division needs equipments of the fibre and "
                         "the total space whose roofs start at their chains")
    G, B = TP.X, TP.Y
    A = G_eq.chains
    CB = normalized_chains(B)
    P_un = ProductSSet(G, B)
    T0 = TensorCCx([A, CB])
    red2 = _twisted_reduction(ez_reduction(P_un, normalized_chains(P_un), T0),
                              TP, total_eq.chains)
    eq_Q = conjugate_big(total_eq.eq, red2)

    mul_cells = em_product(G)
    entry_eq = suspended_ideal_equivalence(G_eq.eq)
    bar_eq = bar_equivalence(entry_eq, eq_Q, mul_cells)
    bar0 = _bar(_word_complex(_strata(entry_eq.big, T0)), mul_cells)
    return bar_eq, eq_Q.big, bar_inverse_reduction(bar0, CB,
                                                   G.zero_simplex(0))


def twisted_division(G_eq: Equipped, total_eq: Equipped) -> Equipped:
    """Recover equipment for the base B of a twisted product G x_tau B.

    The total space must be a `TwistedProductSSet` over the fibre that
    G_eq equips, and the roofs of the fibre and of the total space must
    start at their chains (no reduction in front), or the division is
    refused.

    Steps (`_division_bars`): perturb the Eilenberg-Zilber reduction of
    C(G x B) by the twist to reach Q = A (x) C(B) with a twisted
    differential, and append it to the left leg of the total space's
    equipment, which then starts at Q.  Equip the bar construction of A
    over Q with the bar equivalence.  The twist of Q, which acts on the
    coefficient slot of a bar word only (`_coefficient_twist`), perturbs
    the standard bar contraction of the untwisted bar construction onto
    C(B); the induced perturbation on C(B) vanishes (a structural fact
    that is asserted at runtime), and the perturbed contraction is
    appended to the left leg of the bar equivalence.
    """
    bar_eq, Q, inv = _division_bars(G_eq, total_eq)
    delta = _coefficient_twist(inv.source, Q)
    red4 = basic_perturbation(inv, bar_eq.big, delta,
                              check_zero_small_delta=True)
    return Equipped(total_eq.obj.Y, inv.target, conjugate_big(bar_eq, red4))
