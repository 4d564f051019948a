"""Eilenberg-Zilber machinery for Cartesian products.

C(X x Y) reduces onto C(X) (x) C(Y): f is the Alexander-Whitney map, g the
shuffle (Eilenberg-MacLane) map, and the homotopy h comes from a discrete
vector field on product cells.  A nondegenerate m-cell (a, b) of X x Y is
encoded by a word over {U, R, D}: position j is U when j is a stall of a,
R when it is a stall of b, and D otherwise (a "diagonal" step).  Critical
cells are the staircase words R...RU...U, which biject with the tensor
basis; every other cell is matched with a partner by splitting its first
defect (a D step, or a UR corner) into the corresponding UR pair.
"""

from __future__ import annotations

from itertools import combinations

from .chains import (Chain, ChainMap, TensorCCx, TensorCell,
                     normalized_chains, tensor_of_chains)
from .reduction import (Equipped, Reduction, StrongEq, compose_reductions,
                        identity_reduction, morse_reduction)
from .simplicial import PairCell, ProductSSet, Simplex, nondeg


def _word(base: PairCell, m: int) -> str:
    da, db = set(base.a.degs), set(base.b.degs)
    return "".join("U" if j in da else "R" if j in db else "D"
                   for j in range(m))


def ez_field(P):
    """The product discrete vector field, on nondegenerate product simplices."""

    def field(s: Simplex):
        base = s.base
        m = s.dim
        w = _word(base, m)
        for j in range(m):
            if w[j] == "D":
                # source: split the diagonal step into U then R
                ta = P.X.degeneracy(j, base.a)
                tb = P.Y.degeneracy(j + 1, base.b)
                return ("s", nondeg(PairCell(ta, tb), m + 1))
            if w[j] == "U" and j + 1 < m and w[j + 1] == "R":
                # target: its source is the (j+1)-st face (merge UR into D)
                f = P.face(j + 1, s)
                return ("t", f)
        return None

    return field


def _front_face(X, s: Simplex, j: int) -> Simplex:
    """d_{j+1} ... d_k s (the front j-face)."""
    while s.dim > j:
        s = X.face(s.dim, s)
    return s


def _back_face(Y, s: Simplex, j: int) -> Simplex:
    """d_0^j s (the back face of codimension j)."""
    for _ in range(j):
        s = Y.face(0, s)
    return s


def aw(P, CP, T) -> ChainMap:
    """Alexander-Whitney map C(X x Y) -> C(X) (x) C(Y).

    AW(sigma, tau) = sum_j (front j-face of sigma) (x) (back face of tau).
    """

    def on_cell(s: Simplex):
        a, b = P.components(s)
        k = s.dim
        out = Chain(k)
        for j in range(k + 1):
            front = _front_face(P.X, a, j)
            back = _back_face(P.Y, b, j)
            if front.is_degenerate() or back.is_degenerate():
                continue
            out._add(TensorCell((front, back), (j, k - j)), 1)
        return out

    return ChainMap(CP, T, on_cell)


def shuffle_terms(x: Simplex, y: Simplex, pair) -> Chain:
    """The signed sum of pair(x', y') over all (p, q)-shuffles.

    x and y are nondegenerate of dimensions p and q.  A shuffle splits
    {0..p+q-1} into alpha (|alpha| = q), the stall positions of
    x' = s_alpha x, and beta, those of y' = s_beta y; its sign is the
    parity of the pairs (u in alpha, v in beta) with v > u.  Degenerate
    values of pair drop out.
    """
    p, q = x.dim, y.dim
    m = p + q
    out = Chain(m)
    for alpha in combinations(range(m), q):
        beta = tuple(j for j in range(m) if j not in alpha)
        inv = sum(1 for u in alpha for v in beta if v > u)
        cell = pair(Simplex(x.base, alpha, m), Simplex(y.base, beta, m))
        if not cell.is_degenerate():
            out._add(cell, -1 if inv % 2 else 1)
    return out


def eml(CP, T) -> ChainMap:
    """Shuffle map C(X) (x) C(Y) -> C(X x Y)."""

    def on_cell(cell: TensorCell):
        return shuffle_terms(*cell.parts,
                             lambda a, b: nondeg(PairCell(a, b), a.dim))

    return ChainMap(T, CP, on_cell)


def ez_reduction(P, CP, T) -> Reduction:
    """The Eilenberg-Zilber reduction CP = C(X x Y) => T = C(X) (x) C(Y)."""
    h = morse_reduction(CP, ez_field(P)).h
    return Reduction(CP, T, aw(P, CP, T), eml(CP, T), h)


# ---------------------------------------------------------------------------
# tensor products of reductions and strong equivalences
# ---------------------------------------------------------------------------

def tensor_of_reductions(reds, source=None, target=None) -> Reduction:
    """F = (x)f_i, G = (x)g_i, H telescopes:

        H = h1 (x) id (x) ... + g1 f1 (x) h2 (x) id ... + ...

    with the Koszul sign (-1)^(degree left of the h slot) on each summand.
    """
    reds = list(reds)
    source = (source if source is not None
              else TensorCCx([r.source for r in reds]))
    target = (target if target is not None
              else TensorCCx([r.target for r in reds]))

    def F_cell(cell):
        return tensor_of_chains([r.f.on_cell(p)
                                 for r, p in zip(reds, cell.parts)])

    def G_cell(cell):
        return tensor_of_chains([r.g.on_cell(p)
                                 for r, p in zip(reds, cell.parts)])

    def H_cell(cell):
        out = Chain(cell.degree + 1)
        left_deg = 0
        for i, r in enumerate(reds):
            per = []
            ok = True
            for j, (rj, p) in enumerate(zip(reds, cell.parts)):
                if j < i:
                    c = rj.g(rj.f.on_cell(p))
                elif j == i:
                    c = rj.h.on_cell(p)
                else:
                    c = Chain.single(p, cell.dims[j])
                if c.is_zero():
                    ok = False
                    break
                per.append(c)
            if ok:
                term = tensor_of_chains(per)
                out = out + (-term if left_deg % 2 else term)
            left_deg += cell.dims[i]
        return out

    return Reduction(source, target,
                     ChainMap(source, target, F_cell),
                     ChainMap(target, source, G_cell),
                     ChainMap(source, source, H_cell, shift=1))


def tensor_of_equivalences(eqs, big) -> StrongEq:
    """Slotwise tensor of strong equivalences; `big` is the tensor of their
    big ends."""
    eqs = list(eqs)
    middle = TensorCCx([e.middle for e in eqs])
    small = TensorCCx([e.small for e in eqs])
    left = tensor_of_reductions([e.left for e in eqs], source=middle, target=big)
    right = tensor_of_reductions([e.right for e in eqs], source=middle,
                                 target=small)
    return StrongEq(middle, left, right)


# ---------------------------------------------------------------------------
# equipped products
# ---------------------------------------------------------------------------

def product_equivalence(factors) -> Equipped:
    """Equip X1 x ... x Xn (right-associated) given equipped factors.

    The reduction is Eilenberg-Zilber followed, when a factor has a
    reduction of its own, by the tensor of the factors' reductions; the
    roof is the tensor of the factors' roofs.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    if len(factors) == 1:
        return factors[0]
    head, rest = factors[0], product_equivalence(factors[1:])
    P = ProductSSet(head.obj, rest.obj)
    CP = normalized_chains(P)
    T = TensorCCx([head.chains, rest.chains])
    red = ez_reduction(P, CP, T)
    if head.red is not None or rest.red is not None:
        red = compose_reductions(red, tensor_of_reductions(
            [F.red or identity_reduction(F.chains) for F in (head, rest)],
            source=T))
    eq = tensor_of_equivalences([head.eq, rest.eq], big=red.target)
    return Equipped(P, CP, eq, red)
