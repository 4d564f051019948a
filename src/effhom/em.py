"""Standard simplicial Eilenberg-MacLane models K(pi,n) and E(pi,n).

An m-simplex of K(pi,n) is an n-cocycle on Delta^m with coefficients in
pi; E(pi,n) carries all n-cochains.  A simplex is stored as a raw value
(m, labels) with labels a sorted tuple of (ascending (n+1)-tuple, nonzero
pi-element); faces and degeneracies act by pulling back cochains along
the coface/codegeneracy vertex maps.  On top of the models live the
fibration delta: E(pi,n) -> K(pi,n+1), its twisting operator tau and
pseudo-section psi, the path fibration K(pi,n) -> E(pi,n) -> K(pi,n+1)
on the standard models with its contraction, and the equipment of
K(pi,n): a cyclic or trivial K(pi,1) by the Morse reduction onto the
critical cells of a collapse in bar coordinates, a cyclic K(pi,n+1) by
dividing the path fibration, and, at every n, a pi with two or more
cyclic factors as the product of the K(Z/m_j,n).  The twist of the path
fibration, `twisting_operator`, is the only twist: every other fibration
pulls it back along a map.
"""

from __future__ import annotations

from itertools import combinations

from .abgroup import AbGroup
from .bar import TwistedProductSSet, twisted_division
from .chains import (Chain, ChainMap, Cochain, induced_chain_map,
                     normalized_chains, z_complex)
from .ez import product_equivalence
from .reduction import (Equipped, Reduction, compose_reductions,
                        iso_as_reduction, morse_reduction,
                        reduction_as_equivalence)
from .simplicial import ProductSSet, RawSSet, Simplex, SMap, nondeg


class EMSpace(RawSSet):
    """K(pi,n) (kind "K") or E(pi,n) (kind "E").

    s_i pulls a cochain back along the codegeneracy that merges the
    vertices i and i+1, so a raw simplex lies in the image of s_i exactly
    when no label sits on a tuple holding both i and i+1, and every label
    on a tuple holding one of them equals the label on the tuple with i
    and i+1 swapped.  `raw_is_degenerate_at` tests this on the labels.

    Every raw taken and returned is canonical, as `make_raw` makes it:
    sorted labels with reduced nonzero values.  `raw_degeneracy` lifts
    distinct tuples to distinct tuples, so it only re-sorts.
    """

    def __init__(self, group: AbGroup, n: int, kind: str = "K"):
        super().__init__()
        self.group = group
        self.n = n
        self.kind = kind
        self.name = f"{kind}({group.render()},{n})"

    def make_raw(self, m, label_items):
        """Canonical raw value from an iterable of (tuple, value) pairs."""
        acc = {}
        for t, v in label_items:
            v = self.group.reduce(v)
            if t in acc:
                v = self.group.add(acc[t], v)
            acc[t] = v
        # every value is reduced already, so zero means all entries 0
        labels = tuple(sorted((t, v) for t, v in acc.items() if any(v)))
        return (m, labels)

    def label(self, raw, t):
        for tt, v in raw[1]:
            if tt == t:
                return v
        return self.group.zero()

    def raw_dim(self, raw):
        return raw[0]

    def raw_face(self, i, raw):
        m, labels = raw
        out = []
        for t, v in labels:
            if i in t:
                continue
            out.append((tuple(j if j < i else j - 1 for j in t), v))
        return (m - 1, tuple(sorted(out)))

    def raw_degeneracy(self, i, raw):
        m, labels = raw
        out = []
        for t, v in labels:
            shifted = tuple(j if j < i else j + 1 for j in t)
            if i in t:
                # the i slot lifts to either i or i+1
                k = t.index(i)
                out.append((shifted[:k] + (i,) + shifted[k + 1:], v))
                out.append((shifted[:k] + (i + 1,) + shifted[k + 1:], v))
            else:
                out.append((shifted, v))
        return (m + 1, tuple(sorted(out)))

    def raw_is_degenerate_at(self, i, raw):
        j = i + 1
        labels = dict(raw[1])
        for t, v in raw[1]:
            if i in t:
                if j in t:
                    return False
                swapped = tuple(j if x == i else x for x in t)
            elif j in t:
                swapped = tuple(i if x == j else x for x in t)
            else:
                continue
            if labels.get(swapped) != v:
                return False
        return True

    # -- abelian simplicial group structure -------------------------------

    def raw_unit(self, m):
        return (m, ())

    def raw_add(self, x, y):
        if x[0] != y[0]:
            raise ValueError("dimension mismatch in simplex addition")
        return self.make_raw(x[0], list(x[1]) + list(y[1]))

    def raw_neg(self, x):
        return (x[0], tuple(sorted((t, self.group.neg(v)) for t, v in x[1])))

    def is_cocycle(self, raw):
        """Check the coboundary of a raw simplex vanishes."""
        return not _delta_raw(self, raw)[1]

    def zero_simplex(self, m) -> Simplex:
        return self.canon(self.raw_unit(m))


def _delta_raw(space: EMSpace, raw):
    """Coboundary: an n-cochain on Delta^m as an (n+1)-cochain."""
    m, labels = raw
    out = []
    for t, v in labels:
        for w in range(m + 1):
            if w in t:
                continue
            pos = sum(1 for x in t if x < w)
            nt = t[:pos] + (w,) + t[pos:]
            out.append((nt, space.group.scale((-1) ** pos, v)))
    return space.make_raw(m, out)


def delta_map(E: EMSpace, K: EMSpace) -> SMap:
    """The fibration projection E(pi,n) -> K(pi,n+1), z -> delta z."""
    if E.kind != "E" or K.kind != "K" or K.n != E.n + 1:
        raise ValueError("delta runs E(pi,n) -> K(pi,n+1)")
    return SMap(E, K, lambda raw: K.canon(_delta_raw(E, raw)))


def twisting_tau(space_down: EMSpace, raw):
    """tau(z)(i_0..i_n) = z(0, i_0+1, ..) - z(1, i_0+1, ..), raw level.

    Takes a raw simplex of K(pi,n+1) of dimension l >= 1 and produces a raw
    simplex of K(pi,n) of dimension l - 1; `space_down` is the target model.
    """
    m, labels = raw
    out = []
    for t, v in labels:
        if t[0] == 0:
            out.append((tuple(x - 1 for x in t[1:]), v))
        elif t[0] == 1:
            out.append((tuple(x - 1 for x in t[1:]), space_down.group.neg(v)))
    return space_down.make_raw(m - 1, out)


def twisting_operator(Kn: EMSpace, Kn1: EMSpace):
    """The twist of the path fibration K(pi,n) -> E(pi,n) -> K(pi,n+1).

    Sends an l-simplex of K(pi,n+1) to the (l-1)-simplex `twisting_tau`
    of K(pi,n).  Postnikov stages pull it back along nonzero k-invariants.
    """

    def tau(s: Simplex) -> Simplex:
        return Kn.canon(twisting_tau(Kn, Kn1.uncanon(s)))

    return tau


def cone_raw(K1: EMSpace, gamma, z):
    """The (l+1)-simplex c of K(pi,n+1) with d0 c = z and tau(c) = gamma.

    gamma is a raw l-simplex of K(pi,n) and z a raw l-simplex of
    K(pi,n+1).  Off the vertex 0, c is z moved up one vertex; at
    (0, t + 1) it is gamma(t) + z(0, t), which is what tau(c) = gamma asks.
    """
    items = [(tuple(x + 1 for x in t), v) for t, v in z[1]]
    items += [((0,) + tuple(x + 1 for x in t), v) for t, v in gamma[1]]
    items += [((0,) + tuple(x + 1 for x in t[1:]), v)
              for t, v in z[1] if t[0] == 0]
    return K1.make_raw(z[0] + 1, items)


def pseudo_section_psi(space_E: EMSpace, raw):
    """psi(z)(i_0,..,i_n) = z(0, i_0, .., i_n), and 0 whenever i_0 = 0.

    A raw simplex of K(pi,n+1) becomes a raw simplex of E(pi,n) of the same
    dimension, with delta(psi(z)) = z for cocycles z.
    """
    m, labels = raw
    out = [(t[1:], v) for t, v in labels if t[0] == 0]
    return space_E.make_raw(m, out)


def cochain_to_map(kappa: Cochain, X, target: EMSpace) -> SMap:
    """The simplicial map adjoint to a pi-valued cochain on X.

    The image of a simplex carries, at each (n+1)-tuple of its vertices,
    the value of kappa on the corresponding face (zero on degenerate
    faces).  Lands in the K model exactly when kappa is a cocycle.
    """
    n = target.n

    def on_base(base):
        m = X.dim_of(base)
        s0 = nondeg(base, m)
        items = []
        for t in combinations(range(m + 1), n + 1):
            face = s0
            for i in sorted(set(range(m + 1)) - set(t), reverse=True):
                face = X.face(i, face)
            if face.is_degenerate():
                continue
            items.append((t, kappa.eval_cell(face)))
        return target.canon(target.make_raw(m, items))

    return SMap(X, target, on_base)


# ---------------------------------------------------------------------------
# K(pi,1) collapsed onto its critical cells
# ---------------------------------------------------------------------------

def _bars_of(space: EMSpace, cell: Simplex):
    """[b_1|...|b_m] coordinates of a nondegenerate simplex of K(pi,1)."""
    return [space.label(cell.base, (i - 1, i)) for i in range(1, cell.dim + 1)]


def _cell_from_bars(space: EMSpace, bars) -> Simplex:
    m = len(bars)
    items = []
    for i in range(m):
        acc = space.group.zero()
        for j in range(i, m):
            acc = space.group.add(acc, bars[j])
            items.append(((i, j + 1), acc))
    return nondeg(space.make_raw(m, items), m)


def kz1_field(K: EMSpace):
    """Collapse of K(Z,1) onto [] and [1], in bar coordinates: (field, critical).

    A cell ending in 1 (length >= 2) is a collapse target; its source merges
    the trailing 1 into the previous entry.  Every other cell but [] and
    [1] is a source, splitting a 1 off its last entry.
    """
    def cell(bars):
        return _cell_from_bars(K, [(b,) for b in bars])

    def field(s):
        bars = [b[0] for b in _bars_of(K, s)]
        if bars in ([], [1]):
            return None
        if len(bars) >= 2 and bars[-1] == 1:
            c = bars[:-1]
            return ("t", cell(c[:-1] + [c[-1] + 1] if c[-1] >= 1 else c))
        b = bars[-1]
        return ("s", cell(bars[:-1] + [b - 1, 1] if b >= 2 else bars + [1]))

    def critical(k):
        return [cell([1] * k)] if k <= 1 else []

    return field, critical


def kzm1_field(K: EMSpace, m: int):
    """Collapse of K(Z/m,1) onto one cell per degree: (field, critical).

    A cell is a bar word [b_1|...|b_k] with entries in 1..m-1.  Strip the
    trailing blocks [m-1|1] and call what is left u.  The word is critical
    when u is [] or [1].  When u ends in b >= 2 it is a source, paired with
    u[:-1] + [b-1, 1] + blocks.  Otherwise u ends in c, 1 with c <= m-2,
    and the word is the target of u[:-2] + [c+1] + blocks.  The critical
    cells are [m-1|1]^j in degree 2j and [1][m-1|1]^j in degree 2j+1.

    The flow ends.  Let a source be u'[b] + blocks and its target
    u'[b-1, 1] + blocks.  Every other face of the target either weighs
    less, where a word weighs b_1 + ... + b_k, or is a target itself, or is
    u'[:-1] + [m-1, 1] + blocks, which weighs the same and has a shorter u.
    A merge next to or inside the blocks sums to m and is degenerate.  So
    (weight, length of u) falls strictly along a gradient path, and no
    path closes.
    """
    def cell(bars):
        return _cell_from_bars(K, [(b,) for b in bars])

    def field(s):
        bars = [b[0] for b in _bars_of(K, s)]
        j = len(bars)
        while j >= 2 and bars[j - 2:j] == [m - 1, 1]:
            j -= 2
        u, blocks = bars[:j], bars[j:]
        if u in ([], [1]):
            return None
        if u[-1] >= 2:
            return ("s", cell(u[:-1] + [u[-1] - 1, 1] + blocks))
        return ("t", cell(u[:-2] + [u[-2] + 1] + blocks))

    def critical(k):
        return [cell([1] * (k % 2) + [m - 1, 1] * (k // 2))]

    return field, critical


def em1_equivalence(pi: AbGroup) -> Equipped:
    """Equip K(pi,1), pi trivial or cyclic, by the Morse reduction onto the
    critical cells of its collapse (Romero and Sergeraert, "Discrete
    vector fields and fundamental algebraic topology")."""
    K = EMSpace(pi, 1)
    C = normalized_chains(K, name=f"C({K.name})")
    if pi.ngens == 0:
        def field(_cell):
            return None

        def critical(k):
            return [K.zero_simplex(0)] if k == 0 else []
    elif pi.mm[0] == 0:
        field, critical = kz1_field(K)
    else:
        field, critical = kzm1_field(K, pi.mm[0])
    red = morse_reduction(C, field, critical=critical)
    return Equipped(K, C, reduction_as_equivalence(red))


# ---------------------------------------------------------------------------
# equipment of the general Eilenberg-MacLane spaces
# ---------------------------------------------------------------------------

def split_maps(K: EMSpace, P):
    """The isomorphisms split: K(pi,n) -> P and merge: P -> K(pi,n).

    P is the right-associated product of the models K(Z/m_j,n) of the
    cyclic factors of pi.  split sends a cocycle to its pi-coordinates,
    one per factor, and merge assembles them back.
    """
    prods = [P]
    while isinstance(prods[-1].Y, ProductSSet):
        prods.append(prods[-1].Y)
    spaces = [Q.X for Q in prods] + [prods[-1].Y]

    def fwd_base(raw):
        m, labels = raw
        cells = [S.canon(S.make_raw(m, [(t, (v[j],)) for t, v in labels]))
                 for j, S in enumerate(spaces)]
        out = cells.pop()
        for Q, c in zip(reversed(prods), reversed(cells)):
            out = Q.pair(c, out)
        return out

    def bwd_base(base):
        s, cells = P.simplex(base), []
        for Q in prods:
            c, s = Q.components(s)
            cells.append(c)
        items = {}
        for j, (S, c) in enumerate(zip(spaces, cells + [s])):
            for t, v in S.uncanon(c)[1]:
                items.setdefault(t, list(K.group.zero()))[j] = v[0]
        return K.canon(K.make_raw(P.dim_of(base),
                                  [(t, tuple(v)) for t, v in items.items()]))

    return SMap(K, P, fwd_base), SMap(P, K, bwd_base)


def _split_equivalence(pi: AbGroup, n: int) -> Equipped:
    """Equip K(pi,n) as the product of the K(Z/m_j,n) of its cyclic factors:
    the split isomorphism of `split_maps` goes in front of the product's
    reduction."""
    K = EMSpace(pi, n)
    prod = product_equivalence(em_equivalence(AbGroup((mj,)), n)
                               for mj in pi.mm)
    fwd, bwd = split_maps(K, prod.obj)
    C = normalized_chains(K, name=f"C(K({pi.render()},{n}))")
    iso = iso_as_reduction(C, prod.chains,
                           induced_chain_map(fwd, C, prod.chains),
                           induced_chain_map(bwd, prod.chains, C))
    return Equipped(K, C, prod.eq, compose_reductions(iso, prod.red))


def path_fibration(G: EMSpace):
    """The path fibration K(pi,n) -> E(pi,n) -> K(pi,n+1), E contracted.

    E(pi,n) is the twisted product K(pi,n) x_tau K(pi,n+1) with the twist
    of `twisting_operator`; (g, z) -> (psi(z) + g) identifies it with the
    cochain model.  The extra degeneracy h(gamma, z) = (unit, c) with c
    from `cone_raw` contracts it onto a point.  Returns the equipped total
    space.
    """
    pi, n = G.group, G.n
    K1 = EMSpace(pi, n + 1)
    TP = TwistedProductSSet(G, K1, twisting_operator(G, K1))
    CTP = normalized_chains(TP, name=f"C(E({pi.render()},{n}))")
    Zc = z_complex()
    vertex = TP.pair(G.zero_simplex(0), K1.zero_simplex(0))

    def f_cell(cell):
        k = cell.dim
        return Chain.single("*", 0) if k == 0 else Chain.zero(k)

    def h_cell(cell):
        ell = cell.dim
        a_s, b_s = TP.components(cell)
        c = cone_raw(K1, G.uncanon(a_s), K1.uncanon(b_s))
        out = TP.pair(G.canon(G.raw_unit(ell + 1)), K1.canon(c))
        if out.is_degenerate():
            return Chain.zero(ell + 1)
        return Chain.single(out, ell + 1)

    contraction = Reduction(
        CTP, Zc,
        ChainMap(CTP, Zc, f_cell),
        ChainMap(Zc, CTP, lambda c: Chain.single(vertex, 0)),
        ChainMap(CTP, CTP, h_cell, shift=1))
    return Equipped(TP, CTP, reduction_as_equivalence(contraction))


_em_cache = {}


def em_equivalence(pi: AbGroup, n: int) -> Equipped:
    """Equipped standard model K(pi,n) for a finitely generated abelian pi.

    A pi with two or more cyclic factors is equipped, at every n, as the
    product of the K(Z/m_j,n) (`_split_equivalence`).  A cyclic or trivial
    pi is equipped by `em1_equivalence` at n = 1.  At n >= 2 the total
    space E(pi,n-1) of `path_fibration` is contractible, so twisted
    division by the fibre K(pi,n-1) equips the base K(pi,n).
    """
    if n < 1:
        raise ValueError("em_equivalence needs n >= 1")
    key = (pi.mm, n)
    hit = _em_cache.get(key)
    if hit is not None:
        return hit
    if pi.ngens > 1:
        out = _split_equivalence(pi, n)
    elif n == 1:
        out = em1_equivalence(pi)
    else:
        prev = em_equivalence(pi, n - 1)
        out = twisted_division(prev, path_fibration(prev.obj))
    _em_cache[key] = out
    return out
