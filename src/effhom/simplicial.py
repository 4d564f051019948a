"""Simplicial sets with canonically encoded simplices.

Every simplex is stored as (base, degs): a nondegenerate base cell plus a
strictly ascending tuple of degeneracy indices, standing for the composite
s_{i_t} ... s_{i_1} base.  The encoding is unique, so equality and hashing
are structural and the degeneracy test is O(1).  A cell computes its
hash once, when it is built, so nested cells (pairs of pairs, tagged
tensor cells) hash in O(1) however deep they are.  Each set memoizes the
faces it has computed, and a set given by raw values memoizes `canon`; the
memos live on the set and go with it.

A simplicial set is a "black box": it only has to produce faces of its
nondegenerate cells (in canonical form); faces and degeneracies of general
simplices are computed here by commuting operators past the degeneracy word
with the simplicial identities:

    d_i s_j = s_{j-1} d_i         (i < j)
    d_i s_j = id                  (i = j, j+1)
    d_i s_j = s_j d_{i-1}         (i > j+1)
    s_i s_j = s_{j+1} s_i         (i <= j)

The ascending tuple degs coincides with the set of "stall" positions of the
corresponding monotone surjection, which is what makes the product
canonicalization below a simple set computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any


@dataclass(frozen=True)
class Simplex:
    base: Any                 # opaque hashable nondegenerate cell
    degs: tuple = ()          # strictly ascending degeneracy indices
    dim: int = 0              # dimension of the (possibly degenerate) simplex

    def __post_init__(self):
        degs = self.degs
        # one index is always ascending; longer words pay the full test
        if len(degs) > 1 and list(degs) != sorted(set(degs)):
            raise ValueError(f"degeneracy indices not strictly ascending: {degs}")
        object.__setattr__(self, "_hash", hash((self.base, degs, self.dim)))

    def __hash__(self):
        return self._hash

    @property
    def base_dim(self) -> int:
        return self.dim - len(self.degs)

    def is_degenerate(self) -> bool:
        return bool(self.degs)

    def __repr__(self):
        if self.degs:
            word = "".join(f"s{i}" for i in reversed(self.degs))
            return f"{word}({self.base!r})"
        return f"<{self.base!r}>"


def nondeg(base, dim) -> Simplex:
    return Simplex(base, (), dim)


class SimplicialSet:
    """Base class: subclasses provide faces of nondegenerate cells.

    `finite` tells whether the nondegenerate cells of each dimension can be
    listed (by `cells(d)`); it follows from the type of the set.  A
    subclass calls `super().__init__()`, which creates the face memo.
    """

    finite = False

    def __init__(self):
        self._face_memo = {}

    def base_face(self, i: int, base) -> Simplex:
        """d_i of the nondegenerate cell `base`, in canonical form."""
        raise NotImplementedError

    # -- generic operator calculus ----------------------------------------

    def face(self, i: int, s: Simplex) -> Simplex:
        key = (i, s)
        hit = self._face_memo.get(key)
        if hit is None:
            hit = self._face_memo[key] = self._face(i, s)
        return hit

    def _face(self, i: int, s: Simplex) -> Simplex:
        if s.dim < 1 or not (0 <= i <= s.dim):
            raise IndexError(f"face index {i} out of range for dim {s.dim}")
        outer = []          # degeneracies surviving on the outside
        remaining = list(s.degs)
        while remaining:
            j = remaining[-1]
            if i < j:
                outer.append(j - 1)
                remaining.pop()
            elif i in (j, j + 1):
                res = Simplex(s.base, tuple(remaining[:-1]),
                              s.base_dim + len(remaining) - 1)
                return self._redegenerate(res, outer)
            else:
                outer.append(j)
                remaining.pop()
                i -= 1
        res = self.base_face(i, s.base)
        return self._redegenerate(res, outer)

    def _redegenerate(self, s: Simplex, outer) -> Simplex:
        for j in reversed(outer):
            s = self.degeneracy(j, s)
        return s

    def degeneracy(self, i: int, s: Simplex) -> Simplex:
        if not (0 <= i <= s.dim):
            raise IndexError(f"degeneracy index {i} out of range for dim {s.dim}")
        degs = tuple(sorted([d + 1 if d >= i else d for d in s.degs] + [i]))
        return Simplex(s.base, degs, s.dim + 1)

    def apply_degeneracies(self, s: Simplex, degs) -> Simplex:
        """Apply the canonical word s_{i_t}...s_{i_1} given ascending degs."""
        for i in degs:
            s = self.degeneracy(i, s)
        return s


class FinSSet(SimplicialSet):
    """Finite simplicial set: explicit cell lists plus a face table.

    faces maps a nondegenerate cell id of dimension >= 1 to the tuple of its
    canonical faces (Simplex values), index i = 0..dim.
    """

    finite = True

    def __init__(self, cells, faces):
        super().__init__()
        self._cells = {int(d): list(cs) for d, cs in cells.items()}
        self._faces = dict(faces)
        self._dims = {}
        for d, cs in self._cells.items():
            for c in cs:
                if c in self._dims:
                    raise ValueError(f"duplicate cell id {c!r}")
                self._dims[c] = d

    def dim_of(self, cell) -> int:
        return self._dims[cell]

    @property
    def top_dim(self) -> int:
        return max((d for d, cs in self._cells.items() if cs), default=0)

    def cells(self, d: int):
        return list(self._cells.get(d, ()))

    def all_cells(self):
        for d in sorted(self._cells):
            yield from self._cells[d]

    def base_face(self, i, base) -> Simplex:
        return self._faces[base][i]

    def simplex(self, cell) -> Simplex:
        return nondeg(cell, self._dims[cell])


def from_facets(facets) -> FinSSet:
    """Simplicial set of the simplicial complex generated by `facets`.

    Vertices are integers ordered by their usual order; the nondegenerate
    k-cells are the (k+1)-subsets occurring in the downward closure, stored
    as ascending tuples; d_i removes the i-th smallest vertex.
    """
    closure = set()
    for facet in facets:
        fs = tuple(sorted(facet))
        if not fs:
            raise ValueError("empty facet")
        if len(set(fs)) != len(fs):
            raise ValueError(f"duplicate vertex inside facet {facet!r}")
        for k in range(1, len(fs) + 1):
            closure.update(combinations(fs, k))
    cells = {}
    for c in sorted(closure, key=lambda t: (len(t), t)):
        cells.setdefault(len(c) - 1, []).append(c)
    faces = {}
    for c in closure:
        d = len(c) - 1
        if d >= 1:
            faces[c] = tuple(nondeg(c[:i] + c[i + 1:], d - 1)
                             for i in range(d + 1))
    return FinSSet(cells, faces)


def standard_simplex(n: int) -> FinSSet:
    return from_facets([list(range(n + 1))])


def sphere(n: int) -> FinSSet:
    """Boundary of the standard (n+1)-simplex."""
    verts = list(range(n + 2))
    return from_facets([verts[:i] + verts[i + 1:] for i in range(n + 2)])


# ---------------------------------------------------------------------------
# simplicial maps
# ---------------------------------------------------------------------------

class SMap:
    """Simplicial map, specified on nondegenerate cells of the source.

    on_base maps a nondegenerate cell id to a full Simplex of the target;
    values on degenerate simplices follow by commuting with degeneracies.
    """

    def __init__(self, source, target, on_base, name=None):
        self.source = source
        self.target = target
        self._on_base = on_base
        self.name = name
        self._cache = {}

    def __call__(self, s: Simplex) -> Simplex:
        key = s
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        img = self._on_base(s.base)
        out = self.target.apply_degeneracies(img, s.degs)
        self._cache[key] = out
        return out


def identity_map(X) -> SMap:
    return SMap(X, X, lambda base: nondeg(base, X.dim_of(base)))


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairCell:
    """Nondegenerate cell of a product: components share no stall index."""
    a: Simplex
    b: Simplex

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.a, self.b)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"({self.a!r},{self.b!r})"


class ProductSSet(SimplicialSet):
    """Cartesian product X x Y; m-simplices are pairs of m-simplices."""

    def __init__(self, X, Y):
        super().__init__()
        self.X = X
        self.Y = Y

    @property
    def finite(self) -> bool:
        return self.X.finite and self.Y.finite

    def pair(self, a: Simplex, b: Simplex) -> Simplex:
        """Canonical encoding of the pair (a, b) of equal-dimension simplices."""
        if a.dim != b.dim:
            raise ValueError("components must have equal dimension")
        shared = sorted(set(a.degs) & set(b.degs))
        if not shared:
            return Simplex(PairCell(a, b), (), a.dim)
        return Simplex(PairCell(_strip(a, shared), _strip(b, shared)),
                       tuple(shared), a.dim)

    def components(self, s: Simplex):
        """Full component simplices of a product simplex."""
        base = s.base
        a = self.X.apply_degeneracies(base.a, s.degs)
        b = self.Y.apply_degeneracies(base.b, s.degs)
        return a, b

    def base_face(self, i, base: PairCell) -> Simplex:
        return self.pair(self.X.face(i, base.a), self.Y.face(i, base.b))

    def cells(self, d: int):
        """Nondegenerate d-cells (finite products only)."""
        out = []
        for p in range(d + 1):
            for q in range(d + 1):
                if max(p, q) > d or p + q < d:
                    continue
                for ca in self.X.cells(p):
                    for cb in self.Y.cells(q):
                        for da, db in _disjoint_stall_sets(d, p, q):
                            a = Simplex(ca, da, d)
                            b = Simplex(cb, db, d)
                            out.append(PairCell(a, b))
        return out

    def dim_of(self, base: PairCell) -> int:
        return base.a.dim

    def simplex(self, base: PairCell) -> Simplex:
        return nondeg(base, base.a.dim)


def _strip(s: Simplex, shared) -> Simplex:
    """Remove the stall positions `shared` (a subset of s.degs)."""
    new = []
    for d in s.degs:
        if d in shared:
            continue
        new.append(d - sum(1 for x in shared if x < d))
    return Simplex(s.base, tuple(new), s.dim - len(shared))


def _disjoint_stall_sets(m, p, q):
    """All disjoint (A, B) with |A| = m - p, |B| = m - q inside {0..m-1}."""
    idx = range(m)
    for A in combinations(idx, m - p):
        rest = [j for j in idx if j not in A]
        for B in combinations(rest, m - q):
            yield tuple(A), tuple(B)


# ---------------------------------------------------------------------------
# normalization helper for simplicial sets given by raw-value operators
# ---------------------------------------------------------------------------

class RawSSet(SimplicialSet):
    """Simplicial set whose simplices have a native "raw" value form.

    Subclasses implement raw_dim / raw_face / raw_degeneracy on raw values
    (defined on *all* simplices, degenerate or not); canonical encoding is
    recovered by stripping degeneracies.  raw is s_i of something exactly
    when s_i d_i raw == raw; `raw_is_degenerate_at` runs that fixed-point
    test, and a subclass may replace it by an equivalent test on its own
    raw values.
    """

    def __init__(self):
        super().__init__()
        self._canon_memo = {}

    def raw_dim(self, raw) -> int:
        raise NotImplementedError

    def raw_face(self, i, raw):
        raise NotImplementedError

    def raw_degeneracy(self, i, raw):
        raise NotImplementedError

    def raw_is_degenerate_at(self, i, raw) -> bool:
        """Whether raw lies in the image of s_i."""
        return self.raw_degeneracy(i, self.raw_face(i, raw)) == raw

    def canon(self, raw) -> Simplex:
        hit = self._canon_memo.get(raw)
        if hit is None:
            hit = self._canon_memo[raw] = self._canon(raw)
        return hit

    def _canon(self, raw) -> Simplex:
        m = self.raw_dim(raw)
        for i in range(m):
            if self.raw_is_degenerate_at(i, raw):
                return self.degeneracy(i, self.canon(self.raw_face(i, raw)))
        return Simplex(raw, (), m)

    def uncanon(self, s: Simplex):
        raw = s.base
        for i in s.degs:
            raw = self.raw_degeneracy(i, raw)
        return raw

    def base_face(self, i, base) -> Simplex:
        return self.canon(self.raw_face(i, base))

    def dim_of(self, base) -> int:
        return self.raw_dim(base)

    def simplex(self, raw) -> Simplex:
        return self.canon(raw)
