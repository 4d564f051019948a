"""Chain complexes with distinguished bases, and the standard constructions.

Complexes are "black boxes": a dimension function and a differential on
basis elements (memoized), optionally with per-degree basis enumeration
(then the complex is *effective* and its homology is computable by Smith
normal form).  Basis elements of composite complexes (tensor, cone, bar,
...) are tagged trees of constituent encodings so that chains round-trip
exactly through composed reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .abgroup import AbGroup
from .smith import HomologySolver, IntMatrix


class Chain:
    """Finite integer formal sum of basis elements, all of one degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        self.degree = degree
        self.terms = {}
        if terms:
            for cell, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    nc = self.terms.get(cell, 0) + c
                    if nc:
                        self.terms[cell] = nc
                    else:
                        del self.terms[cell]

    @classmethod
    def single(cls, cell, degree, coeff=1):
        c = cls(degree)
        if coeff:
            c.terms[cell] = coeff
        return c

    @classmethod
    def zero(cls, degree):
        return cls(degree)

    def is_zero(self):
        return not self.terms

    def items(self):
        return self.terms.items()

    def coeff(self, cell):
        return self.terms.get(cell, 0)

    def _add(self, cell, c):
        if not c:
            return
        nc = self.terms.get(cell, 0) + c
        if nc:
            self.terms[cell] = nc
        else:
            del self.terms[cell]

    def __add__(self, other):
        if other.degree != self.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError("degree mismatch in chain sum")
        out = Chain(self.degree if not self.is_zero() else other.degree,
                    dict(self.terms))
        for cell, c in other.terms.items():
            out._add(cell, c)
        return out

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k):
        out = Chain(self.degree)
        if k:
            for cell, c in self.terms.items():
                out.terms[cell] = k * c
        return out

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (isinstance(other, Chain) and self.terms == other.terms
                and (self.degree == other.degree or not self.terms))

    def __hash__(self):
        raise TypeError("chains are not hashable")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for cell, c in self.terms.items():
            bits.append(f"{'+' if c > 0 else '-'}{abs(c) if abs(c) != 1 else ''}{cell!r}")
        return "".join(bits)


class CCx:
    """Chain complex handle: dimension + differential on basis elements."""

    def __init__(self, dim_fn, diff_fn, basis_fn=None, name=None):
        self._dim_fn = dim_fn
        self._diff_fn = diff_fn
        self._basis_fn = basis_fn
        self.name = name
        self._diff_cache = {}
        self._basis_memo = {}

    def cell_dim(self, cell) -> int:
        return self._dim_fn(cell)

    def diff_cell(self, cell) -> Chain:
        hit = self._diff_cache.get(cell)
        if hit is None:
            hit = self._diff_fn(cell)
            self._diff_cache[cell] = hit
        return hit

    def diff(self, chain: Chain) -> Chain:
        out = Chain(chain.degree - 1)
        for cell, c in chain.items():
            for fcell, fc in self.diff_cell(cell).items():
                out._add(fcell, c * fc)
        return out

    @property
    def is_effective(self):
        return self._basis_fn is not None

    def basis(self, k: int) -> tuple:
        """The degree-k basis, built once and shared as a tuple."""
        if self._basis_fn is None:
            raise TypeError(f"complex {self.name or self!r} has no basis enumeration")
        if k < 0:
            return ()
        hit = self._basis_memo.get(k)
        if hit is None:
            hit = self._basis_memo[k] = tuple(self._basis_fn(k))
        return hit

    def __repr__(self):
        return f"CCx({self.name})" if self.name else super().__repr__()


class ChainMap:
    """Degree-homogeneous additive map given on basis elements (memoized)."""

    def __init__(self, source, target, on_cell, shift=0):
        self.source = source
        self.target = target
        self._on_cell = on_cell
        self.shift = shift
        self._cache = {}

    def on_cell(self, cell) -> Chain:
        hit = self._cache.get(cell)
        if hit is None:
            hit = self._on_cell(cell)
            self._cache[cell] = hit
        return hit

    def __call__(self, chain: Chain) -> Chain:
        out = Chain(chain.degree + self.shift)
        for cell, c in chain.items():
            for icell, ic in self.on_cell(cell).items():
                out._add(icell, c * ic)
        return out


def zero_map(source, target, shift=0):
    return ChainMap(source, target,
                    lambda cell: Chain.zero(source.cell_dim(cell) + shift),
                    shift=shift)


def identity_chain_map(C):
    return ChainMap(C, C, lambda cell: Chain.single(cell, C.cell_dim(cell)))


def compose_chain_maps(*maps):
    """compose_chain_maps(f, g) = f after g."""
    if len(maps) == 1:
        return maps[0]
    *rest, last = maps
    head = compose_chain_maps(*rest)

    def on_cell(cell):
        return head(last.on_cell(cell))

    return ChainMap(last.source, head.target, on_cell,
                    shift=head.shift + last.shift)


# ---------------------------------------------------------------------------
# normalized chains of a simplicial set
# ---------------------------------------------------------------------------

def normalized_chains(X, name=None) -> CCx:
    """C_*(X): basis = nondegenerate simplices, degenerate faces dropped.

    The complex is effective exactly when X is finite.
    """

    def diff_cell(s):
        out = Chain(s.dim - 1)
        if s.dim == 0:
            return out
        sign = 1
        for i in range(s.dim + 1):
            f = X.face(i, s)
            if not f.is_degenerate():
                out._add(f, sign)
            sign = -sign
        return out

    basis_fn = None
    if X.finite:
        def basis_fn(k):
            return [X.simplex(c) for c in X.cells(k)]

    return CCx(lambda s: s.dim, diff_cell, basis_fn,
               name=name or f"C({getattr(X, 'name', None) or X.__class__.__name__})")


def induced_chain_map(f, CX: CCx, CY: CCx) -> ChainMap:
    """Chain map CX = C(f.source) -> CY = C(f.target) of a simplicial map:
    degenerate images go to zero."""

    def on_cell(s):
        img = f(s)
        if img.is_degenerate():
            return Chain.zero(s.dim)
        return Chain.single(img, s.dim)

    return ChainMap(CX, CY, on_cell)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorCell:
    parts: tuple          # basis elements of the factors
    dims: tuple           # their degrees

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.parts, self.dims)))

    def __hash__(self):
        return self._hash

    @property
    def degree(self):
        return sum(self.dims)

    def __repr__(self):
        return "(" + " x ".join(repr(p) for p in self.parts) + ")"


class TensorCCx(CCx):
    """Tensor product of chain complexes with the signed Leibniz rule."""

    def __init__(self, factors):
        self.factors = list(factors)

        def diff_cell(cell):
            out = Chain(cell.degree - 1)
            sign = 1
            for i, C in enumerate(self.factors):
                d = C.diff_cell(cell.parts[i])
                for fcell, fc in d.items():
                    parts = cell.parts[:i] + (fcell,) + cell.parts[i + 1:]
                    dims = cell.dims[:i] + (cell.dims[i] - 1,) + cell.dims[i + 1:]
                    out._add(TensorCell(parts, dims), sign * fc)
                sign *= (-1) ** cell.dims[i]
            return out

        basis_fn = None
        if all(C.is_effective for C in self.factors):
            def basis_fn(k):
                return [TensorCell(tuple(parts), tuple(dims))
                        for parts, dims in _tensor_basis(self.factors, k)]

        super().__init__(lambda c: c.degree, diff_cell, basis_fn,
                         name="(" + "x".join(str(C.name) for C in self.factors) + ")")


def _tensor_basis(factors, k):
    if not factors:
        if k == 0:
            yield (), ()
        return
    C, rest = factors[0], factors[1:]
    for d in range(k + 1):
        for b in C.basis(d):
            for parts, dims in _tensor_basis(rest, k - d):
                yield (b,) + parts, (d,) + dims


def tensor_of_chains(chains) -> Chain:
    """c_1 x ... x c_n as a chain in the tensor complex."""
    degree = sum(c.degree for c in chains)
    out = Chain(degree)

    def rec(i, parts, dims, coeff):
        if i == len(chains):
            out._add(TensorCell(tuple(parts), tuple(dims)), coeff)
            return
        for cell, c in chains[i].items():
            rec(i + 1, parts + [cell], dims + [chains[i].degree], coeff * c)

    rec(0, [], [], 1)
    return out


# ---------------------------------------------------------------------------
# algebraic mapping cone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tag:
    """Tagged basis element for direct-sum-shaped complexes."""
    tag: str
    cell: Any

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.tag, self.cell)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.tag}:{self.cell!r}"


def cone_chain(degree, a=None, b=None) -> Chain:
    """The cone chain (a, b); a lies in the shifted source summand."""
    out = Chain(degree)
    for tag, part in (("a", a), ("b", b)):
        if part is not None:
            for cell, c in part.items():
                out._add(Tag(tag, cell), c)
    return out


class ConeCCx(CCx):
    """Algebraic mapping cone of a chain map phi: C -> Ct.

    Degree-k part is C_{k-1} + Ct_k; d(a, b) = (-da, phi(a) + d b).
    """

    def __init__(self, phi: ChainMap):
        self.phi = phi
        C, Ct = phi.source, phi.target

        def dim_fn(cell):
            if cell.tag == "a":
                return C.cell_dim(cell.cell) + 1
            return Ct.cell_dim(cell.cell)

        def diff_cell(cell):
            if cell.tag == "a":
                return cone_chain(C.cell_dim(cell.cell),
                                  a=-C.diff_cell(cell.cell),
                                  b=phi.on_cell(cell.cell))
            db = Ct.diff_cell(cell.cell)
            return cone_chain(db.degree, b=db)

        basis_fn = None
        if C.is_effective and Ct.is_effective:
            def basis_fn(k):
                return ([Tag("a", c) for c in C.basis(k - 1)]
                        + [Tag("b", c) for c in Ct.basis(k)])

        super().__init__(dim_fn, diff_cell, basis_fn, name="Cone")


# ---------------------------------------------------------------------------
# ready-made small complexes
# ---------------------------------------------------------------------------

def z_complex() -> CCx:
    """The complex with a single basis element "*" in degree 0."""
    return CCx(lambda c: 0, lambda c: Chain.zero(-1),
               lambda k: ["*"] if k == 0 else [], name="Z")


def circle_complex() -> CCx:
    """Z in degrees 0 and 1, zero differential."""

    def diff_cell(cell):
        return Chain.zero(0 if cell == "e1" else -1)

    return CCx(lambda c: 1 if c == "e1" else 0, diff_cell,
               lambda k: ["e0"] if k == 0 else (["e1"] if k == 1 else []),
               name="circle")


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

class Cochain:
    """Black-box functional on degree-`degree` chains with AbGroup values."""

    def __init__(self, group: AbGroup, degree: int, eval_cell):
        self.group = group
        self.degree = degree
        self._eval_cell = eval_cell
        self._cache = {}

    def eval_cell(self, cell):
        hit = self._cache.get(cell)
        if hit is None:
            hit = self.group.reduce(self._eval_cell(cell))
            self._cache[cell] = hit
        return hit


# ---------------------------------------------------------------------------
# homology of effective complexes
# ---------------------------------------------------------------------------

def diff_matrix(C: CCx, k: int) -> IntMatrix:
    """Matrix of d_k over the degree-k and degree-(k-1) bases."""
    dom = C.basis(k)
    cod = C.basis(k - 1)
    index = {cell: i for i, cell in enumerate(cod)}
    entries = {}
    for j, cell in enumerate(dom):
        for fcell, fc in C.diff_cell(cell).items():
            entries[(index[fcell], j)] = fc
    return IntMatrix(len(cod), len(dom), entries)


class ChainHomologySolver:
    """Chain-level wrapper around the coordinate-level Smith solver."""

    def __init__(self, C: CCx, k: int):
        self.k = k
        self._basis = C.basis(k)
        self._index = {cell: i for i, cell in enumerate(self._basis)}
        self._solver = HomologySolver(diff_matrix(C, k), diff_matrix(C, k + 1))
        self.group = self._solver.group

    def _vec(self, chain: Chain):
        v = [0] * len(self._basis)
        for cell, c in chain.items():
            v[self._index[cell]] = c
        return v

    def class_of(self, z: Chain):
        return self._solver.class_of(self._vec(z))

    def projected_class_of(self, x: Chain):
        """Class of x projected onto the cycles (see HomologySolver)."""
        return self._solver.projected_class_of(self._vec(x))

    def rep_of(self, elt) -> Chain:
        return Chain(self.k, zip(self._basis, self._solver.rep_of(elt)))


def complex_homology(C: CCx, k: int) -> ChainHomologySolver:
    return ChainHomologySolver(C, k)


def homology_groups(C: CCx, max_dim: int):
    """[H_0, ..., H_max_dim] of an effective complex."""
    return [complex_homology(C, k).group for k in range(max_dim + 1)]
