"""The cell layer's fast paths agree with the generic code they stand for.

Cells hash once, `canon` and `face` are memoized per set, bases per
degree, and Eilenberg-MacLane spaces test degeneracy on their labels.
Each is checked against the unmemoized generic form: the s_i d_i
fixed-point test of `RawSSet`, `_canon`, `_face` on a fresh set, and the
field-tuple hash the dataclasses generated.
"""

from hypothesis import given, settings, strategies as st

from effhom.abgroup import AbGroup, Z, cyclic
from effhom.bar import TwistedProductSSet
from effhom.chains import Tag, TensorCCx, TensorCell, normalized_chains
from effhom.em import EMSpace, twisting_operator
from effhom.simplicial import (PairCell, ProductSSet, RawSSet, Simplex,
                               sphere)
from helpers import random_cochain_raw, random_cocycle_raw

GROUPS = [Z, cyclic(2), AbGroup((0, 2))]
MAX_DIM = 6

# long-lived sets, so that memo hits left by earlier examples are checked
SPACES = {(g, n, kind): EMSpace(g, n, kind)
          for g in GROUPS for n in range(1, 4) for kind in "KE"}


def fresh_space(space):
    return EMSpace(space.group, space.n, space.kind)


def twisted(G, B):
    return TwistedProductSSet(G, B, twisting_operator(G, B))


PRODUCTS = {(g, n): (ProductSSet(SPACES[g, n, "K"], SPACES[g, n + 1, "K"]),
                     twisted(SPACES[g, n, "K"], SPACES[g, n + 1, "K"]))
            for g in GROUPS for n in range(1, 3)}


def generic_canon(space, raw):
    """canon through the fixed-point degeneracy test, with no memo."""
    m = space.raw_dim(raw)
    for i in range(m):
        if RawSSet.raw_is_degenerate_at(space, i, raw):
            return space.degeneracy(
                i, generic_canon(space, space.raw_face(i, raw)))
    return Simplex(raw, (), m)


def rebuilt(raw):
    """An equal raw value that shares no tuple with `raw`."""
    return (raw[0], tuple((tuple(list(t)), tuple(list(v))) for t, v in raw[1]))


def draw_raw(draw, space, dim):
    """A raw dim-simplex: a random cochain (E) or cocycle (K) on a smaller
    simplex, pushed up to dim by random degeneracies."""
    m = draw(st.integers(0, dim))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    make = random_cocycle_raw if space.kind == "K" else random_cochain_raw
    raw = make(space, m, rng, density)
    for k in range(m, dim):
        raw = space.raw_degeneracy(draw(st.integers(0, k)), raw)
    return raw


@st.composite
def em_raws(draw):
    """(space, raw) over Z, Z/2 and Z + Z/2, n = 1..3, dimension <= 6."""
    group = draw(st.sampled_from(GROUPS))
    space = SPACES[group, draw(st.integers(1, 3)), draw(st.sampled_from("KE"))]
    return space, draw_raw(draw, space, draw(st.integers(0, MAX_DIM)))


@st.composite
def product_simplices(draw):
    """(plain product, twisted product, raw pair) over K(pi,n) x K(pi,n+1)."""
    group = draw(st.sampled_from(GROUPS))
    n = draw(st.integers(1, 2))
    plain, tw = PRODUCTS[group, n]
    dim = draw(st.integers(1, MAX_DIM))
    return plain, tw, (draw_raw(draw, plain.X, dim), draw_raw(draw, plain.Y, dim))


@settings(max_examples=300, deadline=None)
@given(em_raws())
def test_label_degeneracy_test_matches_the_fixed_point_test(case):
    space, raw = case
    for i in range(space.raw_dim(raw)):
        assert space.raw_is_degenerate_at(i, raw) == \
            RawSSet.raw_is_degenerate_at(space, i, raw)


@settings(max_examples=100, deadline=None)
@given(em_raws(), st.data())
def test_degeneracies_are_seen_on_labels(case, data):
    space, raw = case
    i = data.draw(st.integers(0, space.raw_dim(raw)))
    assert space.raw_is_degenerate_at(i, space.raw_degeneracy(i, raw))


@settings(max_examples=200, deadline=None)
@given(em_raws())
def test_memoized_canon_matches_the_generic_canon(case):
    space, raw = case
    s = space.canon(raw)
    assert space.canon(raw) is s
    assert s == space._canon(raw) == generic_canon(space, raw)
    assert s == fresh_space(space).canon(rebuilt(raw))
    assert space.uncanon(s) == raw


@settings(max_examples=200, deadline=None)
@given(em_raws())
def test_face_memo_hit_matches_a_fresh_face(case):
    space, raw = case
    s = space.canon(raw)
    fresh = fresh_space(space)
    for i in range(s.dim + 1) if s.dim else ():
        f = space.face(i, s)
        assert space.face(i, s) is f
        assert f == fresh._face(i, s)


@settings(max_examples=100, deadline=None)
@given(product_simplices())
def test_product_face_memo_hit_matches_a_fresh_face(case):
    plain, tw, (ra, rb) = case
    G, B = plain.X, plain.Y
    fresh_G, fresh_B = fresh_space(G), fresh_space(B)
    for P, fresh in ((plain, ProductSSet(fresh_G, fresh_B)),
                     (tw, twisted(fresh_G, fresh_B))):
        s = P.pair(G.canon(ra), B.canon(rb))
        for i in range(s.dim + 1):
            f = P.face(i, s)
            assert P.face(i, s) is f
            assert f == fresh._face(i, s)


def nested(P, s):
    """A tagged tensor cell over a pair cell: the deepest kind of cell."""
    pair = P.pair(s, s)
    return Tag("b", TensorCell((s, pair.base), (s.dim, s.dim)))


@settings(max_examples=100, deadline=None)
@given(em_raws())
def test_equal_cells_built_apart_hash_alike(case):
    space, raw = case
    fresh = fresh_space(space)
    a, b = space.canon(raw), fresh.canon(rebuilt(raw))
    P, Q = ProductSSet(space, space), ProductSSet(fresh, fresh)
    for x, y in ((a, b), (P.pair(a, a), Q.pair(b, b)),
                 (nested(P, a), nested(Q, b))):
        assert x is not y
        assert x == y and hash(x) == hash(y)
        assert {x: 1}[y] == 1


def test_stored_hash_is_the_field_tuple_hash():
    # the generated dataclass hash was this one, so set and dict orders
    # stay what they were before the hash was stored
    s = Simplex(("c",), (0, 2), 4)
    pair = PairCell(s, s)
    tc = TensorCell((s, pair), (4, 4))
    tag = Tag("a", tc)
    assert hash(s) == hash((s.base, s.degs, s.dim))
    assert hash(pair) == hash((pair.a, pair.b))
    assert hash(tc) == hash((tc.parts, tc.dims))
    assert hash(tag) == hash((tag.tag, tag.cell))


def test_basis_is_built_once_and_read_only():
    C = TensorCCx([normalized_chains(sphere(2)), normalized_chains(sphere(1))])
    b = C.basis(2)
    assert isinstance(b, tuple) and C.basis(2) is b
    assert list(b) == list(C._basis_fn(2))
    assert C.basis(-1) == ()
