"""The greedy collapse matching and the equipment built on it."""

import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from effhom.abgroup import Z, ZERO_GROUP, cyclic
from effhom.chains import homology_groups, normalized_chains
from effhom.reduction import (check_reduction, collapse_equipment,
                              collapse_field, morse_reduction)
from effhom.simplicial import FinSSet, Simplex, from_facets, nondeg, sphere
from helpers import RP2_FACETS, run_python, serialize_sset, stacked_sphere

VERTEX = Simplex("v", (), 0)
COLLAPSED_EDGE = Simplex("v", (0,), 1)


def one_vertex_2_complex(edges, faces):
    """One vertex, loops `edges`, and a 2-cell per triple in `faces`.

    A face entry is an edge name or None for the collapsed edge s_0 v.
    Every face of a loop is v, so any table satisfies the simplicial
    identities.
    """
    cells = [f"c{i}" for i in range(len(faces))]
    table = {e: (VERTEX, VERTEX) for e in edges}
    for c, triple in zip(cells, faces):
        table[c] = tuple(COLLAPSED_EDGE if e is None else nondeg(e, 1)
                         for e in triple)
    return FinSSet({0: ["v"], 1: list(edges), 2: cells}, table)


def one_vertex_rp2():
    """RP^2 with one cell per degree: d_0 c = a, d_1 c = s_0 v, d_2 c = a."""
    return one_vertex_2_complex(["a"], [("a", None, "a")])


def one_vertex_torus():
    return one_vertex_2_complex(["a", "b", "c"],
                                [("b", "c", "a"), ("a", "c", "b")])


def assert_collapse_is_sound(X, max_deg=None, seed=0):
    """The field is admissible, the reduction holds, homology is kept."""
    max_deg = X.top_dim if max_deg is None else max_deg
    C = normalized_chains(X)
    field = collapse_field(C, X.top_dim)
    for cell, (kind, other) in field.items():
        assert field[other] == ("t" if kind == "s" else "s", cell)
        if kind == "s":
            assert C.diff_cell(other).coeff(cell) in (1, -1)
            assert C.cell_dim(other) == C.cell_dim(cell) + 1
    E = collapse_equipment(X, C)
    broken = check_reduction(E.eq.right, max_deg, random.Random(seed), 10)
    assert broken is None, f"reduction axiom {broken} fails"
    assert homology_groups(E.effective, max_deg) == \
        homology_groups(C, max_deg)
    return E


facet_lists = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
    min_size=1, max_size=7)


@settings(max_examples=60, deadline=None)
@given(facet_lists)
def test_collapse_of_random_facet_complexes(facets):
    assert_collapse_is_sound(from_facets(facets))


face_entries = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(face_entries, face_entries, face_entries),
                max_size=4))
def test_collapse_of_one_vertex_sets_with_degenerate_faces(faces):
    assert_collapse_is_sound(one_vertex_2_complex(["a", "b", "c"], faces))


def test_incidence_two_stays_unpaired():
    X = one_vertex_rp2()
    C = normalized_chains(X)
    assert C.diff_cell(nondeg("c0", 2)).coeff(nondeg("a", 1)) == 2
    assert collapse_field(C, 2) == {}
    E = assert_collapse_is_sound(X)
    assert homology_groups(E.effective, 2) == [Z, cyclic(2), ZERO_GROUP]


@pytest.mark.parametrize("X, ranks", [
    (one_vertex_torus(), [1, 2, 1]),
    (from_facets(RP2_FACETS), [1, 1, 1]),
    (sphere(3), [1, 0, 0, 1]),
    (from_facets([(0, 1, 2, 3)]), [1, 0, 0, 0]),
], ids=["torus", "rp2", "S3", "simplex"])
def test_collapse_keeps_few_cells(X, ranks):
    E = assert_collapse_is_sound(X)
    assert [len(E.effective.basis(k)) for k in range(len(ranks))] == ranks


@pytest.mark.parametrize("vertices", [16, 32, 64, 128])
def test_stacked_spheres_keep_two_critical_cells(vertices):
    X = stacked_sphere(vertices, vertices)
    E = collapse_equipment(X, normalized_chains(X))
    assert [len(E.effective.basis(k)) for k in range(3)] == [1, 0, 1]
    assert check_reduction(E.eq.right, 2, random.Random(0), 5) is None


def test_long_gradient_paths_need_no_recursion():
    # the flow from the critical edge's ends runs once round the circle
    n = 2500
    X = from_facets([(i, (i + 1) % n) for i in range(n)])
    E = collapse_equipment(X, normalized_chains(X))
    assert homology_groups(E.effective, 1) == [Z, Z]


def test_a_cyclic_field_is_refused():
    X = sphere(1)
    C = normalized_chains(X)
    e01, e02, e12 = (nondeg(c, 1) for c in [(0, 1), (0, 2), (1, 2)])
    v = [nondeg((i,), 0) for i in range(3)]
    # v0 -> e01 -> v1 -> e12 -> v2 -> e02 -> v0
    field = {v[0]: ("s", e01), e01: ("t", v[0]),
             v[1]: ("s", e12), e12: ("t", v[1]),
             v[2]: ("s", e02), e02: ("t", v[2])}
    with pytest.raises(ValueError, match="cycles"):
        morse_reduction(C, field.get).h.on_cell(v[0])


# ten tetrahedra and ten triangles on nine vertices, with many free faces
# to start from; the cells are named by strings, whose hashes change with
# the hash seed; the script carries its own copy of `serialize_sset`
EFFECTIVE_BASIS = inspect.getsource(serialize_sset) + """
import random
from itertools import combinations
from effhom.chains import normalized_chains
from effhom.cli import parse_document
from effhom.reduction import collapse_equipment
from effhom.simplicial import from_facets
rng = random.Random(5)
facets = (rng.sample(list(combinations(range(9), 4)), 10)
          + rng.sample(list(combinations(range(9), 3)), 10))
X = parse_document(serialize_sset(from_facets(facets)))
C = normalized_chains(X)
E = collapse_equipment(X, C)
print([E.effective.basis(k) for k in range(4)])
print([E.eq.right.f.on_cell(c) for k in range(4) for c in C.basis(k)])
print([len(E.effective.basis(k)) for k in range(4)])
"""


def test_effective_basis_does_not_depend_on_the_hash_seed():
    runs = [run_python(["-c", EFFECTIVE_BASIS], seed) for seed in ("0", "1")]
    assert runs[0] == runs[1]
    assert runs[0].endswith(b"\n[1, 1, 3, 0]\n")
