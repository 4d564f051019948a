"""Self-tests of the benchmark's oracles.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import math
import random
from itertools import combinations

import pytest

import inputs


def mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def witt(n, w):
    """Number of basic products of weight w on n generators (Witt)."""
    return sum(mobius(d) * n ** (w // d) for d in range(1, w + 1)
               if w % d == 0) // w


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_hilton_milnor_ranks(n):
    # pi_3 of a wedge of n two-spheres: pi_3(S^2) = Z per weight-1 basic
    # product and pi_3(S^3) = Z per weight-2 one; weight 3 lands in S^4
    assert witt(n, 1) == n
    assert inputs.hilton_milnor_ranks(n, 2) == [n]
    assert inputs.hilton_milnor_ranks(n, 3) == [n, witt(n, 1) + witt(n, 2)]


def test_hilton_milnor_single_sphere_matches_toda():
    ranks = inputs.hilton_milnor_ranks(1, 3)
    assert [inputs.render_free(r) for r in ranks] == \
        [inputs.TODA[(2, 2)], inputs.TODA[(2, 3)]]


def test_hilton_milnor_refuses_untabulated_degrees():
    with pytest.raises(ValueError):
        inputs.hilton_milnor_ranks(2, 4)


@pytest.mark.parametrize("vertices", [4, 5, 16, 64, 128])
@pytest.mark.parametrize("seed", [0, 1, "7:128"])
def test_stacked_sphere_is_a_closed_surface_of_euler_characteristic_2(
        vertices, seed):
    doc = inputs.stacked_sphere(vertices, random.Random(seed))
    facets = doc["facets"]
    counts = inputs.facet_counts(facets)
    assert counts["V"] == vertices
    assert counts["V"] - counts["E"] + counts["F"] == 2
    assert set(inputs.edge_triangle_counts(facets).values()) == {2}
    assert inputs.is_closed_surface_with_euler_2(facets)
    assert inputs.document_size(doc) == 6 * vertices - 10


def test_stacked_sphere_depends_only_on_the_seed():
    a = inputs.stacked_sphere(32, random.Random("3:32"))
    b = inputs.stacked_sphere(32, random.Random("3:32"))
    c = inputs.stacked_sphere(32, random.Random("4:32"))
    assert a == b
    assert a != c


def test_surface_check_rejects_a_disc():
    # the tetrahedron boundary minus one facet has boundary edges
    disc = [f for f in combinations(range(4), 3)][1:]
    assert not inputs.is_closed_surface_with_euler_2(disc)


@pytest.mark.parametrize("exponent", [0.5, 1.0, 2.5, 5.3])
def test_slope_fit_recovers_a_known_exponent(exponent):
    sizes = [3, 4, 5, 86, 182]
    times = [0.013 * s ** exponent for s in sizes]
    assert inputs.loglog_slope(sizes, times) == pytest.approx(exponent)


def test_slope_fit_with_noise_stays_close():
    rng = random.Random(5)
    sizes = [2 ** k for k in range(1, 9)]
    times = [s ** 2 * math.exp(rng.uniform(-0.05, 0.05)) for s in sizes]
    assert inputs.loglog_slope(sizes, times) == pytest.approx(2, abs=0.05)


def test_slope_fit_needs_two_sizes():
    with pytest.raises(ValueError):
        inputs.loglog_slope([3, 3], [1.0, 2.0])


@pytest.mark.parametrize("m,edges", [(4, 2), (4, 5), (5, 4)])
def test_random_cocycles_are_cocycles(m, edges):
    rng = random.Random(11)
    for _ in range(20):
        labels = dict(inputs.random_cocycle_labels(m, edges, rng))
        for t in combinations(range(m + 1), 4):
            faces = [t[:i] + t[i + 1:] for i in range(4)]
            assert sum((-1) ** i * labels.get(f, 0)
                       for i, f in enumerate(faces)) == 0


def test_face_check_accepts_a_simplicial_map_and_rejects_a_wrong_one():
    simplicial = pytest.importorskip("effhom.simplicial")
    X = simplicial.standard_simplex(2)
    top = X.simplex((0, 1, 2))
    ident = simplicial.identity_map(X)
    assert inputs.face_defects(ident, X.face, X.face, top, 2) == []

    rotate = {(0,): (1,), (1,): (2,), (2,): (0,),
              (0, 1): (1, 2), (1, 2): (0, 2), (0, 2): (0, 1),
              (0, 1, 2): (0, 1, 2)}
    wrong = simplicial.SMap(
        X, X, lambda base: X.simplex(rotate[base]), name="wrong")
    assert inputs.face_defects(wrong, X.face, X.face, top, 2) == [0, 1, 2]


@pytest.mark.parametrize("query,expected", [
    ({"input": "sphere", "n": 3, "k": 5}, ["0", "Z", "Z/2", "Z/2"]),
    ({"input": "sphere", "n": 2, "k": 4}, ["Z", "Z", "Z/2"]),
    ({"input": "wedge", "n": 3, "k": 3}, ["Z + Z + Z", " + ".join(["Z"] * 6)]),
    ({"input": "stacked", "n": 16, "k": 3}, ["Z", "Z"]),
])
def test_expected_groups(query, expected):
    assert inputs.expected_groups(query) == expected
