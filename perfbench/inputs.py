"""Seeded inputs and independent oracles for the benchmark.

Everything here is plain Python that does not import `effhom`, so the
expected answers are computed apart from the program under test.
"""

from __future__ import annotations

import math
import random
from itertools import combinations


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

def minimal_sphere(n: int) -> dict:
    """S^n as one vertex and one n-cell whose faces all collapse to it."""
    return {"kind": "simplicial_set",
            "cells": {"0": ["v"], str(n): ["c"]},
            "faces": {"c": [["v", list(range(n - 1))]] * (n + 1)}}


def sphere_wedge(n: int) -> dict:
    """The wedge of n two-spheres on one common vertex."""
    cells = [f"c{i}" for i in range(n)]
    return {"kind": "simplicial_set",
            "cells": {"0": ["v"], "2": cells},
            "faces": {c: [["v", [0]]] * 3 for c in cells}}


def stacked_sphere(vertices: int, rng: random.Random) -> dict:
    """A stacked triangulated 2-sphere with the given number of vertices.

    Starts from the boundary of the tetrahedron and repeatedly replaces a
    facet chosen by `rng` with the three triangles of its stellar
    subdivision (a new vertex in its interior).
    """
    if vertices < 4:
        raise ValueError("a stacked 2-sphere has at least 4 vertices")
    facets = [tuple(f) for f in combinations(range(4), 3)]
    for v in range(4, vertices):
        a, b, c = facets.pop(rng.randrange(len(facets)))
        facets += [(a, b, v), (a, c, v), (b, c, v)]
    return {"kind": "facets", "facets": [sorted(f) for f in facets]}


def document_size(doc: dict) -> int:
    """Number of nondegenerate simplices the document describes."""
    if doc["kind"] == "facets":
        closure = set()
        for f in doc["facets"]:
            for k in range(1, len(f) + 1):
                closure.update(combinations(sorted(f), k))
        return len(closure)
    return sum(len(names) for names in doc["cells"].values())


def facet_counts(facets) -> dict:
    """Vertex, edge and triangle counts of a 2-dimensional facet list."""
    edges = {e for f in facets for e in combinations(sorted(f), 2)}
    verts = {v for f in facets for v in f}
    return {"V": len(verts), "E": len(edges), "F": len(facets)}


def edge_triangle_counts(facets) -> dict:
    """How many triangles contain each edge."""
    count = {}
    for f in facets:
        for e in combinations(sorted(f), 2):
            count[e] = count.get(e, 0) + 1
    return count


def is_closed_surface_with_euler_2(facets) -> bool:
    """Euler characteristic 2 and every edge in exactly two triangles."""
    n = facet_counts(facets)
    return (n["V"] - n["E"] + n["F"] == 2
            and set(edge_triangle_counts(facets).values()) == {2})


def random_cocycle_labels(m: int, edges: int, rng: random.Random):
    """Labels of a 2-cocycle on Delta^m with Z coefficients.

    The cocycle is the coboundary of a 1-cochain that is +1 or -1 on
    `edges` distinct edges chosen by `rng` and 0 elsewhere, so it is a
    cocycle by construction.  Returns sorted ((i, j, k), value) pairs with
    nonzero values.
    """
    chosen = rng.sample(list(combinations(range(m + 1), 2)), edges)
    c = {e: rng.choice((-1, 1)) for e in chosen}
    out = []
    for i, j, k in combinations(range(m + 1), 3):
        v = c.get((j, k), 0) - c.get((i, k), 0) + c.get((i, j), 0)
        if v:
            out.append(((i, j, k), v))
    return out


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def render_free(rank: int, torsion=()) -> str:
    """A group as the CLI renders it: free part first, then Z/m summands."""
    parts = ["Z"] * rank + [f"Z/{m}" for m in torsion]
    return " + ".join(parts) if parts else "0"


# pi_i(S^n) for the spheres and degrees the benchmark asks about (Toda)
TODA = {
    (2, 2): render_free(1), (2, 3): render_free(1), (2, 4): render_free(0, (2,)),
    (3, 2): render_free(0), (3, 3): render_free(1), (3, 4): render_free(0, (2,)),
    (3, 5): render_free(0, (2,)),
}


def hilton_milnor_ranks(n: int, k: int):
    """Ranks of pi_2 .. pi_k of the wedge of n two-spheres, for k <= 3.

    By Hilton-Milnor, pi_2 = Z^n (one fundamental class per sphere) and
    pi_3 = Z^{n(n+1)/2}: a Hopf map per sphere plus a Whitehead product
    per unordered pair of distinct spheres.
    """
    if not 2 <= k <= 3:
        raise ValueError("only pi_2 and pi_3 are tabulated")
    return [n, n + n * (n - 1) // 2][:k - 1]


def expected_groups(query: dict):
    """The CLI's expected `groups` list for a spheres or stacked query."""
    kind, k = query["input"], query["k"]
    if kind == "sphere":
        return [TODA[(query["n"], i)] for i in range(2, k + 1)]
    if kind == "wedge":
        return [render_free(r) for r in hilton_milnor_ranks(query["n"], k)]
    if kind == "stacked":
        # every triangulated 2-sphere is S^2: pi_2 = pi_3 = Z
        return [TODA[(2, i)] for i in range(2, k + 1)]
    raise ValueError(f"unknown input kind {kind!r}")


def build_document(query: dict) -> dict:
    kind = query["input"]
    if kind == "sphere":
        return minimal_sphere(query["n"])
    if kind == "wedge":
        return sphere_wedge(query["n"])
    if kind == "stacked":
        return stacked_sphere(query["n"], random.Random(query["seed"]))
    raise ValueError(f"unknown input kind {kind!r}")


def face_defects(f, source_face, target_face, sigma, dim):
    """Indices j where d_j f(sigma) differs from f(d_j sigma)."""
    image = f(sigma)
    return [j for j in range(dim + 1)
            if target_face(j, image) != f(source_face(j, sigma))]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("the sizes must not all be equal")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
