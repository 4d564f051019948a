"""Shared fixtures and property-check helpers for the test suite."""

import hashlib
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import effhom.cli
from effhom.chains import Chain, Cochain
from effhom.em import EMSpace, _delta_raw
from effhom.reduction import check_reduction, random_chain
from effhom.simplicial import SMap, Simplex, from_facets
from effhom.smith import SNF, IntMatrix

# minimal 6-vertex triangulation of the real projective plane
RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]

# 7-vertex (Csaszar) triangulation of the torus
TORUS_FACETS = [tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7)))
                for i in range(7)] + \
               [tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7)))
                for i in range(7)]


def random_cochain_raw(space, m, rng, density=0.5):
    """Random raw simplex of E(pi,n)."""
    items = []
    for t in combinations(range(m + 1), space.n + 1):
        if rng.random() < density:
            items.append((t, tuple(rng.randint(-4, 4)
                                   for _ in range(space.group.ngens))))
    return space.make_raw(m, items)


def random_cocycle_raw(space, m, rng, density=0.5):
    """Random raw simplex of K(pi,n), as a coboundary from one level down."""
    if space.n == 0:
        return random_cochain_raw(space, m, rng, density)
    lower = EMSpace(space.group, space.n - 1, "E")
    return _delta_raw(lower, random_cochain_raw(lower, m, rng, density))


def zero_face_twist_oracle(CTP, CP):
    """The twist perturbation of C(G x_tau B) as the difference of two whole
    differentials, d(CTP) - d(CP) with CP = C(G x B), on a cell.  An oracle
    for `effhom.bar._zero_face_twist`."""
    return lambda cell: CTP.diff_cell(cell) - CP.diff_cell(cell)


def coefficient_twist_oracle(barQ, bar0):
    """The twist perturbation of a bar construction as the difference of the
    bar differentials over the twisted and the untwisted tensor complex, on
    a word.  An oracle for `effhom.bar._coefficient_twist`."""
    return lambda cell: barQ.diff_cell(cell) - bar0.diff_cell(cell)


def check_twist_axioms(TP, simplices):
    """Verify the four twisting-operator identities of TP = G x_tau B on
    the given B-simplices.

    tau sends an l-simplex of B to an (l-1)-simplex of the simplicial
    group G; in additive notation the conditions are
        d0 tau(b) = tau(d1 b) - tau(d0 b),
        di tau(b) = tau(d_{i+1} b)   (i >= 1),
        si tau(b) = tau(s_{i+1} b),
        tau(s0 b) = unit.
    """
    G, B, tau = TP.X, TP.Y, TP.tau
    for s in simplices:
        m = s.dim
        if m < 1:
            continue
        t = G.uncanon(tau(s))
        if m >= 2:
            lhs = G.raw_face(0, t)
            rhs = G.raw_add(G.uncanon(tau(B.face(1, s))),
                            G.raw_neg(G.uncanon(tau(B.face(0, s)))))
            if lhs != rhs:
                raise ValueError(f"twist axiom (i) fails on {s!r}")
            for i in range(1, m - 1):
                if G.raw_face(i, t) != G.uncanon(tau(B.face(i + 1, s))):
                    raise ValueError(f"twist axiom (ii) fails on {s!r}, i={i}")
        for i in range(m - 1):
            if G.raw_degeneracy(i, t) != G.uncanon(tau(B.degeneracy(i + 1, s))):
                raise ValueError(f"twist axiom (iii) fails on {s!r}, i={i}")
        if G.uncanon(tau(B.degeneracy(0, s))) != G.raw_unit(m):
            raise ValueError(f"twist axiom (iv) fails on {s!r}")


def ev(space, chain):
    """Evaluate a degree-n chain of K(pi,n) or E(pi,n) on the fundamental
    cochain; values in pi."""
    if chain.degree != space.n and not chain.is_zero():
        raise ValueError(f"ev needs degree {space.n}, got {chain.degree}")
    top = tuple(range(space.n + 1))
    acc = space.group.zero()
    for cell, c in chain.items():
        acc = space.group.add(acc,
                              space.group.scale(c, space.label(cell.base, top)))
    return acc


def map_to_cochain(f, space):
    """Read back the cochain of a simplicial map into E(pi,n) or K(pi,n);
    the inverse of `effhom.em.cochain_to_map`."""
    top = tuple(range(space.n + 1))

    def eval_cell(cell):
        img = f(cell)
        if img.is_degenerate():
            return space.group.zero()
        return space.label(img.base, top)

    return Cochain(space.group, space.n, eval_cell)


def cochain_value(c, chain):
    """The value of the cochain c on a chain of its degree."""
    if chain.degree != c.degree and not chain.is_zero():
        raise ValueError("cochain applied in wrong degree")
    acc = c.group.zero()
    for cell, v in chain.items():
        acc = c.group.add(acc, c.group.scale(v, c.eval_cell(cell)))
    return acc


def coboundary(c, C):
    """(delta c)(x) = c(dx), for a cochain c on the complex C."""
    return Cochain(c.group, c.degree + 1,
                   lambda cell: cochain_value(c, C.diff_cell(cell)))


def vertex_map(X, Y, vmap):
    """Map of facet complexes induced by a monotone vertex assignment."""

    def on_base(cell):
        image = [vmap[v] for v in cell]
        if list(image) != sorted(image):
            raise ValueError("vertex map must be monotone on each cell")
        distinct = tuple(sorted(set(image)))
        # stall positions of the image word are the degeneracy indices
        stalls = tuple(j for j in range(len(image) - 1)
                       if image[j + 1] == image[j])
        return Simplex(distinct, stalls, len(image) - 1)

    return SMap(X, Y, on_base)


def serialize_sset(X):
    """The `simplicial_set` document of a finite simplicial set; cell names
    become strings."""
    cells, faces = {}, {}
    for d in range(X.top_dim + 1):
        names = [str(c) for c in X.cells(d)]
        if names:
            cells[str(d)] = names
        for c in X.cells(d):
            if d >= 1:
                faces[str(c)] = [[str(f.base), list(f.degs)]
                                 for f in (X.base_face(i, c)
                                           for i in range(d + 1))]
    return {"kind": "simplicial_set", "cells": cells, "faces": faces}


# directory holding the `effhom` package this process imported (`src/`);
# `effhom` has no __init__.py, so locate it through one of its modules
SRC_DIR = Path(effhom.cli.__file__).resolve().parents[1]


def run_python(args, hashseed):
    """Run `python ARGS` in a fresh process; return its stdout.

    The child sees only PYTHONHASHSEED and PATH, and finds `effhom` through
    its working directory, so it runs the same source as this process and
    inherits no PYTHONPATH or hash seed from it.
    """
    out = subprocess.run(
        [sys.executable, *args], capture_output=True, cwd=SRC_DIR,
        env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0, (
        f"python {' '.join(args)} exited {out.returncode}:\n"
        f"{out.stderr.decode(errors='replace')}")
    return out.stdout


def run_cli(args, hashseed):
    """Run `python -m effhom.cli ARGS` in a fresh process; return its stdout."""
    return run_python(["-m", "effhom.cli", *args], hashseed)


def stacked_sphere(vertices, seed):
    """Stacked 2-sphere: stellar subdivisions of seeded facets of a tetrahedron."""
    rng = random.Random(seed)
    facets = list(combinations(range(4), 3))
    for v in range(4, vertices):
        a, b, c = facets.pop(rng.randrange(len(facets)))
        facets += [(a, b, v), (a, c, v), (b, c, v)]
    return from_facets(facets)


def tower_fingerprint(T):
    """SHA-256 digest of the data of every stage of a Postnikov tower.

    Per stage i it covers pi_i, kappa_ef and lambda_ef, and phi_i(sigma)
    and k_{i-1}(phi_{i-1}(sigma)) for every nondegenerate simplex sigma of
    Y up to the degree cap.  Every value enters through its repr and the
    dictionaries in sorted order, so the digest is the same under any hash
    seed.
    """
    sigmas = [s for d in range(T.degree_cap + 1) for s in T.Y.chains.basis(d)]
    lines = []
    prev = T.phi0
    for st in T.stages:
        lines.append(f"stage {st.i}: pi {st.pi_i.render()}")
        for label, table in (("kappa", st.kappa_ef), ("lambda", st.lambda_ef)):
            lines += sorted(f"{label} {cell!r} {value!r}"
                            for cell, value in table.items())
        for sigma in sigmas:
            lines.append(f"phi {sigma!r} {st.phi_i(sigma)!r}")
            lines.append(f"k {sigma!r} {st.k_invariant(prev(sigma))!r}")
        prev = st.phi_i
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def rp2():
    return from_facets(RP2_FACETS)


def torus_complex():
    return from_facets(TORUS_FACETS)


def assert_dd_zero(C, max_deg):
    """dd = 0 on every basis cell of degree <= max_deg, and d lowers the
    degree by one: d(cell) has degree k - 1, and so has each of its terms."""
    for k in range(max_deg + 1):
        for cell in C.basis(k):
            d = C.diff_cell(cell)
            assert d.degree == k - 1, f"d({cell!r}) has degree {d.degree}"
            for term, _ in d.items():
                assert C.cell_dim(term) == k - 1, \
                    f"d({cell!r}) has the term {term!r} of the wrong degree"
            z = C.diff(d)
            assert z.is_zero(), f"d.d != 0 at {cell!r}: {z!r}"


def chain_product(mul_cells, x, y):
    """x.y for chains x and y, from a product on basis cells."""
    out = Chain(x.degree + y.degree)
    for a, ca in x.items():
        for b, cb in y.items():
            for cell, c in mul_cells(a, b).items():
                out._add(cell, ca * cb * c)
    return out


def assert_reduction_axioms(red, max_deg, seed=0, samples=20, **basis):
    """Check the five reduction axioms on seeded random chains per degree;
    a `basis=` keyword is handed on to `check_reduction`."""
    broken = check_reduction(red, max_deg, random.Random(seed), samples,
                             **basis)
    assert broken is None, f"reduction axiom {broken} fails"


def equipment_samples(E, max_deg, cells):
    """A `basis=` for `check_reduction` on the reduction and both roof legs
    of an equipment whose chains, big end and middle have no finite basis.

    In degree k the chains get the seeded cells `cells(k)`, the big end of
    the roof the supports of `red.f` on those (the same cells when there is
    no `red`), and the middle the supports of both g maps on the big and
    small cells and of both h maps on the middle cells one degree down.
    """
    red, eq = E.red, E.eq
    chains, big, middle = {}, {}, {}
    for k in range(max_deg + 1):
        chains[k] = cells(k)
        big[k] = chains[k] if red is None else sorted(
            {c for x in chains[k] for c, _ in red.f.on_cell(x).items()}, key=repr)
        zs = [eq.left.g.on_cell(c) for c in big[k]]
        zs += [eq.right.g.on_cell(c) for c in eq.small.basis(k)]
        for leg in (eq.left, eq.right):
            zs += [leg.h.on_cell(c) for c in middle.get(k - 1, ())]
        middle[k] = sorted({c for z in zs for c, _ in z.items()}, key=repr)

    def basis(C, k):
        for table, D in ((chains, E.chains), (big, eq.big), (middle, eq.middle)):
            if C is D:
                return table[k]
        return C.basis(k)

    return basis


def assert_chain_map(m, max_deg, seed=0, samples=10):
    """f(dx) = d(f(x)) on random chains (degree-0 maps only)."""
    rng = random.Random(seed)
    for k in range(1, max_deg + 1):
        for _ in range(samples):
            x = random_chain(m.source.basis(k), k, rng)
            diff = m(m.source.diff(x)) - m.target.diff(m(x))
            assert diff.is_zero(), f"not a chain map at degree {k}: {diff!r}"


def dense_smith_normal_form(A: IntMatrix) -> SNF:
    """Dense reference for `effhom.smith.smith_normal_form`.

    Diagonalize A over Z, tracking all four transforms.

    Pivoting picks the nonzero entry of minimal absolute value (first in
    row-major order on ties), which keeps coefficient growth tame at the
    matrix sizes arising here and makes the output deterministic.
    """
    m, n = A.rows, A.cols
    M = A.to_rows()
    U = IntMatrix.identity(m).to_rows()
    Ui = IntMatrix.identity(m).to_rows()
    V = IntMatrix.identity(n).to_rows()
    Vi = IntMatrix.identity(n).to_rows()

    # Row op on M and U: row_i -= q * row_s   <=>   Uinv: col_s += q * col_i.
    def row_sub(i, s, q):
        Mi, Ms = M[i], M[s]
        for j in range(n):
            Mi[j] -= q * Ms[j]
        Uii, Us = U[i], U[s]
        for j in range(m):
            Uii[j] -= q * Us[j]
        for r in range(m):
            Ui[r][s] += q * Ui[r][i]

    def col_sub(j, s, q):
        for r in range(m):
            M[r][j] -= q * M[r][s]
        for r in range(n):
            V[r][j] -= q * V[r][s]
        Vs = Vi[s]
        Vj = Vi[j]
        for c in range(n):
            Vs[c] += q * Vj[c]

    def row_swap(i, s):
        M[i], M[s] = M[s], M[i]
        U[i], U[s] = U[s], U[i]
        for r in range(m):
            Ui[r][i], Ui[r][s] = Ui[r][s], Ui[r][i]

    def col_swap(j, s):
        for r in range(m):
            M[r][j], M[r][s] = M[r][s], M[r][j]
        for r in range(n):
            V[r][j], V[r][s] = V[r][s], V[r][j]
        Vi[j], Vi[s] = Vi[s], Vi[j]

    def row_negate(i):
        for j in range(n):
            M[i][j] = -M[i][j]
        for j in range(m):
            U[i][j] = -U[i][j]
        for r in range(m):
            Ui[r][i] = -Ui[r][i]

    t = 0
    while True:
        # locate pivot: min |value| over the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            Mi = M[i]
            for j in range(t, n):
                v = Mi[j]
                if v:
                    a = abs(v)
                    if best is None or a < best:
                        best = a
                        pivot = (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)
        if M[t][t] < 0:
            row_negate(t)

        # clear row and column t; restart pivot search if residues pop up
        dirty = False
        for i in range(t + 1, m):
            if M[i][t]:
                q = M[i][t] // M[t][t]
                row_sub(i, t, q)
                if M[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if M[t][j]:
                q = M[t][j] // M[t][t]
                col_sub(j, t, q)
                if M[t][j]:
                    dirty = True
        if dirty:
            continue

        # enforce divisibility of the remaining block by the pivot
        d = M[t][t]
        bad = None
        for i in range(t + 1, m):
            Mi = M[i]
            for j in range(t + 1, n):
                if Mi[j] % d:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            # fold the offending row into row t and re-eliminate
            row_sub(t, bad, -1)
            continue
        t += 1

    D = IntMatrix.from_rows(M, cols=n)
    return SNF(D=D,
               U=IntMatrix.from_rows(U, cols=m),
               Uinv=IntMatrix.from_rows(Ui, cols=m),
               V=IntMatrix.from_rows(V, cols=n),
               Vinv=IntMatrix.from_rows(Vi, cols=n))
