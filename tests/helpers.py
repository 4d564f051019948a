"""Shared fixtures and property-check helpers for the test suite."""

import random
import subprocess
import sys
from pathlib import Path

import effhom.cli
from effhom.chains import Chain
from effhom.simplicial import from_facets
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


# directory holding the `effhom` package this process imported (`src/`);
# `effhom` has no __init__.py, so locate it through one of its modules
SRC_DIR = Path(effhom.cli.__file__).resolve().parents[1]


def run_cli(args, hashseed):
    """Run `python -m effhom.cli ARGS` in a fresh process; return its stdout.

    The child sees only PYTHONHASHSEED and PATH, and finds `effhom` through
    its working directory, so it runs the same source as this process and
    inherits no PYTHONPATH or hash seed from it.
    """
    out = subprocess.run(
        [sys.executable, "-m", "effhom.cli", *args],
        capture_output=True, cwd=SRC_DIR,
        env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0, (
        f"effhom {' '.join(args)} exited {out.returncode}:\n"
        f"{out.stderr.decode(errors='replace')}")
    return out.stdout


def rp2():
    return from_facets(RP2_FACETS)


def torus_complex():
    return from_facets(TORUS_FACETS)


def random_chain(C, k, rng, size=3, max_coeff=4):
    """Random degree-k chain supported on the finite basis of C."""
    basis = C.basis(k)
    if not basis:
        return Chain.zero(k)
    out = Chain(k)
    for _ in range(min(size, len(basis))):
        cell = rng.choice(basis)
        coeff = rng.randint(-max_coeff, max_coeff)
        out._add(cell, coeff)
    return out


def assert_dd_zero(C, max_deg):
    for k in range(max_deg + 1):
        for cell in C.basis(k):
            z = C.diff(C.diff_cell(cell))
            assert z.is_zero(), f"d.d != 0 at {cell!r}: {z!r}"


def assert_reduction_axioms(red, max_deg, seed=0, samples=20):
    """Check the five reduction axioms on seeded random chains per degree."""
    rng = random.Random(seed)
    C, D = red.source, red.target
    f, g, h = red.f, red.g, red.h
    for k in range(max_deg + 1):
        for _ in range(samples):
            if D.is_effective:
                y = random_chain(D, k, rng)
                fg = f(g(y)) - y
                assert fg.is_zero(), f"fg != id at degree {k}: {fg!r}"
                hgy = h(g(y))
                assert hgy.is_zero(), f"hg != 0 at degree {k}: {hgy!r}"
            x = random_chain(C, k, rng)
            lhs = x - g(f(x))
            rhs = C.diff(h(x)) + h(C.diff(x))
            assert (lhs - rhs).is_zero(), f"id - gf != dh + hd at degree {k}"
            fh = f(h(x))
            assert fh.is_zero(), f"fh != 0 at degree {k}: {fh!r}"
            hh = h(h(x))
            assert hh.is_zero(), f"hh != 0 at degree {k}: {hh!r}"


def assert_chain_map(m, max_deg, seed=0, samples=10):
    """f(dx) = d(f(x)) on random chains (degree-0 maps only)."""
    rng = random.Random(seed)
    for k in range(1, max_deg + 1):
        for _ in range(samples):
            x = random_chain(m.source, k, rng)
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
