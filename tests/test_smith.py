import random

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from effhom.abgroup import AbGroup
from effhom.smith import HomologySolver, IntMatrix, smith_normal_form
from helpers import dense_smith_normal_form


def random_matrix(rng, max_side=8, max_entry=10):
    m = rng.randint(0, max_side)
    n = rng.randint(0, max_side)
    return IntMatrix(m, n, {(i, j): rng.randint(-max_entry, max_entry)
                            for i in range(m) for j in range(n)})


def check_snf(A):
    s = smith_normal_form(A)
    # D = U A V exactly
    assert s.U.mul(A).mul(s.V) == s.D
    # transforms invert each other
    assert s.U.mul(s.Uinv) == IntMatrix.identity(A.rows)
    assert s.V.mul(s.Vinv) == IntMatrix.identity(A.cols)
    # D diagonal, nonnegative, divisibility chain
    for (i, j), v in s.D.entries.items():
        assert i == j and v > 0
    diag = [d for d in s.diagonal if d]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    # unimodularity
    if A.rows:
        assert abs(sympy.Matrix(s.U.to_rows()).det()) == 1
    if A.cols:
        assert abs(sympy.Matrix(s.V.to_rows()).det()) == 1
    return s


def test_snf_small_known():
    A = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    s = check_snf(A)
    assert [d for d in s.diagonal if d] == [2, 2, 156]


def test_snf_zero_and_empty():
    check_snf(IntMatrix(3, 2))
    check_snf(IntMatrix(0, 4))
    check_snf(IntMatrix(4, 0))


def test_snf_random_vs_sympy_oracle():
    rng = random.Random(20260823)
    for _ in range(150):
        A = random_matrix(rng, max_side=7, max_entry=9)
        s = check_snf(A)
        if A.rows and A.cols:
            oracle = sympy_snf(sympy.Matrix(A.to_rows()))
            odiag = [abs(oracle[i, i]) for i in range(min(A.rows, A.cols))]
            assert [d for d in s.diagonal if d] == [d for d in odiag if d]


def test_snf_determinism():
    A = IntMatrix.from_rows([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
    s1 = smith_normal_form(A)
    s2 = smith_normal_form(A)
    assert s1.D == s2.D and s1.U == s2.U and s1.V == s2.V


@st.composite
def sparse_matrices(draw):
    """Up to 9x9, entries in [-6, 6], about `level` tenths of them nonzero."""
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    level = draw(st.integers(1, 10))
    cells = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(-6, 6)),
                          min_size=m * n, max_size=m * n))
    return IntMatrix(m, n, {(k // n, k % n): v
                            for k, (u, v) in enumerate(cells) if u < level})


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
# a pivot of 2 that does not divide the 3 beside it: the fold path runs
@example(IntMatrix.from_rows([[2, 0], [0, 3]]))
@example(IntMatrix.from_rows([[0, 4, 0], [6, 0, 0], [0, 0, 10]]))
def test_snf_equals_dense_reference(A):
    s, ref = smith_normal_form(A), dense_smith_normal_form(A)
    assert s.D == ref.D
    assert s.U == ref.U
    assert s.Uinv == ref.Uinv
    assert s.V == ref.V
    assert s.Vinv == ref.Vinv


def test_homology_circle():
    # S^1: d_1 = 0 (one vertex, one loop), d_2 empty
    solver = HomologySolver(IntMatrix(1, 1, {(0, 0): 0}), IntMatrix(1, 0))
    assert solver.group == AbGroup((0,))


def test_homology_rp2_middle():
    # Z --2--> Z: H = Z/2
    d1 = IntMatrix(1, 1)              # zero map out
    d2 = IntMatrix(1, 1, {(0, 0): 2})
    solver = HomologySolver(d1, d2)
    assert solver.group == AbGroup((2,))
    cls = solver.class_of([1])
    assert cls == (1,)
    rep = solver.rep_of((1,))
    assert solver.class_of(rep) == (1,)


def test_homology_mixed_group_roundtrip():
    # ker = Z^3, image spanned by (2,0,0), (0,3,0): H = Z + Z/6
    d1 = IntMatrix(1, 3)
    d2 = IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]])
    solver = HomologySolver(d1, d2)
    assert solver.group.rank == 1
    assert solver.group.torsion == (6,)
    for elt in [(1, 0), (0, 5), (3, 1)]:
        elt = solver.group.reduce(elt)
        assert solver.class_of(solver.rep_of(elt)) == elt


def test_class_of_rejects_non_cycle():
    d1 = IntMatrix.from_rows([[1, 0]])
    d2 = IntMatrix(2, 0)
    solver = HomologySolver(d1, d2)
    with pytest.raises(ValueError):
        solver.class_of([1, 0])
    assert solver.class_of([0, 5]) == (5,)


def test_dd_nonzero_rejected():
    d1 = IntMatrix.from_rows([[1]])
    d2 = IntMatrix.from_rows([[1]])
    with pytest.raises(ValueError):
        HomologySolver(d1, d2)
