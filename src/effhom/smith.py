"""Exact integer linear algebra: Smith normal form and homology solvers.

An `IntMatrix` stores only its nonzero entries and never changes after
construction, so the column index `apply` builds on first use stays valid.
`smith_normal_form` eliminates over sparse rows plus column supports, with
U, V^-1 held by rows and U^-1, V by columns.  Its pivot rule (minimal
|value|, first in row-major order), order of operations and divisibility
fold are those of a dense elimination, so all five matrices it returns are
the dense ones entry for entry (the tests keep a dense reference).

Everything here is deterministic: the same input matrix always produces the
same transforms, so repeated homology computations fix the same isomorphism
H_k -> Z^r + Z/m_1 + ... (the Postnikov engine depends on that).
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgroup import AbGroup


class IntMatrix:
    """Sparse integer matrix with explicit shape, immutable once built.

    Entries are stored in a dict (i, j) -> nonzero int.  A by-column index
    for matrix-vector products is built on first use.
    """

    __slots__ = ("rows", "cols", "entries", "_by_col")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        self._by_col = None
        if entries:
            for (i, j), v in entries.items():
                if v:
                    if not (0 <= i < rows and 0 <= j < cols):
                        raise IndexError((i, j))
                    self.entries[(i, j)] = int(v)

    @classmethod
    def from_rows(cls, rows_data, cols=None):
        rows_data = [list(r) for r in rows_data]
        rows = len(rows_data)
        if cols is None:
            cols = len(rows_data[0]) if rows_data else 0
        e = {}
        for i, row in enumerate(rows_data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    e[(i, j)] = int(v)
        return cls(rows, cols, e)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    def get(self, i, j):
        return self.entries.get((i, j), 0)

    def to_rows(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         {(j, i): v for (i, j), v in self.entries.items()})

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_row = {}
        for (i, j), v in self.entries.items():
            by_row.setdefault(i, []).append((j, v))
        out = {}
        other_rows = {}
        for (j, k), w in other.entries.items():
            other_rows.setdefault(j, []).append((k, w))
        for i, terms in by_row.items():
            acc = {}
            for j, v in terms:
                for k, w in other_rows.get(j, ()):
                    acc[k] = acc.get(k, 0) + v * w
            for k, s in acc.items():
                if s:
                    out[(i, k)] = s
        return IntMatrix(self.rows, other.cols, out)

    def _columns(self):
        """column j -> [(i, value), ...] over the nonzero entries."""
        if self._by_col is None:
            self._by_col = {}
            for (i, j), v in self.entries.items():
                self._by_col.setdefault(j, []).append((i, v))
        return self._by_col

    def apply(self, vec):
        """Matrix-vector product over int tuples/lists."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        by_col = self._columns()
        for j, x in enumerate(vec):
            if x:
                for i, v in by_col.get(j, ()):
                    out[i] += v * x
        return out

    def column(self, j):
        out = [0] * self.rows
        for i, v in self._columns().get(j, ()):
            out[i] = v
        return out

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        raise TypeError("IntMatrix is not hashable")

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


@dataclass
class SNF:
    """D = U * A * V with U, V unimodular; D diagonal with d_1 | d_2 | ..."""

    D: IntMatrix
    U: IntMatrix
    Uinv: IntMatrix
    V: IntMatrix
    Vinv: IntMatrix

    @property
    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return [self.D.get(i, i) for i in range(n)]

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(A: IntMatrix) -> SNF:
    """Diagonalize A over Z, tracking all four transforms.

    Pivoting picks the nonzero entry of minimal absolute value (first in
    row-major order on ties), which keeps coefficient growth tame at the
    matrix sizes arising here and makes the output deterministic.
    """
    m, n = A.rows, A.cols
    M = [{} for _ in range(m)]          # row i of M: column -> value
    support = [set() for _ in range(n)]  # column j of M: rows holding j
    for (i, j), v in A.entries.items():
        M[i][j] = v
        support[j].add(i)
    U = [{i: 1} for i in range(m)]       # rows of U
    Ui = [{i: 1} for i in range(m)]      # columns of U^-1
    V = [{j: 1} for j in range(n)]       # columns of V
    Vi = [{j: 1} for j in range(n)]      # rows of V^-1

    # Row op on M and U: row_i -= q * row_s   <=>   Uinv: col_s += q * col_i.
    def row_sub(i, s, q):
        _axpy(M[i], M[s], -q)
        for j in M[s]:
            if j in M[i]:
                support[j].add(i)
            else:
                support[j].discard(i)
        _axpy(U[i], U[s], -q)
        _axpy(Ui[s], Ui[i], q)

    def col_sub(j, s, q):
        for r in support[s]:
            Mr = M[r]
            w = Mr.get(j, 0) - q * Mr[s]
            if w:
                Mr[j] = w
                support[j].add(r)
            else:
                del Mr[j]
                support[j].discard(r)
        _axpy(V[j], V[s], -q)
        _axpy(Vi[s], Vi[j], q)

    def row_swap(i, s):
        for j in M[i].keys() ^ M[s].keys():
            support[j] ^= {i, s}
        M[i], M[s] = M[s], M[i]
        U[i], U[s] = U[s], U[i]
        Ui[i], Ui[s] = Ui[s], Ui[i]

    def col_swap(j, s):
        for r in support[j] | support[s]:
            a, b = M[r].pop(j, 0), M[r].pop(s, 0)
            if a:
                M[r][s] = a
            if b:
                M[r][j] = b
        support[j], support[s] = support[s], support[j]
        V[j], V[s] = V[s], V[j]
        Vi[j], Vi[s] = Vi[s], Vi[j]

    def row_negate(i):
        for vec in (M[i], U[i], Ui[i]):
            for j in vec:
                vec[j] = -vec[j]

    # Rows and columns before t are finished: outside the diagonal they
    # stay zero, so every search below looks at rows and columns >= t only.
    t = 0
    while True:
        # locate pivot: min |value| over the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            if M[i]:
                a, j = min((abs(v), j) for j, v in M[i].items())
                if best is None or a < best:
                    best = a
                    pivot = (i, j)
                    if a == 1:
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
        d = M[t][t]
        dirty = False
        for i in sorted(support[t]):
            if i > t:
                row_sub(i, t, M[i][t] // d)
                if t in M[i]:
                    dirty = True
        for j in sorted(M[t]):
            if j > t:
                col_sub(j, t, M[t][j] // d)
                if j in M[t]:
                    dirty = True
        if dirty:
            continue

        # enforce divisibility of the remaining block by the pivot
        if d != 1:
            bad = next((i for i in range(t + 1, m)
                        if any(v % d for v in M[i].values())), None)
            if bad is not None:
                # fold the offending row into row t and re-eliminate
                row_sub(t, bad, -1)
                continue
        t += 1

    def by_rows(vecs, cols):
        return IntMatrix(len(vecs), cols, {
            (i, j): v for i, vec in enumerate(vecs) for j, v in vec.items()})

    return SNF(D=by_rows(M, n), U=by_rows(U, m),
               Uinv=by_rows(Ui, m).transpose(),
               V=by_rows(V, n).transpose(), Vinv=by_rows(Vi, n))


def _axpy(dst, src, q):
    """dst += q * src on sparse vectors, dropping entries that cancel."""
    for k, v in src.items():
        w = dst.get(k, 0) + q * v
        if w:
            dst[k] = w
        else:
            del dst[k]


class HomologySolver:
    """H_k = ker(d_k) / im(d_{k+1}) with class / representative / witness maps.

    Works on integer coordinate vectors over the degree-k basis; chain-level
    wrappers live with the chain-complex code.
    """

    def __init__(self, d_k: IntMatrix, d_k1: IntMatrix):
        if d_k.cols != d_k1.rows:
            raise ValueError("boundary matrices have incompatible shapes")
        if not d_k.mul(d_k1).is_zero():
            raise ValueError("d_k . d_{k+1} != 0")
        self.n = d_k.cols
        self._snf1 = smith_normal_form(d_k)
        # nonzero pivots come first: ker d_k is spanned by the columns of V
        # from r on, and V^-1 x of a cycle is r zeros, then kernel coordinates
        self._r = r = self._snf1.rank
        z = self.n - r

        # express the image of d_{k+1} in kernel coordinates
        b_entries = {}
        for c in range(d_k1.cols):
            y = self._snf1.Vinv.apply(d_k1.column(c))
            if any(y[:r]):
                raise ValueError("image of d_{k+1} is not contained in ker d_k")
            b_entries.update(((i, c), v) for i, v in enumerate(y[r:]))
        self._B = IntMatrix(z, d_k1.cols, b_entries)
        self._snf2 = smith_normal_form(self._B)
        diag2 = self._snf2.diagonal

        self._free_idx = []
        self._tor_idx = []
        mm_free, mm_tor = [], []
        for i in range(z):
            d = diag2[i] if i < len(diag2) else 0
            if d == 0:
                self._free_idx.append(i)
                mm_free.append(0)
            elif d >= 2:
                self._tor_idx.append((i, d))
                mm_tor.append(d)
            # d == 1: trivial summand, dropped
        self.group = AbGroup(tuple(mm_free + mm_tor))

    # -- coordinate plumbing ----------------------------------------------

    def _kernel_coords(self, x):
        """cycle vector -> coordinates in the kernel basis (checked)."""
        y = self._snf1.Vinv.apply(x)
        if any(y[:self._r]):
            raise ValueError("vector is not a cycle")
        return y[self._r:]

    def _class(self, kernel_coords):
        w = self._snf2.U.apply(kernel_coords)
        elt = [w[i] for i in self._free_idx] + \
              [w[i] % d for i, d in self._tor_idx]
        return self.group.reduce(elt)

    def class_of(self, x):
        """Homology class of a cycle, as an element tuple of self.group."""
        return self._class(self._kernel_coords(x))

    def projected_class_of(self, x):
        """Class of the projection of any vector x onto ker d_k.

        The projection runs along the span of the columns of V with a
        nonzero pivot; in kernel coordinates it is V^-1 x without its
        first r entries.  On cycles this agrees with `class_of`.
        """
        return self._class(self._snf1.Vinv.apply(x)[self._r:])

    def rep_of(self, elt):
        """A representing cycle (coordinate vector) for a group element."""
        elt = self.group.reduce(elt)
        w = [0] * (self.n - self._r)
        for pos, i in enumerate(self._free_idx):
            w[i] = elt[pos]
        for pos, (i, _d) in enumerate(self._tor_idx):
            w[i] = elt[len(self._free_idx) + pos]
        return self._snf1.V.apply([0] * self._r + self._snf2.Uinv.apply(w))

    def boundary_witness(self, x):
        """Solve d_{k+1}(w) = x for a null-homologous cycle x."""
        w = self._snf2.U.apply(self._kernel_coords(x))
        diag2 = self._snf2.diagonal
        t = [0] * self._B.cols
        for i in range(len(w)):
            d = diag2[i] if i < len(diag2) else 0
            if d == 0:
                if w[i]:
                    raise ValueError("cycle is not a boundary")
            else:
                if w[i] % d:
                    raise ValueError("cycle is not a boundary")
                if i < len(t):
                    t[i] = w[i] // d
        return self._snf2.V.apply(t)


def homology(d_k: IntMatrix, d_k1: IntMatrix) -> HomologySolver:
    return HomologySolver(d_k, d_k1)
