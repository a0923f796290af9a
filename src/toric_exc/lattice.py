"""Exact integer linear algebra primitives.

Everything in this module runs over arbitrary-precision Python integers;
no floating point appears anywhere.  The matrices involved downstream are
small (ray pairing matrices, boundary matrices of simplicial subcomplexes),
so the implementation favours determinism and auditability.
One fraction-free (Bareiss) elimination, _eliminate, gives every rank,
determinant and cofactor in polynomial time; the cofactors (cross products
of n - 1 rows, facet sides) are the n-minors it leaves in the last row of
[rows^T | +-I].  The only inverse built from them is fan.cone_inverse:
det times the transposed cofactor matrix of n rays, read from the fan's
table of cross products.  The Smith normal form, which pivots on the
smallest-magnitude entry with ties broken by position, only chooses the
quotient basis of Pic; it carries U^-1 beside U, so that basis needs no
inverse of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional, Sequence

# Bound below which the numpy kernels elsewhere in the package stay in
# int64; above it they switch to Python ints rather than risk silent
# overflow.  int64 is plenty for every catalog fan.
_INT64_SAFE = 2**60


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix stored as a tuple of row tuples.

    >>> A = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> (IntMatrix.identity(2) @ A) == A
    True
    >>> A.mul_vec((1, 0))
    (1, 3)
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows in matrix")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        r = rows if rows is not None else len(diag)
        c = cols if cols is not None else len(diag)
        return cls(tuple(tuple(diag[i] if i == j and i < len(diag) else 0 for j in range(c)) for i in range(r)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else self

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = other.transpose().entries
        return IntMatrix(tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in self.entries))

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if self.cols != len(v):
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(mul, r, v)) for r in self.entries)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == IntMatrix.identity(self.rows)

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form data: U @ A @ V == D with U, V unimodular and the
    diagonal of D nonnegative, each entry dividing the next; U_inverse is U^-1."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    U_inverse: IntMatrix


def _eliminate(M: list[list[int]], width: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of the rows M in place, pivoting in the first `width` columns.

    A swap also negates the row it moves down, so no step changes a
    determinant.  Returns the rank r of those columns and the last pivot
    (1 when r = 0).  With pivots in columns c_0 < ... < c_(r-1), the last
    pivot is the minor of the (swapped) rows 0..r-1 on those columns, and
    entry j of a row i >= r is the minor on rows 0..r-1, i and columns
    c_0, ..., c_(r-1), j.  Each division is exact (Bareiss 1968).
    """
    r, prev = 0, 1
    m, n = len(M), len(M[0]) if M else 0
    for j in range(width):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if M[i][j]), None)
        if pivot is None:
            continue
        if pivot != r:
            M[r], M[pivot] = M[pivot], [-x for x in M[r]]
        top, p = M[r], M[r][j]
        for i in range(r + 1, m):
            row, a = M[i], M[i][j]
            if a or p != prev:   # a = 0 and p = prev would leave the row unchanged
                for k in range(j + 1, n):
                    row[k] = (p * row[k] - a * top[k]) // prev
                row[j] = 0
        prev, r = p, r + 1
    return r, prev


def determinant(A: IntMatrix) -> int:
    """Determinant of a square integer matrix: the last pivot of a full-rank elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    r, last = _eliminate([list(row) for row in A.entries], A.cols)
    return last if r == A.cols else 0


def rank(A: IntMatrix) -> int:
    """Rank over the rationals, computed exactly."""
    return _eliminate([list(row) for row in A.entries], A.cols)[0]


def _cross(rows: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """x with <x, w> = det(w, rows) for every w: orthogonal to the n - 1 rows.

    x_k = det(e_k, rows) = det(rows^T | (-1)^(n-1) e_k).  Eliminating
    [rows^T | (-1)^(n-1) I] on its first n - 1 columns leaves these n-minors
    in its last row; they all vanish when the rows are dependent.  Row i of
    a square matrix's cofactor matrix is (-1)^i times the cross product of
    the other rows, so A @ cofactors^T = det(A) I.
    """
    sign = (-1) ** (n - 1)
    M = [[row[k] for row in rows] + [0] * k + [sign] + [0] * (n - 1 - k) for k in range(n)]
    if _eliminate(M, n - 1)[0] < n - 1:
        return (0,) * n
    return tuple(M[n - 1][n - 1:])


def _pivot_position(M: list[list[int]], t: int) -> Optional[tuple[int, int]]:
    # Smallest absolute value in the trailing block, ties by row then column.
    best = None
    best_key = None
    for i in range(t, len(M)):
        for j in range(t, len(M[0])):
            if M[i][j] != 0:
                key = (abs(M[i][j]), i, j)
                if best_key is None or key < best_key:
                    best, best_key = (i, j), key
    return best


def smith_normal_form(A: IntMatrix) -> SNFResult:
    """Smith normal form U @ A @ V == D.

    The pivot rule (smallest magnitude first, ties by position) makes the
    output deterministic for a fixed input.  Each row operation on U is
    recorded as the inverse column operation on U^-1.  The identities
    U @ A @ V == D and U @ U^-1 == I and the divisibility chain are
    re-verified before returning.
    """
    m, n = A.rows, A.cols
    M = [list(r) for r in A.entries]
    U = [list(r) for r in IntMatrix.identity(m).entries]
    U_inverse = [list(r) for r in IntMatrix.identity(m).entries]
    V = [list(r) for r in IntMatrix.identity(n).entries]

    def swap_rows(a, b):
        M[a], M[b] = M[b], M[a]
        U[a], U[b] = U[b], U[a]
        for row in U_inverse:
            row[a], row[b] = row[b], row[a]

    def swap_cols(a, b):
        for row in M:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def add_row(src, dst, q):
        # row dst -= q * row src; on U^-1, col src += q * col dst
        M[dst] = [x - q * y for x, y in zip(M[dst], M[src])]
        U[dst] = [x - q * y for x, y in zip(U[dst], U[src])]
        for row in U_inverse:
            row[src] += q * row[dst]

    def add_col(src, dst, q):
        # col dst -= q * col src
        for row in M:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    def negate_row(i):
        M[i] = [-x for x in M[i]]
        U[i] = [-x for x in U[i]]
        for row in U_inverse:
            row[i] = -row[i]

    def clear_at(t):
        while True:
            pos = _pivot_position(M, t)
            if pos is None:
                return False
            pi, pj = pos
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            # Reduce the pivot row and column; a nonzero remainder becomes the
            # new (smaller) pivot on the next pass, so this terminates.
            dirty = False
            for i in range(t + 1, m):
                if M[i][t] != 0:
                    q = M[i][t] // M[t][t]
                    add_row(t, i, q)
                    if M[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if M[t][j] != 0:
                    q = M[t][j] // M[t][t]
                    add_col(t, j, q)
                    if M[t][j] != 0:
                        dirty = True
            if not dirty:
                return True

    def diagonalize():
        t = 0
        while t < min(m, n):
            if not clear_at(t):
                break
            t += 1
        for i in range(min(m, n)):
            if M[i][i] < 0:
                negate_row(i)

    diagonalize()
    # Enforce the divisibility chain d_i | d_{i+1}: merge an offending pair by
    # a column addition and re-diagonalize.  Each merge shrinks the product of
    # the leading invariant factors, so this terminates.
    def chain_violation():
        for i in range(min(m, n) - 1):
            a, b = M[i][i], M[i + 1][i + 1]
            if b != 0 and (a == 0 or b % a != 0):
                return i
        return None

    while True:
        bad = chain_violation()
        if bad is None:
            break
        add_col(bad + 1, bad, -1)  # col bad += col bad+1
        diagonalize()

    Um, Dm, Vm = IntMatrix.from_rows(U), IntMatrix.from_rows(M), IntMatrix.from_rows(V)
    assert Um @ A @ Vm == Dm, "SNF identity violated"
    assert _is_identity_product(U, tuple(zip(*U_inverse))), "U^-1 is not the inverse of U"
    diag = Dm.diagonal_entries()
    for i in range(len(diag) - 1):
        assert diag[i + 1] == 0 or (diag[i] != 0 and diag[i + 1] % diag[i] == 0), "divisibility chain violated"
    assert abs(determinant(Vm)) == 1
    return SNFResult(Um, Dm, Vm, IntMatrix.from_rows(U_inverse))


def _is_identity_product(rows: Sequence[Sequence[int]], columns: Sequence[Sequence[int]]) -> bool:
    """Whether the matrix with these rows times the matrix with these columns is the identity.

    Each row-column product is compared with 1 or 0 directly, so neither
    the product nor an identity matrix is built.
    """
    return len(rows) == len(columns) and all(
        sum(map(mul, row, column)) == (i == j)
        for i, row in enumerate(rows) for j, column in enumerate(columns))
