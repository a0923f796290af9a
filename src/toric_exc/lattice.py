"""Exact integer linear algebra primitives.

No floating point appears anywhere: the scalar routines run over
arbitrary-precision Python integers, and the one batched kernel runs in
int64 only under a proven bound, else in Python integers too.  The
matrices involved downstream are small (ray pairing matrices, boundary
matrices of simplicial subcomplexes), so the implementation favours
determinism and auditability.
One fraction-free (Bareiss) elimination, _eliminate, gives every rank and
determinant in polynomial time.  One batched kernel, _cross_products,
gives the cross products of n - 1 rows for a whole batch of row sets in
one vectorised, division-free pass (Samuelson-Berkowitz); its one caller,
fan.ray_minors, reads every ray minor and cofactor from one such pass per
request.  The only inverse built from them is fan.cone_inverse: det
times the transposed cofactor matrix of n rays.
The Smith normal form, which pivots on the smallest-magnitude entry with
ties broken by position, only chooses the quotient basis of Pic; it
carries U^-1 beside U, so that basis needs no inverse of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import mul
from typing import Iterable, Optional, Sequence

import numpy as np

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


def _minor_dtype(n: int, top: int) -> type:
    """int64 when every minor of size at most n of an integer matrix with entries of size at most top >= 1, and
    every value of a _cross_products pass over n - 1 such rows, is below _INT64_SAFE; else object (Python ints).

    A k-minor is a sum of k! products of k entries, so it is at most k! top^k, and every partial sum of it too.
    """
    bound = max(factorial(n) * top ** n, n * ((n - 1) * top) ** (n - 1))
    return np.int64 if bound < _INT64_SAFE else object


@lru_cache(maxsize=None)
def _omitting(n: int) -> np.ndarray:
    """n x (n-1): row i lists the positions 0 .. n-1 other than i, so S[:, _omitting(n)][:, i] is S minus S_i."""
    return np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=np.intp).reshape(n, n - 1)


@lru_cache(maxsize=None)
def _alternating(n: int) -> np.ndarray:
    """(1, -1, 1, ...), n entries: the sign (-1)^i of position i."""
    return np.array([(-1) ** i for i in range(n)], dtype=np.int64)


def _cross_products(rows: np.ndarray, top: int) -> np.ndarray:
    """B x n: for each of B sets of n - 1 rows (a B x (n-1) x n integer array), the x with <x, w> = det(w, rows).

    x is orthogonal to the n - 1 rows, and x_k = det(e_k, rows) = (-1)^k
    det(A_k), A_k the rows without column k.  The B n determinants of size
    N = n - 1 come from one vectorised pass of the Samuelson-Berkowitz
    algorithm, which needs no division and no pivot, so dependent rows give
    0 like any other and the pass takes O(n^3) array operations.  The
    characteristic polynomial of each leading r x r block of A_k follows
    from that of the block before by one Toeplitz product, whose entries
    are 1, -a (the new diagonal entry) and -R B^j S (R and S the new row and
    column, B the block before), and det A_k is (-1)^N times the last
    coefficient.  With T = N top, top >= 1 a bound on every |entry|: the i-th
    coefficient of an r x r block is a signed sum of its C(r, i) principal
    i-minors, so at most T^i; -R B^j S is at most T^(j+2); and every sum on
    the way has at most n terms of at most T^N.  So the pass runs in int64
    when _minor_dtype allows, else in Python integers.  Row i of a square
    matrix's cofactor matrix is (-1)^i times the cross product of the other
    rows, so A @ cofactors^T = det(A) I.
    """
    count, N, n = rows.shape
    dtype = _minor_dtype(n, top)
    A = rows.astype(dtype, copy=False)[:, :, _omitting(n)].transpose(0, 2, 1, 3)   # count x n x N x N: A_k
    if not N:
        return np.ones((count, 1), dtype=dtype)
    # every coefficient and Toeplitz entry is a count x n x 1 x 1 array, so that the products are matmuls
    p = [-A[..., :1, :1]]   # the coefficients after the leading 1, of the leading 1 x 1 block
    for r in range(1, N):
        R, S, block = A[..., r:r + 1, :r], A[..., :r, r:r + 1], A[..., :r, :r]
        u = [A[..., r:r + 1, r:r + 1]]   # minus the Toeplitz entries after the leading 1
        for j in range(r):
            u.append(R @ S)
            if j < r - 1:
                S = block @ S
        p = [(p[i] if i < r else 0) - sum((u[i - 1 - j] * p[j] for j in range(i)), u[i]) for i in range(r + 1)]
    return p[-1][..., 0, 0] * (_alternating(n) if N % 2 == 0 else -_alternating(n))


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
