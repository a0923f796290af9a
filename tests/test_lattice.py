"""Exact linear algebra: Smith normal form with the inverse of U, ranks, batched cross products."""

import random
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_exc.lattice import IntMatrix, _cross_products, determinant, rank, smith_normal_form

A3_D1 = IntMatrix.from_rows([[1, 0, 0], [-1, -1, 2], [-1, -1, 1]])

small_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m,
        )
    )
).map(IntMatrix.from_rows)


@st.composite
def unimodular_matrices(draw):
    """Products of elementary row operations applied to the identity."""
    n = draw(st.integers(1, 4))
    M = [list(r) for r in IntMatrix.identity(n).entries]
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            q = draw(st.integers(-3, 3))
            M[i] = [x + q * y for x, y in zip(M[i], M[j])]
        elif op == "swap":
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [-x for x in M[i]]
    return IntMatrix.from_rows(M)


class TestSmithNormalForm:
    def test_identity(self):
        I3 = IntMatrix.identity(3)
        s = smith_normal_form(I3)
        assert (s.U, s.D, s.V) == (I3, I3, I3)

    def test_already_diagonal(self):
        A = IntMatrix.diagonal([2, 4])
        s = smith_normal_form(A)
        assert s.D == A
        assert s.U == IntMatrix.identity(2) and s.V == IntMatrix.identity(2)

    def test_unimodular_input_has_trivial_invariants(self):
        s = smith_normal_form(A3_D1)
        assert s.D.is_identity()

    @given(small_matrices)
    @settings(max_examples=300, deadline=None)
    def test_decomposition_properties(self, A):
        s = smith_normal_form(A)
        assert s.U @ A @ s.V == s.D
        assert (s.U @ s.U_inverse).is_identity() and (s.U_inverse @ s.U).is_identity()
        assert abs(determinant(s.U)) == 1
        assert abs(determinant(s.V)) == 1
        diag = s.D.diagonal_entries()
        assert all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            assert diag[i + 1] == 0 or (diag[i] != 0 and diag[i + 1] % diag[i] == 0)
        # off-diagonal entries vanish
        for i, row in enumerate(s.D.entries):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0

    def test_deterministic(self):
        A = IntMatrix.from_rows([[6, 4], [2, 8]])
        assert smith_normal_form(A) == smith_normal_form(A)

    @given(unimodular_matrices())
    @settings(max_examples=150, deadline=None)
    def test_u_inverse_of_a_unimodular_input(self, A):
        s = smith_normal_form(A)   # U A V = I, so U^-1 = A V
        assert s.D.is_identity()
        assert s.U_inverse == A @ s.V
        assert (s.U @ s.U_inverse).is_identity() and (s.U_inverse @ s.U).is_identity()


class TestRank:
    def test_rank_of_rank_deficient(self):
        A = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        assert rank(A) == 2

    @given(small_matrices)
    @settings(max_examples=150, deadline=None)
    def test_rank_matches_snf(self, A):
        s = smith_normal_form(A)
        assert rank(A) == sum(1 for d in s.D.diagonal_entries() if d != 0)


square_matrices = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n))


def leibniz_determinant(rows):
    """The sum over permutations s of sign(s) * prod rows[i][s(i)], in plain integers.

    Each permutation is built row by row: giving row i the k-th smallest
    free column adds k inversions.  Permutations whose first i rows use the
    same set of columns share the signed sum over their completions, which
    is kept per set, so n = 8 costs 2^8 sums instead of 8! products.
    """
    n = len(rows)

    @cache
    def completions(used):
        i = used.bit_count()
        free = [j for j in range(n) if not used >> j & 1]
        return 1 if i == n else sum((-1) ** k * rows[i][j] * completions(used | 1 << j)
                                    for k, j in enumerate(free) if rows[i][j])
    return completions(0)


def cross(rows, n):
    """The kernel on a batch of one set of n - 1 rows."""
    return tuple(_cross_products(np.array(rows, dtype=object).reshape(1, n - 1, n), largest(rows))[0].tolist())


def largest(rows):
    """The largest |entry| of a set of rows or a batch of them, at least 1: the kernel's bound."""
    return max(1, max((largest(row) if isinstance(row, (list, tuple)) else abs(row) for row in rows), default=0))


def reference_cross(rows, n):
    """x_k = det(e_k, rows) by the permutation sum."""
    return tuple(leibniz_determinant([[int(i == k) for i in range(n)]] + [list(row) for row in rows])
                 for k in range(n))


@st.composite
def row_batches(draw):
    """A batch of sets of n - 1 rows, n in 1 .. 8, some of them made dependent."""
    n = draw(st.integers(1, 8))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    batch = draw(st.lists(st.lists(row, min_size=n - 1, max_size=n - 1), min_size=1, max_size=6))
    for rows in batch:
        if n > 2 and draw(st.booleans()):   # a combination of two other rows
            rows[0] = [a - 2 * b for a, b in zip(rows[1], rows[2 % (n - 1)])]
    return n, batch


def sheared_p3_rays(shear):
    """The rays of P3 after x -> x + shear y: a change of lattice basis with huge entries."""
    return [(x + shear * y, y, z) for x, y, z in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))]


def twice_sheared_p3_rays(shear):
    """The rays of P3 after x -> x + shear y and y -> y + shear z: entries about shear, 2-minors about shear^2."""
    return [(x + shear * y, y + shear * z, z) for x, y, z in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))]


class TestCross:
    def test_three_dimensional_cross_product(self):
        assert cross([(1, 0, 0), (0, 1, 0)], 3) == (0, 0, 1)
        assert cross([(1, 2, 3), (-1, 0, 2)], 3) == (4, -5, 2)

    @given(square_matrices)
    @settings(max_examples=150, deadline=None)
    def test_pairing_is_the_bareiss_determinant(self, rows):
        # <cross(rows[1:]), rows[0]> = det(rows), and cross(rows[1:]) is orthogonal to each of them;
        # the kernel and the scalar elimination are both checked against the permutation sum
        n = len(rows)
        x = cross(rows[1:], n)
        det = determinant(IntMatrix.from_rows(rows))
        assert det == leibniz_determinant(rows)
        assert sum(a * b for a, b in zip(x, rows[0])) == det
        assert all(sum(a * b for a, b in zip(x, row)) == 0 for row in rows[1:])

    def test_dependent_rows_have_a_zero_cross_product(self):
        assert cross([], 1) == (1,)
        assert cross([(0, 0)], 2) == (0, 0)
        assert cross([(1, 2, 3), (2, 4, 6)], 3) == (0, 0, 0)
        assert cross([(0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0)], 4) == (0, 0, 0, 0)

    @given(row_batches())
    @settings(max_examples=150, deadline=None)
    def test_a_batch_equals_its_members_one_at_a_time(self, case):
        n, batch = case   # the int64 path; the object path is tested below
        together = _cross_products(np.array(batch, dtype=np.int64).reshape(len(batch), n - 1, n), largest(batch))
        assert [tuple(x) for x in together.tolist()] == [cross(rows, n) for rows in batch] \
            == [reference_cross(rows, n) for rows in batch]

    def test_the_object_path_is_exact(self):
        rng = random.Random(28)
        cases = []
        for shear in (10 ** 20, -(10 ** 20)):   # P3 sheared: every pair of its rays
            rays = sheared_p3_rays(shear)
            cases.append((3, [[rays[i], rays[j]] for i in range(4) for j in range(4) if i != j]))
        for n in (2, 3, 4, 5):   # entries of +-2^63 among small ones, and one dependent set
            batch = [[[rng.choice((2 ** 63, -(2 ** 63), rng.randint(-5, 5))) for _ in range(n)]
                      for _ in range(n - 1)] for _ in range(8)]
            batch.append([[2 ** 63 * k for k in range(1, n + 1)]] * (n - 1))
            cases.append((n, batch))
        for n, batch in cases:
            crosses = _cross_products(np.array(batch, dtype=object), largest(batch))
            assert crosses.dtype == object
            assert [tuple(x) for x in crosses.tolist()] == [reference_cross(rows, n) for rows in batch]

    def test_cross_products_past_int64_are_exact(self):
        # entries up to 2^32 + 1, which fit int64 with room to spare, but 2-minors that pass 2^63; among them
        # the ridges of P3 sheared twice by 2^32, whose cross products hold 2^64
        rng = random.Random(18)
        batch = [[[rng.choice((1, -1)) * rng.randint(2 ** 31, 2 ** 32) for _ in range(3)] for _ in range(2)]
                 for _ in range(40)]
        rays = twice_sheared_p3_rays(2 ** 32)
        batch += [[rays[i], rays[j]] for i in range(4) for j in range(4) if i != j]
        expected = [reference_cross(rows, 3) for rows in batch]
        assert max(abs(c) for x in expected for c in x) >= 2 ** 64
        crosses = _cross_products(np.array(batch, dtype=np.int64), largest(batch))
        assert crosses.dtype == object
        assert [tuple(x) for x in crosses.tolist()] == expected
