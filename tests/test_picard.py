"""Divisor classes, linear equivalence, and basis handling."""

import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import zvec
from test_fan import seeded_blowups
from toric_exc import lattice
from toric_exc.errors import NotABasis
from toric_exc.fan import Fan, cone_inverse
from toric_exc.picard import (anticanonical_divisor, build_pic_context, class_label,
                              class_to_divisor, divisor_label, pairing_matrix, to_class)

P3 = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


class TestClassCoordinates:
    def test_d1_preferred_basis(self, d1_ctx):
        assert to_class(d1_ctx, zvec(6, z1=1)) == (1, 1, 0)
        assert to_class(d1_ctx, zvec(6, z2=1)) == (1, 1, 0)
        assert to_class(d1_ctx, zvec(6, z3=1)) == (-2, -1, 1)
        assert to_class(d1_ctx, zvec(6, z4=1)) == (1, 0, 0)

    def test_d1_anticanonical(self, d1, d1_ctx):
        assert to_class(d1_ctx, anticanonical_divisor(d1.fan)) == (1, 2, 2)

    def test_e1_basis(self, e1_ctx):
        assert to_class(e1_ctx, zvec(7, z2=1)) == (-1, 1, 0, -1)

    def test_p3_all_rays_one_class(self):
        ctx = build_pic_context(P3, (3,))
        for i in range(4):
            assert to_class(ctx, zvec(4, **{f"z{i + 1}": 1})) == (1,)


class TestPrintedEquivalences:
    """The ray-divisor relations that pin each catalog fan's coordinates."""

    def test_d2(self, records, contexts):
        ctx = contexts["D2"]
        assert to_class(ctx, zvec(6, z1=1)) == (1, 1, 0)    # Z1 = Z4+Z5
        assert to_class(ctx, zvec(6, z2=1)) == (1, 1, 0)    # Z2 = Z4+Z5
        assert to_class(ctx, zvec(6, z3=1)) == (-1, 0, 1)   # Z3 = -Z4+Z6

    def test_e1(self, contexts):
        ctx = contexts["E1"]
        assert to_class(ctx, zvec(7, z2=1)) == (-1, 1, 0, -1)  # Z2 = -Z1+Z4-Z7
        assert to_class(ctx, zvec(7, z3=1)) == (1, 0, 1, 1)    # Z3 = Z1+Z5+Z7
        assert to_class(ctx, zvec(7, z6=1)) == (0, 0, 0, 1)    # Z6 = Z7

    def test_e2(self, contexts):
        ctx = contexts["E2"]
        assert to_class(ctx, zvec(7, z2=1)) == (-1, 1, 0, -1)  # Z2 = -Z1+Z4-Z7
        assert to_class(ctx, zvec(7, z3=1)) == (1, 0, 1, 0)    # Z3 = Z1+Z5
        assert to_class(ctx, zvec(7, z6=1)) == (0, 0, 0, 1)    # Z6 = Z7

    def test_e4(self, contexts):
        ctx = contexts["E4"]
        assert to_class(ctx, zvec(7, z2=1)) == (-1, 1, 0, 0)   # Z2 = -Z1+Z4
        assert to_class(ctx, zvec(7, z3=1)) == (1, 0, 1, -1)   # Z3 = Z1+Z5-Z7
        assert to_class(ctx, zvec(7, z6=1)) == (0, 0, 0, 1)    # Z6 = Z7


class TestLinearEquivalence:
    def test_d1_z1_equals_z2(self, d1_ctx):
        assert to_class(d1_ctx, zvec(6, z1=1)) == to_class(d1_ctx, zvec(6, z2=1))

    def test_reflexive(self, d1_ctx):
        d = zvec(6, z2=3, z5=-1)
        assert to_class(d1_ctx, d) == to_class(d1_ctx, d)

    def test_basis_rays_inequivalent(self, d1_ctx):
        assert to_class(d1_ctx, zvec(6, z4=1)) != to_class(d1_ctx, zvec(6, z5=1))

    def test_d1_z3_is_a_combination_of_basis_rays(self, d1_ctx):
        # Z3 ~ -2Z4 - Z5 + Z6: the difference is principal
        assert to_class(d1_ctx, (0, 0, 1, 2, 1, -1)) == (0, 0, 0)


class TestHomomorphismProperties:
    def test_additivity(self, contexts):
        rng = random.Random(4)
        for name, ctx in contexts.items():
            m = ctx.fan.n_rays
            for _ in range(25):
                a = tuple(rng.randint(-5, 5) for _ in range(m))
                b = tuple(rng.randint(-5, 5) for _ in range(m))
                ab = tuple(x + y for x, y in zip(a, b))
                assert to_class(ctx, ab) == tuple(
                    x + y for x, y in zip(to_class(ctx, a), to_class(ctx, b))
                ), name

    def test_character_relations_die(self, contexts):
        # class(sum <u, v_rho> Z_rho) = 0 for 100 random characters u
        rng = random.Random(5)
        for name, ctx in contexts.items():
            pairing = pairing_matrix(ctx.fan)
            for _ in range(100):
                u = tuple(rng.randint(-7, 7) for _ in range(ctx.fan.dim))
                relation = pairing.mul_vec(u)
                assert to_class(ctx, relation) == (0,) * ctx.rank, name

    def test_rank_is_rays_minus_dim(self, contexts):
        for ctx in contexts.values():
            assert ctx.rank == ctx.fan.n_rays - ctx.fan.dim

    def test_round_trip_through_representative(self, contexts):
        rng = random.Random(6)
        for ctx in contexts.values():
            for _ in range(20):
                cls = tuple(rng.randint(-4, 4) for _ in range(ctx.rank))
                assert to_class(ctx, class_to_divisor(ctx, cls)) == cls


class TestBasisValidation:
    def test_dependent_divisors_rejected(self, d1):
        # Z1 and Z2 share a class, so (Z1, Z2, Z6) cannot generate freely
        with pytest.raises(NotABasis):
            build_pic_context(d1.fan, (0, 1, 5))

    def test_wrong_count_rejected(self, d1):
        with pytest.raises(NotABasis):
            build_pic_context(d1.fan, (3, 4))

    def test_default_basis_round_trips(self, records):
        for rec in records.values():
            ctx = build_pic_context(rec.fan)  # SNF quotient basis
            for cls in [(1,) + (0,) * (ctx.rank - 1), (0,) * ctx.rank]:
                assert to_class(ctx, class_to_divisor(ctx, cls)) == cls


def fraction_inverse(rows):
    """The inverse of a square integer matrix by Gauss-Jordan elimination over Fractions; None when singular."""
    n = len(rows)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c]), None)
        if p is None:
            return None
        M[c], M[p] = M[p], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for r in range(n):
            f = M[r][c]
            if r != c and f:
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


def frame_maps(fan, basis):
    """class_map and rep_map from the m x m frame [rays | basis unit vectors]; None unless it is unimodular."""
    frame = [ray + tuple(int(i == b) for b in basis) for i, ray in enumerate(fan.rays)]
    inverse = fraction_inverse(frame)
    if inverse is None or any(x.denominator != 1 for row in inverse for x in row):
        return None
    n = fan.dim
    return tuple(tuple(int(x) for x in row) for row in inverse[n:]), tuple(row[n:] for row in frame)


class TestStoredBasis:
    def test_every_cone_complement_matches_the_frame_inverse(self, records):
        fans = [rec.fan for rec in records.values()] + seeded_blowups(records, (9, 10, 11, 12, 13), seed=23)
        for fan in fans:
            for cone in fan.max_cones:
                basis = tuple(i for i in range(fan.n_rays) if i not in cone)
                ctx = build_pic_context(fan, basis)
                assert (ctx.class_map.entries, ctx.rep_map.entries) == frame_maps(fan, basis), (fan, basis)
                assert all(c == (0,) * fan.dim for c in (ctx.class_map @ pairing_matrix(fan)).entries)

    def test_a_dependent_basis_is_refused(self, records):
        fans = [rec.fan for rec in records.values()] + seeded_blowups(records, (9, 10, 11, 12, 13), seed=23)
        refused = []
        for fan in fans:
            for rest in combinations(range(fan.n_rays), fan.dim):
                basis = tuple(i for i in range(fan.n_rays) if i not in rest)
                if frame_maps(fan, basis) is None:
                    with pytest.raises(NotABasis, match="do not freely generate Pic"):
                        build_pic_context(fan, basis)
                    refused.append(fan)
                    break
        # any three rays of P3 are a basis of the lattice, so any one ray's class generates Pic
        assert [fan for fan in fans if fan not in refused] == [records["P3"].fan]


class TestOneSmithForm:
    def test_the_smith_form_only_chooses_the_quotient_basis(self, records, monkeypatch):
        # one Smith normal form per Smith-basis context; none for a stored basis or a cone inverse
        calls = []
        real = lattice.smith_normal_form

        def counted(A):
            calls.append(A)
            return real(A)

        for name, module in list(sys.modules.items()):
            if name.startswith("toric_exc") and getattr(module, "smith_normal_form", None) is real:
                monkeypatch.setattr(module, "smith_normal_form", counted)
        for rec in records.values():
            calls.clear()
            build_pic_context(rec.fan)
            assert len(calls) == 1, rec.name
            calls.clear()
            if rec.pic_basis is not None:
                build_pic_context(rec.fan, rec.pic_basis)
            for cone in rec.fan.max_cones:
                cone_inverse(rec.fan, cone)
            assert not calls, rec.name


class TestLabels:
    def test_divisor_label(self):
        assert divisor_label((0, 0, 0, 1, 1, 0)) == "Z4+Z5"
        assert divisor_label((0, 0, 0, -1, 0, 1)) == "-Z4+Z6"
        assert divisor_label((0, 0, 0, 2, 2, 1)) == "2Z4+2Z5+Z6"
        assert divisor_label((0,) * 6) == "0"

    def test_class_label(self, d1_ctx):
        assert class_label(d1_ctx, (0, 0, 0)) == "O"
        assert class_label(d1_ctx, (1, 1, 0)) == "O(Z4+Z5)"
