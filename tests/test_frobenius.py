"""Thomsen decompositions: printed summand sets, conservation laws, golden cases."""

import itertools
from collections import Counter
from math import lcm, prod

import numpy as np
import pytest

from conftest import zvec
import toric_exc.frobenius as frob
from toric_exc.errors import NotStabilized, NotUnimodular, RayNotCovered, TooManyResidues
from toric_exc.fan import Fan, cone_inverse, ray_minors
from toric_exc.frobenius import bondal_summands, decompose, first_chern_sum, stable_summands
from toric_exc.lattice import IntMatrix
from toric_exc.picard import anticanonical_divisor, build_pic_context, to_class
from test_cohomology import star_subdivided_p3
from test_fan import projective_space, seeded_blowup, seeded_blowups
from test_lattice import sheared_p3_rays
from thomsen_reference import cartier_shifts, cone_frame, divide_step, summand_divisor

P3 = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
P1 = Fan.make(1, [(1,), (-1,)], [(0,), (1,)])

D1_SUMMANDS = {(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 0, 1), (0, 1, 1),
               (1, 1, 1), (1, 2, 1), (2, 2, 1), (-1, 0, 1)}
D2_SUMMANDS = D1_SUMMANDS - {(-1, 0, 1)}
E1_SUMMANDS = {(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0),
               (0, 1, 1, 1), (1, 0, 1, 2), (1, 1, 1, 1), (1, 1, 1, 2), (1, 0, 1, 1)}
E24_SUMMANDS = {(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1),
                (0, 1, 1, 0), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0), (1, 1, 1, 1)}


def base_frame(fan, base_cone_rays):
    return cone_frame(fan, fan.max_cones.index(tuple(sorted(base_cone_rays))))


def every_line_frame(fan):
    """Every line frame decompose may walk: a unimodular maximal cone's rays with one axis moved last, and every
    ray's coordinates on them in that order; the cones in order, each from its last axis to its first."""
    for cone in fan.max_cones:
        if abs(ray_minors(fan, [cone])[0][0]) != 1:
            continue
        coordinates = [cone_inverse(fan, cone).transpose().mul_vec(ray) for ray in fan.rays]
        for k in reversed(range(fan.dim)):
            order = [i for i in range(fan.dim) if i != k] + [k]
            yield tuple(cone[i] for i in order), tuple(tuple(c[i] for i in order) for c in coordinates)


def line_cost(frame):
    """The segments of a line, 1 + sum |c_j[-1]| over the rays j outside the cone, and the sloped rays among them."""
    cone, coordinates = frame
    slopes = [c[-1] for j, c in enumerate(coordinates) if j not in cone]
    return 1 + sum(map(abs, slopes)), sum(map(bool, slopes))


class TestDivideStep:
    def test_identity_matrix_keeps_residues(self):
        I3 = IntMatrix.identity(3)
        for v in [(0, 0, 0), (1, 2, 3), (10, 0, 4)]:
            h, r = divide_step(I3, (0, 0, 0), v, 11)
            assert h == (0, 0, 0) and r == v

    def test_d1_sigma3_first_axis(self, d1):
        frame = base_frame(d1.fan, (0, 1, 2))
        k3 = d1.fan.max_cones.index((0, 3, 4))
        for p in (11, 31):
            for a1 in (1, p // 2, p - 1):
                h, _ = divide_step(frame.C[k3], (0, 0, 0), (a1, 0, 0), p)
                assert h == (0, -1, -1)

    def test_d1_sigma2_third_axis(self, d1):
        frame = base_frame(d1.fan, (0, 1, 2))
        k2 = d1.fan.max_cones.index((0, 1, 5))
        for p in (11, 31):
            for a3 in (1, p - 1):
                h, _ = divide_step(frame.C[k2], (0, 0, 0), (0, 0, a3), p)
                assert h == (0, 0, -1)

    def test_division_identity_holds(self, d1):
        frame = base_frame(d1.fan, (0, 1, 2))
        p = 7
        for k, C in enumerate(frame.C):
            for v in itertools.product(range(p), repeat=3):
                h, r = divide_step(C, (0, 0, 0), v, p)
                t = C.mul_vec(v)
                assert tuple(p * a + b for a, b in zip(h, r)) == t
                assert all(0 <= x < p for x in r)


class TestSummandDivisor:
    def test_zero_residue_gives_trivial_bundle(self, records):
        for rec in records.values():
            frame = cone_frame(rec.fan, 0)
            assert summand_divisor(frame, (0,) * rec.fan.dim, 13) == (0,) * rec.fan.n_rays

    def test_d1_first_axis_case(self, d1):
        frame = base_frame(d1.fan, (0, 1, 2))
        for a1 in (1, 4, 10):
            assert summand_divisor(frame, (a1, 0, 0), 11) == zvec(6, z4=1, z5=1)

    def test_e1_second_axis_case(self, e1):
        frame = base_frame(e1.fan, (1, 2, 5))
        for a2 in (1, 6, 10):
            assert summand_divisor(frame, (0, a2, 0), 11) == zvec(7, z1=1, z5=1, z7=1)

    def test_covering_cone_choice_is_immaterial(self, records):
        # beta_j = -<B_k h_k, v_j> must agree for every maximal cone containing j
        import random
        rng = random.Random(11)
        p = 11
        for rec in records.values():
            fan = rec.fan
            frame = cone_frame(fan, 0)
            for _ in range(10):
                v = tuple(rng.randrange(p) for _ in range(fan.dim))
                lcov = {}
                for k, (C, B) in enumerate(zip(frame.C, frame.B)):
                    h, _ = divide_step(C, (0,) * fan.dim, v, p)
                    lcov[k] = B.mul_vec(h)
                for j in range(fan.n_rays):
                    values = {
                        sum(a * b for a, b in zip(lcov[k], fan.rays[j]))
                        for k, cone in enumerate(fan.max_cones) if j in cone
                    }
                    assert len(values) == 1, (rec.name, v, j)


class TestDecompose:
    def test_d1_nine_classes(self, d1, d1_ctx):
        dec = decompose(d1.fan, d1_ctx, (0,) * 6, 31)
        assert dec.classes == frozenset(D1_SUMMANDS)

    def test_d2_eight_classes(self, records, contexts):
        dec = decompose(records["D2"].fan, contexts["D2"], (0,) * 6, 31)
        assert dec.classes == frozenset(D2_SUMMANDS)

    def test_p3_beilinson_classes(self):
        ctx = build_pic_context(P3, (3,))
        for p in (5, 7):
            dec = decompose(P3, ctx, (0,) * 4, p)
            assert dec.classes == {(0,), (1,), (2,), (3,)}

    def test_p1_splitting(self):
        # (pi_p)_* O on P^1 is O + O(-1)^(p-1); the dual gives O + O(1)^(p-1)
        ctx = build_pic_context(P1)
        dec = decompose(P1, ctx, (0, 0), 5)
        assert dict(dec.summands) in ({(0,): 1, (1,): 4}, {(0,): 1, (-1,): 4})
        assert dec.total_multiplicity == 5

    def test_multiplicity_conservation(self, records, contexts):
        for name, rec in records.items():
            dec = decompose(rec.fan, contexts[name], (0,) * rec.fan.n_rays, 5)
            assert dec.total_multiplicity == 5 ** 3

    def test_c1_conservation(self, records, contexts):
        # sum of all summand classes = p^2 (p-1)/2 times the anticanonical class
        for name, rec in records.items():
            ctx = contexts[name]
            minus_k = to_class(ctx, anticanonical_divisor(rec.fan))
            for p in (3, 5, 7):
                dec = decompose(rec.fan, ctx, (0,) * rec.fan.n_rays, p)
                factor = p ** 2 * (p - 1) // 2
                assert first_chern_sum(dec) == tuple(factor * k for k in minus_k), (name, p)

    def test_base_cone_independence(self, d1, d1_ctx, records, monkeypatch):
        # the per-cone reference on every base cone agrees with decompose;
        # and decompose forced through every (cone, axis) frame, on D1 and
        # two blow-ups, gives the chosen frame's summands, with lines of up
        # to five segments on D1, at p = 2 (every x) and on the sorted steps
        import random
        p = 11
        got = decompose(d1.fan, d1_ctx, (0,) * 6, p).summands
        for b in range(len(d1.fan.max_cones)):
            frame = cone_frame(d1.fan, b)
            reference = Counter(to_class(d1_ctx, summand_divisor(frame, v, p))
                                for v in itertools.product(range(p), repeat=3))
            assert got == tuple(sorted(reference.items())), b
        rng = random.Random(43)
        for fan in [d1.fan] + seeded_blowups(records, (10, 12), seed=43):
            ctx = d1_ctx if fan == d1.fan else build_pic_context(fan)
            twist = tuple(rng.randint(-3, 3) for _ in range(fan.n_rays))
            requests = [(D, q) for D in ((0,) * fan.n_rays, twist) for q in (2, 7, 11)]
            chosen = [decompose(fan, ctx, D, q).summands for D, q in requests]
            frames = list(every_line_frame(fan))
            assert len(frames) == 3 * len(fan.max_cones) and frob._line_frame(fan) in frames
            assert max(map(line_cost, frames))[0] >= 3
            for frame in frames:
                monkeypatch.setattr(frob, "_line_frame", lambda _, frame=frame: frame)
                assert [decompose(fan, ctx, D, q).summands for D, q in requests] == chosen, frame[0]
            monkeypatch.undo()

    def test_twist_by_p_times_divisor(self, d1, d1_ctx):
        # projection formula: summands of O(pE) are the summands of O shifted by -class(E)
        p = 7
        base = decompose(d1.fan, d1_ctx, (0,) * 6, p)
        e = zvec(6, z4=1)
        shifted = decompose(d1.fan, d1_ctx, tuple(p * x for x in e), p)
        ecls = to_class(d1_ctx, e)
        expected = sorted(
            (tuple(c - k for c, k in zip(cls, ecls)), mult) for cls, mult in base.summands
        )
        assert list(shifted.summands) == expected

    def test_pushforward_preserves_global_sections(self, records, contexts):
        # h^0(D) = sum over v of h^0(-D_v): finite pushforward keeps sections
        from toric_exc.cohomology import cohomology_table
        from toric_exc.picard import class_to_divisor
        import random
        rng = random.Random(23)
        p = 5
        for name in ("D1", "E4", "C2"):
            fan, ctx = records[name].fan, contexts[name]
            for _ in range(4):
                D = tuple(rng.randint(-1, 2) for _ in range(fan.n_rays))
                dec = decompose(fan, ctx, D, p)
                lhs = cohomology_table(ctx, D, escalate=True).dims[0]
                rhs = sum(
                    mult * cohomology_table(
                        ctx, class_to_divisor(ctx, tuple(-x for x in cls)), escalate=True
                    ).dims[0]
                    for cls, mult in dec.summands
                )
                assert lhs == rhs, (name, D)

    def test_exact_fallback_matches_fast_path(self, records, contexts, d1, d1_ctx, e1, e1_ctx, monkeypatch):
        # forcing the arbitrary-precision path must not change anything
        import collections
        fast = decompose(d1.fan, d1_ctx, (0,) * 6, 11).summands
        # a twisted divisor: per-class multiplicities against a direct count
        # of summand_divisor over every residue vector
        p, D = 7, (2, -1, 3, 0, -2, 1, 4)
        frame = cone_frame(e1.fan)
        shifts = cartier_shifts(frame, D)
        assert any(any(u) for u in shifts)
        direct = collections.Counter(
            to_class(e1_ctx, summand_divisor(frame, v, p, shifts))
            for v in itertools.product(range(p), repeat=3)
        )
        expected = tuple(sorted(direct.items()))
        assert decompose(e1.fan, e1_ctx, D, p).summands == expected
        # B4 and C3 take the sorted step points at p = 13, one step a line
        stepped = {name: decompose(records[name].fan, contexts[name], anticanonical_divisor(records[name].fan), 13)
                   for name in ("B4", "C3")}
        monkeypatch.setattr(frob, "_INT64_SAFE", 1)
        assert decompose(d1.fan, d1_ctx, (0,) * 6, 11).summands == fast
        assert decompose(e1.fan, e1_ctx, D, p).summands == expected
        for name, dec in stepped.items():
            assert decompose(records[name].fan, contexts[name], anticanonical_divisor(records[name].fan), 13) == dec

    def test_direct_count_on_every_fan(self, records, contexts):
        # every summand class against a count of summand_divisor over all
        # residues; the huge twist puts the quotient of each shift far above
        # 2**60 while the residue arrays stay on the int64 path
        import collections
        import random
        rng = random.Random(29)
        for name, rec in records.items():
            fan, ctx = rec.fan, contexts[name]
            huge = tuple(rng.choice((-1, 1)) * rng.randint(10 ** 19, 10 ** 20)
                         for _ in range(fan.n_rays))
            for D in ((0,) * fan.n_rays, huge):
                for base in (0, len(fan.max_cones) - 1):
                    frame = cone_frame(fan, base)
                    shifts = cartier_shifts(frame, D)
                    for p in (2, 3, 5):
                        direct = collections.Counter(
                            to_class(ctx, summand_divisor(frame, v, p, shifts))
                            for v in itertools.product(range(p), repeat=3)
                        )
                        got = decompose(fan, ctx, D, p).summands
                        assert got == tuple(sorted(direct.items())), (name, D, base, p)

    def test_direct_count_through_bincount(self, records, contexts):
        # at p = 11 the key spaces of D1 and E4 fit in the p^3 residues, so
        # the keys are counted by bincount; p = 2 and 3 above take np.unique
        import collections
        p = 11
        for name in ("D1", "E4"):
            fan, ctx = records[name].fan, contexts[name]
            for D in ((0,) * fan.n_rays, anticanonical_divisor(fan)):
                frame = cone_frame(fan)
                shifts = cartier_shifts(frame, D)
                direct = collections.Counter(
                    to_class(ctx, summand_divisor(frame, v, p, shifts))
                    for v in itertools.product(range(p), repeat=3)
                )
                assert decompose(fan, ctx, D, p).summands == tuple(sorted(direct.items())), (name, D)

    def test_peak_memory_is_a_few_keys_per_residue(self, records, contexts):
        # a slab of at most _SLAB floors, and the counts of a key space no
        # larger than the residues: the peak stays below two 8-byte words
        # per residue (p = 53: 2.4 MB; D1 peaks near 0.36 MB, F2 near 0.43
        # MB).  The lines of both have two segments.
        import tracemalloc
        p = 53
        for name in ("D1", "F2"):
            fan, ctx = records[name].fan, contexts[name]
            decompose(fan, ctx, (0,) * fan.n_rays, p)
            tracemalloc.start()
            try:
                decompose(fan, ctx, (0,) * fan.n_rays, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 8 * p ** 3, (name, peak)


    @pytest.mark.parametrize("int64_safe", [None, 1], ids=["fast", "exact"])
    def test_slab_boundaries_change_nothing(self, records, contexts, monkeypatch, int64_safe):
        # one line per slab; p^(n-1) + 1 floors, so that D1 at p = 53 takes
        # 7 slabs, the last one partial; and the default (D1 and F2 at p =
        # 53 in one slab).  The exact run forces the object path.
        # Every slab size is compared with the default int64 run.
        import random
        safe, default = frob._INT64_SAFE, frob._SLAB
        rng = random.Random(13)
        for name, rec in records.items():
            fan, ctx = rec.fan, contexts[name]
            twist = tuple(rng.randint(-5, 5) for _ in range(fan.n_rays))
            for D in ((0,) * fan.n_rays, anticanonical_divisor(fan), twist):
                for p in (2, 3, 31, 53):
                    monkeypatch.setattr(frob, "_INT64_SAFE", safe)
                    monkeypatch.setattr(frob, "_SLAB", default)
                    expected = decompose(fan, ctx, D, p).summands
                    if int64_safe is not None:
                        monkeypatch.setattr(frob, "_INT64_SAFE", int64_safe)
                    for slab in (1, p ** (fan.dim - 1) + 1, default):
                        monkeypatch.setattr(frob, "_SLAB", slab)
                        assert decompose(fan, ctx, D, p).summands == expected, (name, D, p, slab)

    @pytest.mark.parametrize("axes", [(0,), (0, 1), (1, 2), (0, 1, 2)],
                             ids=["one-axis", "two-axes", "last-two-axes", "every-axis"])
    def test_every_separator_counts_the_same(self, records, contexts, monkeypatch, axes):
        # against a direct count on every catalog fan, with a twist past
        # int64 on the rays that reach the given axes of the base cone (on
        # every ray for every-axis) and one line per slab: at p = 7 every
        # fan's lines take the sorted step points (1 + sum |s_j| < 7), at
        # p = 2 most fans' lines start a segment at every x
        import collections
        import random
        monkeypatch.setattr(frob, "_SLAB", 1)
        rng = random.Random(31)
        for name, rec in records.items():
            fan, ctx = rec.fan, contexts[name]
            frame = cone_frame(fan)
            reach = [any(c[k] for k in axes) for c in frob._line_frame(fan)[1]]   # axis 2 is the line axis
            twisted = tuple(a + (rng.choice((-1, 1)) * rng.randint(10 ** 19, 10 ** 20) if far else 0)
                            for a, far in zip(anticanonical_divisor(fan), reach))
            assert any(abs(a) >= 2 ** 63 for a in twisted)
            for D in (anticanonical_divisor(fan), twisted):
                shifts = cartier_shifts(frame, D)
                for p in (2, 7):
                    direct = collections.Counter(
                        to_class(ctx, summand_divisor(frame, v, p, shifts))
                        for v in itertools.product(range(p), repeat=3)
                    )
                    assert decompose(fan, ctx, D, p).summands == tuple(sorted(direct.items())), (name, D, p)

    def test_too_many_residues_are_refused(self, d1, d1_ctx, monkeypatch):
        # 1625^3 < 2^32 < 1626^3; the refusal comes before any enumeration
        with pytest.raises(TooManyResidues, match="1626\\^3 residues"):
            decompose(d1.fan, d1_ctx, (0,) * 6, 1626)
        monkeypatch.setattr(frob, "_RESIDUE_LIMIT", 31 ** 3)
        assert decompose(d1.fan, d1_ctx, (0,) * 6, 31).total_multiplicity == 31 ** 3
        with pytest.raises(TooManyResidues):
            decompose(d1.fan, d1_ctx, (0,) * 6, 32)

    def test_peak_memory_does_not_grow_with_the_residues(self, records, contexts):
        # the keys are counted slab by slab, so at p = 101 (D1 in two
        # slabs, F2 in four) the peak stays below two bytes per residue; a
        # p^3 array of int64 keys alone would be eight
        import tracemalloc
        p = 101
        for name in ("D1", "F2"):
            fan, ctx = records[name].fan, contexts[name]
            decompose(fan, ctx, (0,) * fan.n_rays, p)
            tracemalloc.start()
            try:
                decompose(fan, ctx, (0,) * fan.n_rays, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * p ** 3, (name, peak)

class TestLineFrame:
    def test_every_catalog_fan_walks_two_segments_a_line(self, records):
        # one sloped ray of slope +-1 a line, where the first maximal cone's
        # last axis gives up to five segments (D1); the frame's coordinates
        # write every ray on its cone's rays
        for name, rec in records.items():
            fan = rec.fan
            cone, coordinates = frob._line_frame(fan)
            assert sorted(cone) in map(list, fan.max_cones), name
            assert line_cost((cone, coordinates)) == (2, 1), name
            for ray, c in zip(fan.rays, coordinates):
                assert tuple(sum(x * fan.rays[i][k] for x, i in zip(c, cone)) for k in range(fan.dim)) == ray, name

    def test_the_frame_is_the_first_with_the_fewest_segments_then_sloped_rays(self, records):
        # on the catalog, blow-ups, P3, P1, P3 with rays past int64 (the
        # object path) and a 2-fan whose cheapest (cone, axis) by scaled
        # cofactors is the non-unimodular cone (0, 4), det -3
        non_smooth = Fan.make(2, [(-3, -1), (-2, -1), (-1, -3), (3, -1), (0, 1)],
                              [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)])
        sheared = Fan.make(3, sheared_p3_rays(10 ** 20), P3.max_cones)
        fans = ([P3, P1, non_smooth, sheared] + [rec.fan for rec in records.values()]
                + seeded_blowups(records, (9, 11, 13), seed=47))
        for fan in fans:
            assert frob._line_frame(fan) == min(every_line_frame(fan), key=line_cost)   # min keeps the first
        assert sorted(frob._line_frame(non_smooth)[0]) != [0, 4]

    def test_only_the_first_cone_must_be_a_lattice_basis(self):
        # a first maximal cone of det 2 is refused as its cone_inverse lookup
        # refuses it; a later one is no candidate; an uncovered ray is named
        rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 2))
        ctx = build_pic_context(P3, (3,))
        first = Fan(3, rays, ((0, 1, 4), (0, 1, 2), (0, 2, 3), (1, 2, 3), (0, 1, 3)))
        with pytest.raises(NotUnimodular, match="determinant is 2"):
            decompose(first, ctx, (0,) * 5, 5)
        later = Fan(3, rays[:4] + ((1, 1, 3),), ((0, 1, 2), (0, 1, 4), (0, 2, 3), (1, 2, 3), (0, 1, 3)))
        assert sorted(frob._line_frame(later)[0]) != [0, 1, 4]
        with pytest.raises(RayNotCovered, match="ray 4"):
            decompose(Fan(3, rays, P3.max_cones), ctx, (0,) * 5, 5)


class TestStableSummands:
    def test_d1_default_primes(self, d1, d1_ctx):
        assert set(stable_summands(d1.fan, d1_ctx, (0,) * 6, (31, 37))) == D1_SUMMANDS

    def test_e2_default_primes(self, records, contexts):
        got = stable_summands(records["E2"].fan, contexts["E2"], (0,) * 7, (31, 37))
        assert set(got) == E24_SUMMANDS

    def test_repeated_prime_degenerate_call(self, d1, d1_ctx):
        got = stable_summands(d1.fan, d1_ctx, (0,) * 6, (2, 2))
        assert set(got) <= D1_SUMMANDS

    def test_single_prime_rejected(self, d1, d1_ctx):
        with pytest.raises(ValueError):
            stable_summands(d1.fan, d1_ctx, (0,) * 6, (31,))

    def test_not_stabilized_reports_per_prime_sets(self, records, contexts):
        # tiny primes miss the deep inequality cases on D1
        with pytest.raises(NotStabilized) as info:
            stable_summands(records["D1"].fan, contexts["D1"], (0,) * 6, (2, 31))
        assert set(info.value.per_prime) == {2, 31}


# ---------------------------------------------------------------------------
# the exact Bondal-Thomsen set
# ---------------------------------------------------------------------------

def leibniz_det(rows):
    """Determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def minor_lcm(fan):
    return lcm(*(abs(d) for rows in itertools.combinations(fan.rays, fan.dim) if (d := leibniz_det(rows))))


def bondal_reference(ctx, N=None):
    """{[-floor(<theta, v>)] : theta in (1/N)Z^n cap [0,1)^n}, as classes.

    One grid, by default N = lcm(1..n+1) L with L the lcm of the nonzero
    ray minors.  The axis-0 coordinate is walked one value at a time; each
    divisor is packed into one integer key, so only distinct keys are kept.
    """
    fan = ctx.fan
    n, m, rays = fan.dim, fan.n_rays, np.array(fan.rays, dtype=np.int64)
    N = N or lcm(*range(1, n + 2)) * minor_lcm(fan)
    rest = list(itertools.product(range(N), repeat=n - 1))
    tail = np.array(rest, dtype=np.int64).reshape(len(rest), n - 1) @ rays[:, 1:].T
    radix = 2 * n * int(abs(rays).max()) + 1          # each floor lies in [-(radix // 2), radix // 2]
    weights = radix ** np.arange(m, dtype=np.int64)
    keys = set()
    for first in range(N):
        keys.update(np.unique(((first * rays[:, 0] + tail) // N + radix // 2) @ weights).tolist())
    classes = set()
    for key in keys:
        divisor = []
        for _ in range(m):
            key, digit = divmod(key, radix)
            divisor.append(radix // 2 - digit)
        classes.add(to_class(ctx, divisor))
    return classes


class TestBondalSummands:
    def test_equals_one_fine_grid(self, records, contexts):
        blowups = [fan for seed in range(6) for fan in seeded_blowups(records, (9, 10, 11, 12), seed)
                   if minor_lcm(fan) <= 2] + [seeded_blowup(records["E2"].fan, 10, 9)]
        assert len(blowups) == 5
        cases = [contexts[name] for name in sorted(records)]
        cases += [build_pic_context(fan) for fan in [projective_space(n) for n in (1, 2, 4)] + blowups]
        for ctx in cases:
            assert set(bondal_summands(ctx)) == bondal_reference(ctx), ctx.fan
            # for O, Thomsen's splitting at p = N = (n + 1)L walks the same grid (1/N)Z^n in the
            # base cone's basis; decompose needs only p >= 2, so N may be composite
            fan, N = ctx.fan, (ctx.fan.dim + 1) * minor_lcm(ctx.fan)
            assert bondal_summands(ctx) == tuple(sorted(decompose(fan, ctx, (0,) * fan.n_rays, N).classes)), fan

    def test_equals_the_two_prime_set_on_the_catalog(self, records, contexts):
        # so the theorem's summand lists, and its bytes, cannot move
        for name, rec in records.items():
            got = bondal_summands(contexts[name])
            assert got == stable_summands(rec.fan, contexts[name], (0,) * rec.fan.n_rays), name

    def test_the_vertex_grid_alone_misses_three_of_p3s_classes(self):
        # every minor of P^3 is +-1, so (1/L)Z^3 cap [0,1)^3 is the origin: the barycenters are needed,
        # and N = n misses the open 3-cell, so n + 1 is the smallest grid that works
        ctx = build_pic_context(P3)
        assert bondal_reference(ctx, N=1) == {(0,)}
        assert len(bondal_reference(ctx, N=3)) == 3
        assert bondal_summands(ctx) == ((0,), (1,), (2,), (3,))

    def test_too_many_ray_subsets_are_declined_before_any_minor(self, monkeypatch):
        # C(75, 3) = 67,525 ray triples, past the limit: no minor is computed
        from toric_exc import frobenius

        def refuse(fan):
            raise AssertionError("minors enumerated")

        monkeypatch.setattr(frobenius, "_minor_lcm", refuse)
        assert bondal_summands(build_pic_context(star_subdivided_p3(75))) is None

    def test_rays_past_int64(self):
        shear = 10 ** 20
        rays = [(1, 0, 0), (shear, 1, 0), (0, 0, 1), (-1 - shear, -1, -1)]
        ctx = build_pic_context(Fan.make(3, rays, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]))
        assert len(bondal_summands(ctx)) == 4

    def test_a_grid_past_the_limit_is_declined(self, records):
        fan = seeded_blowup(records["P3"].fan, 9, 14)
        assert minor_lcm(fan) == 60
        assert bondal_summands(build_pic_context(fan)) is None

    def test_odd_primes_miss_a_class_on_a_blowup_of_e2(self, records):
        # a vertex of the arrangement in (1/2)Z^3 is missed by every odd prime, and p = 2 misses more
        fan = seeded_blowup(records["E2"].fan, 10, 9)
        ctx = build_pic_context(fan)
        exact = set(bondal_summands(ctx))
        assert len(exact) == 30
        for p in (2, 3, 5, 31, 37):
            assert decompose(fan, ctx, (0,) * 10, p).classes <= exact
        missed = (0, 0, 1, 0, 1, -1, 1)
        assert missed in exact
        assert all(missed not in decompose(fan, ctx, (0,) * 10, p).classes for p in (31, 37))


# ---------------------------------------------------------------------------
# golden case analyses at p = 11
# ---------------------------------------------------------------------------

def d1_case_divisor(a1, a2, a3, p):
    """Hand case analysis for D1 (trivial input bundle, base cone {v1,v2,v3}).

    Inequality boundaries follow the unique divide-with-remainder step with
    0 <= r < p, which places the splits at exact multiples of p.
    """
    if (a1, a2, a3) == (0, 0, 0):
        return zvec(6)
    if a1 and not a2 and not a3:
        return zvec(6, z4=1, z5=1)
    if a2 and not a1 and not a3:
        return zvec(6, z4=1, z5=1)
    if a3 and not a1 and not a2:
        return zvec(6, z6=1) if 2 * a3 < p else zvec(6, z4=-1, z6=1)
    if a1 and a2 and not a3:
        return zvec(6, z4=1, z5=1) if a1 + a2 <= p else zvec(6, z4=2, z5=2)
    if (a1 and a3 and not a2) or (a2 and a3 and not a1):
        b = a1 or a2  # the two cases agree after swapping a1 and a2
        u, w = -b + a3, -b + 2 * a3
        if u >= 0:
            return zvec(6, z6=1) if w < p else zvec(6, z4=-1, z6=1)
        if w >= 0:
            return zvec(6, z5=1, z6=1)
        return zvec(6, z4=1, z5=1, z6=1)
    q1, q2 = -a1 - a2 + a3, -a1 - a2 + 2 * a3
    if q1 >= 0:
        return zvec(6, z6=1) if q2 < p else zvec(6, z4=-1, z6=1)
    if q2 >= 0:
        return zvec(6, z5=1, z6=1)        # -p <= q1 < 0 <= q2 automatically
    if q1 >= -p:
        return zvec(6, z4=1, z5=1, z6=1)  # both q1, q2 in [-p, 0)
    if q2 >= -p:
        return zvec(6, z4=1, z5=2, z6=1)
    return zvec(6, z4=2, z5=2, z6=1)


def e1_case_divisor(a1, a2, a3, p):
    """Hand case analysis for E1 (trivial bundle, base cone {v2,v3,v6})."""
    if (a1, a2, a3) == (0, 0, 0):
        return zvec(7)
    if a1 and not a2 and not a3:
        return zvec(7, z4=1)
    if a2 and not a1 and not a3:
        return zvec(7, z1=1, z5=1, z7=1)
    if a3 and not a1 and not a2:
        return zvec(7, z7=1)
    if a1 and a2 and not a3:
        return zvec(7, z4=1, z5=1) if a1 >= a2 else zvec(7, z1=1, z4=1, z5=1, z7=1)
    if a1 and a3 and not a2:
        return zvec(7, z4=1) if a1 >= a3 else zvec(7, z4=1, z7=1)
    if a2 and a3 and not a1:
        return zvec(7, z1=1, z5=1, z7=1) if a2 + a3 <= p else zvec(7, z1=1, z5=1, z7=2)
    if a1 - a2 - a3 >= 0:
        return zvec(7, z4=1, z5=1)        # all residues of d3 stay nonnegative
    if a1 - a2 >= 0:
        return zvec(7, z4=1, z5=1, z7=1)  # then a1-a2-a3 >= -p automatically
    if a1 - a2 - a3 >= -p:
        return zvec(7, z1=1, z4=1, z5=1, z7=1)
    return zvec(7, z1=1, z4=1, z5=1, z7=2)


class TestGoldenCaseAnalyses:
    def test_d1_exhaustive_p11(self, d1):
        frame = base_frame(d1.fan, (0, 1, 2))
        p = 11
        for v in itertools.product(range(p), repeat=3):
            assert summand_divisor(frame, v, p) == d1_case_divisor(*v, p), v

    def test_e1_exhaustive_p11(self, e1):
        frame = base_frame(e1.fan, (1, 2, 5))
        p = 11
        for v in itertools.product(range(p), repeat=3):
            assert summand_divisor(frame, v, p) == e1_case_divisor(*v, p), v

    def test_nontrivial_input_bundle_shifts(self, d1, d1_ctx):
        # the Cartier data of the trivial bundle vanishes on every cone
        frame = cone_frame(d1.fan, 0)
        assert cartier_shifts(frame, (0,) * 6) == ((0, 0, 0),) * 8
