"""Subcomplex homology, forbidden sets, and the two acyclicity routes."""

import functools
import itertools
import math
import operator
import random
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_exc import cohomology, fan as fan_module, frobenius, lattice
from toric_exc.cli import main as cli_main
from toric_exc.cohomology import (_RADIUS_LIMIT, _base_gaps, _characters, _checked, _contributing, _contributing_box,
                                  _corner_offsets, _divisor_array, _pattern_ranks, _patterns,
                                  _point_list, _radius_for_class, _verdict_witnesses, _vertex_frames, _vertex_masks,
                                  cohomology_table, forbidden_sets, has_nonzero_global_sections, is_acyclic,
                                  reduced_homology_ranks, vanishing_verdicts)
from toric_exc.errors import BoxTooLarge, BoxUnstable, TooManyRays, ToricExcError, UnboundedRegion
from toric_exc.lattice import _INT64_SAFE
from toric_exc.fan import Fan, cone_inverse, cone_matrix, is_complete, is_fano, primitive_relations, validate_fan
from toric_exc.frobenius import decompose
from toric_exc.picard import (anticanonical_divisor, build_pic_context, canonical_divisor,
                                class_to_divisor, to_class)
from test_fan import projective_space, seeded_blowup, seeded_blowups
from test_lattice import leibniz_determinant

D_FORBIDDEN = {(), (3, 6), (4, 6), (3, 5), (1, 2, 5), (1, 2, 4), (1, 2, 4, 5),
               (1, 2, 3, 5), (1, 2, 4, 6), (3, 5, 6), (3, 4, 6)}
E_FORBIDDEN = {(), (2, 4), (3, 5), (1, 3), (2, 5), (1, 4), (6, 7),
               (2, 4, 5), (1, 2, 4), (1, 3, 5), (2, 3, 5), (1, 3, 4),
               (1, 3, 6, 7), (3, 5, 6, 7), (2, 4, 6, 7), (1, 4, 6, 7), (2, 5, 6, 7),
               (1, 3, 5, 6, 7), (2, 4, 5, 6, 7), (1, 2, 4, 6, 7), (1, 3, 4, 6, 7),
               (2, 3, 5, 6, 7), (1, 2, 3, 4, 5)}


def one_based(sets):
    return {tuple(i + 1 for i in s) for s in sets}


def star_subdivided_p3(m):
    """P3 blown up at torus-fixed points, oldest maximal cone first, until it has m rays."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    while len(rays) < m:
        i, j, k = cones.pop(0)
        rays.append(tuple(a + b + c for a, b, c in zip(rays[i], rays[j], rays[k])))
        new = len(rays) - 1
        cones += [(i, j, new), (i, k, new), (j, k, new)]
    return Fan.make(3, rays, cones)


class TestReducedHomology:
    def test_two_primitive_pairs_leave_a_gap(self, e1):
        # vertices {2,4,5}: one edge plus an isolated vertex
        ranks = reduced_homology_ranks(e1.fan, [1, 3, 4])
        assert ranks == (0, 1, 0, 0)

    def test_maximal_cone_is_contractible(self, d1):
        for cone in d1.fan.max_cones:
            assert reduced_homology_ranks(d1.fan, cone) == (0, 0, 0, 0)

    def test_empty_set_has_degree_minus_one_homology(self, d1):
        assert reduced_homology_ranks(d1.fan, []) == (1, 0, 0, 0)

    def test_triangle_boundary_is_a_circle(self, d1):
        # {1,2,4} spans no cone but every pair does
        assert reduced_homology_ranks(d1.fan, [0, 1, 3]) == (0, 0, 1, 0)

    def test_whole_fan_is_a_two_sphere(self, records):
        for rec in records.values():
            ranks = reduced_homology_ranks(rec.fan, range(rec.fan.n_rays))
            assert ranks == (0, 0, 0, 1), rec.name


class TestForbiddenSets:
    def test_d1_matches_the_known_eleven(self, d1):
        assert one_based(forbidden_sets(d1.fan).forbidden) == D_FORBIDDEN

    def test_d2_same_collections_same_sets(self, records):
        assert one_based(forbidden_sets(records["D2"].fan).forbidden) == D_FORBIDDEN

    @pytest.mark.parametrize("name", ["E1", "E2", "E4"])
    def test_e_fans_match_the_deduplicated_list(self, records, name):
        got = one_based(forbidden_sets(records[name].fan).forbidden)
        assert got == E_FORBIDDEN, (sorted(got - E_FORBIDDEN), sorted(E_FORBIDDEN - got))

    def test_p3_only_the_empty_set(self):
        p3 = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                      [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert forbidden_sets(p3).forbidden == ((),)

    def test_three_four_complement_symmetry_on_e_fans(self, records):
        # observed on the S2-bundle fans: I of size 3 forbidden iff its
        # complement (size 4) is forbidden
        for name in ("E1", "E2", "E4"):
            fan = records[name].fan
            forb = set(forbidden_sets(fan).forbidden)
            all_rays = set(range(fan.n_rays))
            threes = {s for s in forb if len(s) == 3}
            fours = {s for s in forb if len(s) == 4}
            assert {tuple(sorted(all_rays - set(s))) for s in threes} == fours

    def test_too_many_rays_guard(self):
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        fan = Fan.make(3, rays, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        big = Fan(3, fan.rays * 6, fan.max_cones)  # 24 nominal rays
        with pytest.raises(TooManyRays):
            forbidden_sets(big)


class TestForbiddenForm:
    """Which sign patterns a divisor's contributing list holds."""

    def test_minus_z6_is_not_forbidden_for_46(self, d1_ctx):
        minus_z6 = class_to_divisor(d1_ctx, (0, 0, -1))
        assert (1 << 3 | 1 << 5) not in _point_list(d1_ctx.fan, minus_z6)

    def test_structure_sheaf_never_forbidden(self, d1):
        masks = {sum(1 << i for i in I) for I in forbidden_sets(d1.fan).forbidden}
        assert masks.isdisjoint(_point_list(d1.fan, (0,) * 6))

    def test_canonical_class_fits_the_empty_pattern(self, d1, d1_ctx):
        K = canonical_divisor(d1.fan)
        assert 0 in _point_list(d1.fan, K)
        assert cohomology_table(d1_ctx, K).dims == (0, 0, 0, 1)


class TestAcyclicity:
    def test_d1_examples(self, d1, d1_ctx):
        assert is_acyclic(d1_ctx, class_to_divisor(d1_ctx, (-1, -1, 0)))   # -(Z4+Z5)
        assert is_acyclic(d1_ctx, class_to_divisor(d1_ctx, (1, 1, 1)))     # Mustata case
        assert not is_acyclic(d1_ctx, canonical_divisor(d1.fan))

    def test_structure_sheaf_table(self, d1_ctx):
        assert cohomology_table(d1_ctx, (0,) * 6).dims == (1, 0, 0, 0)

    def test_canonical_table(self, d1, d1_ctx):
        assert cohomology_table(d1_ctx, canonical_divisor(d1.fan)).dims == (0, 0, 0, 1)

    def test_minus_z6_fully_vanishes(self, d1_ctx):
        table = cohomology_table(d1_ctx, class_to_divisor(d1_ctx, (0, 0, -1)))
        assert table.dims == (0, 0, 0, 0)

    def test_anticanonical_sections_count_lattice_points(self, d1, d1_ctx):
        # -K on a Fano 3-fold is ample: h^0 > 1 and no higher cohomology
        table = cohomology_table(d1_ctx, anticanonical_divisor(d1.fan), escalate=True)
        assert table.dims[1:] == (0, 0, 0) and table.dims[0] > 1

    def test_box_instability_is_surfaced_then_resolved(self, d1_ctx):
        hard = class_to_divisor(d1_ctx, (-2, 2, -2))
        with pytest.raises(BoxUnstable):
            cohomology_table(d1_ctx, hard, box_radius=4)
        table = cohomology_table(d1_ctx, hard, box_radius=4, escalate=True)
        assert table.dims == (0, 33, 0, 0)

    def test_start_past_the_radius_limit_raises_before_any_box(self, d1_ctx):
        huge = class_to_divisor(d1_ctx, (10 ** 20, 0, 0))
        for query in (cohomology_table, is_acyclic, has_nonzero_global_sections):
            with pytest.raises(BoxTooLarge):
                query(d1_ctx, huge)
        assert issubclass(BoxTooLarge, ToricExcError)

    def test_a_divisor_of_the_wrong_length_raises_one_error_everywhere(self, d1, d1_ctx):
        queries = [functools.partial(query, d1_ctx, escalate=escalate) for escalate in (False, True)
                   for query in (is_acyclic, has_nonzero_global_sections, cohomology_table)]
        queries += [lambda d: decompose(d1.fan, d1_ctx, d, 5), lambda d: vanishing_verdicts(d1_ctx, [(0,) * 6, d])]
        for divisor in ((0, 0), (0,) * 5, (0,) * 7):
            for query in queries:
                with pytest.raises(ValueError, match="^divisor coefficient vector has wrong length$"):
                    query(divisor)

    def test_acyclicity_needs_no_sweep_past_the_cap(self):
        # only the patterns a query meets are ranked, so the 2^m sweep's cap
        # bounds the forbidden listing and nothing else
        fan = star_subdivided_p3(21)
        assert validate_fan(fan).ok
        ctx = build_pic_context(fan)
        for memo in (_vertex_frames, _patterns, _point_list):
            memo.cache_clear()
        started = time.perf_counter()
        assert is_acyclic(ctx, (0,) * fan.n_rays)   # the box's certificate included
        assert time.perf_counter() - started < 10
        with pytest.raises(TooManyRays):
            forbidden_sets(fan)


class TestSections:
    def test_d1_negative_ray_has_none(self, d1_ctx):
        assert not has_nonzero_global_sections(d1_ctx, class_to_divisor(d1_ctx, (-1, 0, 0)))

    def test_trivial_bundle_has_constants(self, d1_ctx):
        assert has_nonzero_global_sections(d1_ctx, (0,) * 6)

    def test_e1_minus_z7(self, e1_ctx):
        assert not has_nonzero_global_sections(e1_ctx, class_to_divisor(e1_ctx, (0, 0, 0, -1)))


class TestOracleAgreement:
    @pytest.mark.parametrize("name", ["P3", "B2", "C5", "D1"])
    def test_criterion_matches_oracle_on_class_box(self, records, contexts, name):
        # full radius-2 sweep runs in the acceptance suite; spot-check here
        ctx = contexts[name]
        rng = random.Random(17)
        boxes = list(itertools.product(range(-2, 3), repeat=ctx.rank))
        sample = rng.sample(boxes, min(40, len(boxes)))
        for cls in sample:
            D = class_to_divisor(ctx, cls)
            table = cohomology_table(ctx, D, escalate=True)
            assert is_acyclic(ctx, D, escalate=True) == table.is_acyclic
            assert has_nonzero_global_sections(ctx, D, escalate=True) == (table.dims[0] > 0)

    def test_serre_duality_sample(self, records, contexts):
        rng = random.Random(31)
        for name in ("B3", "E2"):
            fan, ctx = records[name].fan, contexts[name]
            K = canonical_divisor(fan)
            for _ in range(15):
                D = tuple(rng.randint(-2, 2) for _ in range(fan.n_rays))
                KD = tuple(k - d for k, d in zip(K, D))
                h = cohomology_table(ctx, D, escalate=True).dims
                hk = cohomology_table(ctx, KD, escalate=True).dims
                assert h == tuple(reversed(hk)), (name, D)


def plain_histogram(fan, divisor, radius):
    """Sign-mask counts over the character box, in Python ints."""
    return dict(Counter(mask for _, mask, _ in plain_representatives(fan, divisor, radius)))


def plain_representatives(fan, divisor, radius):
    """(u, sign mask, a + pairing*u) for every character u of the centred cube."""
    for u in itertools.product(range(-radius, radius + 1), repeat=fan.dim):
        rep = [a + sum(map(operator.mul, u, ray)) for a, ray in zip(divisor, fan.rays)]
        yield u, sum(1 << i for i, c in enumerate(rep) if c >= 0), rep


@functools.lru_cache(maxsize=None)
def contributes(fan, mask):
    """Full, or a pattern whose subcomplex carries reduced homology (the empty set included)."""
    vs = [i for i in range(fan.n_rays) if mask >> i & 1]
    return mask == (1 << fan.n_rays) - 1 or any(reduced_homology_ranks(fan, vs))


def listed_counts(ctx, divisor, radius):
    """Per-mask counts of the contributing list's characters with sup norm <= radius."""
    counts = {mask: sum(norm <= radius for norm in norms)
              for mask, norms in _point_list(ctx.fan, tuple(divisor)).items()}
    return {mask: count for mask, count in counts.items() if count}


def clear_point_caches():
    _vertex_frames.cache_clear()
    _point_list.cache_clear()


class TestPatternHistogram:
    """The contributing list, which answers every query the pattern histograms answered."""

    @pytest.mark.parametrize("divisor", [(2**63 - 1, 1, -1, 0, 2, -1), (2**63 - 1, 0, 0, 1, 0, 0),
                                         (0, 1, -(2**62), 0, 1, 0)])
    def test_object_dtype_fallback_matches_python_ints(self, d1, d1_ctx, divisor):
        # An entry past the int64-safe bound forces the object-dtype path of
        # the box pass; int64 arithmetic would wrap 2**63 - 1 + 1 to a
        # negative number.  The certified box then reaches far past the
        # radius limit, so every query refuses it before enumerating.
        assert max(abs(a) for a in divisor) >= _INT64_SAFE
        fan = d1.fan
        assert sum(plain_histogram(fan, divisor, 1).values()) == 27
        assert _contributing_box(fan, divisor).extent > 2**50
        queries = [lambda: cohomology_table(d1_ctx, divisor, box_radius=1),
                   lambda: has_nonzero_global_sections(d1_ctx, divisor, escalate=True),
                   lambda: is_acyclic(d1_ctx, divisor, escalate=True)]
        for query in queries:
            with pytest.raises(BoxTooLarge):
                query()

    def test_sharing_changes_no_answer(self, records, contexts):
        rng = random.Random(2024)
        sample = []
        for name in ("D1", "E1"):
            ctx = contexts[name]
            boxes = list(itertools.product(range(-2, 3), repeat=ctx.rank))
            sample += [(name, cls) for cls in rng.sample(boxes, 12)]

        def queries(name, cls):
            ctx = contexts[name]
            D = class_to_divisor(ctx, cls)
            out = [
                ("table", lambda: cohomology_table(ctx, D, escalate=True)),
                ("acyclic", lambda: is_acyclic(ctx, D, escalate=True)),
                ("sections", lambda: has_nonzero_global_sections(ctx, D, escalate=True)),
            ]
            return [((name, cls, key), query) for key, query in out]

        cold = {}
        for name, cls in sample:
            for key, query in queries(name, cls):
                clear_point_caches()
                cold[key] = query()
        warm = {}
        for name, cls in reversed(sample):
            for key, query in reversed(queries(name, cls)):
                warm[key] = query()
        assert warm == cold

    def test_box_instability_leaves_the_cache_sound(self, d1_ctx):
        hard = class_to_divisor(d1_ctx, (-2, 2, -2))
        clear_point_caches()
        fresh = cohomology_table(d1_ctx, hard, box_radius=4, escalate=True)
        clear_point_caches()
        with pytest.raises(BoxUnstable):
            cohomology_table(d1_ctx, hard, box_radius=4)
        assert cohomology_table(d1_ctx, hard, box_radius=4, escalate=True) == fresh


def p3_without_a_cone():
    """P3 with the maximal cone {v1, v2, v3} removed: not complete."""
    return Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1, 3), (0, 2, 3), (1, 2, 3)])


@functools.cache
def ray_plane_directions(fan):
    """(d, rays pairing positively with d, rays pairing negatively) for each primitive +-(cross product of n - 1 rays)."""
    n, rays, found = fan.dim, fan.rays, {}
    for plane in itertools.combinations(rays, n - 1):
        x = tuple(leibniz_determinant([tuple(int(j == k) for j in range(n)), *plane]) for k in range(n))
        g = math.gcd(*x)
        for d in ((tuple(c // g for c in x), tuple(-c // g for c in x)) if g else ()):   # g = 0: dependent rays
            pairings = [sum(a * b for a, b in zip(d, ray)) for ray in rays]
            found[d] = (d, sum(1 << i for i, p in enumerate(pairings) if p > 0),
                        sum(1 << i for i, p in enumerate(pairings) if p < 0))
    return tuple(found.values())


def recession_directions(fan, mask):
    """Every primitive d != 0 along which the region of the pattern recedes, whatever the divisor; plain integers.

    The recession cone of P_I(a) is {d : <d, v> >= 0 on I, <= 0 off I}.
    When the rays span, a nonzero one has an extreme ray, which lies on
    n - 1 independent planes <d, v> = 0: it is some +-(cross product of
    n - 1 rays), and it lies in the cone exactly when the rays pairing
    positively with it are in I and those pairing negatively are not.  So
    the list is empty exactly when the cone is 0.
    """
    return [d for d, positive, negative in ray_plane_directions(fan) if not positive & ~mask and not negative & mask]


def hirzebruch_f1():
    return Fan.make(2, [(1, 0), (0, 1), (-1, 1), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])


def p1_times_surface(k):
    """P1 x (P2 blown up until it has k rays): the k surface rays all pair to zero with (1, 0, 0)."""
    surface = [(1, 0), (0, 1), (-1, -1)]
    while len(surface) < k:   # blow up the cone between the last ray and the first
        surface.append(tuple(x + y for x, y in zip(surface[-1], surface[0])))
    surface.sort(key=lambda r: math.atan2(r[1], r[0]))
    rays = [(0,) + r for r in surface] + [(1, 0, 0), (-1, 0, 0)]
    return Fan.make(3, rays, [(i, (i + 1) % k, k + e) for i in range(k) for e in (0, 1)])


class TestCertifiedBox:
    def test_an_unbounded_region_is_refused(self):
        fan = p3_without_a_cone()
        ctx = build_pic_context(fan)
        # {v1, v2, v3} now bounds a hole: a circle, so the pattern contributes,
        # and (0, 0, 1) pairs >= 0 with v1, v2, v3 and < 0 with v4, so the
        # pattern's region recedes along it.  That region is nonempty for
        # every divisor, so every query meets it.
        assert reduced_homology_ranks(fan, (0, 1, 2)) == (0, 0, 1, 0)
        assert [sum(x * y for x, y in zip((0, 0, 1), ray)) for ray in fan.rays] == [0, 0, 1, -1]
        assert (0, 0, 1) in recession_directions(fan, 0b0111)
        # the domain check refuses the fan itself, naming an open facet
        for query in (cohomology_table, has_nonzero_global_sections):
            for divisor in ((0,) * 4, (3, -1, 2, -5)):
                with pytest.raises(UnboundedRegion, match=r"not complete.*facet \(0, 1\) lies in 1 maximal cones"):
                    query(ctx, divisor)
        assert issubclass(UnboundedRegion, ToricExcError)

    def test_every_contributing_region_is_bounded_on_the_fans_in_use(self, records):
        # the module docstring's theorem: on a complete fan no contributing mask (the forbidden sets,
        # the empty set among them, and the full set) has a recession direction, whatever the divisor
        fans = ([rec.fan for rec in records.values()] + seeded_blowups(records, (9, 10, 11, 12, 13), seed=16)
                + [projective_space(2), projective_space(4), hirzebruch_f1(), p1_times_surface(8)])
        for fan in fans:
            assert is_complete(fan)
            masks = {(1 << fan.n_rays) - 1} | {sum(1 << i for i in s) for s in forbidden_sets(fan).forbidden}
            assert 0 in masks and not any(recession_directions(fan, mask) for mask in masks), fan.rays
            assert len(_vertex_frames(fan).subsets) > 0 and (_vertex_frames(fan).dets > 0).all()
        # past the sweep's cap: the masks the boxes of seeded divisors meet
        fan = star_subdivided_p3(21)
        rng = random.Random(21)
        for _ in range(4):
            _contributing_box(fan, tuple(rng.randint(-2, 2) for _ in range(fan.n_rays)))

    def test_many_rays_on_one_plane_are_checked_quickly(self):
        # (1, 0, 0) pairs to zero with 14 rays: the check must not visit their 2^14 subsets
        fan = p1_times_surface(14)
        assert validate_fan(fan).ok
        ctx = build_pic_context(fan)
        for memo in (_vertex_frames, _patterns, _point_list):
            memo.cache_clear()
        started = time.perf_counter()
        table = cohomology_table(ctx, (0,) * fan.n_rays)
        assert is_acyclic(ctx, (0,) * fan.n_rays) and has_nonzero_global_sections(ctx, (0,) * fan.n_rays)
        assert table.dims == (1, 0, 0, 0)
        assert time.perf_counter() - started < 2
        assert len(_patterns(fan).ranks) < 500   # 87 patterns ranked, not the 2^14 masks P <= I <= P | Z


def cross_check_cases(records, contexts):
    """(ctx, divisor): a seeded class of each catalog fan, of star subdivisions, of a 2-D fan, and a huge one."""
    rng = random.Random(808)
    cases = []
    for name in sorted(records):
        ctx = contexts[name]
        cases.append((ctx, class_to_divisor(ctx, [rng.randint(-2, 2) for _ in range(ctx.rank)])))
    for fan in (star_subdivided_p3(7), star_subdivided_p3(10), hirzebruch_f1()):
        ctx = build_pic_context(fan)
        cases.append((ctx, tuple(rng.randint(-2, 2) for _ in range(fan.n_rays))))
    cases.append((contexts["D1"], (2**63 - 1, 1, -1, 0, 2, -1)))
    return cases


class TestPlainCrossCheck:
    def test_counts_and_box_against_python_ints(self, records, contexts):
        for ctx, divisor in cross_check_cases(records, contexts):
            fan = ctx.fan
            box = _contributing_box(fan, tuple(divisor))
            if box is not None and box.extent > _RADIUS_LIMIT:   # the huge divisor: refused before enumerating
                with pytest.raises(BoxTooLarge):
                    listed_counts(ctx, divisor, 1)
            else:
                for radius in range(1, 9):
                    want = {k: c for k, c in plain_histogram(fan, divisor, radius).items() if contributes(fan, k)}
                    assert listed_counts(ctx, divisor, radius) == want, (fan.rays, divisor, radius)
            for u, mask, _ in plain_representatives(fan, divisor, 12):
                if contributes(fan, mask):
                    assert box is not None and all(l <= x <= h for l, x, h in zip(box.lo, u, box.hi)), u

    def test_the_whole_list_sums_to_the_stabilized_dimensions(self, records, contexts):
        # the huge divisor is left out: its class starts the search past the radius limit
        for ctx, divisor in cross_check_cases(records, contexts)[:-1]:
            box = _contributing_box(ctx.fan, tuple(divisor))
            dims = [0] * (ctx.fan.dim + 1)
            if box is not None:
                for mask, norms in _point_list(ctx.fan, tuple(divisor)).items():
                    vs = [i for i in range(ctx.fan.n_rays) if mask >> i & 1]
                    ranks = reduced_homology_ranks(ctx.fan, vs)
                    dims = [d + len(norms) * h for d, h in zip(dims, reversed(ranks))]
            assert tuple(dims) == cohomology_table(ctx, divisor, escalate=True).dims

    def test_a_huge_divisor_enumerates_no_more_than_the_cube(self, d1_ctx, monkeypatch):
        # the box reaches past the radius limit, so not one character is built
        divisor = (2**63 - 1, 1, -1, 0, 2, -1)
        box = _contributing_box(d1_ctx.fan, divisor)
        assert box.extent > 2**50
        built = []
        monkeypatch.setattr(cohomology, "product", lambda *ranges: built.append(ranges) or iter(()))
        _point_list.cache_clear()
        with pytest.raises(BoxTooLarge, match=str(box.extent)):
            _point_list(d1_ctx.fan, divisor)
        assert built == []

    def test_a_box_of_too_many_characters_builds_none(self, monkeypatch):
        # O(38) on P^5 and P^6 stays within the radius limit, but its box holds 39^n characters
        cases = [(ctx.fan, class_to_divisor(ctx, (38,)))
                 for ctx in (build_pic_context(projective_space(n)) for n in (5, 6))]
        assert [_contributing_box(fan, divisor).extent for fan, divisor in cases] == [38, 38]
        built = []
        monkeypatch.setattr(cohomology, "product", lambda *ranges: built.append(ranges) or iter(()))
        for fan, divisor in cases:
            with pytest.raises(BoxTooLarge, match=f"holds {39 ** fan.dim} characters"):
                _point_list(fan, divisor)
        assert built == []

    def test_a_four_dimensional_box_under_the_character_limit_is_enumerated(self, monkeypatch):
        ctx = build_pic_context(projective_space(4))
        assert cohomology_table(ctx, class_to_divisor(ctx, (10,)), escalate=True).dims == (1001, 0, 0, 0, 0)
        divisor = class_to_divisor(ctx, (38,))
        assert _contributing_box(ctx.fan, divisor).extent == 38
        # O(38) holds 39^4 = 2,313,441 characters, under the limit: its whole box reaches the
        # enumeration, here stubbed to yield one character so that nothing large is built
        built = []
        monkeypatch.setattr(cohomology, "product",
                            lambda *ranges: built.append(ranges) or iter([tuple(r.start for r in ranges)]))
        _point_list.cache_clear()
        _point_list(ctx.fan, divisor)
        _point_list.cache_clear()
        assert [[len(r) for r in ranges] for ranges in built] == [[39] * 4]


def plain_norms(fan, divisor, radius):
    """Contributing mask -> ascending sup norms of its characters in the centred cube, in Python ints."""
    found = {}
    for u, mask, _ in plain_representatives(fan, divisor, radius):
        if contributes(fan, mask):
            found.setdefault(mask, []).append(max(map(abs, u)))
    return {mask: sorted(norms) for mask, norms in found.items()}


def exactness_cases(records):
    """(ctx, divisor): seeded classes in [-8, 8]^rho on the 18 catalog fans and on seeded star subdivisions."""
    rng = random.Random(1010)
    contexts = [build_pic_context(rec.fan, rec.pic_basis) for _, rec in sorted(records.items())]
    contexts += [build_pic_context(fan) for fan in seeded_blowups(records, (9, 10, 11), seed=5)]
    return [(ctx, class_to_divisor(ctx, [rng.randint(-8, 8) for _ in range(ctx.rank)]))
            for ctx in contexts for _ in range(3)]


class TestExactness:
    """Every answer is read from the whole certified box, whatever the start radius."""

    def test_every_query_equals_a_plain_count(self, records):
        for ctx, divisor in exactness_cases(records):
            fan, full = ctx.fan, (1 << ctx.fan.n_rays) - 1
            box = _contributing_box(fan, divisor)
            # a cube two steps past the box: a character the box missed would show
            found = plain_norms(fan, divisor, 2 + (box.extent if box else 0))
            assert {mask: list(norms) for mask, norms in _point_list(fan, divisor).items()} == found
            dims = [0] * (fan.dim + 1)
            for mask, norms in found.items():
                dims = [d + len(norms) * h for d, h in zip(dims, reversed(boundary_ranks(fan, mask)))]
            reach = max((norms[-1] for norms in found.values()), default=0)
            nearest_forbidden = min((norms[0] for mask, norms in found.items() if mask != full), default=0)
            r_class = _radius_for_class(to_class(ctx, divisor))
            for radius in (None, 1, 4):
                r0 = r_class if radius is None else radius
                table = cohomology_table(ctx, divisor, box_radius=radius, escalate=True)
                assert table.dims == tuple(dims)
                assert table.box_radius_used == next(r for r in itertools.count(r0, 2) if r >= reach)
                if reach > r0:   # the dimensions rest on a character past the start radius
                    with pytest.raises(BoxUnstable):
                        cohomology_table(ctx, divisor, box_radius=radius)
                else:
                    assert cohomology_table(ctx, divisor, box_radius=radius).dims == tuple(dims)
            verdicts = {   # each answer and the norm of the character it rests on
                is_acyclic: (all(mask == full for mask in found), nearest_forbidden),
                has_nonzero_global_sections: (full in found, found[full][0] if full in found else 0)}
            for query, (answer, needs) in verdicts.items():   # from the class-derived start radius
                assert query(ctx, divisor, escalate=True) == answer, (fan.rays, divisor, query)
                if needs > r_class:
                    with pytest.raises(BoxUnstable):
                        query(ctx, divisor)
                else:
                    assert query(ctx, divisor) == answer, (fan.rays, divisor, query)

    def test_a_sweep_class_computes_its_class_once(self, contexts, monkeypatch):
        calls = []
        real = cohomology.to_class
        monkeypatch.setattr(cohomology, "to_class", lambda ctx, d: calls.append(d) or real(ctx, d))
        ctx = contexts["E1"]
        divisor = class_to_divisor(ctx, (1, -2, 0, 2))
        cohomology_table(ctx, divisor, escalate=True)
        is_acyclic(ctx, divisor, escalate=True)
        has_nonzero_global_sections(ctx, divisor, escalate=True)
        assert len(calls) == 1


def boundary_ranks(fan, mask):
    return reduced_homology_ranks(fan, [i for i in range(fan.n_rays) if mask >> i & 1])


def components(fan, mask):
    """Connected components of the edge graph of fan.max_cones on the rays of the mask (union-find)."""
    parent = {i: i for i in range(fan.n_rays) if mask >> i & 1}

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for cone in fan.max_cones:
        for i, j in itertools.combinations(cone, 2):
            if i in parent and j in parent:
                parent[root(i)] = root(j)
    return len({root(i) for i in parent})


def alexander_ranks(fan, mask):
    """Reduced homology of C_I on a complete simplicial 3-fan, whose boundary complex is a 2-sphere.

    By Alexander duality a proper nonempty I has ranks (0, c(I) - 1, c(I^c) - 1, 0).
    """
    full = (1 << fan.n_rays) - 1
    if mask == 0:
        return (1, 0, 0, 0)
    if mask == full:
        return (0, 0, 0, 1)
    return (0, components(fan, mask) - 1, components(fan, full & ~mask) - 1, 0)


class TestPatternRankCertificates:
    def test_every_mask_matches_alexander_duality(self, records):
        for fan in [rec.fan for rec in records.values()] + seeded_blowups(records, (9, 10, 11), seed=5):
            assert fan.dim == 3 and is_complete(fan)
            _patterns.cache_clear()
            for mask in range(1 << fan.n_rays):
                assert _pattern_ranks(fan, mask) == alexander_ranks(fan, mask), (fan.rays, mask)

    def test_every_mask_matches_reduced_homology_ranks(self, records):
        fans = [rec.fan for rec in records.values()] + seeded_blowups(records, (9, 10, 11), seed=5)
        for fan in fans + [hirzebruch_f1(), p1_times_surface(8)]:
            assert is_complete(fan)
            _patterns.cache_clear()
            for mask in range(1 << fan.n_rays):
                assert _pattern_ranks(fan, mask) == boundary_ranks(fan, mask), (fan.rays, mask)

    def test_only_the_subset_rule_fires_on_an_incomplete_fan(self):
        fan = p3_without_a_cone()
        assert not is_complete(fan) and not _patterns(fan).complete
        _patterns.cache_clear()
        for mask in range(1 << fan.n_rays):
            assert _pattern_ranks(fan, mask) == boundary_ranks(fan, mask), mask
        # the complement {v4} of {v1, v2, v3} lies in a maximal cone, yet the pattern bounds the hole
        assert _pattern_ranks(fan, 0b0111) == (0, 0, 1, 0)
        # the full pattern is a disk here, with zero ranks, but it still counts for the sections
        assert _pattern_ranks(fan, 0b1111) == (0, 0, 0, 0)
        assert _contributing(fan, {0b1111, 0b0111, 0b0001}) == {0b1111, 0b0111}

    def test_the_full_mask_of_a_complete_fan_is_the_sphere(self, records, monkeypatch):
        ranked = []
        real = cohomology.reduced_homology_ranks
        monkeypatch.setattr(cohomology, "reduced_homology_ranks",
                            lambda fan, rays: ranked.append(fan) or real(fan, rays))
        _patterns.cache_clear()
        for fan in [rec.fan for rec in records.values()] + seeded_blowups(records, (9, 10, 11, 12, 13), seed=28):
            full = (1 << fan.n_rays) - 1
            assert _pattern_ranks(fan, full) == alexander_ranks(fan, full) == (0, 0, 0, 1)
        for n in range(1, 6):   # the (n-1)-sphere in other dimensions, against its boundary matrices
            fan = projective_space(n)
            assert _pattern_ranks(fan, (1 << n + 1) - 1) == boundary_ranks(fan, (1 << n + 1) - 1) == (0,) * n + (1,)
        assert ranked == []
        fan = p3_without_a_cone()   # no certificate: the full mask, a disk here, is ranked by boundary matrices
        assert _pattern_ranks(fan, 0b1111) == (0, 0, 0, 0) and ranked == [fan]

    def test_the_theorem_ranks_few_boundary_matrices(self, monkeypatch, capsys):
        # a cold run: every elimination ranks a boundary matrix, and no elimination computes a minor
        ranked, inside, stray = [], [], []
        real, real_eliminate = cohomology.reduced_homology_ranks, lattice._eliminate

        def ranks(fan, rays):
            ranked.append(rays)
            inside.append(rays)
            try:
                return real(fan, rays)
            finally:
                inside.pop()

        def eliminate(M, width):
            if not inside:
                stray.append(width)
            return real_eliminate(M, width)

        monkeypatch.setattr(cohomology, "reduced_homology_ranks", ranks)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("toric_exc") and getattr(module, "_eliminate", None) is real_eliminate:
                monkeypatch.setattr(module, "_eliminate", eliminate)
        for memo in (_patterns, _vertex_frames, _point_list, fan_module._completeness_problems,
                     fan_module.ray_coordinates):
            memo.cache_clear()
        assert not hasattr(forbidden_sets, "cache_info")
        assert cli_main(["--format", "json", "prove-main-theorem"]) == 0
        capsys.readouterr()
        assert stray == []
        assert 0 < len(ranked) <= 30   # 18; 210 without the certificates


class TestBatchedBoxes:
    def test_a_collection_check_keeps_no_lists_and_equals_the_single_queries(self, records, contexts):
        ctx = contexts["D1"]
        divisors = collection_differences(ctx, records["D1"])
        _point_list.cache_clear()
        verdicts = vanishing_verdicts(ctx, divisors)
        assert _point_list.cache_info().currsize == 0
        assert verdicts == [(is_acyclic(ctx, d, escalate=True), has_nonzero_global_sections(ctx, d, escalate=True))
                            for d in divisors]
        assert set(verdicts) == {(True, True), (True, False)}   # every difference is acyclic

    def test_small_and_huge_divisors_in_one_pass(self, records, contexts):
        ctx = contexts["D1"]
        rng = random.Random(40)
        small = [tuple(rng.randint(-3, 3) for _ in range(6)) for _ in range(12)]
        near_2_40 = [tuple(rng.randint(-3, 3) + rng.choice((0, 2**40, -(2**40))) for _ in range(6))
                     for _ in range(6)]
        huge = [(2**63 - 1, 1, -1, 0, 2, -1), (0, 1, -(2**62), 0, 1, 0)]
        assert isinstance(single_verdicts(ctx, small), list) and isinstance(single_verdicts(ctx, near_2_40), str)
        assert max(abs(x) for d in huge for x in d) >= _INT64_SAFE
        # int64, then the object dtype: the huge divisors change no other divisor's verdicts
        assert vanishing_verdicts(ctx, small + near_2_40) == vanishing_verdicts(ctx, small + near_2_40 + huge)[:18]
        # the small divisors answer as the single queries do; the others, whose boxes no limit
        # would pass, answer from witnesses that plain_mask re-checks
        assert assert_collection_answers(ctx, small + near_2_40 + huge) == Counter(single=12, witness=8)

    def test_huge_divisors_leave_the_others_on_int64(self, contexts, monkeypatch):
        # the int64-safe divisors go through the vertex pass apart from the others, in chunks of 40, and
        # come back in input order: the split call answers as one unsplit call on Python integers does
        ctx = contexts["D1"]
        rng = random.Random(32)
        divisors = [tuple(rng.randint(-3, 3) for _ in range(6)) for _ in range(100)]
        for j in (0, 41, 99):
            divisors.insert(j, (2 ** 63 - 1, 0, 0, 0, rng.randint(-3, 3), 0))
        dtypes = []
        real = cohomology._vertex_masks
        monkeypatch.setattr(cohomology, "_vertex_masks", lambda frames, a: dtypes.append((len(a), a.dtype)) or
                            real(frames, a))
        monkeypatch.setattr(cohomology, "_PASS_ELEMENTS", 40 * _vertex_frames(ctx.fan).thresholds.size)
        split = _verdict_witnesses(ctx.fan, divisors), vanishing_verdicts(ctx, divisors)
        assert dtypes[:4] == [(40, np.int64), (40, np.int64), (20, np.int64), (3, object)]
        monkeypatch.setattr(cohomology, "_PASS_ELEMENTS", 1 << 40)
        monkeypatch.setattr(cohomology, "_int64_reach", lambda frames: -1)   # every divisor on Python integers
        dtypes.clear()
        assert (_verdict_witnesses(ctx.fan, divisors), vanishing_verdicts(ctx, divisors)) == split
        assert dtypes[0] == (103, object)

    def test_the_fallback_enumerates_each_box_once_or_refuses_first(self, records, contexts, monkeypatch):
        # on the forced fallback every divisor with a contributing candidate is enumerated from its box
        monkeypatch.setattr(cohomology, "_integral_candidates", no_integral_candidates)
        ctx = contexts["D1"]
        divisors = collection_differences(ctx, records["D1"])
        counts = [math.prod(h - l + 1 for l, h in zip(box.lo, box.hi)) if box else 0
                  for box in (_contributing_box(ctx.fan, d) for d in divisors)]
        want = single_verdicts(ctx, divisors)
        built = []
        real = cohomology.product
        monkeypatch.setattr(cohomology, "product", lambda *ranges: built.append(ranges) or real(*ranges))
        # a limit of exactly the largest box's count refuses none
        monkeypatch.setattr(cohomology, "_CHARACTER_LIMIT", max(counts))
        assert vanishing_verdicts(ctx, divisors) == want
        assert len(built) == len([count for count in counts if count])   # each box enumerated once
        # one count lower, the largest box is refused before any box is enumerated
        monkeypatch.setattr(cohomology, "_CHARACTER_LIMIT", max(counts) - 1)
        built.clear()
        with pytest.raises(BoxTooLarge, match=f"holds {max(counts)} characters"):
            vanishing_verdicts(ctx, divisors)
        assert built == []

    def test_small_and_huge_divisors_on_seeded_blowups(self, records):
        # spread 4 mostly passes the old refusal bound, spread 20 and 400 always; the single queries
        # refuse none at spread 4, some at spread 20 and all at spread 400, yet the collection check
        # answers every divisor
        rng = random.Random(41)
        routes = Counter()
        for fan in seeded_blowups(records, (9, 10, 11, 12, 13), seed=5):
            ctx = build_pic_context(fan)
            for spread in (4, 20, 400):
                divisors = [tuple(rng.randint(-spread, spread) for _ in range(fan.n_rays)) for _ in range(8)]
                routes += assert_collection_answers(ctx, divisors)
        assert routes["single"] >= 40 and routes["raised"] >= 5 and routes["witness"] >= 40, routes


def no_integral_candidates(frames, a):
    """Stands in for _integral_candidates: no vertex counts as a character, so every carried verdict falls back."""
    return np.zeros((len(frames.subsets), frames.thresholds.shape[1], len(a)), dtype=bool)


def enumerated_verdicts(fan, divisors):
    """Both verdicts of each divisor read from the characters of its whole box, enumerated."""
    full = (1 << fan.n_rays) - 1
    return [(all(mask == full for mask in points), full in points)
            for points in (_characters(fan, d, _checked(_contributing_box(fan, d))) for d in divisors)]


def plain_mask(fan, divisor, u):
    """The sign pattern of a + P u, in Python ints: bit i when a_i + <u, v_i> >= 0."""
    return sum(1 << i for i, (ray, a) in enumerate(zip(fan.rays, divisor))
               if a + sum(x * v for x, v in zip(u, ray)) >= 0)


class TestVerdictWitnesses:
    def test_every_witness_is_a_character_with_its_pattern(self, records, contexts):
        # the theorem's differences, then seeded blow-ups whose fans have 6-130 ray 3-subsets with
        # |det| from 2 to 11, so that many vertex candidates are not integral
        rng = random.Random(24)
        cases = [(contexts[name].fan, collection_differences(contexts[name], records[name]))
                 for name in ("D1", "D2", "E1", "E2", "E4")]
        for fan in seeded_blowups(records, (9, 10, 11, 12, 13) * 2, seed=5):
            assert len(_vertex_frames(fan).wide) >= 6
            cases.append((fan, [tuple(rng.randint(-3, 3) for _ in range(fan.n_rays)) for _ in range(12)]))
        checked = Counter()
        for k, (fan, divisors) in enumerate(cases):
            full = (1 << fan.n_rays) - 1
            found = _verdict_witnesses(fan, divisors)
            if k < 5:
                assert None not in found   # the theorem needs no box
            for divisor, witnesses, verdicts in zip(divisors, found, enumerated_verdicts(fan, divisors)):
                if witnesses is None:
                    continue
                assert (witnesses.forbidden is None, witnesses.section is not None) == verdicts, divisor
                if witnesses.forbidden is not None:
                    u, mask = witnesses.forbidden
                    assert all(type(x) is int for x in u) and plain_mask(fan, divisor, u) == mask
                    assert mask != full and contributes(fan, mask) and any(alexander_ranks(fan, mask))
                    checked["forbidden"] += 1
                if witnesses.section is not None:
                    u, mask = witnesses.section
                    assert all(type(x) is int for x in u) and plain_mask(fan, divisor, u) == mask == full
                    checked["section"] += 1
                checked["decided"] += 1
        assert checked["forbidden"] >= 100 and checked["section"] >= 100 and checked["decided"] >= 300, checked

    def test_the_forced_fallback_equals_the_enumeration(self, records, contexts, monkeypatch):
        rng = random.Random(25)
        cases = [(contexts[name], collection_differences(contexts[name], records[name]))
                 for name in ("D1", "D2", "E1", "E2", "E4")]
        for ctx in [contexts[name] for name in sorted(records)] + [build_pic_context(fan) for fan in
                                                                   seeded_blowups(records, (9, 11, 13), seed=5)]:
            cases.append((ctx, [tuple(rng.randint(-3, 3) for _ in range(ctx.fan.n_rays)) for _ in range(8)]))
        want = [enumerated_verdicts(ctx.fan, divisors) for ctx, divisors in cases]
        assert [vanishing_verdicts(ctx, divisors) for ctx, divisors in cases] == want
        boxed = []
        real = cohomology._contributing_box
        monkeypatch.setattr(cohomology, "_contributing_box", lambda fan, d: boxed.append(d) or real(fan, d))
        monkeypatch.setattr(cohomology, "_integral_candidates", no_integral_candidates)
        assert [vanishing_verdicts(ctx, divisors) for ctx, divisors in cases] == want
        # every divisor with a contributing candidate fell back to its box
        assert set(boxed) == {d for ctx, divisors in cases for d in divisors if real(ctx.fan, d) is not None}

    def test_the_theorem_builds_no_box_and_enumerates_no_character(self, monkeypatch, capsys):
        calls = Counter()
        for name in ("_characters", "_contributing_box", "_verdict_witnesses"):
            real = getattr(cohomology, name)
            monkeypatch.setattr(cohomology, name,
                                lambda *args, _real=real, _name=name: calls.update([_name]) or _real(*args))
        for memo in (_patterns, _vertex_frames, _point_list):
            memo.cache_clear()
        assert cli_main(["--format", "json", "prove-main-theorem"]) == 0
        capsys.readouterr()
        assert calls == Counter({"_verdict_witnesses": 5})   # one collection check per variety


def collection_differences(ctx, record):
    """The divisors of the distinct differences of a record's collection, in the order verify asks them."""
    classes = [to_class(ctx, d) for d in record.collection]
    return [class_to_divisor(ctx, cls) for cls in
            dict.fromkeys(tuple(b - a for b, a in zip(lb, la)) for la in classes for lb in classes)]


def single_verdicts(ctx, divisors):
    """(is_acyclic, has_nonzero_global_sections) of each divisor, or the first BoxTooLarge message."""
    try:
        return [(is_acyclic(ctx, d, escalate=True), has_nonzero_global_sections(ctx, d, escalate=True))
                for d in divisors]
    except BoxTooLarge as exc:
        return str(exc)


_RAISED_CHARACTERS = 1 << 17   # a box the single queries refuse is enumerated when it holds at most this many


def assert_collection_answers(ctx, divisors):
    """vanishing_verdicts answers every divisor, and each answer agrees with a second computation.

    Returns how many divisors each route checked:
    - single: the single queries answer, and give the same verdicts;
    - raised: the single queries refuse, and the box, enumerated with both limits raised, gives them;
    - witness: the box holds more than _RAISED_CHARACTERS characters, and every witness of
      _verdict_witnesses is a character whose pattern plain_mask and alexander_ranks confirm.
    """
    fan, full = ctx.fan, (1 << ctx.fan.n_rays) - 1
    routes = Counter()
    for divisor, verdict, witnesses in zip(divisors, vanishing_verdicts(ctx, divisors),
                                           _verdict_witnesses(fan, divisors)):
        single = single_verdicts(ctx, [divisor])
        if not isinstance(single, str):
            assert verdict == single[0], divisor
            routes["single"] += 1
            continue
        box = _contributing_box(fan, divisor)
        if math.prod(h - l + 1 for l, h in zip(box.lo, box.hi)) <= _RAISED_CHARACTERS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cohomology, "_RADIUS_LIMIT", 10 ** 9)
                patch.setattr(cohomology, "_CHARACTER_LIMIT", _RAISED_CHARACTERS)
                assert [verdict] == enumerated_verdicts(fan, [divisor]), divisor
            routes["raised"] += 1
            continue
        assert verdict == (witnesses.forbidden is None, witnesses.section is not None), divisor
        for witness, kind in ((witnesses.forbidden, "forbidden"), (witnesses.section, "section")):
            if witness is not None:
                u, mask = witness
                assert all(type(x) is int for x in u) and plain_mask(fan, divisor, u) == mask, divisor
                assert mask == full if kind == "section" else mask != full and any(alexander_ranks(fan, mask))
        routes["witness"] += 1
    return routes


class TestGeneratedFans:
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_collection_checks_and_serre_duality_on_seeded_blowups(self, records, data):
        base = data.draw(st.sampled_from(sorted(records)), label="base")
        fan = seeded_blowup(records[base].fan, data.draw(st.integers(9, 13), label="rays"),
                            data.draw(st.integers(0, 10 ** 6), label="seed"))
        ctx = build_pic_context(fan)

        def divisors(spread):
            entries = st.tuples(*[st.integers(-spread, spread)] * fan.n_rays)
            return data.draw(st.lists(entries, min_size=1, max_size=4), label=f"spread {spread}")

        small = divisors(3)
        for batch in (small, divisors(40)):
            assert_collection_answers(ctx, batch)
        K = canonical_divisor(fan)
        for D in small:
            h = cohomology_table(ctx, D, escalate=True).dims
            hk = cohomology_table(ctx, tuple(k - d for k, d in zip(K, D)), escalate=True).dims
            assert h == tuple(reversed(hk)), D


def plain_gap_rows(fan, subset, eps, divisor):
    """|det A_S| (<u, v_rho> + a_rho) for every ray rho, in Python ints, u solving A_S u = -(a_S + eps).

    Cramer's rule: |det A_S| u_j = sign(det A_S) det(A_S with column j replaced by -(a_S + eps)).
    """
    A = [fan.rays[i] for i in subset]
    det = leibniz_determinant(A)
    b = [-(divisor[i] + e) for i, e in zip(subset, eps)]
    scaled_u = [(1 if det > 0 else -1) * leibniz_determinant([row[:j] + (b[r],) + row[j + 1:]
                                                              for r, row in enumerate(A)])
                for j in range(fan.dim)]
    return [sum(x * v for x, v in zip(scaled_u, ray)) + abs(det) * a for ray, a in zip(fan.rays, divisor)]


class TestGapTables:
    def test_cached_tables_give_the_plain_gaps_of_every_candidate(self, records):
        # every (S, eps) candidate of every divisor: the base gap minus the threshold of eps equals
        # |det A_S| (<u, v_rho> + a_rho) in Python ints, on the int64 and on the object path, and a
        # divisor passed alone, as a batch of one, gets the gaps and the masks of its column in a batch
        fans = ([rec.fan for _, rec in sorted(records.items())] + [projective_space(n) for n in (1, 2, 4)]
                + seeded_blowups(records, (9, 11, 13), seed=19))
        rng = random.Random(19)
        paths = set()
        for fan in fans:
            frames = _vertex_frames(fan)
            m = fan.n_rays
            small = [tuple(rng.randint(-6, 6) for _ in range(m)) for _ in range(2)]
            huge = [tuple(rng.randint(-6, 6) + rng.choice((0, 2**60 + rng.randrange(2**40), -(2**62)))
                          for _ in range(m))]
            for batch in (small, small + huge):
                a = _divisor_array(frames, batch)
                paths.add(a.dtype)
                gaps = _base_gaps(frames, a)[:, None] - frames.thresholds[..., None]   # K x 2^n x m x D
                assert gaps.shape == (len(frames.subsets), 2 ** fan.dim, m, len(batch))
                masks = _vertex_masks(frames, a)
                for d, divisor in enumerate(batch):
                    alone = _divisor_array(frames, [divisor])
                    assert alone.shape == (1, m)
                    assert ((_base_gaps(frames, alone)[:, None] - frames.thresholds[..., None]).tolist()
                            == gaps[..., d:d + 1].tolist())
                    assert _vertex_masks(frames, alone).tolist() == masks[..., d:d + 1].tolist()
                for k, subset in enumerate(frames.subsets.tolist()):
                    for e, eps in enumerate(_corner_offsets(fan.dim).tolist()):
                        for d, divisor in enumerate(batch):
                            assert gaps[k, e, :, d].tolist() == plain_gap_rows(fan, subset, eps, divisor), \
                                (fan.rays, subset, eps, divisor)
        assert paths == {np.dtype(np.int64), np.dtype(object)}


def sheared_p2(k):
    """P2 under the shear (x, y) -> (x + k y, y): one fan per k, all isomorphic."""
    return Fan.make(2, [(1, 0), (k, 1), (-1 - k, -1)], [(0, 1), (0, 2), (1, 2)])


class TestFanCaches:
    def test_the_per_fan_caches_keep_at_most_their_size(self):
        # one fan more than the caches hold: the first is evicted from every
        # per-fan table, and computing it again gives the same answers
        size = fan_module._FAN_CACHE_SIZE
        assert size >= 64 and cohomology._FAN_CACHE_SIZE is size

        def answers(fan):
            ctx = build_pic_context(fan)
            return (forbidden_sets(fan), validate_fan(fan), primitive_relations(fan), is_fano(fan),
                    [cohomology_table(ctx, D, escalate=True).dims for D in ((0, 0, 0), (-1, -1, -1), (-1, 0, 0))],
                    decompose(fan, ctx, (0, 0, 0), 3).summands)

        def inverses(fan):
            return [cone_inverse(fan, cone) for cone in fan.max_cones]

        fans = [sheared_p2(k) for k in range(-(size // 2), size // 2 + 1)]   # the boxes reach |k| + 1
        first, first_inverses = answers(fans[0]), inverses(fans[0])
        assert first[-2] == [(1, 0, 0), (0, 0, 1), (0, 0, 0)] and first[1].ok and first[3]
        for fan in fans[1:]:
            assert answers(fan) == first
            assert all((cone_matrix(fan, cone) @ inverse).is_identity()
                       for cone, inverse in zip(fan.max_cones, inverses(fan)))
        memos = (cohomology._patterns, _vertex_frames, fan_module._completeness_problems, fan_module.face_masks,
                 fan_module.primitive_collections, fan_module.primitive_relations, fan_module.ray_coordinates,
                 frobenius._line_frame)
        assert all(memo.cache_info().currsize <= size for memo in memos)
        assert not hasattr(is_fano, "cache_info") and not hasattr(forbidden_sets, "cache_info")
        misses = [memo.cache_info().misses for memo in memos]
        _point_list.cache_clear()
        assert answers(fans[0]) == first and inverses(fans[0]) == first_inverses
        assert [memo.cache_info().misses for memo in memos] == [m + 1 for m in misses]
