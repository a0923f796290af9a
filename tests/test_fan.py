"""Fan combinatorics: validation, primitive collections/relations, Fano test."""

import random
import re
import sys
import time
from itertools import combinations, product

import pytest

from toric_exc import fan as fan_module, lattice
from toric_exc.catalog import format_fan_file, parse_fan_file
from toric_exc.cohomology import _patterns, _vertex_frames
from toric_exc.errors import InteriorCoverFailure, NotUnimodular, UnboundedRegion
from toric_exc.fan import (Fan, _completeness_problems, cone_inverse, cone_matrix, face_masks, is_complete, is_face,
                           is_fano, primitive_collections, primitive_relations, ray_coordinates, ray_minors,
                           validate_fan)
from toric_exc.frobenius import _line_frame, _minor_lcm
from toric_exc.lattice import IntMatrix, determinant, smith_normal_form
from toric_exc.picard import build_pic_context
from test_lattice import leibniz_determinant, sheared_p3_rays

P3 = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
HIRZEBRUCH_F2 = Fan.make(2, [(1, 0), (0, 1), (-1, 2), (0, -1)],
                         [(0, 1), (1, 2), (2, 3), (3, 0)])


def projective_space(n):
    """P^n: the n unit vectors and minus their sum, any n of them spanning a maximal cone."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return Fan.make(n, rays, combinations(range(n + 1), n))


def one_based(sets):
    return {tuple(i + 1 for i in s) for s in sets}


def spans_a_cone(fan, s):
    """A face test by plain set inclusion in the maximal cones."""
    return any(set(s) <= set(cone) for cone in fan.max_cones)


def seeded_blowup(fan, m, seed):
    """Star-subdivide seeded maximal cones and 2-faces of a 3-fan until it has m rays."""
    rng = random.Random(seed)
    rays, cones = [list(r) for r in fan.rays], [tuple(c) for c in fan.max_cones]
    while len(rays) < m:
        cone = rng.choice(cones)
        face = cone if rng.random() < 0.5 else tuple(rng.sample(cone, 2))
        rays.append([sum(rays[i][k] for i in face) for k in range(3)])
        for c in [c for c in cones if set(face) <= set(c)]:
            cones.remove(c)
            cones += [tuple(set(c) - {i} | {len(rays) - 1}) for i in face]
    return Fan.make(3, rays, cones)


def seeded_blowups(records, sizes, seed):
    rng = random.Random(seed)
    return [seeded_blowup(records[rng.choice(sorted(records))].fan, m, rng.randrange(10 ** 6)) for m in sizes]


def holds(fan, cone, point):
    """Whether a nonsingular cone holds the point: every coefficient, det(rays with one replaced by the point) / det,
    is >= 0."""
    rows = [list(fan.rays[i]) for i in cone]
    det = determinant(IntMatrix.from_rows(rows))
    return all(determinant(IntMatrix.from_rows(rows[:i] + [list(point)] + rows[i + 1:])) * det >= 0
               for i in range(len(rows)))


def folded_suspension():
    """Cones over three triangles around the z-axis, one of which folds back over another.

    Every facet lies in exactly two maximal cones and every cone is smooth,
    but the cones over the facet {v1, v4} lie on the same side of it.
    """
    rays = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1)]
    return Fan.make(3, rays, [(i, j, t) for i, j in ((0, 1), (1, 2), (0, 2)) for t in (3, 4)])


# cone (0, 2) is flat: its apexes lie on the lines of its facets
FLAT_2_FAN = Fan.make(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2), (0, 2)])
DOUBLED_P3 = Fan.make(3, P3.rays, P3.max_cones + ((0, 1, 2),))
P3_WITHOUT_A_CONE = Fan.make(3, P3.rays, [(0, 1, 3), (0, 2, 3), (1, 2, 3)])


def double_cover(rays):
    """The 2-D cones over consecutive rays of a list that winds twice around the origin."""
    return Fan.make(2, rays, [(i, (i + 1) % len(rays)) for i in range(len(rays))])


# every ray is the wall between two cones on opposite sides, but (1, 1) lies in two cones
DOUBLE_COVER = double_cover([(1, 0), (0, 1), (-1, 0), (0, -1), (2, -1), (1, 2), (-2, 1), (-1, -2)])
# the same winding with the diagonals as rays: (1, 1) is then a ray of cone (3, 4), on its boundary
DOUBLE_COVER_THROUGH_A_RAY = double_cover([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1)])


class TestValidateFan:
    def test_p3_passes(self):
        v = validate_fan(P3)
        assert v.ok and v.smooth and v.complete and v.simplicial

    def test_d1_passes_with_eight_cones(self, d1):
        assert validate_fan(d1.fan).ok
        assert len(d1.fan.max_cones) == 8  # 2*upsilon - 4 with upsilon = 6

    def test_duplicate_ray_fails(self):
        bad = Fan.make(3, [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                       [(0, 2, 3), (1, 2, 3)])
        report = validate_fan(bad)
        assert not report.ok
        assert any("duplicate" in p for p in report.problems)

    def test_non_primitive_ray_fails(self):
        bad = Fan.make(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
        report = validate_fan(bad)
        assert not report.ok

    def test_singular_cone_detected(self):
        # cone spanned by (1,0) and (1,2) has index 2
        bad = Fan.make(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
        report = validate_fan(bad)
        assert not report.smooth

    def test_a_non_smooth_cone_names_its_signed_determinant(self, records):
        blowup = seeded_blowup(records["E2"].fan, 10, 9)
        fans = [Fan.make(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (2, 0)]),
                Fan.make(3, [(0, 1, 0), (1, 0, 0), (1, 1, 2), (-1, -1, -1)], P3.max_cones),
                Fan.make(3, blowup.rays[:-1] + (tuple(3 * x for x in blowup.rays[-1]),), blowup.max_cones)]
        signs = set()
        for fan in fans:
            dets = {cone: determinant(cone_matrix(fan, cone)) for cone in fan.max_cones}
            expected = [f"cone {cone} has determinant {d}; not smooth" for cone, d in dets.items() if abs(d) != 1]
            assert expected and [p for p in validate_fan(fan).problems if "not smooth" in p] == expected
            signs.update(d > 0 for d in dets.values() if abs(d) != 1)
        assert signs == {False, True}

    def test_missing_cone_breaks_completeness(self):
        halfopen = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                            [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        report = validate_fan(halfopen)
        assert not report.complete

    def test_p3_without_a_cone_names_the_open_facets(self):
        report = validate_fan(P3_WITHOUT_A_CONE)
        assert not report.ok and not report.complete and report.smooth
        assert report.problems == tuple(f"facet {f} lies in 1 maximal cones, expected 2"
                                        for f in ((0, 1), (0, 2), (1, 2)))
        assert not is_complete(P3_WITHOUT_A_CONE)

    def test_duplicated_cone_is_rejected(self):
        report = validate_fan(DOUBLED_P3)
        assert not report.ok and not report.complete
        assert "facet (0, 1) lies in 3 maximal cones, expected 2" in report.problems

    def test_cones_on_one_side_of_a_facet_are_rejected(self):
        fan = folded_suspension()
        report = validate_fan(fan)
        assert report.smooth and report.simplicial and not report.complete
        assert "facet (0, 3): maximal cones (0, 1, 3) and (0, 2, 3) do not lie on opposite sides of it" \
            in report.problems

    def test_an_apex_on_its_facet_is_on_neither_side(self):
        # the flat cone's facets have a side of 0, which the pairing test must refuse (a test that only refused
        # equal signs would pass it on to the degree test)
        assert _completeness_problems(FLAT_2_FAN) == (
            "facet (0,): maximal cones (0, 1) and (0, 2) do not lie on opposite sides of it",
            "facet (2,): maximal cones (0, 2) and (1, 2) do not lie on opposite sides of it")
        assert not is_complete(FLAT_2_FAN)

    def test_a_double_cover_fails_the_degree_check(self):
        assert _completeness_problems(DOUBLE_COVER) == (
            "the ray sum (1, 1) of maximal cone (0, 1) also lies in maximal cone (4, 5)",)
        assert not is_complete(DOUBLE_COVER)

    def test_a_double_cover_through_a_ray_fails_the_degree_check(self):
        # only a degree test that counts the boundary sees the second cover.  validate_fan stops at the three
        # cones of determinant 2, so the checks are called directly.
        problem = "the ray sum (1, 1) of maximal cone (0, 1) also lies in maximal cone (3, 4)"
        assert _completeness_problems(DOUBLE_COVER_THROUGH_A_RAY) == (problem,)
        assert not is_complete(DOUBLE_COVER_THROUGH_A_RAY)
        with pytest.raises(UnboundedRegion, match=re.escape(problem)):
            _vertex_frames(DOUBLE_COVER_THROUGH_A_RAY)

    def test_the_degree_check_reads_every_cone(self):
        # each cone first, and the others in each rotation, so that every cone is once in every later place: each
        # order names the first later cone that holds the first cone's ray sum, found here by Cramer's rule
        for fan in (DOUBLE_COVER, DOUBLE_COVER_THROUGH_A_RAY):
            for first, s in product(fan.max_cones, range(len(fan.max_cones) - 1)):
                others = [cone for cone in fan.max_cones if cone != first]
                cones = (first, *others[s:], *others[:s])
                point = tuple(map(sum, zip(*(fan.rays[i] for i in first))))
                holder = next(cone for cone in cones[1:] if holds(fan, cone, point))
                assert _completeness_problems(Fan(fan.dim, fan.rays, cones)) == (
                    f"the ray sum {point} of maximal cone {first} also lies in maximal cone {holder}",)

    def test_problems_do_not_depend_on_the_order_of_a_cones_rays(self):
        # Fan() keeps each cone's rays in the order given, so every facet side read from the table rests on
        # sign(det) of that order: shuffled, the broken fans fail the certificate on the same problems, each
        # cone named as stored
        rng = random.Random(33)
        for fan in (folded_suspension(), FLAT_2_FAN, DOUBLED_P3, P3_WITHOUT_A_CONE, DOUBLE_COVER,
                    DOUBLE_COVER_THROUGH_A_RAY):
            for _ in range(4):
                cones = tuple(tuple(rng.sample(cone, len(cone))) for cone in fan.max_cones)
                shuffled = Fan(fan.dim, fan.rays, cones)
                names = dict(zip(map(str, fan.max_cones), map(str, cones)))
                want = tuple(re.sub(r"\([\d, ]*\)", lambda m: names.get(m.group(), m.group()), problem)
                             for problem in _completeness_problems(fan))
                assert want and _completeness_problems(shuffled) == want, (fan, cones)

    def test_a_cone_with_a_repeated_ray_is_not_a_set_of_n_rays(self):
        # n distinct rays with one repeated: reported like any other malformed cone, not raised
        fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 0, 1), (1, 2), (0, 2)))
        assert validate_fan(fan).problems == ("cone (0, 0, 1) is not a set of 2 valid ray indices",)
        assert _completeness_problems(fan) == ("the maximal cones are not sets of 2 valid ray indices",)

    def test_malformed_cones_are_not_complete(self):
        assert not is_complete(Fan(3, P3.rays, ((0, 1), (0, 2, 3))))
        assert not is_complete(Fan(3, P3.rays, ((0, 1, 7),)))
        assert not is_complete(Fan(3, P3.rays, ()))

    def test_seeded_blowups_are_accepted(self, records):
        for fan in seeded_blowups(records, (9, 9, 10, 10, 11, 11, 12, 12, 13, 13), seed=7):
            report = validate_fan(fan)
            assert report.ok and report.complete and is_complete(fan), fan
            assert len(fan.max_cones) == 2 * fan.n_rays - 4

    def test_catalog_euler_identity(self, records):
        for rec in records.values():
            assert validate_fan(rec.fan).ok, rec.name
            assert is_complete(rec.fan), rec.name
            assert len(rec.fan.max_cones) == 2 * rec.fan.n_rays - 4


class TestConeInverse:
    def test_cofactors_match_the_smith_form_inverse(self, records):
        for fan in [rec.fan for rec in records.values()] + seeded_blowups(records, (9, 13), seed=3):
            for cone in fan.max_cones:
                inverse = cone_inverse(fan, cone)
                snf = smith_normal_form(cone_matrix(fan, cone))   # U A V = I, so A^-1 = V U
                assert snf.D.is_identity() and inverse == snf.V @ snf.U
                assert (cone_matrix(fan, cone) @ inverse).is_identity()

    def test_printed_cone_matrix(self, records):
        # D1's cone (Z1, Z4, Z5): its rays as rows, and the printed inverse
        assert cone_inverse(records["D1"].fan, (0, 3, 4)) == IntMatrix.from_rows([[1, 0, 0], [-1, 1, -2], [0, 1, -1]])

    def test_a_singular_or_non_square_cone_is_refused(self):
        fan = Fan.make(2, [(1, 0), (1, 2), (0, 1)], [(0, 1), (1, 2)])
        with pytest.raises(NotUnimodular, match="determinant is 2"):
            cone_inverse(fan, (0, 1))
        assert cone_inverse(fan, (1, 2)) == IntMatrix.from_rows([[1, -2], [0, 1]])   # rows (1, 2), (0, 1)
        with pytest.raises(NotUnimodular, match="not square"):
            cone_inverse(P3, (0, 1))


class TestOneSourceOfMinors:
    def test_no_minor_is_computed_by_elimination(self, records, monkeypatch):
        # validate_fan, cone_inverse, the vertex frames, the minor lcm and a Pic context on a stored basis read
        # every minor and cofactor from ray_minors: no elimination runs, and every call of the batched kernel is
        # one ray_minors request (the completeness certificate reads the table of the maximal cones)
        eliminations, computed, requests = [], [], []
        real_eliminate, real_kernel, real_minors = lattice._eliminate, fan_module._cross_products, ray_minors

        def request(*args, **kwargs):
            before = len(computed)
            result = real_minors(*args, **kwargs)
            requests.append(len(computed) - before)
            return result

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("toric_exc") and getattr(module, "_eliminate", None) is real_eliminate:
                monkeypatch.setattr(module, "_eliminate", lambda M, width: eliminations.append(width)
                                    or real_eliminate(M, width))
            if module_name.startswith("toric_exc") and getattr(module, "ray_minors", None) is real_minors:
                monkeypatch.setattr(module, "ray_minors", request)
        monkeypatch.setattr(fan_module, "_cross_products", lambda rows, top: computed.append(len(rows)) or real_kernel(rows, top))
        for table in (_completeness_problems, ray_coordinates, _vertex_frames):
            table.cache_clear()
        fans = [rec.fan for rec in records.values()] + seeded_blowups(records, (9, 13), seed=5)
        for fan in fans:
            assert validate_fan(fan).ok
            for cone in fan.max_cones:
                cone_inverse(fan, cone)
                build_pic_context(fan, tuple(i for i in range(fan.n_rays) if i not in cone))
            _vertex_frames(fan)
            _minor_lcm(fan)
        for rec in records.values():
            if rec.pic_basis is not None:
                build_pic_context(rec.fan, rec.pic_basis)
        assert not eliminations
        assert len(requests) > len(fans) and set(requests) == {1}
        assert len(computed) == len(requests)


class TestRayCoordinates:
    def test_smoothness_relations_and_the_frame_make_one_request(self, records, monkeypatch):
        # validate_fan, is_fano and the Thomsen line frame of a cold fan read one table: one ray_minors
        # request over its maximal cones, and no other (cone_inverse makes one too)
        requests = []

        def request(fan, subsets):
            requests.append(len(subsets))
            return ray_minors(fan, subsets)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("toric_exc") and getattr(module, "ray_minors", None) is ray_minors:
                monkeypatch.setattr(module, "ray_minors", request)
        for fan in [rec.fan for rec in records.values()] + seeded_blowups(records, (9, 12, 15), seed=32):
            for table in (ray_coordinates, _completeness_problems, primitive_collections, primitive_relations,
                          _line_frame):
                table.cache_clear()
            requests.clear()
            assert validate_fan(fan).ok and is_fano(fan) in (True, False) and _line_frame(fan)
            assert requests == [len(fan.max_cones)]

    def test_relations_do_not_depend_on_ray_labels_or_cone_order(self, records):
        # a relation's target is the least cone holding the ray sum, whichever maximal cone the table
        # lists first: relabelled rays, and shuffled cones with their rays shuffled (as Fan() keeps
        # them), give the same relations, the same Fano verdict and the same completeness certificate
        rng = random.Random(32)
        for fan in [rec.fan for rec in records.values()] + seeded_blowups(records, range(9, 16), seed=32):
            m = fan.n_rays
            label = rng.sample(range(m), m)   # ray i is ray label[i] of the relabelled fan
            rays = [fan.rays[label.index(i)] for i in range(m)]
            relabelled = Fan.make(fan.dim, rays, [[label[i] for i in cone] for cone in fan.max_cones])
            cones = [tuple(rng.sample(cone, len(cone))) for cone in fan.max_cones]
            reordered = Fan(fan.dim, fan.rays, tuple(rng.sample(cones, len(cones))))
            want = relation_set(fan, range(m))
            assert relation_set(relabelled, [label.index(i) for i in range(m)]) == want
            assert relation_set(reordered, range(m)) == want
            assert is_fano(relabelled) == is_fano(reordered) == is_fano(fan)
            assert is_complete(relabelled) and is_complete(reordered) and is_complete(fan)


def relation_set(fan, names):
    """The primitive relations as sets, ray i named names[i]."""
    return {(frozenset(names[i] for i in rel.collection), frozenset((names[t], c) for t, c in rel.target))
            for rel in primitive_relations(fan)}


class TestRayMinors:
    def test_arrays_equal_the_per_subset_dets_and_cofactors(self, records):
        rng = random.Random(28)
        sheared = Fan.make(3, sheared_p3_rays(10 ** 20), P3.max_cones)   # Python-integer arrays
        for fan in [rec.fan for rec in records.values()] + seeded_blowups(records, (9, 11, 13), seed=28) + [sheared]:
            subsets = list(combinations(range(fan.n_rays), 3))
            subsets += [tuple(rng.sample(S, 3)) for S in subsets[::3]]   # rows in the subset's own order
            dets, cofactors = ray_minors(fan, subsets)
            assert (dets.dtype == object) == (fan is sheared)
            for S, det, rows in zip(subsets, dets.tolist(), cofactors.tolist()):
                A = cone_matrix(fan, S)
                assert det == leibniz_determinant(A.entries), (fan.rays, S)
                expected = (IntMatrix.diagonal([abs(det)] * 3) if det
                            else IntMatrix.from_rows([[0] * 3] * 3))
                assert (A if det else expected) @ IntMatrix.from_rows(rows).transpose() == expected, (fan.rays, S)
                assert any(map(any, rows)) == bool(det)

    def test_minors_past_int64_are_exact(self):
        # rays with entries up to 2^21: every entry and cross product fits int64, but 3-minors pass 2^63
        rng = random.Random(21)
        fan = Fan.make(3, [[rng.choice((1, -1)) * rng.randint(2 ** 20, 2 ** 21) for _ in range(3)]
                           for _ in range(7)], [])
        subsets = list(combinations(range(7), 3))
        expected = [leibniz_determinant(cone_matrix(fan, S).entries) for S in subsets]
        assert max(map(abs, expected)) >= 2 ** 63
        dets = ray_minors(fan, subsets)[0]
        assert dets.dtype == object and dets.tolist() == expected

class TestOneHashPerFan:
    def test_equal_fans_share_every_table(self, records):
        for rec in records.values():
            text = format_fan_file(rec.fan)
            a, b = parse_fan_file(text), parse_fan_file(text)
            assert a is not b and a == b
            assert hash(a) == hash(b) == hash((a.dim, a.rays, a.max_cones))
            for table in (ray_coordinates, _completeness_problems, face_masks,
                          primitive_collections, primitive_relations, _patterns, _vertex_frames, _line_frame):
                assert table(a) is table(b), (rec.name, table.__name__)


class TestFaceMasks:
    def test_the_faces_are_the_subsets_of_the_maximal_cones(self, records):
        for fan in [P3] + [rec.fan for rec in records.values()] + seeded_blowups(records, (9, 13), seed=3):
            want = {sum(1 << i for i in s) for cone in fan.max_cones
                    for size in range(len(cone) + 1) for s in combinations(cone, size)}
            assert face_masks(fan) == want
            # a complete simplicial 3-fan: the empty face, m rays, 3m - 6 edges, 2m - 4 triangles
            assert len(face_masks(fan)) == 6 * fan.n_rays - 9
            assert is_face(fan, ()) and is_face(fan, fan.max_cones[0])
            assert not is_face(fan, range(fan.n_rays))


class TestPrimitiveCollections:
    def test_d1(self, d1):
        got = one_based(primitive_collections(d1.fan))
        assert got == {(3, 6), (4, 6), (3, 5), (1, 2, 4), (1, 2, 5)}

    def test_e1(self, e1):
        got = one_based(primitive_collections(e1.fan))
        assert got == {(2, 4), (3, 5), (1, 3), (2, 5), (1, 4), (6, 7)}

    def test_p3_single_collection(self):
        assert one_based(primitive_collections(P3)) == {(1, 2, 3, 4)}

    def test_minimality_by_enumeration(self, records):
        # listed sets are minimal non-faces, and every non-face contains one,
        # checked against the maximal cones directly rather than the face set
        for fan in [rec.fan for rec in records.values()] + seeded_blowups(records, (9, 10, 11), seed=5):
            collections = primitive_collections(fan)
            assert list(collections) == sorted(collections, key=lambda s: (len(s), s))
            for pc in collections:
                assert not spans_a_cone(fan, pc)
                assert all(spans_a_cone(fan, set(pc) - {i}) for i in pc)
            for size in range(fan.n_rays + 1):
                for s in combinations(range(fan.n_rays), size):
                    assert spans_a_cone(fan, s) or any(set(pc) <= set(s) for pc in collections), (fan.rays, s)


class TestPrimitiveRelations:
    def test_d1_relations(self, d1):
        rels = {tuple(i + 1 for i in r.collection): (tuple((t + 1, c) for t, c in r.target), r.degree)
                for r in primitive_relations(d1.fan)}
        assert rels[(3, 6)] == ((), 2)
        assert rels[(1, 2, 4)] == (((3, 2),), 1)
        assert rels[(1, 2, 5)] == (((3, 1),), 2)

    def test_e4_twist_relation(self, records):
        rels = {tuple(i + 1 for i in r.collection): tuple((t + 1, c) for t, c in r.target)
                for r in primitive_relations(records["E4"].fan)}
        assert rels[(6, 7)] == ((3, 1),)

    def test_relations_reevaluate_exactly(self, records):
        for rec in records.values():
            fan = rec.fan
            for rel in primitive_relations(fan):
                lhs = [sum(fan.rays[i][j] for i in rel.collection) for j in range(fan.dim)]
                rhs = [sum(c * fan.rays[t][j] for t, c in rel.target) for j in range(fan.dim)]
                assert lhs == rhs
                assert all(c > 0 for _, c in rel.target)

    def test_incomplete_fan_raises(self):
        # P^2 fan with one maximal cone removed: {v1, v3} spans no cone and
        # its ray sum (0, -1) escapes the remaining support
        open_fan = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
        with pytest.raises(InteriorCoverFailure):
            primitive_relations(open_fan)


class TestIsFano:
    def test_d1_and_p3_are_fano(self, d1):
        assert is_fano(d1.fan)
        assert is_fano(P3)

    def test_hirzebruch_f2_is_not(self):
        assert validate_fan(HIRZEBRUCH_F2).ok
        assert not is_fano(HIRZEBRUCH_F2)
        # the flat relation: v1 + v3 = 2 v2, degree 0
        rels = {tuple(r.collection): r.degree for r in primitive_relations(HIRZEBRUCH_F2)}
        assert rels[(0, 2)] == 0

    def test_catalog_all_fano(self, records):
        assert all(is_fano(rec.fan) for rec in records.values())


class TestDimension:
    def test_projective_spaces_up_to_eleven_validate_in_seconds(self):
        # every cross product comes from the batched kernel, polynomial in n; a cofactor expansion took over a
        # minute on P^9 alone
        _completeness_problems.cache_clear()
        ray_coordinates.cache_clear()
        start = time.perf_counter()
        for n in range(1, 12):
            fan = projective_space(n)
            assert validate_fan(fan).ok
            assert build_pic_context(fan).rank == 1
        assert time.perf_counter() - start < 2
