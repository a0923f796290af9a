"""Catalog data integrity and the fan interchange format."""

import ast
import dataclasses
from itertools import combinations
from pathlib import Path

import pytest

import toric_exc
from conftest import zvec
from toric_exc import catalog
from toric_exc.catalog import (catalog_names, format_fan_file, get_record, load_catalog,
                               parse_fan_file, validate_catalog)
from toric_exc.fan import Fan, cone_matrix, is_fano, validate_fan
from toric_exc.frobenius import stable_summands
from toric_exc.lattice import IntMatrix, determinant
from toric_exc.picard import to_class


class TestRecords:
    def test_eighteen_varieties(self):
        assert len(load_catalog()) == 18
        assert len(set(catalog_names())) == 18

    def test_validate_catalog_all_clean(self):
        problems = validate_catalog()
        assert all(not issues for issues in problems.values()), problems

    def test_a_bad_pic_basis_is_reported_as_bad_data(self, monkeypatch, d1):
        # the first ray triple that is not a lattice basis: its complement's classes do not generate Pic
        rays = d1.fan.rays
        triple = next(t for t in combinations(range(6), 3)
                      if abs(determinant(IntMatrix.from_rows(rays[i] for i in t))) != 1)
        basis = tuple(i for i in range(6) if i not in triple)
        monkeypatch.setattr(catalog, "load_catalog", lambda: (dataclasses.replace(d1, pic_basis=basis),))
        issues = validate_catalog()["D1"]
        assert len(issues) == 1 and issues[0].startswith("pic basis invalid: classes of rays")

    def test_no_module_catches_every_exception(self):
        # a handler for Exception, BaseException or everything would report a bug in the program as bad data
        for path in sorted(Path(toric_exc.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ExceptHandler):
                    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    names = {getattr(t, "id", None) for t in caught}
                    assert node.type is not None and not names & {"Exception", "BaseException"}, \
                        f"{path.name}:{node.lineno}"

    def test_structural_identities(self, records):
        for rec in records.values():
            assert rec.rho == rec.upsilon - 3
            assert rec.k0 == 2 * rec.upsilon - 4
            assert rec.k0 == len(rec.fan.max_cones)
            assert rec.upsilon == rec.fan.n_rays
            assert is_fano(rec.fan)
            assert validate_fan(rec.fan).ok

    def test_d1_printed_rays(self, d1):
        assert d1.fan.rays[3] == (-1, -1, 2)
        assert d1.fan.rays[4] == (-1, -1, 1)
        assert d1.fan.rays[5] == (0, 0, -1)

    def test_d1_cone_matrices_match_print(self, d1):
        # the three named cones {v1,v2,v3}, {v1,v2,v6}, {v1,v4,v5}
        fan = d1.fan
        a1 = cone_matrix(fan, (0, 1, 2))
        a2 = cone_matrix(fan, (0, 1, 5))
        a3 = cone_matrix(fan, (0, 3, 4))
        assert a1 == IntMatrix.identity(3)
        assert a2 == IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        assert a3 == IntMatrix.from_rows([[1, 0, 0], [-1, -1, 2], [-1, -1, 1]])

    def test_type_table(self, records):
        by_type = {}
        for rec in records.values():
            by_type.setdefault(rec.type_class, []).append(rec.name)
        assert sorted(by_type["I"]) == ["P3"]
        assert sorted(by_type["II"]) == ["B1", "B2", "B3", "B4", "C1", "C2"]
        assert sorted(by_type["III"]) == ["C3", "C4", "C5", "E3", "F1"]
        assert sorted(by_type["IV"]) == ["D1", "D2", "E1", "E2", "E4"]
        assert sorted(by_type["V"]) == ["F2"]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_record("Q7")

    def test_corrupted_ray_detected(self, d1):
        rays = list(d1.fan.rays)
        rays[3] = tuple(-x for x in rays[3])
        broken = Fan.make(3, rays, d1.fan.max_cones)
        bad = validate_fan(broken)
        assert not bad.ok or not is_fano(broken)

    def test_stable_summands_match_recorded_lists(self, records, contexts):
        for name in ("D1", "D2", "E1", "E2", "E4"):
            rec, ctx = records[name], contexts[name]
            expected = {to_class(ctx, d) for d in rec.expected_summands}
            got = set(stable_summands(rec.fan, ctx, (0,) * rec.fan.n_rays))
            assert got == expected, name

    def test_e1_carries_discrepancy_note(self, e1, e1_ctx):
        assert any("omits" in note for note in e1.notes)
        missing = to_class(e1_ctx, zvec(7, z1=1, z5=1, z7=1))
        assert missing in {to_class(e1_ctx, d) for d in e1.expected_summands}


class TestFanFileFormat:
    def test_round_trip_all_records(self, records):
        for rec in records.values():
            text = format_fan_file(rec.fan)
            parsed = parse_fan_file(text)
            assert parsed == rec.fan
            assert format_fan_file(parsed) == text

    def test_comments_and_blank_lines_ignored(self):
        text = """
# a comment
dim 2

rays
1 0
0 1
-1 -1
cones
# facets below
0 1
1 2
0 2
"""
        fan = parse_fan_file(text)
        assert fan.dim == 2 and fan.n_rays == 3 and len(fan.max_cones) == 3

    def test_malformed_inputs_raise(self):
        with pytest.raises(ValueError):
            parse_fan_file("rays\n1 0\n")           # missing dim
        with pytest.raises(ValueError):
            parse_fan_file("dim 2\n1 0\n")          # data before any section
        with pytest.raises(ValueError):
            parse_fan_file("dim 2\nrays\n1 0\n0 1\n")  # no cones
