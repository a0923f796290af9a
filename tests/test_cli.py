"""Command line behavior: subcommands, exit codes, stable JSON."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_exc.catalog import format_fan_file, get_record, load_catalog
from toric_exc.cli import main
from toric_exc.exceptional import OrderedCollection, verify_strongly_exceptional
from toric_exc.fan import Fan
from toric_exc.picard import build_pic_context, class_to_divisor
from test_cohomology import star_subdivided_p3
from test_fan import projective_space, seeded_blowup
from test_frobenius import bondal_reference

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_under_two_hash_seeds(argv, cwd, expected_code):
    """The JSON stdout of one CLI run in a fresh interpreter under PYTHONHASHSEED 0, then 1."""
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "toric_exc.cli", "--format", "json", *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=600)
        assert proc.returncode == expected_code, proc.stderr
        outputs.append(proc.stdout)
    return outputs


class TestCatalogList:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        assert "D1" in out and "S3-bundle" in out
        assert len([ln for ln in out.splitlines() if ln.strip()]) == 19  # header + 18 rows

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "catalog", "list")
        payload = json.loads(out)
        assert len(payload["results"]["catalog"]) == 18


class TestThomsen:
    def test_d2_lists_eight_classes(self, capsys):
        code, out, _ = run_cli(capsys, "thomsen", "--variety", "D2")
        assert code == 0
        assert "8 distinct summand classes" in out

    def test_e1_emits_warning(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "thomsen", "--variety", "E1")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["results"]["summands"]) == 10
        assert any("omits" in w for w in payload["warnings"])

    def test_primes_that_miss_a_class_of_p3_are_warned_about(self, capsys):
        # P^3 has four Bondal-Thomsen classes; p = 2 and p = 3 each find three, and agree
        code, out, _ = run_cli(capsys, "--format", "json", "thomsen", "--variety", "P3",
                               "--prime", "2", "--prime", "3")
        payload = json.loads(out)
        assert code == 0 and payload["results"]["stabilized"] is True
        assert len(payload["results"]["summands"]) == 3
        assert payload["warnings"] == ["primes 2 and 3 agree on 3 summand classes, "
                                       "but the exact Bondal-Thomsen set has 4"]

    def test_odd_primes_that_miss_a_class_of_a_blowup_are_warned_about(self, capsys, tmp_path):
        path = tmp_path / "blowup.fan"
        path.write_text(format_fan_file(seeded_blowup(get_record("E2").fan, 10, 9)))
        code, out, _ = run_cli(capsys, "--format", "json", "thomsen", "--fan-file", str(path))
        payload = json.loads(out)
        assert code == 0 and len(payload["results"]["summands"]) == 29
        assert payload["warnings"] == ["primes 31 and 37 agree on 29 summand classes, "
                                       "but the exact Bondal-Thomsen set has 30"]

    def test_a_twist_is_not_compared_with_the_summands_of_o(self, capsys):
        # the 14 summand classes of -K on D1 are not the 9 of O, and that is no warning
        code, out, _ = run_cli(capsys, "--format", "json", "thomsen", "--variety", "D1",
                               "--divisor", "1 1 1 1 1 1")
        payload = json.loads(out)
        assert code == 0 and len(payload["results"]["summands"]) == 14 and payload["warnings"] == []

    def test_tiny_primes_fail_with_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "thomsen", "--variety", "D1",
                               "--prime", "2", "--prime", "31")
        assert code == 1
        assert "did NOT stabilize" in out

    def test_prime_below_two_is_usage_error(self, capsys):
        for bad in ("1", "0", "-3"):
            code, out, err = run_cli(capsys, "thomsen", "--variety", "D1",
                                     "--prime", bad, "--prime", "2")
            assert code == 2 and out == ""
            assert "--prime must be at least 2" in err

    def test_repeated_prime_is_usage_error(self, capsys):
        # one prime given twice certifies nothing about stabilization
        code, out, err = run_cli(capsys, "thomsen", "--variety", "D1",
                                 "--prime", "31", "--prime", "31")
        assert code == 2 and out == ""
        assert "two distinct primes" in err

    def test_unknown_variety_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "thomsen", "--variety", "Q9")
        assert code == 2
        assert "unknown variety" in err


    def test_too_many_residues_to_enumerate_is_refused(self, capsys):
        # 10^18 residue vectors: refused before anything is allocated, with
        # exit 2 as for BoxTooLarge, not a numpy memory error
        code, out, err = run_cli(capsys, "thomsen", "--variety", "D1",
                                 "--prime", "1000003", "--prime", "1000033")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: too large to search: 1000003^3 residues")

class TestCohomology:
    def test_structure_sheaf(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "--variety", "D1", "--class", "0 0 0")
        assert code == 0
        assert "[1, 0, 0, 0]" in out

    def test_wrong_length_class_vector(self, capsys):
        code, _, err = run_cli(capsys, "cohomology", "--variety", "D1", "--class", "1 2")
        assert code == 2

    def test_box_below_one_is_usage_error(self, capsys):
        for box in ("0", "-1"):
            code, out, err = run_cli(capsys, "cohomology", "--variety", "D1",
                                     "--class", "0 0 0", "--box", box)
            assert code == 2 and out == ""
            assert "--box must be at least 1" in err

    def test_class_past_the_radius_limit_is_usage_error(self, capsys):
        # rejected before any (2r+1)^3 box is built: 10^20 used to overflow,
        # entries in the thousands used to allocate without bound
        for cls in ("100000000000000000000 0 0", "0 -3000 0"):
            code, out, err = run_cli(capsys, "cohomology", "--variety", "D1", "--class", cls)
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and "too large to search" in err


    def test_a_box_radius_changes_no_dimension(self, capsys):
        # radius 1 and radius 3 both see no character, yet h^1 = 49 further out
        dims = []
        for box in ([], ["--box", "1"]):
            code, out, _ = run_cli(capsys, "--format", "json", "cohomology", "--variety", "B2",
                                   "--class", "-7 4", *box)
            results = json.loads(out)["results"]
            assert code == 0 and results["acyclic"] is False
            dims.append(results["dims"])
        assert dims == [[0, 49, 0, 0]] * 2

    def test_a_box_past_the_radius_limit_is_usage_error(self, capsys):
        # the class starts at radius 32, but its certified box reaches 59
        code, out, err = run_cli(capsys, "cohomology", "--variety", "D1", "--class", "0 30 0")
        assert code == 2 and out == ""
        assert "too large to search" in err and "radius 59" in err

    def test_a_box_of_too_many_characters_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # O(38) on P^5 and P^6: radius 38, but 39^5 and 39^6 characters, refused before any is built
        from toric_exc import cohomology
        for n in (5, 6):   # the vertex frames use product too; build them first
            cohomology._vertex_frames(projective_space(n))
        built = []
        monkeypatch.setattr(cohomology, "product", lambda *ranges: built.append(ranges) or iter(()))
        for n in (5, 6):
            path = tmp_path / f"p{n}.fan"
            path.write_text(format_fan_file(projective_space(n)))
            code, out, err = run_cli(capsys, "cohomology", "--fan-file", str(path), "--class", "38")
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: too large to search")
            assert f"holds {39 ** n} characters" in err
        assert built == []

    def test_a_fan_with_rays_past_int64_ends_without_a_traceback(self, capsys, tmp_path):
        # P^3 sheared by x -> x + 10^20 y: its box for O is the single character 0, and the rays
        # past int64 used to overflow when the box was enumerated
        shear = 10 ** 20
        rays = [(1, 0, 0), (shear, 1, 0), (0, 0, 1), (-1 - shear, -1, -1)]
        fan_path, collection_path = tmp_path / "sheared.fan", tmp_path / "collection.txt"
        fan_path.write_text(format_fan_file(Fan.make(3, rays, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])))
        collection_path.write_text("0\n1\n")
        code, out, err = run_cli(capsys, "--format", "json", "cohomology", "--fan-file", str(fan_path), "--class", "0")
        assert code == 0 and err == "" and json.loads(out)["results"]["dims"] == [1, 0, 0, 0]
        code, out, err = run_cli(capsys, "--format", "json", "verify", "--fan-file", str(fan_path),
                                 "--collection", str(collection_path))
        assert code == 1 and err == ""
        # {O, O(1)} is strongly exceptional and not full, as on the unsheared P^3
        results = json.loads(out)["results"]
        assert results["strongly_exceptional"] and not results["fullness_certified"]
        assert results["certificate"] == "NotCertified(O(2Z4), O(3Z4))"
        plain_path = tmp_path / "p3.fan"
        plain_path.write_text(format_fan_file(projective_space(3)))
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "--fan-file", str(plain_path),
                               "--collection", str(collection_path))
        assert code == 1 and json.loads(out)["results"] == results

    def test_a_vertex_pass_too_large_for_memory_is_usage_error(self, capsys, tmp_path):
        # 60 rays: C(60, 3) * 8 * 60 = 16,425,600 gap entries for one divisor, refused before any is built
        path = tmp_path / "p3_60.fan"
        path.write_text(format_fan_file(star_subdivided_p3(60)))
        code, out, err = run_cli(capsys, "cohomology", "--fan-file", str(path), "--class", " ".join(["0"] * 57))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: too large to search")
        assert "16425600 gap entries" in err


class TestForbidden:
    def test_d1_eleven_sets(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "forbidden", "--variety", "D1")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["results"]["forbidden_sets"]) == 11

    def test_fan_file_input(self, capsys, tmp_path):
        from toric_exc.catalog import format_fan_file, get_record
        path = tmp_path / "d1.fan"
        path.write_text(format_fan_file(get_record("D1").fan))
        code, out, _ = run_cli(capsys, "--format", "json", "forbidden", "--fan-file", str(path))
        payload = json.loads(out)
        assert code == 0
        assert len(payload["results"]["forbidden_sets"]) == 11

    def test_invalid_fan_file(self, capsys, tmp_path):
        path = tmp_path / "bad.fan"
        path.write_text("dim 3\nrays\n1 0 0\ncones\n0\n")
        code, _, err = run_cli(capsys, "forbidden", "--fan-file", str(path))
        assert code == 2

    @pytest.mark.parametrize("header, line", [("dim 2\ndim 3\n", "line 2"), ("dimension 3\n", "line 1")])
    def test_the_dim_line_is_the_exact_keyword_once(self, capsys, tmp_path, header, line):
        # P3 under a repeated dim line, or under a longer keyword, used to parse as 3-dimensional
        path = tmp_path / "p3.fan"
        path.write_text(header + format_fan_file(projective_space(3)).split("\n", 1)[1])
        code, out, err = run_cli(capsys, "forbidden", "--fan-file", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read fan file: {line}: ")

    @pytest.mark.parametrize("text, message", [
        ("dim 3\nrays\n1 0 0\n1 0 a\ncones\n0 1\n", "line 4: 'a' is not an integer"),
        ("dim -1\nrays\n1 0 0\ncones\n0\n", "line 1: dimension -1 is below 1"),
    ])
    def test_a_bad_number_names_its_line(self, capsys, tmp_path, text, message):
        # a non-integer token used to exit with the bare int() message, and dim -1 to reach validation
        path = tmp_path / "bad.fan"
        path.write_text(text)
        code, out, err = run_cli(capsys, "forbidden", "--fan-file", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read fan file: {message}")

    def test_too_many_rays_to_sweep_is_refused(self, capsys, tmp_path):
        # a refusal to search, not a failed check: exit 2, as for BoxTooLarge
        path = tmp_path / "p3_21.fan"
        path.write_text(format_fan_file(star_subdivided_p3(21)))
        code, out, err = run_cli(capsys, "forbidden", "--fan-file", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: too large to search: 21 rays")

    def test_projective_nine_space(self, capsys, tmp_path):
        # its fan file used to take minutes to validate, one cofactor expansion per facet
        path = tmp_path / "p9.fan"
        path.write_text(format_fan_file(projective_space(9)))
        code, out, _ = run_cli(capsys, "--format", "json", "forbidden", "--fan-file", str(path))
        assert code == 0
        assert json.loads(out)["results"]["forbidden_sets"] == [{"rays": [], "homology_ranks": [1] + [0] * 9}]


class TestVerify:
    def test_d1_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--variety", "D1")
        assert code == 0
        assert "strongly exceptional: yes" in out
        assert "KoszulReduction" in out

    def test_variety_without_collection_needs_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--variety", "P3")
        assert code == 2
        assert "--collection" in err

    def test_explicit_collection_file(self, capsys, tmp_path):
        path = tmp_path / "coll.txt"
        path.write_text("# a failing two-term collection\n1 2 2\n0 0 0\n")
        code, out, _ = run_cli(capsys, "verify", "--variety", "D1", "--collection", str(path))
        assert code == 1
        assert "strongly exceptional: NO" in out

    def test_a_collection_file_that_is_not_utf8_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "coll.txt"
        path.write_bytes(b"\xff\xfe\x00bad\n")
        code, out, err = run_cli(capsys, "verify", "--variety", "D1", "--collection", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read collection file")

    def test_a_repeated_class_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "coll.txt"
        path.write_text("0 0 0\n0 0 0\n")
        code, out, err = run_cli(capsys, "verify", "--variety", "D1", "--collection", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "distinct" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "--variety", "E4")
        payload = json.loads(out)
        assert code == 0
        assert payload["results"]["strongly_exceptional"] is True
        assert json.loads(json.dumps(payload)) == payload


    def test_a_difference_past_the_radius_limit_is_answered(self, capsys, tmp_path, monkeypatch):
        # the boxes of O(30Z5) and O(-30Z5) reach radius 59, past the limit a single query keeps, but
        # integral vertices witness both verdicts: each is not acyclic, and O(-30Z5) has no section
        path = tmp_path / "coll.txt"
        path.write_text("0 0 0\n0 30 0\n")
        code, out, err = run_cli(capsys, "--format", "json", "verify", "--variety", "D1", "--collection", str(path))
        pairwise = json.loads(out)["results"]["pairwise"]
        assert code == 1 and err == ""
        assert pairwise == {"acyclic": [[True, False], [False, True]], "backward_sections": [[None, None], [False, None]]}
        ctx = build_pic_context(get_record("D1").fan, get_record("D1").pic_basis)
        report = verify_strongly_exceptional(ctx, OrderedCollection(((0, 0, 0), (0, 30, 0))))
        assert report.acyclic == ((True, False), (False, True)) and not report.strongly_exceptional
        # the tables, enumerated with the radius limit raised to 60, agree
        from toric_exc import cohomology
        monkeypatch.setattr(cohomology, "_RADIUS_LIMIT", 60)
        try:
            dims = [cohomology.cohomology_table(ctx, class_to_divisor(ctx, cls), escalate=True).dims
                    for cls in ((0, 30, 0), (0, -30, 0))]
        finally:
            cohomology._point_list.cache_clear()   # the lists built past the real limit
        assert dims == [(1, 13920, 0, 0), (0, 0, 13021, 0)]

    def run_fan_file(self, capsys, tmp_path, fan, collection):
        fan_path, collection_path = tmp_path / "blowup.fan", tmp_path / "collection.txt"
        fan_path.write_text(format_fan_file(fan))
        collection_path.write_text(collection)
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "--fan-file", str(fan_path),
                               "--collection", str(collection_path))
        return code, json.loads(out)

    def test_the_summands_odd_primes_miss_are_listed(self, capsys, tmp_path):
        # p = 31 and p = 37 agree on 29 of this fan's 30 Bondal-Thomsen classes
        fan = seeded_blowup(get_record("E2").fan, 10, 9)
        code, payload = self.run_fan_file(capsys, tmp_path, fan, "0 0 0 0 0 0 0\n")
        assert code == 1 and payload["warnings"] == []
        summands = [tuple(s["coords"]) for s in payload["results"]["summands"]]
        assert len(summands) == 30 and (0, 0, 1, 0, 1, -1, 1) in summands

    def test_a_grid_past_the_limit_keeps_the_two_prime_set(self, capsys, tmp_path):
        # L = 60: the exact grid would hold 91 * 60^3 points.  The digest of `results` was
        # recorded while every summand set came from the primes 31 and 37.
        fan = seeded_blowup(get_record("P3").fan, 9, 14)
        code, payload = self.run_fan_file(capsys, tmp_path, fan, "0 0 0 0 0 0\n1 0 0 0 0 0\n")
        assert code == 1
        digest = hashlib.sha256(json.dumps(payload["results"], sort_keys=True).encode()).hexdigest()
        assert digest == "23352aea22cb819524445b71a826fed42849bf11efba6cbe68efa255eed5614a"
        assert len(payload["warnings"]) == 1 and "not certified complete" in payload["warnings"][0]

    def test_the_theorem_path_calls_no_decompose(self, monkeypatch):
        from toric_exc import cli, frobenius

        def refuse(*args):
            raise AssertionError("decompose called")

        monkeypatch.setattr(frobenius, "decompose", refuse)
        record = get_record("D1")
        ctx = build_pic_context(record.fan, record.pic_basis)
        warnings = []
        results = cli._verify_one(ctx, cli._stored_collection(record, ctx), warnings)
        assert results["fullness_certified"] and len(results["summands"]) == 9 and warnings == []


class TestProveMainTheorem:
    def test_all_pass_and_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "--format", "json", "prove-main-theorem")
        assert code1 == 0
        payload = json.loads(out1)
        assert payload["results"]["all_pass"] is True
        assert set(payload["results"]["varieties"]) == {"D1", "D2", "E1", "E2", "E4"}
        # byte-identical on rerun
        code2, out2, _ = run_cli(capsys, "--format", "json", "prove-main-theorem")
        assert code2 == 0 and out2 == out1

    def test_json_does_not_depend_on_the_hash_seed(self):
        # sets and dicts keyed by masks, supports or classes must not leak
        # their iteration order into the report
        first, second = json_under_two_hash_seeds(["prove-main-theorem"], ROOT, 0)
        assert json.loads(first)["results"]["all_pass"] is True
        assert first == second

    @pytest.mark.parametrize("command", ["verify-blowup", "thomsen-p3"])
    def test_verify_and_thomsen_do_not_depend_on_the_hash_seed(self, tmp_path, command):
        if command == "thomsen-p3":
            first, second = json_under_two_hash_seeds(["thomsen", "--variety", "P3", "--prime", "2", "--prime", "3"],
                                                      tmp_path, 0)
        else:   # the 30 Bondal-Thomsen classes of a blow-up of E2, as one collection
            fan = seeded_blowup(get_record("E2").fan, 10, 9)
            (tmp_path / "blowup.fan").write_text(format_fan_file(fan))
            (tmp_path / "collection.txt").write_text(
                "".join(" ".join(map(str, c)) + "\n" for c in sorted(bondal_reference(build_pic_context(fan)))))
            first, second = json_under_two_hash_seeds(
                ["verify", "--fan-file", "blowup.fan", "--collection", "collection.txt"], tmp_path, 1)
        assert json.loads(first)["warnings"] == ([] if command == "verify-blowup" else
                                                 ["primes 2 and 3 agree on 3 summand classes, "
                                                  "but the exact Bondal-Thomsen set has 4"])
        assert first == second

    def test_text_mode_prints_pass_lines(self, capsys):
        code, out, _ = run_cli(capsys, "prove-main-theorem")
        assert code == 0
        for name in ("D1", "D2", "E1", "E2", "E4"):
            assert f"{name}: PASS" in out


class TestOneVerifyPath:
    def test_theorem_entries_are_the_verify_results(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "prove-main-theorem")
        assert code == 0
        theorem = json.loads(out)["results"]["varieties"]
        type_iv = {r.name for r in load_catalog() if r.type_class == "IV"}
        assert set(theorem) == type_iv
        for name in sorted(type_iv):
            code, out, _ = run_cli(capsys, "--format", "json", "verify", "--variety", name)
            assert code == 0
            entry = {k: v for k, v in theorem[name].items() if k not in ("summands_match_expected", "pass")}
            assert json.loads(out)["results"] == entry, name


def mutated_fan_file(data, records):
    """A catalog fan file with one mutation drawn from data, the record it came from, and the mutation."""
    rec = records[data.draw(st.sampled_from(sorted(records)), label="fan")]
    rays, cones = [list(ray) for ray in rec.fan.rays], [list(cone) for cone in rec.fan.max_cones]
    dim, m = rec.fan.dim, len(rays)
    kind = data.draw(st.sampled_from(["shear", "entry", "duplicate", "zero", "drop", "repeat", "index", "dim"]),
                     label="mutation")
    if kind == "shear":
        N = data.draw(st.sampled_from([3, 10 ** 5, 10 ** 20]), label="N")
        rays = [[ray[0] + N * ray[1], *ray[1:]] for ray in rays]
    elif kind == "entry":
        i, k = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, dim - 1))
        rays[i][k] = data.draw(st.sampled_from([2 ** 63, -2 ** 63]))
    elif kind in ("duplicate", "zero"):
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        rays[i] = list(rays[j]) if kind == "duplicate" and i != j else [0] * dim
    elif kind == "drop":
        del cones[data.draw(st.integers(0, len(cones) - 1))]
    elif kind == "repeat":
        cones.append(cones[data.draw(st.integers(0, len(cones) - 1))])
    elif kind == "index":
        cone = cones[data.draw(st.integers(0, len(cones) - 1))]
        cone[data.draw(st.integers(0, dim - 1))] = data.draw(st.sampled_from([m, m + 7, -1]))
    else:
        dim = data.draw(st.sampled_from([2, 4]))
    text = "\n".join([f"dim {dim}", "rays", *(" ".join(map(str, r)) for r in rays),
                      "cones", *(" ".join(map(str, c)) for c in cones)]) + "\n"
    return text, rec, kind


class TestFanFileFuzz:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_a_mutated_fan_file_ends_in_an_exit_code(self, records, data):
        # a shear keeps the fan valid with coordinates up to 10^20 (the
        # divide rows and the class map do not change), so on a shear
        # thomsen also takes a divisor with one entry of +-2^63, whose
        # summand classes decode in Python integers; the other mutations
        # break the file or, mostly, the fan
        text, rec, kind = mutated_fan_file(data, records)
        zero = " ".join(["0"] * (rec.fan.n_rays - rec.fan.dim))
        runs = [["forbidden"], ["cohomology", "--class", zero], ["thomsen", "--prime", "2", "--prime", "3"]]
        if kind == "shear":
            divisor = [0] * rec.fan.n_rays
            divisor[data.draw(st.integers(0, len(divisor) - 1), label="entry")] = data.draw(
                st.sampled_from([2 ** 63, -2 ** 63]), label="value")
            runs.append(["thomsen", "--prime", "2", "--prime", "3", "--divisor", " ".join(map(str, divisor))])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.fan"
            path.write_text(text)
            for argv in runs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([argv[0], "--fan-file", str(path), *argv[1:]])
                assert code in (0, 1, 2), (argv, text)
                if code == 2:
                    assert any(line.startswith("error: ") for line in err.getvalue().splitlines()), (argv, text)
