"""End-to-end acceptance criteria.

Each test prints one criterion line; run with `pytest -s tests/test_acceptance.py`
(or read the -v test ids) to see them.  Expected class sets are frozen here
in the per-variety Picard bases: (Z4, Z5, Z6) for D1/D2 and (Z1, Z4, Z5, Z7)
for E1/E2/E4.
"""

import itertools
import json
import random
import time
from collections import Counter

from toric_exc.cli import main as cli_main
from toric_exc.cohomology import (cohomology_table, forbidden_sets,
                                  has_nonzero_global_sections, is_acyclic, vanishing_verdicts)
from toric_exc.exceptional import (KoszulCertified, OrderedCollection,
                                   SummandSetMatchesK0Rank, fullness_certificate,
                                   koszul_reduction_certificate, verify_strongly_exceptional)
from toric_exc.frobenius import bondal_summands, decompose, first_chern_sum, stable_summands
from toric_exc.picard import anticanonical_divisor, canonical_divisor, class_to_divisor, to_class

D1_EXPECTED = {(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 0, 1), (0, 1, 1),
               (1, 1, 1), (1, 2, 1), (2, 2, 1), (-1, 0, 1)}
D2_EXPECTED = D1_EXPECTED - {(-1, 0, 1)}
E1_PRINTED_NINE = {(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0),
                   (0, 1, 1, 1), (1, 0, 1, 2), (1, 1, 1, 1), (1, 1, 1, 2)}
E1_EXPECTED = E1_PRINTED_NINE | {(1, 0, 1, 1)}
E24_EXPECTED = {(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1),
                (0, 1, 1, 0), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0), (1, 1, 1, 1)}

D_FORBIDDEN_PRINTED = {(), (3, 6), (4, 6), (3, 5), (1, 2, 5), (1, 2, 4), (1, 2, 4, 5),
                       (1, 2, 3, 5), (1, 2, 4, 6), (3, 5, 6), (3, 4, 6)}
# the printed E list, after removing its duplicated entry {1,3,5,6,7}
E_FORBIDDEN_PRINTED = {(), (2, 4), (3, 5), (1, 3), (2, 5), (1, 4), (6, 7),
                       (2, 4, 5), (1, 2, 4), (1, 3, 5), (2, 3, 5), (1, 3, 4),
                       (1, 3, 6, 7), (3, 5, 6, 7), (2, 4, 6, 7), (1, 4, 6, 7), (2, 5, 6, 7),
                       (1, 3, 5, 6, 7), (2, 4, 5, 6, 7), (1, 2, 4, 6, 7), (1, 3, 4, 6, 7),
                       (2, 3, 5, 6, 7), (1, 2, 3, 4, 5)}


def report(line):
    print(line)


class TestAcceptance:
    def test_criterion_1_thomsen_summand_sets(self, records, contexts):
        expected = {"D1": D1_EXPECTED, "D2": D2_EXPECTED, "E1": E1_EXPECTED,
                    "E2": E24_EXPECTED, "E4": E24_EXPECTED}
        for name, want in expected.items():
            rec, ctx = records[name], contexts[name]
            t0 = time.monotonic()
            got = set(stable_summands(rec.fan, ctx, (0,) * rec.fan.n_rays, (31, 37)))
            elapsed = time.monotonic() - t0
            assert got == want, name
            assert elapsed < 5.0, (name, elapsed)
        # E1: exactly one extra class beyond the nine in print, and the
        # discrepancy warning reaches the emitted report
        assert E1_EXPECTED - E1_PRINTED_NINE == {(1, 0, 1, 1)}
        assert any("omits" in note for note in records["E1"].notes)
        import io
        from contextlib import redirect_stdout
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert cli_main(["--format", "json", "thomsen", "--variety", "E1"]) == 0
        payload = json.loads(buffer.getvalue())
        assert any("omits" in w for w in payload["warnings"])
        report("criterion 1 PASS: Thomsen summand sets match for D1, D2, E1(+warning), E2, E4")

    def test_criterion_2_c1_conservation(self, records, contexts):
        for name, rec in records.items():
            ctx = contexts[name]
            minus_k = to_class(ctx, anticanonical_divisor(rec.fan))
            for p in (3, 5, 7):
                dec = decompose(rec.fan, ctx, (0,) * rec.fan.n_rays, p)
                factor = p ** 2 * (p - 1) // 2
                assert first_chern_sum(dec) == tuple(factor * k for k in minus_k), (name, p)
        report("criterion 2 PASS: c1 conservation exact at p in {3,5,7} on all 18 fans")

    def test_criterion_3_forbidden_sets(self, records):
        for name in ("D1", "D2"):
            got = {tuple(i + 1 for i in s) for s in forbidden_sets(records[name].fan).forbidden}
            assert got == D_FORBIDDEN_PRINTED, (name, got ^ D_FORBIDDEN_PRINTED)
        for name in ("E1", "E2", "E4"):
            got = {tuple(i + 1 for i in s) for s in forbidden_sets(records[name].fan).forbidden}
            difference = got ^ E_FORBIDDEN_PRINTED
            assert not difference, f"{name}: symmetric difference {sorted(difference)}"
        report("criterion 3 PASS: forbidden sets match the printed lists (E list deduplicated)")

    def test_criterion_4_main_theorems(self, records, contexts):
        t0 = time.monotonic()
        for name in ("D1", "D2", "E1", "E2", "E4"):
            rec, ctx = records[name], contexts[name]
            coll = OrderedCollection(tuple(to_class(ctx, d) for d in rec.collection))
            se = verify_strongly_exceptional(ctx, coll)
            assert se.strongly_exceptional, name
            cert = fullness_certificate(ctx, coll, bondal_summands(ctx))
            assert isinstance(cert, (SummandSetMatchesK0Rank, KoszulCertified)), name
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, elapsed
        report(f"criterion 4 PASS: all five sequences strongly exceptional and full ({elapsed:.1f}s)")

    def test_criterion_5_koszul_certificate(self, d1_ctx, records, contexts):
        rec = records["D1"]
        coll = OrderedCollection(tuple(to_class(d1_ctx, d) for d in rec.collection))
        cert = koszul_reduction_certificate(d1_ctx, coll, (-1, 0, 1), (0, 1, 3))
        assert dict(cert.terms[1]) == {(0, 1, 1): 2, (0, 0, 1): 1}
        assert dict(cert.terms[2]) == {(1, 1, 1): 2, (1, 2, 1): 1}
        assert dict(cert.terms[3]) == {(2, 2, 1): 1}
        report("criterion 5 PASS: D1 Koszul resolution terms and multiplicities reproduced")

    def test_criterion_6_oracle_cross_validation(self, records, contexts):
        t0 = time.monotonic()
        disagreements = 0
        checked = 0
        for name, rec in records.items():
            ctx = contexts[name]
            divisors = [class_to_divisor(ctx, cls) for cls in itertools.product(range(-2, 3), repeat=ctx.rank)]
            # the criterion twice: read from each class's enumerated list (which checks the rank
            # bookkeeping against the table's), and from one vertex pass over the fan's classes
            batch = vanishing_verdicts(ctx, divisors)
            for D, (acyclic, sections) in zip(divisors, batch):
                table = cohomology_table(ctx, D, escalate=True)
                if is_acyclic(ctx, D, escalate=True) != table.is_acyclic:
                    disagreements += 1
                if has_nonzero_global_sections(ctx, D, escalate=True) != (table.dims[0] > 0):
                    disagreements += 1
                if (acyclic, sections) != (table.is_acyclic, table.dims[0] > 0):
                    disagreements += 1
                checked += 1
        elapsed = time.monotonic() - t0
        assert disagreements == 0
        assert elapsed < 600.0, elapsed
        report(f"criterion 6 PASS: criterion = oracle on {checked} classes across 18 fans,"
               f" 0 disagreements ({elapsed:.0f}s)")

    def test_criterion_7_serre_duality(self, records, contexts):
        rng = random.Random(20100614)
        for name, rec in records.items():
            ctx = contexts[name]
            K = canonical_divisor(rec.fan)
            for _ in range(50):
                D = tuple(rng.randint(-2, 2) for _ in range(rec.fan.n_rays))
                KD = tuple(k - d for k, d in zip(K, D))
                h = cohomology_table(ctx, D, escalate=True).dims
                hk = cohomology_table(ctx, KD, escalate=True).dims
                assert h == tuple(reversed(hk)), (name, D)
        report("criterion 7 PASS: h^p(D) = h^(3-p)(K-D) for 50 random D per fan")

    def test_criterion_8_structural_identities(self, records, capsys):
        from toric_exc.fan import is_fano, validate_fan
        for rec in records.values():
            assert rec.rho == rec.upsilon - 3
            assert rec.k0 == 2 * rec.upsilon - 4 == len(rec.fan.max_cones)
            assert is_fano(rec.fan)
            v = validate_fan(rec.fan)
            assert v.smooth and v.complete and v.ok
        code = cli_main(["--format", "json", "catalog", "list"])
        out = capsys.readouterr().out
        assert code == 0
        table = json.loads(out)["results"]["catalog"]
        assert len(table) == 18
        assert {row["variety"] for row in table} == set(records)
        report("criterion 8 PASS: classification identities hold; catalog list reproduces the table")

    def test_criterion_9_golden_case_analyses(self, records, contexts):
        # decompose itself, against the multiset of classes the hand tables give
        from test_frobenius import d1_case_divisor, e1_case_divisor
        p = 11
        # (D1's table divides on cone 0, which decompose uses; E1's on cone 4)
        for name, table in (("D1", d1_case_divisor), ("E1", e1_case_divisor)):
            fan, ctx = records[name].fan, contexts[name]
            expected = Counter(to_class(ctx, table(*v, p)) for v in itertools.product(range(p), repeat=3))
            got = decompose(fan, ctx, (0,) * fan.n_rays, p)
            assert got.summands == tuple(sorted(expected.items())), name
        report("criterion 9 PASS: decompose matches the case-by-case division tables at p = 11")
