"""Command line front end emitting human-readable or JSON reports.

Exit codes: 0 when every requested check passes, 1 when a mathematical
check fails, 2 on usage or data errors (a class whose search box is past
the radius limit, a fan with too many rays to sweep, or a prime with too
many residue vectors to enumerate, among them).  JSON output is
stable-ordered (sorted keys, classes in lexicographic order) so repeated
runs diff cleanly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .catalog import FanoRecord, get_record, load_catalog, parse_fan_file
from .cohomology import cohomology_table, forbidden_sets
from .errors import BoxTooLarge, NotStabilized, TooManyRays, TooManyResidues, ToricExcError
from .exceptional import (KoszulCertified, OrderedCollection, SummandSetMatchesK0Rank,
                          describe_certificate, fullness_certificate, verify_strongly_exceptional)
from .fan import validate_fan
from .frobenius import DEFAULT_PRIMES, bondal_summands, stable_summands
from .picard import PicContext, build_pic_context, class_label, class_to_divisor, to_class

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclass
class ReportDocument:
    command: str
    inputs: dict
    results: dict
    warnings: list[str] = field(default_factory=list)
    text_lines: list[str] = field(default_factory=list)

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            payload = {
                "command": self.command,
                "inputs": self.inputs,
                "results": self.results,
                "warnings": sorted(self.warnings),
            }
            return json.dumps(payload, sort_keys=True, indent=2) + "\n"
        lines = list(self.text_lines)
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"


class UsageError(Exception):
    pass


def _load_context(args) -> tuple[Optional[FanoRecord], PicContext, dict]:
    """Resolve --variety / --fan-file into a validated fan plus Pic context."""
    if getattr(args, "fan_file", None):
        try:
            with open(args.fan_file, "r", encoding="utf-8") as handle:
                fan = parse_fan_file(handle.read())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read fan file: {exc}") from exc
        validation = validate_fan(fan)
        if not validation.ok:
            raise UsageError("fan file failed validation: " + "; ".join(validation.problems))
        return None, build_pic_context(fan), {"fan_file": args.fan_file}
    if getattr(args, "variety", None):
        try:
            record = get_record(args.variety)
        except KeyError as exc:
            raise UsageError(str(exc)) from exc
        return record, _record_context(record), {"variety": record.name}
    raise UsageError("one of --variety or --fan-file is required")


def _record_context(record: FanoRecord) -> PicContext:
    return build_pic_context(record.fan, record.pic_basis)


def _stored_collection(record: Optional[FanoRecord], ctx: PicContext) -> OrderedCollection:
    if record is None or record.collection is None:
        raise UsageError("no stored collection for this input; pass --collection FILE")
    return OrderedCollection(tuple(to_class(ctx, d) for d in record.collection))


def _parse_int_vector(text: str, expected: int, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise UsageError(f"{what} must be a space-separated list of integers") from exc
    if len(values) != expected:
        raise UsageError(f"{what} must have {expected} entries, got {len(values)}")
    return values


def _class_payload(ctx: PicContext, cls) -> dict:
    return {"coords": list(cls), "label": class_label(ctx, cls)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_catalog(args) -> tuple[int, ReportDocument]:
    records = load_catalog()
    rows = [
        {"variety": r.name, "type": r.type_class, "description": r.description,
         "upsilon": r.upsilon, "rho": r.rho, "k0": r.k0}
        for r in records
    ]
    doc = ReportDocument("catalog list", {}, {"catalog": rows})
    doc.text_lines.append(f"{'variety':8s} {'type':4s} {'v':>2s} {'rho':>3s} {'k0':>3s}  description")
    for r in rows:
        doc.text_lines.append(
            f"{r['variety']:8s} {r['type']:4s} {r['upsilon']:2d} {r['rho']:3d} {r['k0']:3d}  {r['description']}"
        )
    return EXIT_OK, doc


def _cmd_thomsen(args) -> tuple[int, ReportDocument]:
    record, ctx, inputs = _load_context(args)
    fan = ctx.fan
    primes = tuple(args.prime) if args.prime else DEFAULT_PRIMES
    if min(primes) < 2:
        raise UsageError(f"--prime must be at least 2, got {min(primes)}")
    if len(set(primes)) < 2:
        raise UsageError("need at least two distinct primes (pass --prime twice)")
    divisor = (0,) * fan.n_rays
    if args.divisor is not None:
        divisor = _parse_int_vector(args.divisor, fan.n_rays, "--divisor")
    inputs.update({"primes": list(primes), "divisor": list(divisor)})
    doc = ReportDocument("thomsen", inputs, {})
    if record is not None:
        doc.warnings.extend(record.notes)
    try:
        classes = stable_summands(fan, ctx, divisor, primes)
    except NotStabilized as exc:
        doc.results["stabilized"] = False
        doc.results["per_prime"] = {
            str(p): [list(c) for c in sorted(s)] for p, s in exc.per_prime.items()
        }
        doc.text_lines.append(f"summand sets did NOT stabilize across primes {primes}")
        return EXIT_CHECK_FAILED, doc
    doc.results["stabilized"] = True
    doc.results["summands"] = [_class_payload(ctx, c) for c in classes]
    exact = bondal_summands(ctx) if not any(to_class(ctx, divisor)) else None   # the summand set of O
    if exact is not None and set(exact) != set(classes):
        doc.warnings.append(f"primes {' and '.join(map(str, primes))} agree on {len(classes)} summand classes, "
                            f"but the exact Bondal-Thomsen set has {len(exact)}")
    doc.text_lines.append(f"{len(classes)} distinct summand classes (primes {primes}):")
    for c in classes:
        doc.text_lines.append(f"  {class_label(ctx, c)}   coords {list(c)}")
    return EXIT_OK, doc


def _cmd_forbidden(args) -> tuple[int, ReportDocument]:
    _, ctx, inputs = _load_context(args)
    report = forbidden_sets(ctx.fan)
    doc = ReportDocument("forbidden", inputs, {})
    doc.results["forbidden_sets"] = [
        {"rays": [i + 1 for i in s], "homology_ranks": list(r)}
        for s, r in zip(report.forbidden, report.homology_ranks)
    ]
    doc.text_lines.append(f"{len(report.forbidden)} forbidden sets (1-based ray indices):")
    for s, r in zip(report.forbidden, report.homology_ranks):
        label = "{" + ",".join(str(i + 1) for i in s) + "}" if s else "{}"
        doc.text_lines.append(f"  {label:18s} reduced homology ranks (deg -1..n-1): {list(r)}")
    return EXIT_OK, doc


def _cmd_cohomology(args) -> tuple[int, ReportDocument]:
    _, ctx, inputs = _load_context(args)
    cls = _parse_int_vector(args.cls, ctx.rank, "--class")
    if args.box is not None and args.box < 1:
        raise UsageError(f"--box must be at least 1, got {args.box}")
    divisor = class_to_divisor(ctx, cls)
    inputs.update({"class": list(cls)})
    table = cohomology_table(ctx, divisor, box_radius=args.box, escalate=True)
    doc = ReportDocument("cohomology", inputs, {})
    doc.results["dims"] = list(table.dims)
    doc.results["box_radius_used"] = table.box_radius_used
    doc.results["acyclic"] = table.is_acyclic
    doc.text_lines.append(f"{class_label(ctx, cls)}: h = {list(table.dims)} (box radius {table.box_radius_used})")
    return EXIT_OK, doc


def _collection_from_args(args, record: Optional[FanoRecord], ctx: PicContext) -> OrderedCollection:
    if args.collection:
        try:
            with open(args.collection, "r", encoding="utf-8") as handle:
                lines = [ln.strip() for ln in handle.readlines()]
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read collection file: {exc}") from exc
        classes = []
        for ln in lines:
            if not ln or ln.startswith("#"):
                continue
            classes.append(_parse_int_vector(ln, ctx.rank, "collection line"))
        if not classes:
            raise UsageError("collection file contains no class vectors")
        try:
            return OrderedCollection(tuple(classes))
        except ValueError as exc:
            raise UsageError(f"collection file: {exc}") from exc
    return _stored_collection(record, ctx)


def _verify_one(ctx: PicContext, collection: OrderedCollection, warnings: list[str]) -> dict:
    """The pairwise verdicts and the fullness certificate, on the exact Bondal summand set.

    A fan whose exact grid is too large falls back to the classes on which
    the default primes agree, and a warning says that set is not certified
    complete.
    """
    report = verify_strongly_exceptional(ctx, collection)
    summands = bondal_summands(ctx)
    if summands is None:
        summands = stable_summands(ctx.fan, ctx, (0,) * ctx.fan.n_rays)
        warnings.append(f"the summand set is where primes {' and '.join(map(str, DEFAULT_PRIMES))} agree, "
                        f"not certified complete: the exact Bondal grid of this fan is too large")
    certificate = fullness_certificate(ctx, collection, summands)
    full_report = {
        "collection": [_class_payload(ctx, c) for c in collection.classes],
        "summands": [_class_payload(ctx, c) for c in summands],
        "pairwise": {
            "acyclic": [[bool(x) for x in row] for row in report.acyclic],
            "backward_sections": [[None if x is None else bool(x) for x in row]
                                  for row in report.sections_backward],
        },
        "strongly_exceptional": report.strongly_exceptional,
        "certificate": describe_certificate(ctx, certificate),
        "fullness_certified": isinstance(certificate, (SummandSetMatchesK0Rank, KoszulCertified)),
    }
    return full_report


def _cmd_verify(args) -> tuple[int, ReportDocument]:
    record, ctx, inputs = _load_context(args)
    collection = _collection_from_args(args, record, ctx)
    doc = ReportDocument("verify", inputs, {})
    if record is not None:
        doc.warnings.extend(record.notes)
    results = _verify_one(ctx, collection, doc.warnings)
    doc.results.update(results)
    ok = results["strongly_exceptional"] and results["fullness_certified"]
    name = inputs.get("variety", inputs.get("fan_file", "fan"))
    doc.text_lines.append(f"{name}: strongly exceptional: {'yes' if results['strongly_exceptional'] else 'NO'};"
                          f" fullness: {results['certificate']}")
    for i, c in enumerate(collection.classes):
        doc.text_lines.append(f"  L{i} = {class_label(ctx, c)}")
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), doc


def _cmd_prove_main_theorem(args) -> tuple[int, ReportDocument]:
    doc = ReportDocument("prove-main-theorem", {}, {"varieties": {}})
    all_ok = True
    for record in (r for r in load_catalog() if r.type_class == "IV"):
        name = record.name
        ctx = _record_context(record)
        results = _verify_one(ctx, _stored_collection(record, ctx), doc.warnings)
        expected = sorted(to_class(ctx, d) for d in record.expected_summands)
        got = sorted(tuple(c["coords"]) for c in results["summands"])
        results["summands_match_expected"] = [list(c) for c in expected] == [list(c) for c in got]
        ok = (results["strongly_exceptional"] and results["fullness_certified"]
              and results["summands_match_expected"])
        all_ok = all_ok and ok
        results["pass"] = ok
        doc.results["varieties"][name] = results
        doc.warnings.extend(record.notes)
        doc.text_lines.append(
            f"{name}: {'PASS' if ok else 'FAIL'} "
            f"(strongly exceptional: {'yes' if results['strongly_exceptional'] else 'no'}; "
            f"fullness: {results['certificate']})"
        )
    doc.results["all_pass"] = all_ok
    doc.text_lines.append("main theorem: " + ("PASS — every variety verified" if all_ok else "FAIL"))
    return (EXIT_OK if all_ok else EXIT_CHECK_FAILED), doc


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-exc",
        description="verify exceptional collections of line bundles on toric Fano 3-folds",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_cat = sub.add_parser("catalog", help="catalog operations")
    p_cat.add_argument("action", choices=("list",))

    def add_fan_args(p):
        p.add_argument("--variety", help="catalog variety name (e.g. D1)")
        p.add_argument("--fan-file", help="fan description file")

    p_th = sub.add_parser("thomsen", help="Frobenius pushforward summands")
    add_fan_args(p_th)
    p_th.add_argument("--prime", action="append", type=int,
                      help=f"repeat for each prime (default {' '.join(map(str, DEFAULT_PRIMES))})")
    p_th.add_argument("--divisor", help="ray coefficients 'a1 a2 ...' of the input bundle (default 0)")

    p_fb = sub.add_parser("forbidden", help="forbidden ray subsets")
    add_fan_args(p_fb)

    p_co = sub.add_parser("cohomology", help="cohomology dimensions of a class")
    add_fan_args(p_co)
    p_co.add_argument("--class", dest="cls", required=True, help="class coordinates 'z1 z2 ...'")
    p_co.add_argument("--box", type=int, default=None,
                      help="start radius R: the radius used is the first of R, R+2, ... that holds every "
                           "contributing character")

    p_ve = sub.add_parser("verify", help="verify a full strongly exceptional collection")
    add_fan_args(p_ve)
    p_ve.add_argument("--collection", help="file with one class vector per line (default: stored collection)")

    sub.add_parser("prove-main-theorem", help="run all five end-to-end verifications")
    return parser


_HANDLERS = {
    "catalog": _cmd_catalog,
    "thomsen": _cmd_thomsen,
    "forbidden": _cmd_forbidden,
    "cohomology": _cmd_cohomology,
    "verify": _cmd_verify,
    "prove-main-theorem": _cmd_prove_main_theorem,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep the contract
        return int(exc.code) if exc.code else EXIT_OK
    try:
        code, doc = _HANDLERS[args.subcommand](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BoxTooLarge, TooManyRays, TooManyResidues) as exc:
        print(f"error: too large to search: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ToricExcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    sys.stdout.write(doc.emit(args.format))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
