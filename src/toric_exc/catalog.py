"""The eighteen smooth toric Fano 3-folds, as validated fan data.

Rays and maximal cones follow Batyrev's classification.  Products and
projective bundles are built the standard way (bundle rays are the base
rays lifted by the twisting divisor, plus the two fiber rays); D1, D2, E1
and E4 are pinned by their published primitive relations on the basis used
throughout: D-varieties on (v1, v2, v3) = (e1, e2, e3), E-varieties on
(v2, v3, v6) = (e1, e2, e3).  E2's relations were never spelled out in
print, so its last ray is fixed by the remaining pentagon twist
(v6 + v7 = v2) and accepted because the computed Frobenius summands
reproduce the known ten-bundle list.

Maximal cones were derived once by the rule "an n-subset of rays spans a
maximal cone iff it contains no primitive collection", then frozen here;
validate_catalog re-checks every record (smooth, complete, Fano, the
K_0-rank and Picard-number identities, and the printed relations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .errors import NotABasis
from .fan import Fan, is_fano, primitive_relations, validate_fan
from .picard import DivisorVector, build_pic_context


def _zvec(m: int, **coeffs: int) -> DivisorVector:
    """Divisor coefficient vector from keywords like z4=1, z6=-1."""
    a = [0] * m
    for key, c in coeffs.items():
        a[int(key[1:]) - 1] = int(c)
    return tuple(a)


RelationData = tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]


@dataclass(frozen=True)
class FanoRecord:
    name: str
    type_class: str
    description: str
    upsilon: int
    rho: int
    k0: int
    fan: Fan
    pic_basis: Optional[tuple[int, ...]] = None
    collection: Optional[tuple[DivisorVector, ...]] = None
    expected_summands: Optional[tuple[DivisorVector, ...]] = None
    expected_relations: Optional[RelationData] = None  # 1-based, for cross-checks
    notes: tuple[str, ...] = field(default=())


# ---------------------------------------------------------------------------
# fan data
# ---------------------------------------------------------------------------

_P3 = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
               [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

# P(O + O(a)) over P^2: base rays lifted by the twist, fiber rays +-e3.
def _b_fan(a: int) -> Fan:
    return Fan.make(3,
                    [(1, 0, 0), (0, 1, 0), (-1, -1, a), (0, 0, 1), (0, 0, -1)],
                    [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (1, 2, 3), (1, 2, 4)])

_B1 = _b_fan(2)
_B2 = _b_fan(1)
_B3 = Fan.make(3,  # P(O + O + O(1)) over P^1: fiber P^2 at height 0
               [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (1, 0, -1)],
               [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (1, 2, 3), (1, 2, 4)])
_B4 = _b_fan(0)  # P^2 x P^1

_SQUARE_CONES = [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)]
_C1 = Fan.make(3, [(1, 0, 0), (-1, 0, 1), (0, 1, 0), (0, -1, 1), (0, 0, 1), (0, 0, -1)], _SQUARE_CONES)
_C2 = Fan.make(3,  # P(O + O(l)) over S1 = Bl_pt P^2, with l the pulled-back line
               [(1, 0, 0), (0, 1, 0), (-1, -1, 1), (1, 1, 0), (0, 0, 1), (0, 0, -1)],
               [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)])
_C3 = Fan.make(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], _SQUARE_CONES)
_C4 = Fan.make(3,  # S1 x P^1
               [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1)],
               [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)])
_C5 = Fan.make(3, [(1, 0, 1), (-1, 0, 0), (0, 1, -1), (0, -1, 0), (0, 0, 1), (0, 0, -1)], _SQUARE_CONES)

# Del Pezzo fibers: the degree-7 pentagon and the degree-6 hexagon.
_PENTAGON = [(1, -1, 0), (1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
_PENTAGON_CONES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
_HEXAGON = [(1, 0, 0), (1, 1, 0), (0, 1, 0), (-1, 0, 0), (-1, -1, 0), (0, -1, 0)]
_HEXAGON_CONES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]


def _bundle_over_p1(base_rays, base_cones, twist) -> Fan:
    rays = list(base_rays) + [(0, 0, 1), twist]
    k, kk = len(base_rays), len(base_rays) + 1
    cones = [c + (j,) for c in base_cones for j in (k, kk)]
    return Fan.make(3, rays, cones)


_E3 = _bundle_over_p1(_PENTAGON, _PENTAGON_CONES, (0, 0, -1))        # S2 x P^1
_F1 = _bundle_over_p1(_HEXAGON, _HEXAGON_CONES, (0, 0, -1))         # S3 x P^1
_F2 = _bundle_over_p1(_HEXAGON, _HEXAGON_CONES, (1, 0, -1))         # the nontrivial S3-bundle

_D_CONES = [(0, 1, 2), (0, 1, 5), (0, 2, 3), (0, 3, 4), (0, 4, 5), (1, 2, 3), (1, 3, 4), (1, 4, 5)]
_D1 = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 2), (-1, -1, 1), (0, 0, -1)], _D_CONES)
_D2 = Fan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 1), (-1, -1, 0), (0, 0, -1)], _D_CONES)

_E1 = _bundle_over_p1(_PENTAGON, _PENTAGON_CONES, (1, -1, -1))      # v6+v7 = v1
_E2 = _bundle_over_p1(_PENTAGON, _PENTAGON_CONES, (1, 0, -1))       # v6+v7 = v2
_E4 = _bundle_over_p1(_PENTAGON, _PENTAGON_CONES, (0, 1, -1))       # v6+v7 = v3


# ---------------------------------------------------------------------------
# verification payloads for the five Type IV varieties
# ---------------------------------------------------------------------------

_D_COLLECTION = tuple(
    _zvec(6, **kw) for kw in (
        {}, {"z4": 1, "z5": 1}, {"z4": 2, "z5": 2}, {"z6": 1},
        {"z5": 1, "z6": 1}, {"z4": 1, "z5": 1, "z6": 1},
        {"z4": 1, "z5": 2, "z6": 1}, {"z4": 2, "z5": 2, "z6": 1},
    )
)
_D1_SUMMANDS = _D_COLLECTION + (_zvec(6, z4=-1, z6=1),)   # plus O(Z6-Z4)
_D2_SUMMANDS = _D_COLLECTION

_E1_COLLECTION = tuple(
    _zvec(7, **kw) for kw in (
        {}, {"z7": 1}, {"z4": 1},
        {"z1": 1, "z5": 1, "z7": 1},                       # the class missing in print
        {"z4": 1, "z7": 1}, {"z4": 1, "z5": 1},
        {"z1": 1, "z5": 1, "z7": 2}, {"z4": 1, "z5": 1, "z7": 1},
        {"z1": 1, "z4": 1, "z5": 1, "z7": 1}, {"z1": 1, "z4": 1, "z5": 1, "z7": 2},
    )
)
_E1_SUMMANDS = _E1_COLLECTION

_E24_COLLECTION = tuple(
    _zvec(7, **kw) for kw in (
        {}, {"z7": 1}, {"z4": 1}, {"z1": 1, "z5": 1},
        {"z1": 1, "z5": 1, "z7": 1}, {"z4": 1, "z7": 1}, {"z4": 1, "z5": 1},
        {"z4": 1, "z5": 1, "z7": 1}, {"z1": 1, "z4": 1, "z5": 1},
        {"z1": 1, "z4": 1, "z5": 1, "z7": 1},
    )
)

_D1_RELATIONS: RelationData = (
    ((3, 6), ()),
    ((4, 6), ((5, 1),)),
    ((3, 5), ((4, 1),)),
    ((1, 2, 4), ((3, 2),)),
    ((1, 2, 5), ((3, 1),)),
)
_D2_RELATIONS: RelationData = (
    ((3, 6), ()),
    ((4, 6), ((5, 1),)),
    ((3, 5), ((4, 1),)),
    ((1, 2, 4), ((3, 1),)),
    ((1, 2, 5), ()),
)


def _e_relations(last_target: int) -> RelationData:
    return (
        ((2, 4), ()),
        ((3, 5), ()),
        ((1, 3), ((2, 1),)),
        ((2, 5), ((1, 1),)),
        ((1, 4), ((5, 1),)),
        ((6, 7), ((last_target, 1),)),
    )


_E1_NOTE = (
    "the classical nine-bundle summand list for E1 omits O(Z1+Z5+Z7), which the "
    "pushforward contains (rank K0 = 10); reports use the computed ten-class set"
)
_E1_ORDER_NOTE = (
    "no ten-term ordering was published for E1; the stored sequence inserts "
    "O(Z1+Z5+Z7) after O(Z4) and is machine-verified like the others"
)
_E4_NOTE = (
    "the published cone matrices for E4 are inconsistent with its own division data; "
    "this record derives all frames from the rays, which satisfy the printed relations"
)


@lru_cache(maxsize=None)
def load_catalog() -> tuple[FanoRecord, ...]:
    """All 18 records, ordered as in the classification table."""
    records = (
        FanoRecord("P3", "I", "P^3", 4, 1, 4, _P3, pic_basis=(3,)),
        FanoRecord("B1", "II", "P_P2(O + O(2))", 5, 2, 6, _B1),
        FanoRecord("B2", "II", "P_P2(O + O(1))", 5, 2, 6, _B2),
        FanoRecord("B3", "II", "P_P1(O + O + O(1))", 5, 2, 6, _B3),
        FanoRecord("B4", "II", "P^2 x P^1", 5, 2, 6, _B4),
        FanoRecord("C1", "II", "P_{P1xP1}(O + O(1,1))", 6, 3, 8, _C1),
        FanoRecord("C2", "II", "P_S1(O + O(l)), l^2 = 1", 6, 3, 8, _C2),
        FanoRecord("C3", "III", "P^1 x P^1 x P^1", 6, 3, 8, _C3),
        FanoRecord("C4", "III", "S1 x P^1", 6, 3, 8, _C4),
        FanoRecord("C5", "III", "P_{P1xP1}(O + O(1,-1))", 6, 3, 8, _C5),
        FanoRecord("E3", "III", "S2 x P^1", 7, 4, 10, _E3),
        FanoRecord("F1", "III", "S3 x P^1", 8, 5, 12, _F1),
        FanoRecord("D1", "IV", "Bl_P1(P_P2(O + O(1)))", 6, 3, 8, _D1,
                   pic_basis=(3, 4, 5), collection=_D_COLLECTION,
                   expected_summands=_D1_SUMMANDS, expected_relations=_D1_RELATIONS),
        FanoRecord("D2", "IV", "Bl_P1(P^2 x P^1)", 6, 3, 8, _D2,
                   pic_basis=(3, 4, 5), collection=_D_COLLECTION,
                   expected_summands=_D2_SUMMANDS, expected_relations=_D2_RELATIONS),
        FanoRecord("E1", "IV", "S2-bundle over P^1 (twist by the middle (-1)-curve)", 7, 4, 10, _E1,
                   pic_basis=(0, 3, 4, 6), collection=_E1_COLLECTION,
                   expected_summands=_E1_SUMMANDS, expected_relations=_e_relations(1),
                   notes=(_E1_NOTE, _E1_ORDER_NOTE)),
        FanoRecord("E2", "IV", "S2-bundle over P^1 (twist by an outer (-1)-curve)", 7, 4, 10, _E2,
                   pic_basis=(0, 3, 4, 6), collection=_E24_COLLECTION,
                   expected_summands=_E24_COLLECTION, expected_relations=_e_relations(2)),
        FanoRecord("E4", "IV", "S2-bundle over P^1 (twist by a 0-curve)", 7, 4, 10, _E4,
                   pic_basis=(0, 3, 4, 6), collection=_E24_COLLECTION,
                   expected_summands=_E24_COLLECTION, expected_relations=_e_relations(3),
                   notes=(_E4_NOTE,)),
        FanoRecord("F2", "V", "S3-bundle over P^1", 8, 5, 12, _F2),
    )
    return records


def catalog_names() -> tuple[str, ...]:
    return tuple(r.name for r in load_catalog())


def get_record(name: str) -> FanoRecord:
    for record in load_catalog():
        if record.name.lower() == name.lower():
            return record
    raise KeyError(f"unknown variety {name!r}; known: {', '.join(catalog_names())}")


def validate_catalog() -> dict[str, list[str]]:
    """Per-record structural failures; an all-empty dict means the data is good."""
    problems: dict[str, list[str]] = {}
    for rec in load_catalog():
        issues = []
        fv = validate_fan(rec.fan)
        if not fv.ok:
            issues.extend(fv.problems)
        if rec.upsilon != rec.fan.n_rays:
            issues.append(f"upsilon={rec.upsilon} but fan has {rec.fan.n_rays} rays")
        if rec.rho != rec.upsilon - 3:
            issues.append("rho != upsilon - 3")
        if rec.k0 != 2 * rec.upsilon - 4:
            issues.append("k0 != 2*upsilon - 4")
        if rec.k0 != len(rec.fan.max_cones):
            issues.append("k0 != number of maximal cones")
        if fv.ok and not is_fano(rec.fan):
            issues.append("fan is not Fano")
        if fv.ok and rec.expected_relations is not None:
            got = {
                tuple(i + 1 for i in rel.collection): tuple((t + 1, c) for t, c in rel.target)
                for rel in primitive_relations(rec.fan)
            }
            want = {coll: target for coll, target in rec.expected_relations}
            if got != want:
                issues.append(f"primitive relations mismatch: computed {got}, recorded {want}")
        if fv.ok and rec.pic_basis is not None:
            try:
                build_pic_context(rec.fan, rec.pic_basis)
            except NotABasis as exc:
                issues.append(f"pic basis invalid: {exc}")
        problems[rec.name] = issues
    return problems


# ---------------------------------------------------------------------------
# fan interchange format
# ---------------------------------------------------------------------------

def parse_fan_file(text: str) -> Fan:
    """Parse the plain-text fan format (dim / rays / cones sections).

    Ray indices in the cones section are 0-based; blank lines are ignored
    and '#' starts a comment line.  Exactly one line is the keyword dim and
    the dimension, at least 1.  Every error names its line, except a
    missing dim line or section.
    """
    dim: Optional[int] = None
    rays: list[tuple[int, ...]] = []
    cones: list[tuple[int, ...]] = []
    section: Optional[list[tuple[int, ...]]] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line, parts = raw.strip(), raw.split()
        if not line or line.startswith("#"):
            continue
        if parts[0] == "dim":
            if len(parts) != 2 or dim is not None:
                raise ValueError(f"line {lineno}: malformed or repeated dim line {line!r}")
            dim = _integer(parts[1], lineno)
            if dim < 1:
                raise ValueError(f"line {lineno}: dimension {dim} is below 1")
        elif line in ("rays", "cones"):
            section = rays if line == "rays" else cones
        elif section is None:
            raise ValueError(f"line {lineno}: data before a section header: {line!r}")
        else:
            section.append(tuple(_integer(tok, lineno) for tok in parts))
    if dim is None:
        raise ValueError("missing 'dim' line")
    if not rays or not cones:
        raise ValueError("fan file needs both a rays and a cones section")
    return Fan.make(dim, rays, cones)


def _integer(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: {token!r} is not an integer") from None


def format_fan_file(fan: Fan) -> str:
    lines = [f"dim {fan.dim}", "rays"]
    lines += [" ".join(str(x) for x in ray) for ray in fan.rays]
    lines.append("cones")
    lines += [" ".join(str(i) for i in cone) for cone in fan.max_cones]
    return "\n".join(lines) + "\n"
