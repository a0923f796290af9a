"""Verification of ordered line-bundle collections.

Strong exceptionality of an ordered collection (L_0, ..., L_k) reduces to
cohomology vanishing of differences: every twist L_b - L_a must be acyclic
(kills the higher Ext groups in both directions), and for a > b the twist
L_b - L_a must have no global sections (kills the backward Homs).  Each
single line bundle is automatically exceptional on a complete toric
variety, since the difference 0 is acyclic with one-dimensional sections.
Each member's divisor is computed once, and the divisor of a difference
L_b - L_a is the difference of the two members' divisors: the
representative map is linear, so it is the divisor of the difference
class.  Both verdicts of every distinct difference come from one
cohomology.vanishing_verdicts call, which takes all the certified boxes
from one vertex pass and enumerates their characters together.

Fullness rests on the generation theorem for Frobenius pushforward
summands: the distinct summand classes of (pi_p)_* O, the Bondal-Thomsen
classes [-floor(<theta, v_rho>)], generate the bounded derived category
(claimed by Bondal, Derived categories of toric varieties, Oberwolfach
report, 2006; proved by Hanlon-Hicks-Lazarev, Resolutions of toric
subvarieties by line bundles and applications, 2023).  The certificate is
sound only when it receives all of them, which frobenius.bondal_summands
computes exactly.  A collection is therefore certified full either because
its class set *is* the summand set (and has the K_0 rank, the number of
maximal cones), or because every summand outside the collection is
resolved by an exact dualized Koszul complex, built from a primitive
collection, whose remaining terms all lie in the collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import sub
from typing import Optional, Sequence, Union

from .cohomology import vanishing_verdicts
from .errors import NotPrimitive, TermOutsideCollection, ToricExcError
from .fan import is_face, primitive_collections
from .picard import ClassVector, PicContext, class_label, class_to_divisor, to_class


@dataclass(frozen=True)
class OrderedCollection:
    """An ordered tuple of distinct divisor classes."""

    classes: tuple[ClassVector, ...]

    def __post_init__(self) -> None:
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("collection classes must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class SummandSetMatchesK0Rank:
    """The collection is exactly the summand set, of full K_0 rank."""

    size: int


@dataclass(frozen=True)
class KoszulReduction:
    """One summand eliminated through a dualized, twisted Koszul complex.

    terms[j] lists (class, multiplicity) of the degree-j piece; the
    eliminated class is the single degree-0 term.
    """

    eliminated: ClassVector
    collection_used: tuple[int, ...]
    terms: tuple[tuple[tuple[ClassVector, int], ...], ...]


@dataclass(frozen=True)
class KoszulCertified:
    """Every summand outside the collection has a Koszul reduction into it."""

    reductions: tuple[KoszulReduction, ...]


@dataclass(frozen=True)
class NotCertified:
    unexplained: tuple[ClassVector, ...]


FullnessCertificate = Union[SummandSetMatchesK0Rank, KoszulCertified, NotCertified]


@dataclass(frozen=True)
class VerificationReport:
    """Pairwise vanishing matrices of an ordered collection.

    acyclic[a][b] records whether L_b - L_a is acyclic; sections_backward
    holds, for a > b, whether L_b - L_a has nonzero global sections (it
    must not).  Matrices are total so failures localize.  Fullness is a
    separate question, answered by fullness_certificate.
    """

    collection: OrderedCollection
    acyclic: tuple[tuple[bool, ...], ...]
    sections_backward: tuple[tuple[Optional[bool], ...], ...]

    @property
    def strongly_exceptional(self) -> bool:
        return (all(map(all, self.acyclic))
                and all(x is False for a, row in enumerate(self.sections_backward) for x in row[:a]))


def verify_strongly_exceptional(ctx: PicContext, collection: OrderedCollection) -> VerificationReport:
    """Test conditions (i)' and (ii)' for every ordered pair of the collection.

    Each distinct difference class is formed once, with its divisor (the
    difference of the members' divisors, each computed once), and asked
    once: one vanishing_verdicts call reads both verdicts of every class
    from its certified box, the boxes of all of them coming from one pass.
    A box past the radius limit raises BoxTooLarge.
    """
    if any(len(cls) != ctx.rank for cls in collection.classes):
        raise ValueError("collection class vectors do not match the Picard rank")
    classes = collection.classes
    members = [class_to_divisor(ctx, cls) for cls in classes]
    diffs = [[tuple(map(sub, lb, la)) for lb in classes] for la in classes]
    divisors = {}   # each distinct difference class -> L_b - L_a, formed from the members' divisors
    for row, da in zip(diffs, members):
        for cls, db in zip(row, members):
            if cls not in divisors:
                divisors[cls] = tuple(map(sub, db, da))
    verdicts = dict(zip(divisors, vanishing_verdicts(ctx, list(divisors.values()))))
    return VerificationReport(
        collection,
        tuple(tuple(verdicts[cls][0] for cls in row) for row in diffs),
        tuple(tuple(verdicts[cls][1] if b < a else None for b, cls in enumerate(row)) for a, row in enumerate(diffs)),
    )


def koszul_reduction_certificate(
    ctx: PicContext,
    collection: OrderedCollection,
    extra: ClassVector,
    pcollection: Sequence[int],
) -> KoszulReduction:
    """Resolve O(extra) by the dualized Koszul complex of a primitive collection.

    The complex on O(-Z_i), i in the given ray set, is exact because the
    rays span no cone (the intersection of the corresponding divisors is
    empty); dualizing and twisting by O(extra) yields an exact sequence
    whose degree-j term is the sum of O(extra + sum_{i in S} Z_i) over the
    j-subsets S.  The certificate succeeds when every term besides the
    single degree-0 occurrence of `extra` lies in the collection.
    """
    fan = ctx.fan
    pcoll = tuple(sorted(int(i) for i in pcollection))
    if len(set(pcoll)) != len(pcoll):
        raise ValueError(f"repeated ray indices in {pcoll}")
    if is_face(fan, pcoll):
        raise NotPrimitive(f"rays {tuple(i + 1 for i in pcoll)} span a cone; Koszul complex is not exact")
    extra, members = tuple(int(x) for x in extra), set(collection.classes)
    if extra in members:
        raise ToricExcError("the eliminated class must lie outside the collection")

    ray_classes = [to_class(ctx, tuple(1 if j == i else 0 for j in range(fan.n_rays))) for i in pcoll]
    terms, offending = [], []
    for j in range(len(pcoll) + 1):
        level: dict[ClassVector, int] = {}
        for subset in combinations(range(len(pcoll)), j):
            cls = tuple(e + sum(ray_classes[i][t] for i in subset) for t, e in enumerate(extra))
            level[cls] = level.get(cls, 0) + 1
        terms.append(tuple(sorted(level.items())))
        offending += [cls for cls in level if j and cls not in members]   # degree 0 is the eliminated class
    if offending:
        raise TermOutsideCollection(sorted(set(offending)))
    return KoszulReduction(extra, pcoll, tuple(terms))


def fullness_certificate(
    ctx: PicContext,
    collection: OrderedCollection,
    summands: Sequence[ClassVector],
) -> FullnessCertificate:
    """Certify generation of the derived category by the collection.

    `summands` must be every distinct summand class of the Frobenius
    pushforward of the structure sheaf (frobenius.bondal_summands).
    """
    fan = ctx.fan
    coll_set = set(collection.classes)
    summand_set = {tuple(int(x) for x in s) for s in summands}
    if coll_set == summand_set and len(coll_set) == len(fan.max_cones):
        return SummandSetMatchesK0Rank(len(coll_set))

    reductions = []
    unexplained = []
    for extra in sorted(summand_set - coll_set):
        cert = None
        for pcoll in primitive_collections(fan):
            try:
                cert = koszul_reduction_certificate(ctx, collection, extra, pcoll)
                break
            except TermOutsideCollection:
                continue
        if cert is None:
            unexplained.append(extra)
        else:
            reductions.append(cert)
    if unexplained:
        return NotCertified(tuple(unexplained))
    return KoszulCertified(tuple(reductions))


def describe_certificate(ctx: PicContext, certificate: FullnessCertificate) -> str:
    if isinstance(certificate, SummandSetMatchesK0Rank):
        return f"SummandSetMatchesK0Rank({certificate.size})"
    if isinstance(certificate, KoszulCertified):
        parts = []
        for red in certificate.reductions:
            rays = ",".join(f"v{i + 1}" for i in red.collection_used)
            parts.append(f"KoszulReduction({class_label(ctx, red.eliminated)} via {{{rays}}})")
        return "; ".join(parts)
    return "NotCertified(" + ", ".join(class_label(ctx, c) for c in certificate.unexplained) + ")"
