"""Fans of smooth complete toric varieties.

A fan is stored as its ray generators (primitive integer vectors) together
with the ray-index sets of its maximal cones.  All fans handled here are
simplicial, so the face structure is subset structure: a set of rays spans a
cone exactly when it is contained in some maximal cone.  The minimal
non-faces are the primitive collections; writing the sum of each collection
in the cone containing it gives the primitive relations, whose degrees
decide the Fano condition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .errors import InteriorCoverFailure
from .lattice import IntMatrix, determinant, unimodular_inverse

_COVER_SAMPLE_SEED = 271828
_COVER_SAMPLE_COUNT = 200


@dataclass(frozen=True)
class Fan:
    """Rays and maximal cones of a (purportedly) smooth complete fan.

    Ray indices are 0-based throughout the package; reports translate to the
    1-based labels Z1, Z2, ... used for toric divisors.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, dim: int, rays: Iterable[Sequence[int]], max_cones: Iterable[Iterable[int]]) -> "Fan":
        r = tuple(tuple(int(x) for x in ray) for ray in rays)
        c = tuple(sorted(tuple(sorted(int(i) for i in cone)) for cone in max_cones))
        return cls(dim, r, c)

    @property
    def n_rays(self) -> int:
        return len(self.rays)


def cone_matrix(fan: Fan, cone: Sequence[int]) -> IntMatrix:
    """Matrix whose j-th row holds the coordinates of the cone's j-th ray."""
    return IntMatrix.from_rows([fan.rays[i] for i in cone])


@lru_cache(maxsize=None)
def cone_inverse(fan: Fan, cone: tuple[int, ...]) -> IntMatrix:
    """Cached inverse of the cone's ray-row matrix (cone rays are a basis)."""
    return unimodular_inverse(cone_matrix(fan, cone))


def cone_coordinates(fan: Fan, cone: tuple[int, ...], point: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of `point` on the cone's ray basis (exact integers)."""
    # point = sum(lambda_j * v_j) <=> lambda = B^T point with B the inverse
    # of the ray-row matrix.
    return cone_inverse(fan, cone).transpose().mul_vec(point)


def cone_contains(fan: Fan, cone: tuple[int, ...], point: Sequence[int]) -> bool:
    return all(c >= 0 for c in cone_coordinates(fan, cone, point))


@dataclass(frozen=True)
class PrimitiveRelation:
    """v_{i_1} + ... + v_{i_k} = sum of c_t * v_{j_t} with all c_t > 0."""

    collection: tuple[int, ...]
    target: tuple[tuple[int, int], ...]  # (ray index, positive coefficient)

    @property
    def degree(self) -> int:
        return len(self.collection) - sum(c for _, c in self.target)


@dataclass(frozen=True)
class FanValidation:
    smooth: bool
    complete: bool
    simplicial: bool
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_fan(fan: Fan) -> FanValidation:
    """Structural checks: primitive distinct rays, smooth simplicial cones,
    and a completeness test: facet pairing, then 200 seeded random lattice
    directions and the rays, each tested exactly for membership in some
    maximal cone.  The directions are a sample, not a proof of covering;
    ROADMAP item 7 replaces them with an exact test.

    Returns a structured report; it never raises on bad input.
    """
    problems: list[str] = []
    simplicial = True
    smooth = True
    complete = True

    n, m = fan.dim, fan.n_rays
    for idx, ray in enumerate(fan.rays):
        if len(ray) != n:
            problems.append(f"ray {idx} has length {len(ray)}, expected {n}")
            return FanValidation(False, False, False, tuple(problems))
        if all(x == 0 for x in ray):
            problems.append(f"ray {idx} is zero")
        elif gcd(*(abs(x) for x in ray)) != 1:
            problems.append(f"ray {idx} is not primitive: {ray}")
    if len(set(fan.rays)) != m:
        problems.append("duplicate rays")

    covered = set()
    for cone in fan.max_cones:
        if len(set(cone)) != n or any(i < 0 or i >= m for i in cone):
            simplicial = False
            problems.append(f"cone {cone} is not a set of {n} valid ray indices")
            continue
        covered.update(cone)
        d = determinant(cone_matrix(fan, cone))
        if abs(d) != 1:
            smooth = False
            problems.append(f"cone {cone} has determinant {d}; not smooth")
    if covered != set(range(m)) and simplicial:
        complete = False
        problems.append(f"rays not covered by any maximal cone: {sorted(set(range(m)) - covered)}")

    if problems:
        return FanValidation(smooth, complete, simplicial, tuple(problems))

    # Every facet of a maximal cone must be shared by exactly two maximal
    # cones; on a complete simplicial fan the maximal cones glue along all
    # their facets.
    facet_count: dict[tuple[int, ...], int] = {}
    for cone in fan.max_cones:
        for facet in combinations(cone, n - 1):
            facet_count[facet] = facet_count.get(facet, 0) + 1
    bad_facets = {f: c for f, c in facet_count.items() if c != 2}
    if bad_facets:
        complete = False
        for f, c in sorted(bad_facets.items()):
            problems.append(f"facet {f} lies in {c} maximal cones, expected 2")

    # Exact covering check on a deterministic sample of lattice directions.
    rng = random.Random(_COVER_SAMPLE_SEED)
    samples = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(_COVER_SAMPLE_COUNT)]
    samples += [ray for ray in fan.rays]
    for x in samples:
        if all(v == 0 for v in x):
            continue
        if not any(cone_contains(fan, cone, x) for cone in fan.max_cones):
            complete = False
            problems.append(f"direction {x} lies in no maximal cone")
            break

    return FanValidation(smooth, complete, simplicial, tuple(problems))


def is_face(fan: Fan, s: Iterable[int]) -> bool:
    ss = set(s)
    return any(ss.issubset(cone) for cone in fan.max_cones)


@lru_cache(maxsize=None)
def primitive_collections(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """Minimal non-faces, ordered by cardinality then lexicographically."""
    found: list[tuple[int, ...]] = []
    m = fan.n_rays
    # every proper subset of a minimal non-face is a face, and no face has
    # more rays than the largest maximal cone
    largest = max((len(c) for c in fan.max_cones), default=0)
    for size in range(2, min(m, largest + 1) + 1):
        for s in combinations(range(m), size):
            if any(set(pc).issubset(s) for pc in found):
                continue
            if is_face(fan, s):
                continue
            if all(is_face(fan, set(s) - {i}) for i in s):
                found.append(s)
    return tuple(sorted(found, key=lambda s: (len(s), s)))


@lru_cache(maxsize=None)
def primitive_relations(fan: Fan) -> tuple[PrimitiveRelation, ...]:
    """One relation per primitive collection, with exact coefficients."""
    relations = []
    for pc in primitive_collections(fan):
        total = tuple(sum(fan.rays[i][j] for i in pc) for j in range(fan.dim))
        if all(x == 0 for x in total):
            relations.append(PrimitiveRelation(pc, ()))
            continue
        for cone in fan.max_cones:
            coords = cone_coordinates(fan, cone, total)
            if all(c >= 0 for c in coords):
                target = tuple((ray, c) for ray, c in zip(cone, coords) if c > 0)
                relations.append(PrimitiveRelation(pc, target))
                break
        else:
            raise InteriorCoverFailure(
                f"sum of primitive collection {pc} lies in no maximal cone; fan is not complete"
            )
    return tuple(relations)


@lru_cache(maxsize=None)
def is_fano(fan: Fan) -> bool:
    """True when every primitive relation has positive degree."""
    return all(rel.degree > 0 for rel in primitive_relations(fan))
