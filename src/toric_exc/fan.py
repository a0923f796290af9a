"""Fans of smooth complete toric varieties.

A fan is stored as its ray generators (primitive integer vectors) together
with the ray-index sets of its maximal cones.  All fans handled here are
simplicial, so the face structure is subset structure: a set of rays spans a
cone exactly when it is contained in some maximal cone.  face_masks lists
those faces once, as ray bitmasks, and every face predicate reads it.
The minimal non-faces are the primitive collections; writing the sum of
each collection in the cone containing it gives the primitive relations,
whose degrees decide the Fano condition.

Completeness is certified exactly (is_complete): every facet of a maximal
cone lies in exactly two maximal cones, on opposite sides of its
hyperplane, so every generic point lies in the same number of maximal
cones; and an interior point of the first cone lies in no other, so that
number is one.  The cones then tile R^n, and the boundary complex (the
cones' ray sets) is a triangulated (n-1)-sphere, which the cohomology
module's pattern certificates rely on.

ray_minors answers a request with arrays: the n x n ray minors of a
batch of n-subsets and, when asked, their signed cofactors, all from one
batch of lattice._cross_products, the one exact kernel for them.  Those
serve the smoothness check of validate_fan, cone_inverse (which also
gives a stored Pic basis its class map; a batch of one), the cohomology
module's vertex frames, and the Frobenius module's minor lcm and line
frame (every maximal cone's cofactors, from which decompose picks its
base cone and line axis).  The facet
sides of the completeness certificate are one more batch of the kernel.
Every per-fan table, here and in the cohomology module, is kept for the
last _FAN_CACHE_SIZE fans, so a process that checks many fans holds the
tables of a bounded number of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import gcd
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import InteriorCoverFailure, NotUnimodular
from .lattice import IntMatrix, _alternating, _cross_products, _is_identity_product, _minor_dtype, _omitting

_FAN_CACHE_SIZE = 64  # the fans whose tables (here and in the cohomology module) are kept; the catalog's 18 fit


@dataclass(frozen=True)
class Fan:
    """Rays and maximal cones of a (purportedly) smooth complete fan.

    Ray indices are 0-based throughout the package; reports translate to the
    1-based labels Z1, Z2, ... used for toric divisors.  The hash, the key
    of every per-fan table, is computed once, at construction.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.dim, self.rays, self.max_cones)))

    def __hash__(self) -> int:
        return self._hash

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


class _Table(dict):
    """key -> fill(fan, key), each computed on first lookup; a fill that raises stores nothing."""

    def __init__(self, fan: Fan, fill: Callable):
        super().__init__()
        self.fan, self.fill = fan, fill

    def __missing__(self, key):
        value = self[key] = self.fill(self.fan, key)
        return value


def _ray_array(fan: Fan) -> tuple[np.ndarray, int]:
    """The m x n ray array in the dtype _minor_dtype allows, which holds every n x n ray minor and each of its
    partial sums, and top, the largest |ray entry| (at least 1): the bound _cross_products is given."""
    top = max(1, max(map(abs, chain.from_iterable(fan.rays)), default=0))
    return np.array(fan.rays, dtype=_minor_dtype(fan.dim, top)).reshape(-1, fan.dim), top


def ray_minors(fan: Fan, subsets: Sequence[Sequence[int]] | np.ndarray,
               cofactors: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """det A_S for the K ray n-subsets S of one request, A_S the rays of S as rows in S's order.

    subsets is a K x n index array, or anything np.array makes one of.
    det A_S = <v_S0, normal of S minus S0>, the normal of a ridge R being
    the cross product of its rays in R's order, so the dets (a K array)
    need only the ridges S minus S0.  With cofactors, the request also
    returns the K x n x n rows sign(det A_S) (-1)^i normal of S minus S_i,
    so that A_S @ rows^T = |det A_S| I; a zero det has zero rows.  Every
    normal of the request comes from one _cross_products call.  The arrays
    are int64, or Python integers on a fan past _minor_dtype's bound.
    """
    n, (rays, top) = fan.dim, _ray_array(fan)
    S = np.array(subsets, dtype=np.intp).reshape(-1, n)
    ridges = S[:, _omitting(n)] if cofactors else S[:, None, 1:]   # K x r x (n-1), r = n or 1
    K, r = ridges.shape[:2]
    normals = _cross_products(rays[ridges.reshape(K * r, n - 1)], top).reshape(K, r, n)
    dets = (rays[S[:, :1]] @ normals[:, 0, :, None])[:, 0, 0]
    if not cofactors:
        return dets
    return dets, (np.sign(dets)[:, None] * _alternating(n))[:, :, None] * normals


def _inverse(fan: Fan, cone: tuple[int, ...]) -> IntMatrix:
    """det times the transposed cofactor matrix: the columns are the rows of ray_minors."""
    if len(cone) != fan.dim:
        raise NotUnimodular(f"matrix is {len(cone)}x{fan.dim}, not square")
    dets, rows = ray_minors(fan, [cone], cofactors=True)
    det, columns = int(dets[0]), rows[0].tolist()
    if abs(det) != 1:
        raise NotUnimodular(f"determinant is {det}, not +-1")
    assert _is_identity_product([fan.rays[i] for i in cone], columns)
    return IntMatrix(tuple(zip(*columns)))


@lru_cache(maxsize=_FAN_CACHE_SIZE)
def _cone_inverses(fan: Fan) -> Mapping[tuple[int, ...], IntMatrix]:
    """The fan's table of inverses of unimodular ray n-subsets, each computed on first lookup.

    The keys are the maximal cones and the complements of stored Pic bases
    (picard.build_pic_context); any ascending n-subset whose rays form a
    lattice basis may be one, and each is a ray_minors request of one.
    """
    return _Table(fan, _inverse)


def cone_inverse(fan: Fan, cone: tuple[int, ...]) -> IntMatrix:
    """Inverse of the ray-row matrix of an ascending ray n-subset that is a lattice basis, from the fan's table.

    A subset whose rays are not a lattice basis raises NotUnimodular,
    naming its determinant; one with other than n rays raises it as not
    square.
    """
    return _cone_inverses(fan)[cone]


def cone_coordinates(fan: Fan, cone: tuple[int, ...], point: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of `point` on the cone's ray basis (exact integers)."""
    # point = sum(lambda_j * v_j) <=> lambda = B^T point with B the inverse
    # of the ray-row matrix.
    return cone_inverse(fan, cone).transpose().mul_vec(point)


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
    """Structural checks: primitive distinct rays, smooth simplicial cones
    covering every ray, and the exact completeness certificate of
    is_complete, whose failure names the facet or the cone at fault.

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
    valid = []
    for cone in fan.max_cones:
        if len(set(cone)) != n or any(i < 0 or i >= m for i in cone):
            simplicial = False
            problems.append(f"cone {cone} is not a set of {n} valid ray indices")
            continue
        covered.update(cone)
        valid.append(cone)
    for cone, d in zip(valid, ray_minors(fan, valid).tolist() if valid else ()):   # a 0-dimensional fan asks for none
        if abs(d) != 1:
            smooth = False
            problems.append(f"cone {cone} has determinant {d}; not smooth")
    if covered != set(range(m)) and simplicial:
        complete = False
        problems.append(f"rays not covered by any maximal cone: {sorted(set(range(m)) - covered)}")

    if problems:
        return FanValidation(smooth, complete, simplicial, tuple(problems))
    cover = _completeness_problems(fan)
    return FanValidation(smooth, not cover, simplicial, cover)


@lru_cache(maxsize=_FAN_CACHE_SIZE)
def _completeness_problems(fan: Fan) -> tuple[str, ...]:
    """Why the maximal cones do not cover R^n exactly once, or () when they do.

    - Pairing: every facet of a maximal cone lies in exactly two maximal
      cones, and their apexes lie strictly on opposite sides of its
      hyperplane.  Then a path that crosses a facet leaves one cone and
      enters one, so every point off the cones of dimension n - 2 lies in
      the same number of maximal cones (the degree); that set is connected.
    - Degree one: the ray sum of the first maximal cone, an interior point
      of it, lies in no other maximal cone.

    Both checks are exact integer sign tests on the facet normals, which
    come from one _cross_products call.
    """
    n, m, rays, cones = fan.dim, fan.n_rays, fan.rays, fan.max_cones
    if (not cones or any(len(ray) != n for ray in rays)
            or any(len(set(cone)) != n or not all(0 <= i < m for i in cone) for cone in cones)):
        return (f"the maximal cones are not sets of {n} valid ray indices",)
    ray_array, top = _ray_array(fan)
    apexes = np.array([sorted(cone) for cone in cones], dtype=np.intp)   # C x n
    facets = apexes[:, _omitting(n)]                                      # C x n x (n-1): facet i omits apex i
    normals = _cross_products(ray_array[facets.reshape(len(cones) * n, n - 1)], top).reshape(len(cones), n, n)
    sides = (normals[..., None, :] @ ray_array[apexes][..., None])[..., 0, 0].tolist()   # C x n: each apex's side
    pairs: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for cone, cone_facets, cone_sides in zip(cones, facets.tolist(), sides):
        for facet, side in zip(cone_facets, cone_sides):
            pairs.setdefault(tuple(facet), []).append((cone, side))
    problems = []
    for facet, pair in sorted(pairs.items()):
        if len(pair) != 2:
            problems.append(f"facet {facet} lies in {len(pair)} maximal cones, expected 2")
        elif pair[0][1] * pair[1][1] >= 0:
            problems.append(f"facet {facet}: maximal cones {pair[0][0]} and {pair[1][0]} "
                            f"do not lie on opposite sides of it")
    if problems:
        return tuple(problems)
    first = cones[0]
    point = tuple(map(sum, zip(*(rays[i] for i in first))))
    dtype = _minor_dtype(n, n * top)   # <normal, point> = det(point, facet rays), entries at most n top
    reach = (normals.astype(dtype, copy=False) @ np.array(point, dtype=dtype)).tolist()
    for cone, cone_sides, cone_reach in zip(cones[1:], sides[1:], reach[1:]):
        if all(side * at >= 0 for side, at in zip(cone_sides, cone_reach)):
            return (f"the ray sum {point} of maximal cone {first} also lies in maximal cone {cone}",)
    return ()


def is_complete(fan: Fan) -> bool:
    """Exact certificate that the maximal cones cover R^n, overlapping only on their boundaries.

    Then the fan is complete, and its boundary complex (the cones' ray
    sets) triangulates the (n-1)-sphere.
    """
    return not _completeness_problems(fan)


def _mask_of(indices: Iterable[int]) -> int:
    """The ray bitmask of a set of ray indices: bit i is ray i."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


@lru_cache(maxsize=_FAN_CACHE_SIZE)
def face_masks(fan: Fan) -> frozenset[int]:
    """Every face of the fan as a ray bitmask: all subsets of the maximal cones, 0 included."""
    faces = {0}
    for cone in fan.max_cones:
        full = sub = _mask_of(cone)
        while sub:
            faces.add(sub)
            sub = (sub - 1) & full
    return frozenset(faces)


def is_face(fan: Fan, s: Iterable[int]) -> bool:
    return _mask_of(s) in face_masks(fan)


@lru_cache(maxsize=_FAN_CACHE_SIZE)
def primitive_collections(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """Minimal non-faces, ordered by cardinality then lexicographically.

    A non-face is minimal exactly when dropping any one ray leaves a face.
    """
    faces, m = face_masks(fan), fan.n_rays
    # no face has more rays than the largest maximal cone
    largest = max((len(c) for c in fan.max_cones), default=0)
    found = []
    for size in range(2, min(m, largest + 1) + 1):
        for s in combinations(range(m), size):
            mask = _mask_of(s)
            if mask not in faces and all(mask & ~(1 << i) in faces for i in s):
                found.append(s)
    return tuple(found)


@lru_cache(maxsize=_FAN_CACHE_SIZE)
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


def is_fano(fan: Fan) -> bool:
    """True when every primitive relation has positive degree."""
    return all(rel.degree > 0 for rel in primitive_relations(fan))
