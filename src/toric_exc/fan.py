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
batch of n-subsets and their signed cofactors, all from one batch of
lattice._cross_products, the one exact kernel for them; no other code
calls the kernel.  One request over the maximal cones, times the rays,
is the fan's table of every ray's coordinates on each (ray_coordinates):
validate_fan's smoothness check, the completeness certificate's facet
sides, the primitive relations and the Frobenius line frame read it.
One request over every ray n-subset is the fan's table of their minors
(subset_minors): the cohomology module's vertex frames read its subsets,
dets and cofactors, and the exact Bondal-Thomsen set reads the lcm of its
dets.  The other request is cone_inverse (one subset, not cached: a
stored Pic basis's complement).
Every per-fan table, here and in the cohomology module, is kept for the
last _FAN_CACHE_SIZE fans, so a process that checks many fans holds the
tables of a bounded number of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import gcd
from typing import Iterable, Sequence

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


def ray_minors(fan: Fan, subsets: Sequence[Sequence[int]] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det A_S and its signed cofactor rows for the K ray n-subsets S of one request, A_S the rays of S as rows.

    subsets is a K x n index array, or anything np.array makes one of, and
    A_S lists the rays in S's order.  The normal of a ridge R is the cross
    product of its rays in R's order.  The dets (a K array) are
    det A_S = <v_S0, normal of S minus S0>, and the K x n x n rows are
    sign(det A_S) (-1)^i normal of S minus S_i, so that
    A_S @ rows^T = |det A_S| I; a zero det has zero rows.  Every normal of
    the request comes from one _cross_products call.  The arrays are int64,
    or Python integers on a fan past _minor_dtype's bound.
    """
    n, top = fan.dim, max(1, max(map(abs, chain.from_iterable(fan.rays)), default=0))   # top >= 1 bounds each entry
    rays = np.array(fan.rays, dtype=_minor_dtype(n, top)).reshape(-1, n)
    S = np.array(subsets, dtype=np.intp).reshape(-1, n)
    normals = _cross_products(rays[S[:, _omitting(n)].reshape(len(S) * n, n - 1)], top).reshape(len(S), n, n)
    dets = (rays[S[:, :1]] @ normals[:, 0, :, None])[:, 0, 0]
    return dets, (np.sign(dets)[:, None] * _alternating(n))[:, :, None] * normals


def cone_inverse(fan: Fan, cone: tuple[int, ...]) -> IntMatrix:
    """Inverse of the ray-row matrix of an ascending ray n-subset that is a lattice basis: a request of one, not cached.

    det times the transposed cofactor matrix: its columns are the rows of
    ray_minors.  A subset whose rays are not a lattice basis raises
    NotUnimodular, naming its determinant; one with other than n rays
    raises it as not square.
    """
    if len(cone) != fan.dim:
        raise NotUnimodular(f"matrix is {len(cone)}x{fan.dim}, not square")
    dets, rows = ray_minors(fan, [cone])
    det, columns = int(dets[0]), rows[0].tolist()
    if abs(det) != 1:
        raise NotUnimodular(f"determinant is {det}, not +-1")
    assert _is_identity_product([fan.rays[i] for i in cone], columns)
    return IntMatrix(tuple(zip(*columns)))


@lru_cache(maxsize=_FAN_CACHE_SIZE)
def ray_coordinates(fan: Fan) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, np.ndarray]:
    """The fan's table of every ray's coordinates on every maximal cone, from one ray_minors request.

    The maximal cones of n valid ray indices in fan.max_cones order, their
    dets d, and the read-only K x n x m cofactor rows times the rays: entry
    [k, i, j] is |d_k| times the coefficient of ray j on ray i of cone k,
    exact on a unimodular cone and 0 on a singular one.  An entry is a ray
    n-minor, at most n^(n/2) top^n (Hadamard), and (n + 1) n^(n/2) <= 8 n!:
    so on an int64 table (n! top^n < 2^60) any n + 1 columns sum below 2^63,
    as the primitive relations and the completeness certificate need.
    """
    n, m = fan.dim, fan.n_rays
    cones = tuple(cone for cone in fan.max_cones if len(cone) == len(set(cone)) == n and all(0 <= i < m for i in cone))
    if not cones:   # no request, which a 0-dimensional fan could not make
        return cones, np.zeros(0, dtype=np.int64), np.zeros((0, n, m), dtype=np.int64)
    dets, rows = ray_minors(fan, cones)
    coordinates = rows @ np.array(fan.rays, dtype=rows.dtype).reshape(-1, n).T
    dets.flags.writeable = coordinates.flags.writeable = False
    return cones, dets, coordinates


@lru_cache(maxsize=_FAN_CACHE_SIZE)
def subset_minors(fan: Fan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fan's table of every nonsingular ray n-subset's minors, from one ray_minors request.

    The subsets S in lexicographic order (a K x n index array), |det A_S|
    and the signed cofactor rows of ray_minors, so that
    A_S @ rows^T = |det A_S| I; all three are read-only.  The table has no
    limit of its own: each reader checks its own before it reads it.
    """
    n, m = fan.dim, fan.n_rays
    every = np.array(list(combinations(range(m), n)), dtype=np.intp).reshape(-1, n)
    dets, rows = ray_minors(fan, every)
    nonsingular = np.flatnonzero(dets)
    table = every[nonsingular], abs(dets[nonsingular]), rows[nonsingular]
    for array in table:
        array.flags.writeable = False
    return table


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

    cones, dets, _ = ray_coordinates(fan)
    valid = set(cones)
    for cone in fan.max_cones:
        if cone not in valid:
            simplicial = False
            problems.append(f"cone {cone} is not a set of {n} valid ray indices")
    covered = set().union(*cones)
    for cone, d in zip(cones, dets.tolist()):
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

    Both checks are exact integer sign tests read from ray_coordinates:
    row i of cone k pairs the inward normal of facet i (the facet without
    ray i) with every ray, so entry [k, i, j] is negative exactly when ray
    j lies strictly beyond that facet, and 0 on a singular cone.
    """
    n = fan.dim
    if any(len(ray) != n for ray in fan.rays):   # before the table, which needs n entries a ray
        return (f"the maximal cones are not sets of {n} valid ray indices",)
    cones, _, coordinates = ray_coordinates(fan)
    if not cones or len(cones) != len(fan.max_cones):
        return (f"the maximal cones are not sets of {n} valid ray indices",)
    pairs: dict[tuple[int, ...], list[tuple[int, int]]] = {}   # facet: (cone k, position i of its apex) per cone
    for k, cone in enumerate(cones):
        for i in range(n):
            pairs.setdefault(tuple(sorted(cone[:i] + cone[i + 1:])), []).append((k, i))
    problems = []
    for facet, pair in sorted(pairs.items()):
        if len(pair) != 2:
            problems.append(f"facet {facet} lies in {len(pair)} maximal cones, expected 2")
            continue
        (k, i), (other, j) = pair
        # One side suffices: the entry is sign(d_k) det(cone k with ray i replaced by the other apex), 0 when either
        # cone is singular (`other` is exactly when its apex lies in the facet's span; cone k has zero rows), and
        # else negative exactly when the two apexes lie strictly on opposite sides, as read from either cone.
        if coordinates[k, i, cones[other][j]] >= 0:
            problems.append(f"facet {facet}: maximal cones {cones[k]} and {cones[other]} "
                            f"do not lie on opposite sides of it")
    if problems:
        return tuple(problems)
    first = cones[0]
    inside = (coordinates[1:, :, list(first)].sum(axis=2) >= 0).all(axis=1)   # the ray sum's coordinates
    if inside.any():
        point = tuple(map(sum, zip(*(fan.rays[i] for i in first))))
        cone = cones[1 + int(inside.argmax())]
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
    """One relation per primitive collection, with exact coefficients, read from ray_coordinates.

    Every collection's column sum on every cone is one product of the table
    with the collections' m x P 0/1 incidence matrix.  The target is the
    first cone on which that sum is >= 0; a cone that is not unimodular
    met before it raises NotUnimodular.
    """
    cones, dets, coordinates = ray_coordinates(fan)
    collections = primitive_collections(fan)
    incidence = np.zeros((fan.n_rays, len(collections)), dtype=coordinates.dtype)
    for t, pc in enumerate(collections):
        incidence[list(pc), t] = 1
    sums = coordinates @ incidence   # cones x n x collections
    stop = (sums >= 0).all(axis=1) | (abs(dets) != 1)[:, None]
    first = np.vstack((stop, np.ones(len(collections), dtype=bool))).argmax(axis=0)   # len(cones): no cone stops
    relations = []
    for t, (pc, k) in enumerate(zip(collections, first.tolist())):
        if k == len(cones):
            raise InteriorCoverFailure(f"sum of primitive collection {pc} lies in no maximal cone; fan is not complete")
        if abs(dets[k]) != 1:
            raise NotUnimodular(f"determinant is {dets[k]}, not +-1")
        target = zip(cones[k], sums[k, :, t].tolist())
        relations.append(PrimitiveRelation(pc, tuple((ray, c) for ray, c in target if c > 0)))
    return tuple(relations)


def is_fano(fan: Fan) -> bool:
    """True when every primitive relation has positive degree."""
    return all(rel.degree > 0 for rel in primitive_relations(fan))
