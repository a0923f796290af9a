"""Acyclicity and section-vanishing machinery for toric line bundles.

Cohomology of O(D) on a smooth complete toric variety decomposes over the
linear-equivalence representatives a' of D.  Each representative selects
the full simplicial subcomplex C_I on the rays where a' is nonnegative, and
contributes the reduced homology of C_I (over a field of characteristic
zero) in a degree determined by the cohomological index:

    h^p(O(D)) = sum over a' ~ D of rank Htilde_{n-p-1}(C_{I_{a'}}).

A proper ray subset I is *forbidden* when C_I has nontrivial reduced
homology; the Borisov-Hua criterion says O(D) is acyclic exactly when no
representative of D has a forbidden sign pattern.  On a Fano fan the
Mustata vanishing theorem gives a fast positive filter: any divisor with a
representative whose coefficients all lie in {0, 1} is acyclic.

Representative searches run over a bounded box of characters and re-check
the verdict on an enlarged box; a verdict that changes on enlargement
raises BoxUnstable instead of being reported.  Unless a query is given a
box radius, it starts from max(3, 2 + the largest |class coordinate|); a
start past _RADIUS_LIMIT raises BoxTooLarge before any box is built.
Each (class, radius) box is enumerated once into a cached histogram of
sign patterns, and every query on the class reads its answer from that
histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BoxTooLarge, BoxUnstable, TooManyRays
from .fan import Fan, is_fano
from .lattice import _INT64_SAFE, IntMatrix, rank as matrix_rank
from .picard import ClassVector, PicContext, to_class

_MAX_SWEEP_RAYS = 20
_HISTOGRAM_CACHE_SIZE = 128  # one class's radii, and the differences a collection check repeats


# ---------------------------------------------------------------------------
# simplicial subcomplexes and their reduced homology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplicialSubcomplex:
    """Full subcomplex of the fan's boundary complex on a ray subset.

    Faces are the cone ray-sets contained in the vertex set, listed as
    sorted tuples; the empty face is always present.
    """

    dim: int                                  # ambient fan dimension n
    vertices: tuple[int, ...]
    faces: tuple[tuple[int, ...], ...]


def full_subcomplex(fan: Fan, vertex_set: Sequence[int]) -> SimplicialSubcomplex:
    vs = sorted(set(int(i) for i in vertex_set))
    faces = {()}
    for cone in fan.max_cones:
        inside = tuple(sorted(set(cone) & set(vs)))
        for size in range(1, len(inside) + 1):
            faces.update(combinations(inside, size))
    return SimplicialSubcomplex(fan.dim, tuple(vs), tuple(sorted(faces, key=lambda f: (len(f), f))))


def _boundary_rank(lower: list[tuple[int, ...]], upper: list[tuple[int, ...]]) -> int:
    """Rank of the simplicial boundary map from `upper` faces to `lower` faces."""
    if not lower or not upper:
        return 0
    index = {f: i for i, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, face in enumerate(upper):
        for omit in range(len(face)):
            sub = face[:omit] + face[omit + 1:]
            rows[index[sub]][j] = (-1) ** omit
    return matrix_rank(IntMatrix.from_rows(rows))


def reduced_homology_ranks(complex_: SimplicialSubcomplex) -> tuple[int, ...]:
    """Ranks of reduced homology in degrees -1 .. n-1 (entry k+1 holds degree k).

    Computed over a field of characteristic zero via exact integer ranks of
    the boundary matrices; the reduced chain complex includes the empty face,
    so the empty subcomplex has rank one in degree -1.
    """
    n = complex_.dim
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]  # by_dim[k] = k-1 dimensional faces
    for f in complex_.faces:
        if len(f) <= n:
            by_dim[len(f)].append(f)
    ranks_of_boundary = [0] * (n + 2)  # boundary from (k)-vertex faces down to (k-1)-vertex faces
    for k in range(1, n + 1):
        ranks_of_boundary[k] = _boundary_rank(by_dim[k - 1], by_dim[k])
    out = []
    for k in range(-1, n):
        faces_here = len(by_dim[k + 1])
        out.append(faces_here - ranks_of_boundary[k + 1] - ranks_of_boundary[k + 2])
    return tuple(out)


@lru_cache(maxsize=None)
def _rank_memo(fan: Fan) -> dict[int, tuple[int, ...]]:
    """mask -> pattern ranks.  A query fetches it once, so the fan is hashed once, not per mask."""
    return {}


@lru_cache(maxsize=None)
def _forbidden_memo(fan: Fan) -> set[int]:
    """The forbidden masks among those in _rank_memo(fan)."""
    return set()


def _pattern_ranks(fan: Fan, mask: int) -> tuple[int, ...]:
    memo = _rank_memo(fan)
    if mask not in memo:
        vs = [i for i in range(fan.n_rays) if mask >> i & 1]
        ranks = memo[mask] = reduced_homology_ranks(full_subcomplex(fan, vs))
        if any(ranks) and mask != (1 << fan.n_rays) - 1:
            _forbidden_memo(fan).add(mask)
    return memo[mask]


def _mask_of(indices: Sequence[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


# ---------------------------------------------------------------------------
# forbidden sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForbiddenSetReport:
    """All proper ray subsets whose full subcomplex carries reduced homology."""

    fan: Fan
    forbidden: tuple[tuple[int, ...], ...]
    homology_ranks: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def forbidden_sets(fan: Fan) -> ForbiddenSetReport:
    """Exhaustive sweep over all proper subsets of the ray set."""
    m = fan.n_rays
    if m > _MAX_SWEEP_RAYS:
        raise TooManyRays(f"{m} rays; exhaustive 2^m sweep capped at m={_MAX_SWEEP_RAYS}")
    hits = []
    for mask in range(2 ** m - 1):  # proper subsets only: skip the full set
        ranks = _pattern_ranks(fan, mask)
        if any(ranks):
            hits.append((tuple(i for i in range(m) if mask >> i & 1), ranks))
    hits.sort(key=lambda item: (len(item[0]), item[0]))
    return ForbiddenSetReport(fan, tuple(s for s, _ in hits), tuple(r for _, r in hits))


# ---------------------------------------------------------------------------
# bounded representative searches
# ---------------------------------------------------------------------------

def _radius_for_class(coords: ClassVector) -> int:
    return max(3, max((abs(c) for c in coords), default=0) + 2)


_RADIUS_LIMIT = 40


def _stabilized(compute, r0: int, escalate: bool, what: str):
    """Run `compute` at r and r+2 until both agree; optionally keep enlarging.

    Returns (value, radius_at_which_it_first_held).  Without escalation a
    single disagreement raises BoxUnstable, as the bounded searches promise.
    """
    prev = compute(r0)
    r = r0 + 2
    while True:
        cur = compute(r)
        if cur == prev:
            return cur, r - 2
        if not escalate or r + 2 > _RADIUS_LIMIT:
            raise BoxUnstable(
                f"{what} changed from {prev} to {cur} when the box grew to radius {r}; raise the radius"
            )
        prev, r = cur, r + 2


@lru_cache(maxsize=8)  # boxes grow as radius^n: keep only the radii in use
def _character_box(n: int, radius: int) -> np.ndarray:
    """The characters u in [-radius, radius]^n as read-only int64 rows."""
    box = np.array(list(product(range(-radius, radius + 1), repeat=n)), dtype=np.int64)
    box.flags.writeable = False
    return box


class PatternHistogram(NamedTuple):
    counts: Mapping[int, int]      # sign mask -> number of representatives in the box
    mustata: bool                  # some representative has every coefficient in {0, 1}


@lru_cache(maxsize=_HISTOGRAM_CACHE_SIZE)
def _pattern_histogram(fan: Fan, divisor: tuple[int, ...], radius: int) -> PatternHistogram:
    """Sign patterns of the representatives a + pairing*u, u in the centred box.

    Bit i of a mask is set when the representative is nonnegative on ray i.
    This is the one place where a box of representatives is built.
    """
    n, m = fan.dim, fan.n_rays
    bound = max(abs(x) for ray in fan.rays for x in ray) * radius * n + max(map(abs, divisor))
    dtype = np.int64 if bound < _INT64_SAFE else object
    reps = (_character_box(n, radius).astype(dtype, copy=False) @ np.array(fan.rays, dtype=dtype).T
            + np.array(divisor, dtype=dtype))
    masks = (reps >= 0) @ np.array([1 << i for i in range(m)], dtype=np.int64 if m < 63 else object)
    unique, counts = np.unique(masks, return_counts=True)
    full_rows = reps[masks == (1 << m) - 1]
    return PatternHistogram(MappingProxyType(dict(zip(unique.tolist(), counts.tolist()))),
                            bool((full_rows <= 1).all(axis=1).any()))


def _histograms(ctx: PicContext, divisor: Sequence[int], box_radius: Optional[int]):
    """radius -> D's pattern histogram at that radius, and the radius to start from."""
    fan, key = ctx.fan, tuple(int(a) for a in divisor)
    r0 = _radius_for_class(to_class(ctx, divisor)) if box_radius is None else box_radius
    if r0 < 1:
        raise ValueError("box_radius must be >= 1")
    if r0 > _RADIUS_LIMIT:
        raise BoxTooLarge(f"the search box would start at radius {r0}, past the limit {_RADIUS_LIMIT}")
    return (lambda radius: _pattern_histogram(fan, key, radius)), r0


def is_forbidden_form(ctx: PicContext, divisor: Sequence[int], forbidden_set: Sequence[int],
                      box_radius: Optional[int] = None, escalate: bool = False) -> bool:
    """Does some representative of D sit exactly on the sign pattern of I?

    That is: a' >= 0 on I and a' <= -1 off I for some a' ~ D.  The search
    box starts at the class-derived radius unless box_radius is given, and
    is re-run two steps larger; a flip of verdict raises BoxUnstable (or
    keeps enlarging when escalate is set).
    """
    target = _mask_of(forbidden_set)
    histogram, r0 = _histograms(ctx, divisor, box_radius)
    return _stabilized(lambda r: target in histogram(r).counts, r0, escalate,
                       "is_forbidden_form verdict")[0]


def has_nonzero_global_sections(ctx: PicContext, divisor: Sequence[int],
                                box_radius: Optional[int] = None, escalate: bool = False) -> bool:
    """True when D is linearly equivalent to an effective toric divisor."""
    full = (1 << ctx.fan.n_rays) - 1
    histogram, r0 = _histograms(ctx, divisor, box_radius)
    return _stabilized(lambda r: full in histogram(r).counts, r0, escalate, "sections verdict")[0]


def is_acyclic(ctx: PicContext, divisor: Sequence[int],
               box_radius: Optional[int] = None, escalate: bool = False) -> bool:
    """Borisov-Hua acyclicity test: no representative with a forbidden pattern.

    The Mustata filter short-circuits the common effective cases on Fano
    fans.  Otherwise only the patterns that occur are ranked, each once per
    fan, so no sweep over all ray subsets is needed.
    """
    fan = ctx.fan
    histogram, r0 = _histograms(ctx, divisor, box_radius)
    # On a Fano fan, any divisor equivalent to a 0/1 combination of rays is
    # acyclic (ample anticanonical minus distinct toric divisors).
    if is_fano(fan) and histogram(r0).mustata:
        return True
    memo, forbidden = _rank_memo(fan), _forbidden_memo(fan)

    def acyclic_at(radius: int) -> bool:
        counts = histogram(radius).counts
        if not memo.keys() >= counts.keys():   # cheap test: most patterns are ranked already
            for mask in counts.keys() - memo.keys():
                _pattern_ranks(fan, mask)
        return forbidden.isdisjoint(counts)

    return _stabilized(acyclic_at, r0, escalate, "acyclicity verdict")[0]


# ---------------------------------------------------------------------------
# the cohomology oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyTable:
    divisor_class: ClassVector
    dims: tuple[int, ...]          # h^0 ... h^n
    box_radius_used: int

    @property
    def is_acyclic(self) -> bool:
        return all(h == 0 for h in self.dims[1:])


def cohomology_table(ctx: PicContext, divisor: Sequence[int],
                     box_radius: Optional[int] = None, escalate: bool = False) -> CohomologyTable:
    """All cohomology dimensions of O(D) by direct summation over the box.

    Every representative in the box contributes its pattern subcomplex's
    reduced homology; the dimensions must agree with the run on the box two
    steps larger, else BoxUnstable is raised (or the box keeps growing when
    escalate is set).  Only finitely many representatives contribute: far
    away ones select half-space-like patterns with contractible
    subcomplexes, which is why the truncation stabilizes.
    """
    fan = ctx.fan
    n = fan.dim
    cls = to_class(ctx, divisor)
    histogram, r0 = _histograms(ctx, divisor, _radius_for_class(cls) if box_radius is None else box_radius)
    ranks_of = _rank_memo(fan)

    def dims_at(radius: int) -> tuple[int, ...]:
        dims = [0] * (n + 1)
        for msk, count in histogram(radius).counts.items():
            ranks = ranks_of[msk] if msk in ranks_of else _pattern_ranks(fan, msk)
            if any(ranks):  # most patterns select contractible subcomplexes
                dims = [d + count * h for d, h in zip(dims, reversed(ranks))]
        return tuple(dims)

    dims, radius_used = _stabilized(dims_at, r0, escalate, "cohomology dimensions")
    return CohomologyTable(cls, dims, radius_used)
