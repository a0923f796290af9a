"""Acyclicity and section-vanishing machinery for toric line bundles.

Cohomology of O(D) on a smooth complete toric variety decomposes over the
linear-equivalence representatives a' of D.  Each representative selects
the full simplicial subcomplex C_I on the rays where a' is nonnegative, and
contributes the reduced homology of C_I (over a field of characteristic
zero) in a degree determined by the cohomological index:

    h^p(O(D)) = sum over a' ~ D of rank Htilde_{n-p-1}(C_{I_{a'}}).

A proper ray subset I is *forbidden* when C_I has nontrivial reduced
homology; the Borisov-Hua criterion says O(D) is acyclic exactly when no
representative of D has a forbidden sign pattern.  The faces of C_I are
read from the fan's one face set (fan.face_masks, ray bitmasks), and most
patterns a query meets are certified contractible by a membership test in
it, without a boundary matrix:

- a nonempty I that is a face spans a full simplex, on any fan;
- on a fan with fan.is_complete, whose boundary complex is therefore an
  (n-1)-sphere S, a proper I whose complement J is a face has C_I a
  deformation retract of S minus the closed simplex of J, which has the
  reduced homology of a point by Alexander duality.

Writing a' = a + (<u, v_rho>)_rho for a character u, only the patterns I
that are empty, forbidden or full can change a dimension or a verdict, and
they do so through the characters of the region

    P_I(a) = {u : <u, v_rho> >= -a_rho on I, <= -a_rho - 1 off I}.

These characters are found once per divisor, in a box proven to hold them
all (Borisov-Hua, Adv. Math. 2009):

- The domain is a fan with fan.is_complete, on which every contributing
  region is bounded; any other fan raises UnboundedRegion.  Proof: the
  recession cone of P_I(a) does not depend on a.  If it held an integral
  d != 0, take any character u and choose a so that u is in P_I(a); then
  every u + kd has pattern I, and h^p(O(D)) would be infinite for a p in
  which C_I has homology (h^0 when I is full).  A complete toric variety
  is proper, so that cannot happen (Borisov-Hua; Cox-Little-Schenck,
  Toric Varieties, ch. 3 and 9).  For I empty or full the cone is 0
  outright, because the rays positively span.
- The rays span, so every nonempty region has a vertex, which solves n of
  its inequalities with equality: |det A_S| u = -adj(A_S)(a_S + eps) for
  a nonsingular ray n-subset S and eps in {0,1}^n.  The candidates that
  leave no ray in the open gap (-a_rho - 1, -a_rho) carry the masks of
  all nonempty regions.  A fan whose pass for one divisor would hold more
  than _VERTEX_PASS_LIMIT gap entries raises BoxTooLarge before it starts.
- A candidate's gap |det A_S| (<u, v_rho> + a_rho) is linear in the
  divisor.  Per fan, the pairings -sign(det A_S) rays @ adj(A_S) and the
  corner gaps of every eps are cached, the latter holding as many entries
  as one divisor's pass; like the pattern table (each mask's ranks, which
  _pattern_ranks alone writes and forbidden_sets reads) and every table
  of the fan module, they are kept for the last fan._FAN_CACHE_SIZE fans.
  A pass over any number of divisors takes n multiply-adds per (S, ray,
  divisor) and one broadcast comparison with the corner gaps to read
  every sign mask.  Only the contributing candidates get their numerators
  |det A_S| u, whose floors and ceilings fix each divisor's box.
- The boxes are enumerated together into one list per divisor of
  contributing patterns with the sup norms ||u|| of their characters: one
  array of the characters of all the boxes (in runs of at most
  _CHARACTER_LIMIT), one product with the rays and one mask computation.
  A box reaching past _RADIUS_LIMIT, or holding more than
  _CHARACTER_LIMIT characters, raises BoxTooLarge before anything is
  enumerated.  A single query enumerates its one box and caches the list;
  a collection check (vanishing_verdicts) enumerates the boxes of all its
  divisors at once, reads both verdicts of each from its list, and keeps
  nothing.

Every query reads its answer from that whole list, so every answer is
exact.  A query checks its start radius r0 first: for cohomology_table,
box_radius if given, else max(3, 2 + the largest |class coordinate|),
which is the only r0 of the verdict queries.  An r0 below 1 raises
ValueError and one past _RADIUS_LIMIT raises BoxTooLarge, before any box
is built.  cohomology_table reports as box_radius_used the first of r0,
r0 + 2, ... that holds every listed character.  Without escalate, an
answer that rests on a character past r0 raises BoxUnstable instead.  An
escalating verdict query needs no r0, so it does not compute the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice, product
from math import comb, prod
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BoxTooLarge, BoxUnstable, TooManyRays, UnboundedRegion
from .fan import (_FAN_CACHE_SIZE, Fan, _completeness_problems, _mask_of, face_masks, is_complete,
                  ray_minors)
from .lattice import _INT64_SAFE, _eliminate
from .picard import ClassVector, PicContext, to_class

_MAX_SWEEP_RAYS = 20
_RADIUS_LIMIT = 40  # the largest start radius, and the farthest a certified box may reach
_CHARACTER_LIMIT = 1 << 22  # the most characters a certified box may hold (81^3 = 531,441 in dimension 3)
_POINT_CACHE_SIZE = 128  # the divisors whose lists the single queries share
_PASS_ELEMENTS = 1 << 20  # gap entries (divisors x vertex candidates x rays) per vectorised box pass
_VERTEX_PASS_LIMIT = 1 << 23  # the most gap entries of one divisor's vertex pass: 64 MB per int64 array


# ---------------------------------------------------------------------------
# simplicial subcomplexes and their reduced homology
# ---------------------------------------------------------------------------

def reduced_homology_ranks(fan: Fan, rays: Iterable[int]) -> tuple[int, ...]:
    """Ranks of reduced homology of C_I, the full subcomplex on the ray set I, in degrees -1 .. n-1.

    Entry k+1 holds degree k.  The faces of C_I are the fan's faces
    (fan.face_masks) inside I, the empty face included, so the empty
    subcomplex has rank one in degree -1.  The ranks are over a field of
    characteristic zero, from exact integer ranks of the boundary matrices:
    a face maps to the faces that omit one of its rays, with sign (-1) to
    the position of the omitted bit.
    """
    n, inside = fan.dim, _mask_of(rays)
    by_size: list[list[int]] = [[] for _ in range(n + 1)]  # by_size[k]: the faces with k rays
    for face in face_masks(fan):
        if not face & ~inside:
            by_size[face.bit_count()].append(face)
    boundary = [0] * (n + 2)  # boundary[k]: rank of the map from k-ray faces to (k-1)-ray faces
    for k in range(1, n + 1):
        lower, upper = by_size[k - 1], by_size[k]
        if not lower or not upper:
            continue
        index = {face: i for i, face in enumerate(lower)}
        rows = [[0] * len(upper) for _ in lower]
        for j, face in enumerate(upper):
            rest = face
            for position in range(k):
                bit = rest & -rest
                rows[index[face ^ bit]][j] = (-1) ** position
                rest ^= bit
        boundary[k] = _eliminate(rows, len(upper))[0]
    return tuple(len(by_size[k + 1]) - boundary[k + 1] - boundary[k + 2] for k in range(-1, n))


class _Patterns(NamedTuple):
    """Per-fan pattern table.  _pattern_ranks is its one writer, and fetches it on every call."""

    ranks: dict[int, tuple[int, ...]]   # mask -> pattern ranks, one shared tuple for every zero
    live: set[int]                      # the ranked masks that contribute: nonzero ranks, or the full one
    faces: frozenset[int]               # fan.face_masks
    complete: bool                      # the fan carries fan.is_complete


@lru_cache(maxsize=_FAN_CACHE_SIZE)
def _patterns(fan: Fan) -> _Patterns:
    return _Patterns({}, set(), face_masks(fan), is_complete(fan))


def _pattern_ranks(fan: Fan, mask: int) -> tuple[int, ...]:
    """Reduced homology ranks of C_I, degrees -1 .. n-1, for the ray set I of the mask.

    Two certificates, each a lookup in the face set, give zero ranks
    without a boundary matrix:
    - I is nonempty and is a face: every subset of I is a face, so C_I is
      a full simplex, on any fan.
    - I is proper, its complement J is nonempty and is a face, and the fan
      is certified complete (fan.is_complete), so its boundary complex is
      an (n-1)-sphere S.  The full subcomplex on the other vertices is a
      deformation retract of S minus the closed simplex of J; by Alexander
      duality that has the reduced homology of the simplex, which is zero.
      On a fan without the certificate this rule is wrong (P3 without a
      maximal cone: the missing cone's rays bound a circle, though their
      complement is a ray), so it is not applied.
    Every other mask is ranked by reduced_homology_ranks.  The mask joins
    the live set when its ranks are nonzero or it is the full one.
    """
    memo = _patterns(fan)
    if mask not in memo.ranks:
        faces, rest = memo.faces, ((1 << fan.n_rays) - 1) & ~mask
        ranks = _zero_ranks(fan.dim)   # shared, so a 2^m sweep stores one zero tuple, not thousands
        if not (mask and mask in faces or memo.complete and rest and rest in faces):
            found = reduced_homology_ranks(fan, [i for i in range(fan.n_rays) if mask >> i & 1])
            if any(found):
                ranks = found
        memo.ranks[mask] = ranks
        if any(ranks) or not rest:
            memo.live.add(mask)
    return memo.ranks[mask]


@lru_cache(maxsize=None)
def _zero_ranks(n: int) -> tuple[int, ...]:
    return (0,) * (n + 1)


# ---------------------------------------------------------------------------
# forbidden sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForbiddenSetReport:
    """All proper ray subsets whose full subcomplex carries reduced homology."""

    forbidden: tuple[tuple[int, ...], ...]
    homology_ranks: tuple[tuple[int, ...], ...]


def forbidden_sets(fan: Fan) -> ForbiddenSetReport:
    """Exhaustive sweep over all proper subsets of the ray set, read from the fan's pattern table."""
    m = fan.n_rays
    if m > _MAX_SWEEP_RAYS:
        raise TooManyRays(f"{m} rays; exhaustive 2^m sweep capped at m={_MAX_SWEEP_RAYS}")
    hits = []
    for mask in range(2 ** m - 1):  # proper subsets only: skip the full set
        ranks = _pattern_ranks(fan, mask)
        if any(ranks):
            hits.append((tuple(i for i in range(m) if mask >> i & 1), ranks))
    hits.sort(key=lambda item: (len(item[0]), item[0]))
    return ForbiddenSetReport(tuple(s for s, _ in hits), tuple(r for _, r in hits))


# ---------------------------------------------------------------------------
# the certified box of contributing characters
# ---------------------------------------------------------------------------

def _contributing(fan: Fan, masks: set[int]) -> set[int]:
    """The masks whose pattern can add to a cohomology dimension or a verdict."""
    memo = _patterns(fan)
    for mask in masks - memo.ranks.keys():
        _pattern_ranks(fan, mask)
    return masks & memo.live


class _VertexFrames(NamedTuple):
    subsets: np.ndarray       # K x n ray indices of the nonsingular ray n-subsets S
    cofactors: np.ndarray     # K x n x n: sign(det A_S) adj(A_S)^T, so A_S @ cofactors^T = |det A_S| I
    dets: np.ndarray          # K: |det A_S|
    wide: np.ndarray          # indices of the S with |det A_S| > 1: only their candidates can miss a vertex
    pairings: np.ndarray      # K x m x n: -(rays @ cofactors^T), so pairings @ a_S is |det A_S| <u, v_rho> at eps = 0
    corner_gaps: np.ndarray   # K x 2^n x m: the gaps' divisor-free part, eps @ pairings^T for each eps
    largest: int              # the largest |entry| of cofactors and dets
    rays_t: np.ndarray        # n x m: the rays as columns
    ray_max: int              # the largest |ray entry|
    weights: np.ndarray       # m: bit i of a sign mask is ray i


@lru_cache(maxsize=_FAN_CACHE_SIZE)
def _vertex_frames(fan: Fan) -> _VertexFrames:
    """Exact inverses (cofactors over |det|) of every nonsingular ray n-subset, and the divisor-free gap tables.

    This is the one domain check.  It raises UnboundedRegion for a fan
    without fan.is_complete, naming the first problem found, since only
    completeness proves every contributing region bounded (see the module
    docstring); a complete fan has a nonsingular maximal cone.  It raises
    BoxTooLarge when one divisor's vertex pass, C(m, n) 2^n candidates
    against m rays, would hold more than _VERTEX_PASS_LIMIT gap entries;
    corner_gaps, the largest table, holds that many.
    """
    problems = _completeness_problems(fan)
    if problems:
        raise UnboundedRegion(f"the fan is not complete, so its regions of characters need not be bounded: "
                              f"{problems[0]}")
    n, m, rays = fan.dim, fan.n_rays, fan.rays
    entries = comb(m, n) * 2 ** n * m
    if entries > _VERTEX_PASS_LIMIT:
        raise BoxTooLarge(f"the vertex pass of one divisor would hold {entries} gap entries "
                          f"({m} rays in dimension {n}), past the limit {_VERTEX_PASS_LIMIT}")
    every, subsets, cofactors, dets = list(combinations(range(m), n)), [], [], []
    for S, (det, rows) in zip(every, ray_minors(fan, every, cofactors=True)):
        if det:
            subsets.append(S)
            cofactors.append(rows)
            dets.append(abs(det))
    largest = max(max(abs(x) for cof in cofactors for row in cof for x in row), max(dets))
    ray_max = max(abs(x) for ray in rays for x in ray)
    dtype = np.int64 if max(largest, ray_max) < _INT64_SAFE else object
    gap_dtype = np.int64 if n * n * largest * ray_max < _INT64_SAFE else object   # bounds every corner gap
    cofactors, rays_t = np.array(cofactors, dtype=dtype), np.array(rays, dtype=dtype).T
    pairings = -(rays_t.T.astype(gap_dtype) @ cofactors.astype(gap_dtype).transpose(0, 2, 1))
    return _VertexFrames(np.array(subsets, dtype=np.int64), cofactors, np.array(dets, dtype=dtype),
                         np.flatnonzero(np.array(dets) > 1), pairings,
                         _corner_offsets(n).astype(gap_dtype) @ pairings.transpose(0, 2, 1),
                         largest, rays_t, ray_max,
                         np.array([1 << i for i in range(m)], dtype=np.int64 if m < 63 else object))


@lru_cache(maxsize=None)
def _corner_offsets(n: int) -> np.ndarray:
    """Every eps in {0,1}^n: which of a vertex's n tight inequalities sit at -a - 1."""
    return np.array(list(product((0, 1), repeat=n)), dtype=np.int64)


class _Box(NamedTuple):
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    extent: int               # the largest |coordinate| in the box


def _divisor_array(frames: _VertexFrames, divisors: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The D x m divisors of a pass: int64 when that keeps every gap and numerator exact, else Python ints.

    (n^2 ray_max + 1) largest (max |a_rho| + 1) bounds every base gap,
    every gap, every numerator |det| u and every sum on the way.
    """
    n = frames.subsets.shape[1]
    bound = (n * frames.ray_max * n + 1) * frames.largest * (max(map(abs, chain.from_iterable(divisors))) + 1)
    return np.array(divisors, dtype=np.int64 if bound < _INT64_SAFE else object)


def _base_gaps(frames: _VertexFrames, a: np.ndarray) -> np.ndarray:
    """The gaps at eps = 0, |det A_S| a_rho + pairings[S] @ a_S, a K x m x D array for the D x m divisors a.

    A candidate's gap is linear in the divisor: this part, n multiply-adds
    per entry, plus the cached corner gap of its eps.  The divisors run
    along the last axis, so the broadcasts over the candidates have a long
    inner axis.  The dtype follows a and the tables; _divisor_array keeps
    an int64 result exact.
    """
    a_t = a.T
    return frames.dets[:, None, None] * a_t + frames.pairings @ a_t[frames.subsets]


def _contributing_boxes(fan: Fan, divisors: Sequence[tuple[int, ...]]) -> list[Optional[_Box]]:
    """Each divisor's box of contributing characters, or None when none contributes, in one vectorised pass.

    Each vertex of a region P_I(a) solves n of its inequalities with
    equality, |det A_S| u = -adj(A_S)(a_S + eps), and leaves no ray strictly
    between -a_rho - 1 and -a_rho; its sign mask is I.  The rays span, so
    every nonempty region has a vertex, and the fan is complete, so every
    contributing region is bounded: the floors and ceilings of a divisor's
    contributing candidates span a box around them all.  A candidate's
    gap is its base gap (_base_gaps) plus the corner gap of its eps, so
    the sign masks of all candidates come from one broadcast comparison
    (in chunks of at most _PASS_ELEMENTS gap entries).  A gap is an
    integer, so only a wide S (|det| > 1) can leave a ray inside one.  The
    distinct masks are classified once; one comparison per contributing
    mask (nearly always just the full one) picks the chosen rows, and only
    those get their numerators |det| u, floored and reduced per divisor.
    The boxes come back in the order of the divisors, and nothing is kept.
    """
    frames = _vertex_frames(fan)
    n, corners, wide = fan.dim, 2 ** fan.dim, frames.wide
    boxes: list[Optional[_Box]] = [None] * len(divisors)
    chunk = max(1, _PASS_ELEMENTS // (len(frames.subsets) * corners * fan.n_rays))
    for start in range(0, len(divisors), chunk):
        a = _divisor_array(frames, divisors[start:start + chunk])
        base = _base_gaps(frames, a)
        masks = frames.weights @ (base[:, None] >= -frames.corner_gaps[..., None])   # K x 2^n x D: gap >= 0
        if len(wide):   # a ray strictly inside a gap, -|det| < gap < 0: no vertex, and -1 is no pattern's mask
            gaps = base[wide, None] + frames.corner_gaps[wide, ..., None]
            inside = ((gaps < 0) & (gaps > -frames.dets[wide, None, None, None])).any(axis=2)
            masks[wide] = np.where(inside, -1, masks[wide])
        distinct = set(masks.ravel().tolist()) - {-1}
        chosen = np.zeros(masks.shape, dtype=bool)
        for mask in _contributing(fan, distinct):   # mostly one: the full pattern
            chosen |= masks == mask
        which, row = np.divmod(np.flatnonzero(chosen.transpose(2, 0, 1)), len(frames.subsets) * corners)
        if not len(which):
            continue
        subset, corner = np.divmod(row, corners)
        offsets = a[which[:, None], frames.subsets[subset]] + _corner_offsets(n)[corner]   # a_S + eps
        num = -(offsets[:, None, :] @ frames.cofactors[subset])[:, 0]   # |det| u
        starts = np.flatnonzero(np.concatenate(([True], which[1:] != which[:-1])))   # each divisor's first row
        # floor(num / |det|) and floor(-num / |det|) = -ceil(num / |det|), each reduced to its least per divisor
        ends = np.minimum.reduceat(np.concatenate((num, -num), axis=1) // frames.dets[subset, None], starts)
        for d, end in zip(which[starts].tolist(), ends.tolist()):
            lo, hi = end[:n], [-x for x in end[n:]]
            boxes[start + d] = _Box(tuple(lo), tuple(hi), max(map(abs, lo + hi)))
    return boxes


_NO_POINTS: Mapping[int, tuple[int, ...]] = MappingProxyType({})


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _point_list(fan: Fan, divisor: tuple[int, ...]) -> Mapping[int, tuple[int, ...]]:
    """_characters of one divisor, its box from a one-divisor pass; the single queries share it."""
    return _characters(fan, [(divisor, _contributing_boxes(fan, (divisor,))[0])])[0]


def _runs(pairs: Sequence[tuple[tuple[int, ...], Optional[_Box]]]) -> list[list[int]]:
    """The indices of the pairs with a box, cut into consecutive runs of at most _CHARACTER_LIMIT characters.

    Every box is checked first: one reaching past _RADIUS_LIMIT, or holding
    more than _CHARACTER_LIMIT characters (about 130 bytes each while
    enumerated), raises BoxTooLarge before anything is enumerated; the
    radius alone bounds the count only in dimension 3.
    """
    runs: list[list[int]] = []
    total = 0
    for j, (_, box) in enumerate(pairs):
        if box is None:
            continue
        if box.extent > _RADIUS_LIMIT:
            raise BoxTooLarge(f"the certified box of contributing characters reaches radius {box.extent}, "
                              f"past the limit {_RADIUS_LIMIT}")
        count = prod(h - l + 1 for l, h in zip(box.lo, box.hi))
        if count > _CHARACTER_LIMIT:
            raise BoxTooLarge(f"the certified box of contributing characters holds {count} characters, "
                              f"past the limit {_CHARACTER_LIMIT}")
        if not runs or total + count > _CHARACTER_LIMIT:
            runs.append([])
            total = 0
        runs[-1].append(j)
        total += count
    return runs


def _characters(fan: Fan, pairs: Sequence[tuple[tuple[int, ...], Optional[_Box]]]
                ) -> list[Mapping[int, tuple[int, ...]]]:
    """Every contributing character of each (D, box) pair: per pair, contributing mask -> ascending ||u||.

    The boxes are checked and cut into runs by _runs, then enumerated run
    by run: one array of the characters of the run's boxes, one product
    with the rays, each divisor added over the rows of its box, and one
    mask computation.  Bit i of a mask is set when the representative
    a + pairing*u is nonnegative on ray i.  _point_list and
    vanishing_verdicts both call it, so this is the one place where
    characters are built.
    """
    frames = _vertex_frames(fan)
    found: list[Mapping[int, tuple[int, ...]]] = [_NO_POINTS] * len(pairs)
    for run in _runs(pairs):
        chars: list[tuple[int, ...]] = []
        sizes = []
        for j in run:
            box, before = pairs[j][1], len(chars)
            chars.extend(product(*(range(l, h + 1) for l, h in zip(box.lo, box.hi))))
            sizes.append(len(chars) - before)
        divisors = [pairs[j][0] for j in run]
        bound = (frames.ray_max * (max(pairs[j][1].extent for j in run) * fan.dim + 1)
                 + max(map(abs, chain.from_iterable(divisors))))   # also bounds every ray entry
        dtype = np.int64 if bound < _INT64_SAFE else object
        points = np.array(chars, dtype=np.int64)
        reps = (points.astype(dtype, copy=False) @ frames.rays_t
                + np.repeat(np.array(divisors, dtype=dtype), sizes, axis=0))
        masks = ((reps >= 0) @ frames.weights).tolist()
        keep = _contributing(fan, set(masks))
        rows = zip(masks, np.abs(points).max(axis=1).tolist())
        for j, size in zip(run, sizes):
            by_mask: dict[int, list[int]] = {}
            for mask, norm in islice(rows, size):
                if mask in keep:
                    by_mask.setdefault(mask, []).append(norm)
            if by_mask:
                found[j] = MappingProxyType({mask: tuple(sorted(v)) for mask, v in by_mask.items()})
    return found


# ---------------------------------------------------------------------------
# queries, read from the whole contributing list
# ---------------------------------------------------------------------------

def _radius_for_class(coords: ClassVector) -> int:
    return max(3, max((abs(c) for c in coords), default=0) + 2)


def _checked_radius(r0: int) -> int:
    """The start radius, refused before any box is built when it is below 1 or past the limit."""
    if r0 < 1:
        raise ValueError("box_radius must be >= 1")
    if r0 > _RADIUS_LIMIT:
        raise BoxTooLarge(f"the search box would start at radius {r0}, past the limit {_RADIUS_LIMIT}")
    return r0


def _is_section(fan: Fan, mask: int) -> bool:
    """The full pattern, an effective representative; every other contributing pattern is forbidden."""
    return mask == (1 << fan.n_rays) - 1


def _has_character(ctx: PicContext, divisor: Sequence[int], escalate: bool, section: bool, what: str) -> bool:
    """Does D have a contributing character whose pattern is the full one (section) or a forbidden one?

    Read from the whole list.  An escalating query needs no start radius;
    without escalate, a yes whose nearest such character lies past the
    class-derived start radius r0 raises BoxUnstable.
    """
    r0 = None if escalate else _checked_radius(_radius_for_class(to_class(ctx, divisor)))
    points = _point_list(ctx.fan, tuple(map(int, divisor)))
    nearest = min((norms[0] for mask, norms in points.items() if _is_section(ctx.fan, mask) == section),
                  default=None)
    if nearest is not None and not escalate and nearest > r0:
        raise BoxUnstable(f"the {what} rests on a character of sup norm {nearest}, past the radius {r0}; "
                          f"raise the radius")
    return nearest is not None


def has_nonzero_global_sections(ctx: PicContext, divisor: Sequence[int], escalate: bool = False) -> bool:
    """True when D is linearly equivalent to an effective toric divisor: the full pattern is listed."""
    return _has_character(ctx, divisor, escalate, True, "sections verdict")


def is_acyclic(ctx: PicContext, divisor: Sequence[int], escalate: bool = False) -> bool:
    """Borisov-Hua acyclicity test: no representative with a forbidden pattern.

    Every pattern in the contributing list other than the full one is
    forbidden, so D is acyclic exactly when the full pattern is the only one
    listed; no sweep over all ray subsets is needed.  Without escalate, a
    forbidden character past the start radius raises BoxUnstable.
    """
    return not _has_character(ctx, divisor, escalate, False, "acyclicity verdict")


def vanishing_verdicts(ctx: PicContext, divisors: Sequence[Sequence[int]]) -> list[tuple[bool, bool]]:
    """(is_acyclic, has_nonzero_global_sections) of each divisor, escalating, in input order.

    The boxes come from one vectorised pass and are enumerated together by
    one _characters call; both verdicts of each divisor are read from its
    list, and the lists are not kept.
    """
    fan = ctx.fan
    divisors = [tuple(map(int, divisor)) for divisor in divisors]
    verdicts = []
    for points in _characters(fan, list(zip(divisors, _contributing_boxes(fan, divisors)))):
        sections = [_is_section(fan, mask) for mask in points]
        verdicts.append((all(sections), any(sections)))
    return verdicts


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
    """All cohomology dimensions of O(D) by direct summation over the certified box.

    Every contributing character adds its pattern subcomplex's reduced
    homology, so the dimensions are exact.  box_radius_used is the first of
    r0, r0 + 2, ... that holds every listed character, where r0 is
    box_radius, else the class-derived start radius; without escalate, a
    list reaching past r0 raises BoxUnstable.
    """
    fan = ctx.fan
    cls = to_class(ctx, divisor)
    r0 = _checked_radius(_radius_for_class(cls) if box_radius is None else box_radius)
    points = _point_list(fan, tuple(map(int, divisor)))
    dims = [0] * (fan.dim + 1)
    for mask, norms in points.items():
        dims = [d + len(norms) * h for d, h in zip(dims, reversed(_pattern_ranks(fan, mask)))]
    reach = max((norms[-1] for norms in points.values()), default=0)
    if reach > r0 and not escalate:
        raise BoxUnstable(f"the cohomology dimensions rest on characters up to sup norm {reach}, "
                          f"past the radius {r0}; raise the radius")
    return CohomologyTable(cls, tuple(dims), r0 + max(0, reach - r0 + 1) // 2 * 2)
