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
patterns a query meets have their ranks certified without a boundary
matrix, two of them by a membership test in it:

- a nonempty I that is a face spans a full simplex, on any fan;
- on a fan with fan.is_complete, whose boundary complex is therefore an
  (n-1)-sphere S, a proper I whose complement J is a face has C_I a
  deformation retract of S minus the closed simplex of J, which has the
  reduced homology of a point by Alexander duality;
- on such a fan the full ray set has C_I = S, with rank one in degree
  n - 1 alone.

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
  divisor: a base gap, computed per divisor, minus a threshold that
  depends on eps alone.  Per fan, the pairings -sign(det A_S) rays @
  adj(A_S) and the thresholds of every eps are cached, the latter holding
  as many entries as one divisor's pass; like the pattern table (each
  mask's ranks, which _pattern_ranks alone writes and forbidden_sets
  reads) and every table of the fan module, they are kept for the last
  fan._FAN_CACHE_SIZE fans.  A pass takes n multiply-adds per (S, ray,
  divisor) and one broadcast comparison of the base gaps with the
  thresholds to read every sign mask: one divisor at a time for a single
  query, chunks of divisors for a collection check.  Only the
  contributing candidates get their numerators |det A_S| u, whose floors
  and ceilings fix each divisor's box, and the box keeps their masks.
- A box reaching past _RADIUS_LIMIT, or holding more than
  _CHARACTER_LIMIT characters, raises BoxTooLarge before anything is
  enumerated.  A box is enumerated on its own into one list of
  contributing patterns with the sup norms ||u|| of their characters: one
  array of its characters, one product with the rays and one mask
  computation, so at most _CHARACTER_LIMIT characters are held at once.
  The list keeps the characters whose mask is one the box holds: every
  nonempty region has a vertex candidate that carries its mask, so no
  contributing character is left out and no mask is classified twice.  A
  single query caches its divisor's list; an escalating verdict asks only
  whether the list holds a pattern of its kind.
- A collection check (vanishing_verdicts) needs no box for most
  divisors.  A vertex candidate with integral u (always, when
  |det A_S| = 1) is itself a character whose pattern is its mask, and a
  contributing mask that no candidate carries has no character.  So a
  divisor is not acyclic exactly when an integral candidate carries a
  forbidden mask, its witness, and has sections exactly when one carries
  the full mask.  Witnesses and absences are exact at any size of
  divisor, so every divisor whose verdicts the vertex pass decides takes
  them from it alone, and no box limit applies to it.  Only the divisors
  whose verdict rests on non-integral vertices alone have their boxes
  checked, and refused exactly as a single query is, before any is
  enumerated.  Nothing is kept.

Every single query reads its answer from that whole list, and every
collection verdict from a witness or a whole list, so every answer is
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
from itertools import chain, product
from math import comb, prod
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BoxTooLarge, BoxUnstable, TooManyRays, UnboundedRegion
from .fan import _FAN_CACHE_SIZE, Fan, _completeness_problems, _mask_of, face_masks, is_complete, subset_minors
from .lattice import _INT64_SAFE, _eliminate
from .picard import ClassVector, PicContext, _check_length, to_class

_MAX_SWEEP_RAYS = 20
_RADIUS_LIMIT = 40  # the largest start radius, and the farthest a certified box may reach
_CHARACTER_LIMIT = 1 << 22  # the most characters a certified box may hold (81^3 = 531,441 in dimension 3)
_POINT_CACHE_SIZE = 128  # the divisors whose lists the single queries share
_PASS_ELEMENTS = 1 << 20  # gap entries (divisors x vertex candidates x rays) per vectorised vertex pass
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

    Three certificates give the ranks without a boundary matrix; the first
    two are a lookup in the face set, and give zero ranks:
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
    - I is the full ray set and the fan is certified complete: C_I is the
      sphere S itself, with rank one in degree n - 1 and zero elsewhere.
      Without the certificate the full set is ranked like any other (a
      disk, with zero ranks, on P3 without a maximal cone).
    Every other mask is ranked by reduced_homology_ranks.  The mask joins
    the live set when its ranks are nonzero or it is the full one.
    """
    memo = _patterns(fan)
    if mask not in memo.ranks:
        faces, rest = memo.faces, ((1 << fan.n_rays) - 1) & ~mask
        ranks = _zero_ranks(fan.dim)   # shared, so a 2^m sweep stores one zero tuple, not thousands
        if memo.complete and not rest:
            ranks = ranks[1:] + (1,)
        elif not (mask and mask in faces or memo.complete and rest and rest in faces):
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
    for mask in masks.difference(memo.ranks):   # iterates the masks, not the table
        _pattern_ranks(fan, mask)
    return masks & memo.live


class _VertexFrames(NamedTuple):
    subsets: np.ndarray       # K x n ray indices of the nonsingular ray n-subsets S
    cofactors: np.ndarray     # K x n x n: sign(det A_S) adj(A_S)^T, so A_S @ cofactors^T = |det A_S| I
    dets: np.ndarray          # K: |det A_S|
    wide: np.ndarray          # indices of the S with |det A_S| > 1: only their candidates can miss a vertex
    pairings: np.ndarray      # K x m x n: -(rays @ cofactors^T), so pairings @ a_S is |det A_S| <u, v_rho> at eps = 0
    thresholds: np.ndarray    # K x 2^n x m: -(eps @ pairings^T) for each eps, so a gap is base gap - threshold
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
    thresholds, the largest table, holds that many.  Only then are the
    nonsingular subsets, their dets and cofactors read, from the fan's
    table fan.subset_minors, whose arrays the frames hold without a copy
    where the dtype allows.
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
    subsets, dets, cofactors = subset_minors(fan)
    largest = int(max(np.abs(cofactors).max(), dets.max()))
    ray_max = max(abs(x) for ray in rays for x in ray)
    dtype = np.int64 if max(largest, ray_max) < _INT64_SAFE else object
    gap_dtype = np.int64 if n * n * largest * ray_max < _INT64_SAFE else object   # bounds every threshold
    cofactors, rays_t = cofactors.astype(dtype, copy=False), np.array(rays, dtype=dtype).T
    pairings = -(rays_t.T.astype(gap_dtype) @ cofactors.astype(gap_dtype, copy=False).transpose(0, 2, 1))
    return _VertexFrames(subsets, cofactors, dets.astype(dtype, copy=False), np.flatnonzero(dets > 1), pairings,
                         -(_corner_offsets(n).astype(gap_dtype) @ pairings.transpose(0, 2, 1)),
                         largest, rays_t, ray_max,
                         np.array([1 << i for i in range(m)], dtype=np.int64 if m < 63 else object))


@lru_cache(maxsize=None)
def _corner_offsets(n: int) -> np.ndarray:
    """Every eps in {0,1}^n: which of a vertex's n tight inequalities sit at -a - 1."""
    return np.array(list(product((0, 1), repeat=n)), dtype=np.int64)


class _Box(NamedTuple):
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    extent: int                             # the largest |coordinate| in the box
    masks: frozenset[int] = frozenset()     # the contributing masks its vertex candidates carry


def _int64_reach(frames: _VertexFrames) -> int:
    """The largest |a_rho| whose vertex pass is int64: (n^2 ray_max + 1) largest (|a_rho| + 1), below
    _INT64_SAFE, bounds every base gap, every gap, every numerator |det| u and every sum on the way."""
    n = frames.subsets.shape[1]
    return (_INT64_SAFE - 1) // ((n * frames.ray_max * n + 1) * frames.largest) - 1


def _divisor_array(frames: _VertexFrames, divisors: Sequence) -> np.ndarray:
    """D divisors as a D x m array, int64 when no entry passes _int64_reach, else Python ints."""
    reach = max(map(abs, chain.from_iterable(divisors)))
    return np.array(divisors, dtype=np.int64 if reach <= _int64_reach(frames) else object)


def _base_gaps(frames: _VertexFrames, a: np.ndarray) -> np.ndarray:
    """The gaps at eps = 0, |det A_S| a_rho + pairings[S] @ a_S: K x m x D for D x m divisors.

    A candidate's gap is linear in the divisor: this part, n multiply-adds
    per entry, minus the cached threshold of its eps.  The divisors run
    along the last axis, so the broadcasts over the candidates have a long
    inner axis.  The dtype follows a and the tables; _divisor_array keeps
    an int64 result exact.
    """
    a_t = a.T
    return frames.dets[:, None, None] * a_t + frames.pairings @ a_t[frames.subsets]


def _vertex_masks(frames: _VertexFrames, a: np.ndarray) -> np.ndarray:
    """The sign mask of every vertex candidate (S, eps): K x 2^n x D for D x m divisors.

    Each vertex of a region P_I(a) solves n of its inequalities with
    equality, |det A_S| u = -adj(A_S)(a_S + eps), and leaves no ray strictly
    between -a_rho - 1 and -a_rho; its sign mask is I.  A candidate's gap
    is its base gap (_base_gaps) minus the threshold of its eps, so ray
    rho is in its mask when the base gap reaches the threshold: one
    broadcast comparison with the per-fan thresholds gives every mask.  A
    gap is an integer, so only a wide S (|det| > 1) can leave a ray inside
    one.  This is the one mask computation of the vertex pass: the boxes
    (a batch of one divisor) and the verdict witnesses (a chunk of
    divisors) both read it.
    """
    base, thresholds = _base_gaps(frames, a)[:, None], frames.thresholds[..., None]
    above = base >= thresholds   # K x 2^n x m x D: gap >= 0
    masks = frames.weights @ above   # the ray axis, before D
    wide = frames.wide
    if len(wide):   # a ray strictly inside a gap, -|det| < gap < 0: no vertex, and -1 is no pattern's mask
        low, high = base[wide], thresholds[wide]
        inside = ((low < high) & (low + frames.dets[wide, None, None, None] > high)).any(axis=2)
        masks[wide] = np.where(inside, -1, masks[wide])
    return masks


def _numerators(frames: _VertexFrames, rows: np.ndarray, subset: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """|det A_S| u of the candidates (S, eps): rows holds each one's divisor entries a_S; all broadcast, n last."""
    offsets = rows + _corner_offsets(frames.subsets.shape[1])[corner]
    return -(offsets[..., None, :] @ frames.cofactors[subset])[..., 0, :]


def _contributing_box(fan: Fan, divisor: tuple[int, ...]) -> Optional[_Box]:
    """The divisor's box of contributing characters, or None when none contributes.

    The rays span, so every nonempty region has a vertex, and the fan is
    complete, so every contributing region is bounded: the floors and
    ceilings of the contributing candidates (_vertex_masks) span a box
    around them all.  The distinct masks are classified once, only the
    candidates with a contributing mask (nearly always just the full one)
    get their numerators |det| u, and the box keeps those masks.  Nothing
    else is kept.
    """
    frames = _vertex_frames(fan)
    a = _divisor_array(frames, [divisor])
    masks = _vertex_masks(frames, a)[..., 0]
    live = _contributing(fan, set(masks.ravel().tolist()) - {-1})   # mostly one: the full pattern
    if not live:
        return None
    chosen = np.zeros(masks.shape, dtype=bool)
    for mask in live:
        chosen |= masks == mask
    subset, corner = np.nonzero(chosen)
    num = _numerators(frames, a[0, frames.subsets[subset]], subset, corner)
    dets = frames.dets[subset, None]
    lo, hi = (num // dets).min(axis=0).tolist(), (-(-num // dets)).max(axis=0).tolist()
    return _Box(tuple(lo), tuple(hi), max(map(abs, lo + hi)), frozenset(live))


def _integral_candidates(frames: _VertexFrames, a: np.ndarray) -> np.ndarray:
    """K x 2^n x D: which vertex candidates of the D x m divisors a have an integral u, so are characters.

    Every candidate of an S with |det A_S| = 1 is; a wide S's candidate
    is one when |det A_S| divides all n of its numerators |det A_S| u.
    """
    corners = frames.thresholds.shape[1]
    integral = np.ones((len(frames.subsets), corners, len(a)), dtype=bool)
    wide = frames.wide
    if len(wide):
        rows = a[:, frames.subsets[wide]].transpose(1, 0, 2)[:, None]   # W x 1 x D x n
        num = _numerators(frames, rows, wide[:, None, None], np.arange(corners)[:, None])
        integral[wide] = (num % frames.dets[wide, None, None, None] == 0).all(axis=-1)
    return integral


class _Witnesses(NamedTuple):
    """A divisor's two verdicts, each decided by a character (u, mask) or by the absence of any."""

    forbidden: Optional[tuple[tuple[int, ...], int]]   # a character with a forbidden pattern; None: acyclic
    section: Optional[tuple[tuple[int, ...], int]]     # a character with the full pattern; None: no sections


def _verdict_witnesses(fan: Fan, divisors: Sequence[tuple[int, ...]]) -> list[Optional[_Witnesses]]:
    """Both verdicts of each divisor read from its vertex candidates alone, or None where they cannot be.

    An integral candidate (_integral_candidates) that is a vertex is a
    character whose pattern is its mask.  A contributing mask that no
    candidate carries has no character, since every nonempty region has a
    vertex.  So a verdict is decided by an integral candidate of its kind
    (forbidden, or the full mask), which is its witness, or by no
    candidate of its kind at all; it is left open (None for the divisor)
    only when its kind sits at non-integral vertices alone.  The divisors
    go through _vertex_masks in chunks of at most _PASS_ELEMENTS gap
    entries, the int64-safe ones apart, so that a huge divisor puts no
    other on Python integers.  No box is built and no character is enumerated.
    """
    frames = _vertex_frames(fan)
    corners, full = 2 ** fan.dim, (1 << fan.n_rays) - 1
    found: list[Optional[_Witnesses]] = [None] * len(divisors)
    chunk = max(1, _PASS_ELEMENTS // frames.thresholds.size)
    reach, groups = _int64_reach(frames), {np.int64: [], object: []}
    for j, divisor in enumerate(divisors):
        groups[np.int64 if max(map(abs, divisor)) <= reach else object].append(j)
    for dtype, index in [(dtype, group[start:start + chunk]) for dtype, group in groups.items()
                         for start in range(0, len(group), chunk)]:
        a = np.array([divisors[j] for j in index], dtype=dtype)
        masks = _vertex_masks(frames, a)
        if full + 1 < masks.size:   # 2^m + 1 counts, one per mask and one for -1, are no more than the entries
            seen = set(np.flatnonzero(np.bincount(masks.ravel() + 1)[1:]).tolist())
        else:
            seen = set(masks.ravel().tolist()) - {-1}
        live = _contributing(fan, seen)
        integral = _integral_candidates(frames, a)
        undecided = np.zeros(len(a), dtype=bool)
        witnesses = []
        for kind in (live - {full}, live & {full}):
            if not kind:   # mostly the forbidden kind: no candidate carries it, so no character does
                witnesses.append({})
                continue
            carried = np.zeros(masks.shape, dtype=bool)
            for mask in kind:
                carried |= masks == mask
            hits = (carried & integral).reshape(-1, len(a))   # (K 2^n) x D
            has = hits.any(axis=0)
            which = np.flatnonzero(has)
            row = hits.argmax(axis=0)[which]
            subset, corner = np.divmod(row, corners)
            rows = a[which[:, None], frames.subsets[subset]]
            u = _numerators(frames, rows, subset, corner) // frames.dets[subset, None]
            witnesses.append(dict(zip(which.tolist(), zip(map(tuple, u.tolist()),
                                                          masks.reshape(-1, len(a))[row, which].tolist()))))
            undecided |= carried.any(axis=(0, 1)) & ~has
        forbidden, section = witnesses
        for d in np.flatnonzero(~undecided).tolist():
            found[index[d]] = _Witnesses(forbidden.get(d), section.get(d))
    return found


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _point_list(fan: Fan, divisor: tuple[int, ...]) -> Mapping[int, tuple[int, ...]]:
    """_characters of one divisor in its checked box; the single queries share it."""
    return _characters(fan, divisor, _checked(_contributing_box(fan, divisor)))


def _checked(box: Optional[_Box]) -> Optional[_Box]:
    """The box, refused with BoxTooLarge before anything is enumerated when it passes a limit.

    A box reaching past _RADIUS_LIMIT, or holding more than
    _CHARACTER_LIMIT characters (about 130 bytes each while enumerated), is
    refused; the radius alone bounds the count only in dimension 3.
    """
    if box is not None:
        if box.extent > _RADIUS_LIMIT:
            raise BoxTooLarge(f"the certified box of contributing characters reaches radius {box.extent}, "
                              f"past the limit {_RADIUS_LIMIT}")
        count = prod(h - l + 1 for l, h in zip(box.lo, box.hi))
        if count > _CHARACTER_LIMIT:
            raise BoxTooLarge(f"the certified box of contributing characters holds {count} characters, "
                              f"past the limit {_CHARACTER_LIMIT}")
    return box


def _characters(fan: Fan, divisor: tuple[int, ...], box: Optional[_Box]) -> Mapping[int, tuple[int, ...]]:
    """Every contributing character of D in its checked box: contributing mask -> ascending ||u||.

    One array of the box's characters, one product with the rays, the
    divisor added by broadcasting, and one mask computation.  Bit i of a
    mask is set when the representative a + pairing*u is nonnegative on ray
    i.  Every nonempty region has a vertex candidate that carries its mask,
    so the box's masks are every contributing mask a character can have,
    and the characters are filtered by them alone.  _point_list and
    vanishing_verdicts both call it, so this is the one place where
    characters are built.
    """
    if box is None:
        return MappingProxyType({})
    frames = _vertex_frames(fan)
    bound = frames.ray_max * (box.extent * fan.dim + 1) + max(map(abs, divisor))   # also bounds every ray entry
    dtype = np.int64 if bound < _INT64_SAFE else object
    points = np.array(list(product(*(range(l, h + 1) for l, h in zip(box.lo, box.hi)))), dtype=np.int64)
    reps = points.astype(dtype, copy=False) @ frames.rays_t + np.array(divisor, dtype=dtype)
    masks = ((reps >= 0) @ frames.weights).tolist()
    by_mask: dict[int, list[int]] = {}
    for mask, norm in zip(masks, np.abs(points).max(axis=1).tolist()):
        if mask in box.masks:
            by_mask.setdefault(mask, []).append(norm)
    return MappingProxyType({mask: tuple(sorted(v)) for mask, v in by_mask.items()})


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


def _has_character(ctx: PicContext, divisor: Sequence[int], escalate: bool, section: bool, what: str) -> bool:
    """Does D have a contributing character whose pattern is the full one (section) or a forbidden one?

    Read from the whole list, in which every pattern but the full one is
    forbidden.  An escalating query needs no start radius and asks only
    whether the list holds a pattern of its kind; without escalate, a yes
    whose nearest such character lies past the class-derived start radius
    r0 raises BoxUnstable.
    """
    _check_length(ctx.fan, divisor)
    r0 = None if escalate else _checked_radius(_radius_for_class(to_class(ctx, divisor)))
    points = _point_list(ctx.fan, tuple(map(int, divisor)))
    full = (1 << ctx.fan.n_rays) - 1
    if escalate:
        return full in points if section else not points.keys() <= {full}
    nearest = min((norms[0] for mask, norms in points.items() if (mask == full) == section), default=None)
    if nearest is not None and nearest > r0:
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

    Every divisor takes both verdicts from its vertex candidates
    (_verdict_witnesses) when they decide them, whatever its size: no box
    is built and no character is enumerated.  Only a divisor whose verdict
    rests on non-integral vertices alone has its box built; every such box
    is checked before any is enumerated, so the first one past a limit in
    input order is refused as a single query refuses it.  Then each box is
    enumerated on its own (_characters) and both verdicts are read from
    its list.  Nothing is kept.
    """
    fan = ctx.fan
    divisors = [tuple(map(int, divisor)) for divisor in divisors]
    for divisor in divisors:
        _check_length(fan, divisor)
    verdicts: list[Optional[tuple[bool, bool]]] = [
        None if witnesses is None else (witnesses.forbidden is None, witnesses.section is not None)
        for witnesses in _verdict_witnesses(fan, divisors)]
    rest = [j for j, verdict in enumerate(verdicts) if verdict is None]
    boxes = [_checked(_contributing_box(fan, divisors[j])) for j in rest]   # every refusal comes first
    full = (1 << fan.n_rays) - 1
    for j, box in zip(rest, boxes):
        points = _characters(fan, divisors[j], box)
        verdicts[j] = (points.keys() <= {full}, full in points)
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
