"""Frobenius pushforward splitting of toric line bundles.

For the multiplication-by-p torus endomorphism pi_p of a smooth complete
toric variety, the dual pushforward (pi_p)_* O(D) splits into line bundles,
one summand O(D_v) per residue vector v in P_p = {0,...,p-1}^n.  Thomsen's
algorithm computes D_v per maximal cone by an exact divide-with-remainder
step: with A_i the ray-row matrix of cone sigma_i, B_i its inverse and
C_li = A_i B_l relative to a base cone sigma_l,

    C_li v + u_li = p * h_i + r_i,   0 <= r_i < p componentwise,

and the coefficient of Z_j in D_v is -<B_k h_k, v_j> for any maximal cone
sigma_k containing ray j (the choice does not matter).  As the rows of A_k
are the rays of sigma_k, that pairing is the entry of h_k at the position
of ray j in sigma_k, and the row of C_lk it divides is v_j B_l whatever k
is: each ray needs one row of one divide step, read from the base cone
alone.  The summand multiset depends neither on the base cone nor on
the order of its rays.  decompose counts the summands that way, one
mixed-radix digit per ray, line by line: a line fixes all residue
coordinates but one, the line axis, and along it each ray's floor is a
step function whose steps have closed forms.  So a line is a few
segments of one key each, weighted by their lengths, and a line with
more steps than residues takes every residue instead.  The base cone and
line axis are the per-fan frame (_line_frame) with the fewest segments a
line: two on every catalog fan, against up to five on the first maximal
cone's last axis.  The lines are
walked in slabs of about _SLAB floors, so that the memory does not grow
with p^n.  The digits of every distinct key are decoded into classes in
one product with the class map.  decompose refuses more than
_RESIDUE_LIMIT residues with TooManyResidues before enumerating any.
For p large enough the set of distinct summand classes stops depending on
p; stable_summands demands agreement across at least two distinct
primes, by default DEFAULT_PRIMES.  That agreement is no proof:
bondal_summands computes the distinct classes exactly, from the one grid
(1/((n + 1)L))Z^n, which meets every cell of the arrangement they are
read from, and the thomsen report warns when two primes agree on fewer.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import mul
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NotStabilized, RayNotCovered, TooManyResidues
from .fan import _FAN_CACHE_SIZE, Fan, cone_inverse, ray_coordinates, subset_minors
from .lattice import _INT64_SAFE
from .picard import ClassVector, PicContext, _check_length, to_class

DEFAULT_PRIMES = (31, 37)
_SLAB = 1 << 15  # segments per slab of the counting loop: a slab's arrays stay small next to the residues
_RESIDUE_LIMIT = 1 << 32  # the most residues decompose enumerates
_GRID_LIMIT = 1 << 16  # the most points (and ray n-subsets) bondal_summands takes: L <= 10 in dimension 3


@dataclass(frozen=True)
class FrobeniusDecomposition:
    """Multiset of summand classes of (pi_p)_* O(D) dual."""

    prime: int
    divisor_class: ClassVector
    summands: tuple[tuple[ClassVector, int], ...]  # (class, multiplicity), sorted

    @property
    def classes(self) -> frozenset[ClassVector]:
        return frozenset(c for c, _ in self.summands)

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.summands)


@lru_cache(maxsize=_FAN_CACHE_SIZE)
def _line_frame(fan: Fan) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The base cone of decompose, its rays ordered so that the line axis is last, and every ray's c_j on them.

    On a unimodular maximal cone sigma, c_j = v_j B_sigma, and a line along
    axis k has 1 + sum over j not in sigma of |c_j[k]| segments (sigma's
    own ray k adds the 1).  The frame is the (sigma, k) with the fewest,
    ties going to the fewest sloped rays (c_j[k] != 0, j not in sigma),
    then to the earliest cone, then to its last axis, so that the first
    cone's last axis wins a full tie.  Every c_j is read from the fan's
    table, fan.ray_coordinates, with no request of its own.  A ray in no
    maximal cone raises RayNotCovered.  A first maximal cone that is not a
    lattice basis raises its NotUnimodular from cone_inverse; any other
    such cone, or one that is not n valid ray indices, is no candidate.
    """
    n, m, cones = fan.dim, fan.n_rays, fan.max_cones
    uncovered = set(range(m)).difference(*cones)
    if uncovered:
        raise RayNotCovered(f"ray {min(uncovered)} lies in no maximal cone")
    shaped, dets, coordinates = ray_coordinates(fan)
    if not shaped or shaped[0] != cones[0] or abs(dets[0]) != 1:
        cone_inverse(fan, cones[0])   # raises NotUnimodular, or fails on a bad index
    unimodular = np.flatnonzero(abs(dets) == 1)
    coordinates = coordinates[unimodular]   # cones x n x m: c_j[i] = coordinates[:, i, j]
    # per (cone, axis): the segments of a line (the cone's own ray adds the 1), then the sloped rays; each |c_j[k]|
    # is capped at _RESIDUE_LIMIT >= p, past which every x starts a segment anyway, so that no int64 sum wraps
    segments = np.minimum(abs(coordinates), _RESIDUE_LIMIT).sum(axis=2)[:, ::-1].ravel()
    sloped = (coordinates != 0).sum(axis=2)[:, ::-1].ravel()
    choice, k = divmod(int(np.lexsort((sloped, segments))[0]), n)   # a stable sort: the first cone, then its last axis
    axis = n - 1 - k
    order = [i for i in range(n) if i != axis] + [axis]
    cone = shaped[unimodular[choice]]
    return tuple(cone[i] for i in order), tuple(zip(*coordinates[choice][order].tolist()))


def decompose(
    fan: Fan,
    ctx: PicContext,
    divisor: Sequence[int],
    p: int,
) -> FrobeniusDecomposition:
    """Full splitting of (pi_p)_* O(D) dual into line bundle classes.

    The base cone sigma_l and its ray order are the fan's _line_frame, so
    that the line axis below is the last.  Ray j reads its row c_j = v_j
    B_l of the divide step from the frame and its shift w_j = a_j - <c_j,
    a restricted to sigma_l> = q_j p + r_j, both from the base cone alone.
    Its coefficient in D_v is -(q_j + floor((<c_j, v> + r_j) / p)), and
    that floor lies in a range [lo_j, hi_j] known in advance, so only q_j
    carries the size of a twist.  Each floor is computed on the axes where
    c_j is nonzero, and ray j owns digit j of one mixed-radix key per
    residue vector.

    The key histogram is counted line by line.  A line fixes v_0 ...
    v_(n-2) and lets x = v_(n-1) run over [0, p).  With t_j = <c_j, v> +
    r_j - lo_j p on the fixed axes, F_j = floor(t_j / p), m_j = t_j - F_j
    p and s_j = c_j[n-1], ray j's digit is F_j + floor((m_j + s_j x) / p),
    which steps at |s_j| points in closed form: x = ceil((k p - t_j) /
    s_j), k = F_j + 1 ... F_j + s_j, when s_j > 0, and x = floor((t_j - k
    p) / |s_j|) + 1, k = F_j ... F_j + s_j + 1, when s_j < 0, clipped to
    p.  Both depend on m_j alone, so they are tabulated once per call.
    Rays of span 1, such as the base cone's own, have digit 0 and are left
    out, and a ray with s_j = 0 adds one floor per line.  So the segment
    starts of a line are 0 and the sorted steps, each segment's length is
    the next start minus its own, and its key is evaluated at min(start,
    p - 1), so that a zero-length segment clipped to p stays inside the
    key space.  When 1 + sum_j |s_j| >= p, every x starts a segment and
    nothing is sorted.  A slab holds at most _SLAB floors (segments times
    the rays left in), at least one line, so the peak memory is O(_SLAB)
    plus the counts of the key space.  The floors are int32 when their
    arguments stay below 2^31, int64 below _INT64_SAFE and Python integers
    past it; the keys take their own type from the key space in the same
    way.  The histogram is summed by bincount, weighted by the segment
    lengths, into one running count per key over all slabs when the key
    space is no larger than the p^n residues, else by np.unique per slab,
    or, for Python-integer keys, by one pass over each slab's keys.

    D_v is linear in the key's digits, so every distinct key is decoded in
    one product: class(D_v) = class(-(q + lo)) - digits class_map^T, int64
    when every entry is below _INT64_SAFE, else Python integers.  More
    than _RESIDUE_LIMIT residues raise TooManyResidues before anything is
    enumerated.
    """
    _check_length(fan, divisor)
    if p < 2:
        raise ValueError("p must be at least 2")
    n = fan.dim
    if p ** n > _RESIDUE_LIMIT:
        raise TooManyResidues(f"{p}^{n} residues; decompose enumerates at most 2^32")
    cone, coordinates = _line_frame(fan)
    divisor = tuple(int(a) for a in divisor)
    base = [divisor[i] for i in cone]   # a smaller key space: span 1 on the base cone (w_j = a_j: 2 unless p | a_j)

    rows = []   # (c_j, q_j, r_j, lo_j, span_j)
    for c, a in zip(coordinates, divisor):
        below = sum(x for x in c if x < 0)
        q, r = divmod(a - sum(map(mul, c, base)), p)
        lo = ((p - 1) * below + r) // p
        hi = ((p - 1) * (sum(c) - below) + r) // p
        rows.append((c, q, r, lo, hi - lo + 1))

    # ray 0 is the lowest digit; the rays of span 1 are left out, and the
    # rays with a slope s_j come first
    spans = [span for *_, span in rows]
    weights = [math.prod(spans[:j]) for j in range(len(spans))]
    key_space = math.prod(spans)
    used = sorted(((c[:-1], c[-1], r - lo * p, weight) for (c, _, r, lo, span), weight in zip(rows, weights)
                   if span > 1), key=lambda ray: ray[1] == 0)
    top = max(map(abs, chain.from_iterable(c for c, *_ in rows)))

    def dtype_for(bound):
        return object if bound >= _INT64_SAFE else np.int32 if bound < 2 ** 31 else np.int64

    floor_dtype, key_dtype = dtype_for(3 * n * p * (top + 1)), dtype_for(key_space)
    dense = key_dtype is not object and key_space <= p ** n   # count by bincount, else np.unique

    # every step of every sloped ray, one row each, tabulated over m in [0, p)
    owner = [j for j, (_, s, *_) in enumerate(used) for _ in range(abs(s))]
    every_x = 1 + len(owner) >= p
    width = p if every_x else 1 + len(owner)   # segments per line
    if not every_x:
        every_m = np.arange(p)
        table = np.array([np.minimum(-((every_m - (i + 1) * p) // s) if s > 0 else (every_m + i * p) // -s + 1, p)
                          for _, s, *_ in used for i in range(abs(s))], dtype=floor_dtype).reshape(-1, p)
        offsets = np.arange(len(owner))[:, None] * p   # where each row starts in the flat table
    C = np.array([c for c, *_ in used], dtype=floor_dtype).reshape(len(used), n - 1).T
    R = np.array([r for *_, r, _ in used], dtype=floor_dtype)[:, None]
    S = np.array([s for _, s, *_ in used if s], dtype=floor_dtype)[:, None]
    sloped = len(S)
    W = np.array([weight for *_, weight in used], dtype=key_dtype)
    lines, per_slab = p ** (n - 1), max(1, _SLAB // (width * max(1, len(used))))
    total = None   # the dense path's running count per key, summed over the slabs
    tally: Counter[int] = Counter()
    for first in range(0, lines, per_slab):
        # one column per line, so that every row is long
        rest = np.arange(first, min(first + per_slab, lines), dtype=floor_dtype)
        t = R + np.zeros(rest.size, dtype=floor_dtype)
        for row in C[::-1]:   # from the coordinate of axis n - 2 down
            quotient = rest // p
            t += row[:, None] * (rest - quotient * p)
            rest = quotient
        F = t // p
        m = t - F * p
        if every_x:
            x, lengths = np.arange(p, dtype=floor_dtype)[:, None, None], None
        else:
            steps = np.sort(table.take((m[owner] + offsets).astype(np.intp, copy=False)), axis=0)
            ends = np.full((1, rest.size), p, dtype=floor_dtype)
            starts = np.concatenate((ends - p, steps))
            lengths = (np.concatenate((steps, ends)) - starts).ravel().astype(np.int64, copy=False)
            x = np.minimum(starts, p - 1)[:, None]
        rises = (m[:sloped] + S * x) // p   # segments x sloped rays x lines
        key = W[:sloped] @ rises.astype(key_dtype, copy=False) + W @ F.astype(key_dtype, copy=False)
        if dense:
            counts = np.bincount(key.ravel(), lengths, key_space)
            if total is None:
                total = counts
            else:
                total += counts
        elif key_dtype is object:   # np.unique sorts Python integers by comparison; on int64 it wins on large slabs
            for k, length in zip(key.ravel().tolist(), repeat(1) if lengths is None else lengths.tolist()):
                if length:   # a segment clipped to p has length 0
                    tally[k] += length
        else:
            keys, index = np.unique(key.ravel(), return_inverse=True)
            counts = np.bincount(index, lengths)
            kept = np.flatnonzero(counts)   # a segment clipped to p has length 0, so its key may count 0
            tally.update(dict(zip(keys[kept].tolist(), counts[kept].astype(np.int64).tolist())))
    if dense:
        kept = np.flatnonzero(total)
        tally.update(dict(zip(kept.tolist(), total[kept].astype(np.int64).tolist())))
    assert sum(tally.values()) == p ** n

    # D_v = -(q + lo + digits): every key's digits in one table, one product
    packed = np.array(list(tally), dtype=np.int64 if key_space < _INT64_SAFE else object)
    digits = packed[:, None] // np.array(weights, dtype=packed.dtype) % np.array(spans, dtype=packed.dtype)
    M = ctx.class_map.entries
    shift = to_class(ctx, [-(q + lo) for _, q, _, lo, _ in rows])
    reach = max(map(abs, shift)) + max(map(abs, chain.from_iterable(M))) * sum(spans)
    exact = np.int64 if reach < _INT64_SAFE else object
    classes = np.array(shift, dtype=exact) - digits.astype(exact) @ np.array(M, dtype=exact).T
    totals: Counter[ClassVector] = Counter()
    for cls, mult in zip(map(tuple, classes.tolist()), tally.values()):
        totals[cls] += mult
    return FrobeniusDecomposition(p, to_class(ctx, divisor), tuple(sorted(totals.items())))


def stable_summands(
    fan: Fan,
    ctx: PicContext,
    divisor: Sequence[int],
    primes: Iterable[int] = DEFAULT_PRIMES,
) -> tuple[ClassVector, ...]:
    """Distinct summand class set, required to agree across all given primes.

    Fewer than two distinct primes raise ValueError: a repeated prime
    agrees with itself.  Raises NotStabilized (with the per-prime sets)
    when they differ, which signals that the primes are too small for this
    fan.
    """
    primes = tuple(primes)
    if len(set(primes)) < 2:
        raise ValueError("need at least two distinct primes to certify stabilization")
    sets: dict[int, frozenset[ClassVector]] = {}
    for p in primes:
        sets[p] = decompose(fan, ctx, divisor, p).classes
    distinct = set(sets.values())
    if len(distinct) != 1:
        raise NotStabilized(sets)
    return tuple(sorted(next(iter(distinct))))


def bondal_summands(ctx: PicContext) -> Optional[tuple[ClassVector, ...]]:
    """The Bondal-Thomsen classes {[-floor(<theta, v_rho>)]_rho : theta in R^n}, exactly, or None.

    Every summand class of (pi_p)_* O is one of them (theta = t/p), and
    they generate D^b(X) (Bondal, Oberwolfach report, 2006; Hanlon-Hicks-
    Lazarev, 2023).  With L the lcm of the nonzero n x n ray minors, the
    dets of the fan's table fan.subset_minors, and N = (n + 1)L, they are
    the classes over the one grid theta in (1/N)Z^n cap [0,1)^n, (n + 1)^n
    L^n points (64 L^3 in dimension 3).  Proof:

    - The hyperplanes <theta, v_rho> in Z cut R^n into relatively open
      convex cells, on each of which every floor is constant.  The cells
      are bounded, because the rays span.
    - A vertex of a cell solves n independent equations <theta, v_rho> =
      k_rho, so det(A_S) theta is integral for a nonzero minor, and theta
      lies in (1/L)Z^n.
    - The closure of a relatively open d-cell, d <= n, has d + 1 affinely
      independent vertices x_0 ... x_d.  The point (1 - d/(n + 1)) x_0 +
      (1/(n + 1)) (x_1 + ... + x_d) has only positive weights, so it lies
      in the cell, and it lies in (1/N)Z^n.
    - Shifting theta by Z^n adds a principal divisor, so the point may be
      taken in [0,1)^n.

    Every cell thus meets the grid.  The pairings <j, v_rho>, j in
    [0, N)^n, are int64 while N n max|ray entry| is below _INT64_SAFE,
    else Python integers.  A fan with more than _GRID_LIMIT ray n-subsets
    returns None before the table is read, and a grid of more than
    _GRID_LIMIT points before anything is enumerated.
    """
    fan = ctx.fan
    n = fan.dim
    if math.comb(fan.n_rays, n) > _GRID_LIMIT:
        return None
    N = (n + 1) * math.lcm(*subset_minors(fan)[1].tolist())
    if N ** n > _GRID_LIMIT:
        return None
    ray_max = max(abs(x) for ray in fan.rays for x in ray)
    dtype = np.int64 if N * n * ray_max < _INT64_SAFE else object
    grid = np.indices((N,) * n).reshape(n, -1).T.astype(dtype)       # theta = grid / N
    floors = -((grid @ np.array(fan.rays, dtype=dtype).T) // N)
    return tuple(sorted({to_class(ctx, d) for d in set(map(tuple, floors.tolist()))}))


def first_chern_sum(decomposition: FrobeniusDecomposition) -> ClassVector:
    """Sum of all summand classes with multiplicity (the c_1 of the bundle)."""
    if not decomposition.summands:
        return ()
    width = len(decomposition.summands[0][0])
    total = [0] * width
    for cls, mult in decomposition.summands:
        for i, x in enumerate(cls):
            total[i] += mult * x
    return tuple(total)
