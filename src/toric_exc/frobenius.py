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
alone.  The summand multiset does not depend on the base cone, so
decompose takes the first maximal cone.  It counts the summands that
way, one mixed-radix digit per ray.  Two residue axes are joined when a
row touches both, and the smallest separator H of that graph leaves
groups of axes that no row joins (_split_axes); the key histogram is
then the outer sum of the groups' histograms per value of H, walked in
slabs of about _SLAB keys so that its memory does not grow with p^n.  A
fan whose axes no separator splits walks the whole box in slabs of axis
0.  The digits of every distinct key are decoded into classes in one
product with the class map.  decompose refuses more than _RESIDUE_LIMIT
residues with TooManyResidues before enumerating any.
For p large enough the set of distinct summand classes stops depending on
p; stable_summands demands agreement across at least two primes, by
default DEFAULT_PRIMES.  That agreement is no proof: bondal_summands
computes the distinct classes exactly, from the one grid
(1/((n + 1)L))Z^n, which meets every cell of the arrangement they are
read from, and the thomsen report warns when two primes agree on fewer.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from operator import mul
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NotStabilized, RayNotCovered, TooManyResidues
from .fan import Fan, cone_inverse, ray_minors
from .lattice import _INT64_SAFE
from .picard import ClassVector, PicContext, _check_length, to_class

DEFAULT_PRIMES = (31, 37)
_SLAB = 1 << 17  # partial keys (and pairs of runs) per slab of the counting loop: they stay in cache
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


def decompose(
    fan: Fan,
    ctx: PicContext,
    divisor: Sequence[int],
    p: int,
) -> FrobeniusDecomposition:
    """Full splitting of (pi_p)_* O(D) dual into line bundle classes.

    The base cone sigma_l is the first maximal cone.  Ray j reads its row
    c_j = v_j B_l of the divide step and its shift w_j = a_j - <c_j, a
    restricted to sigma_l> = q_j p + r_j, both from the base cone alone.
    Its coefficient in D_v is -(q_j + floor((<c_j, v> + r_j) / p)), and
    that floor lies in a range [lo_j, hi_j] known in advance, so only q_j
    carries the size of a twist.  Each floor is computed on the axes where
    c_j is nonzero, and ray j owns digit j of one mixed-radix key per
    residue vector.

    The key histogram is counted group by group.  _split_axes reads from
    the rows' supports a separator H and groups of residue axes: once the
    axes of H are fixed, no ray sees the axes of two groups.  The p^|H|
    values of H are walked in slabs of at least one value.  Per value, each
    group lists the runs of equal partial keys along its last axis (its
    rays off H summed once, its rays on H once per slab, and the rays on H
    alone added to the first group), and the slab's histogram is the outer
    sum of the groups' runs, which own disjoint digits: p^|H| sum_g p^|g|
    floors instead of p^n.  When no separator splits the axes, H = (0,)
    and one group holds axes 1..n-1: the walk of the whole box in slabs of
    axis 0.  A group's runs per value are bounded in advance, so a slab
    holds about _SLAB partial keys and pairs of runs, and the peak memory
    is O(max(_SLAB, p^(n-1))) plus the counts of the key space.  The
    arithmetic is int32 when every floor argument and key is below 2^31,
    int64 up to _INT64_SAFE and Python integers past it.  The histogram is
    summed by bincount when the key space is no larger than the p^n
    residues, else by np.unique.

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
    cones = fan.max_cones
    uncovered = set(range(fan.n_rays)).difference(*cones)
    if uncovered:
        raise RayNotCovered(f"ray {min(uncovered)} lies in no maximal cone")
    columns = cone_inverse(fan, cones[0]).transpose().entries
    divisor = tuple(int(a) for a in divisor)
    base = [divisor[i] for i in cones[0]]

    rows, supports, masks = [], [], []   # (c_j, q_j, r_j, lo_j, span_j); c_j's axes; as a bitmask
    for ray, a in zip(fan.rays, divisor):
        c = [sum(map(mul, column, ray)) for column in columns]   # v_j B_l: v_j on the base cone's ray basis
        below = sum(x for x in c if x < 0)
        q, r = divmod(a - sum(map(mul, c, base)), p)
        lo = ((p - 1) * below + r) // p
        hi = ((p - 1) * (sum(c) - below) + r) // p
        rows.append((c, q, r, lo, hi - lo + 1))
        supports.append(tuple(i for i, x in enumerate(c) if x))
        masks.append(sum(1 << i for i in supports[-1]))

    spans = [span for *_, span in rows]
    bound = max(map(abs, chain.from_iterable(c for c, *_ in rows))) * p * n + p
    key_space = math.prod(spans)
    widest = max(bound, key_space)
    dtype = object if widest >= _INT64_SAFE else np.int32 if widest < 2 ** 31 else np.int64

    # ray 0 is the lowest digit; the rays with the same support share one
    # array, shaped p on those axes and 1 on the others.  Every floor lies
    # in (-span_j, span_j), so a partial key stays inside +-key_space, and
    # the digits' offsets lo_j are subtracted once, from the first group.
    weights = [1]
    for span in spans[:-1]:
        weights.append(weights[-1] * span)
    H, groups = _split_axes(masks, n)
    on_h = sum(1 << a for a in H)

    def key_sum(rays, axes, extra=0):
        # the rays' weighted floors, summed from the largest share down, and then extra
        shares: dict[int, np.ndarray] = {}
        for j in rays:
            c, _, r, _, _ = rows[j]
            t = sum((axes[a] if c[a] == 1 else c[a] * axes[a] for a in supports[j]), r)
            t //= p
            if weights[j] != 1:
                t *= weights[j]
            if masks[j] in shares:
                shares[masks[j]] += t
            else:
                shares[masks[j]] = t
        total, *rest = sorted(shares.values(), key=np.size, reverse=True) + [extra]
        for part in rest:
            if np.broadcast(total, part).shape == total.shape:
                total += part
            else:
                total = total + part
        return total

    def runs(key):
        # (value of H, key, length) of each run of equal keys in a row
        change = np.ones(key.shape, dtype=bool)
        np.not_equal(key[:, 1:], key[:, :-1], out=change[:, 1:])
        starts = np.flatnonzero(change)
        return starts // key.shape[1], key.ravel()[starts], np.concatenate((starts[1:], [key.size])) - starts

    dense = dtype is not object and key_space <= p ** n   # count by bincount, else np.unique

    def histogram(keys, counts):
        if dense:
            counts = np.bincount(keys, counts, key_space)
            keys = np.flatnonzero(counts)
            counts = counts[keys]
        else:
            keys, index = np.unique(keys, return_inverse=True)
            counts = np.bincount(index, counts)
        return dict(zip(keys.tolist(), counts.astype(np.int64).tolist()))

    # each group: its axes, shaped p on one of them and 1 on the others,
    # behind the axis of the values of H; the share of its rays off H; its
    # rays on H.  Along a line of the group's last axis its key changes at
    # most sum_j |c_j| times over its rays, which bounds its runs per value.
    plans, sizes, most_runs = [], [], 1
    offset = -sum(lo * weight for (*_, lo, _), weight in zip(rows, weights))
    for group in groups:
        axes: list = [None] * n
        for i, a in enumerate(group):
            axes[a] = np.arange(p, dtype=dtype).reshape((1,) * (i + 1) + (p,) + (1,) * (len(group) - 1 - i))
        inside = sum(1 << a for a in group)
        mine = [j for j, mask in enumerate(masks) if mask & inside or not (plans or mask & ~on_h)]
        plans.append((group, axes, key_sum([j for j in mine if not masks[j] & on_h], axes, offset),
                      [j for j in mine if masks[j] & on_h]))
        offset = 0
        sizes.append(p ** len(group))
        if group:
            most_runs *= min(sizes[-1], sizes[-1] // p * (1 + sum(abs(rows[j][0][group[-1]]) for j in mine)))

    def slab(flat):
        # the histogram of the keys at the values flat of H
        where = keys = counts = None
        for group, axes, fixed, slab_rays in plans:
            for t, a in enumerate(H):
                axes[a] = (flat // p ** (len(H) - 1 - t) % p).reshape((-1,) + (1,) * len(group))
            key = np.broadcast_to(key_sum(slab_rays, axes, fixed), (flat.size,) + (p,) * len(group))
            at, part, length = runs(key.reshape(flat.size, -1))
            if keys is None:
                where, keys, counts = at, part, length
                continue
            # every pair of runs at one value of H
            per_value = np.bincount(at, minlength=flat.size)
            reps = per_value[where]
            i = np.repeat(np.arange(where.size), reps)
            j = np.arange(i.size) - np.repeat(np.cumsum(reps) - reps, reps) + (np.cumsum(per_value) - per_value)[where[i]]
            where, keys, counts = where[i], keys[i] + part[j], counts[i] * length[j]
        return histogram(keys, counts)

    values = p ** len(H)
    step = -(-_SLAB // max(sum(sizes), most_runs))   # values of H per slab, at least one
    tally: Counter[int] = Counter()
    for start in range(0, values, step):
        tally.update(slab(np.arange(start, min(start + step, values), dtype=dtype)))
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


def _split_axes(masks: Sequence[int], n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """A separator H of the residue axes and the groups of axes it leaves.

    Bit a of a ray's mask is set when its divide row is nonzero on axis a,
    and two axes are joined when one mask holds both.  H is the first of
    the smallest sets of axes whose removal leaves at least two connected
    groups (H = () when the axes already split), and the groups are listed
    by their first axis.  When no set does, H = (0,) and axes 1..n-1 form
    one group.
    """
    joins = {mask for mask in masks if mask & (mask - 1)}   # a mask on one axis joins none
    for size in range(n - 1):
        for H in combinations(range(n), size):
            groups = [1 << a for a in range(n) if a not in H]
            for mask in joins:
                joined = [g for g in groups if g & mask]
                if len(joined) > 1:
                    groups = [g for g in groups if not g & mask] + [sum(joined)]
            if len(groups) > 1:
                return H, tuple(sorted(tuple(a for a in range(n) if g >> a & 1) for g in groups))
    return (0,), (tuple(range(1, n)),)


def stable_summands(
    fan: Fan,
    ctx: PicContext,
    divisor: Sequence[int],
    primes: Iterable[int] = DEFAULT_PRIMES,
) -> tuple[ClassVector, ...]:
    """Distinct summand class set, required to agree across all given primes.

    Raises NotStabilized (with the per-prime sets) when they differ, which
    signals that the primes are too small for this fan.
    """
    primes = tuple(primes)
    if len(primes) < 2:
        raise ValueError("need at least two primes to certify stabilization")
    sets: dict[int, frozenset[ClassVector]] = {}
    for p in primes:
        sets[p] = decompose(fan, ctx, divisor, p).classes
    distinct = set(sets.values())
    if len(distinct) != 1:
        raise NotStabilized(sets)
    return tuple(sorted(next(iter(distinct))))


def _minor_lcm(fan: Fan) -> int:
    """L, the lcm of the nonzero n x n ray minors (fan.ray_minors)."""
    return math.lcm(*filter(None, ray_minors(fan, combinations(range(fan.n_rays), fan.dim))))


def bondal_summands(ctx: PicContext) -> Optional[tuple[ClassVector, ...]]:
    """The Bondal-Thomsen classes {[-floor(<theta, v_rho>)]_rho : theta in R^n}, exactly, or None.

    Every summand class of (pi_p)_* O is one of them (theta = t/p), and
    they generate D^b(X) (Bondal, Oberwolfach report, 2006; Hanlon-Hicks-
    Lazarev, 2023).  With L = _minor_lcm(fan) and N = (n + 1)L, they are
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
    else Python integers.  A fan with more than _GRID_LIMIT ray n-subsets,
    or a grid of more than _GRID_LIMIT points, returns None before
    anything is enumerated.
    """
    fan = ctx.fan
    n = fan.dim
    if math.comb(fan.n_rays, n) > _GRID_LIMIT or (N := (n + 1) * _minor_lcm(fan)) ** n > _GRID_LIMIT:
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
