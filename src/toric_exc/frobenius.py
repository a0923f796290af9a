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
way, walking the residue box in slabs of about _SLAB residues along
axis 0, so that its memory does not grow with p^n, and it refuses more
than _RESIDUE_LIMIT residues with TooManyResidues before enumerating any.
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
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NotStabilized, RayNotCovered, TooManyResidues
from .fan import Fan, cone_inverse, ridge_normals
from .lattice import _INT64_SAFE
from .picard import ClassVector, PicContext, to_class

DEFAULT_PRIMES = (31, 37)
_SLAB = 1 << 17  # residues per slab of the counting loop: its keys stay in cache
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
    c_j is nonzero and packed into one mixed-radix key per residue vector.  The residues are walked in slabs of at least one value
    of axis 0 and about _SLAB residues each: the floors on axes 1..n-1 alone
    are summed once, the others once per slab.  The arithmetic is int32 when
    every floor argument and key is below 2^31, int64 up to _INT64_SAFE and
    Python integers past it, so the peak memory is O(max(_SLAB, p^(n-1)))
    plus the counts of the key space.  Each run of equal keys along the last
    axis is counted once, weighted by its length (by bincount when the key
    space is no larger than the p^n residues, else np.unique), and each
    distinct key is decoded into D_v.  More than _RESIDUE_LIMIT residues
    raise TooManyResidues before anything is enumerated.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    n = fan.dim
    if p ** n > _RESIDUE_LIMIT:
        raise TooManyResidues(f"{p}^{n} residues; decompose enumerates at most 2^32")
    cones = fan.max_cones
    uncovered = set(range(fan.n_rays)).difference(*cones)
    if uncovered:
        raise RayNotCovered(f"ray {min(uncovered)} lies in no maximal cone")
    Bt = cone_inverse(fan, cones[0]).transpose()
    divisor = tuple(int(a) for a in divisor)
    base = [divisor[i] for i in cones[0]]

    rows = []                         # (c_j, q_j, r_j, lo_j, span_j) per ray
    for ray, a in zip(fan.rays, divisor):
        c = Bt.mul_vec(ray)           # v_j B_l: v_j on the base cone's ray basis
        q, r = divmod(a - sum(x * u for x, u in zip(c, base)), p)
        lo = ((p - 1) * sum(min(x, 0) for x in c) + r) // p
        hi = ((p - 1) * sum(max(x, 0) for x in c) + r) // p
        rows.append((c, q, r, lo, hi - lo + 1))

    bound = max(abs(x) for c, *_ in rows for x in c) * p * n + p
    key_space = math.prod(span for *_, span in rows)
    widest = max(bound, key_space)
    dtype = object if widest >= _INT64_SAFE else np.int32 if widest < 2 ** 31 else np.int64

    # ray 0 is the lowest digit; the rays with the same support share one
    # array, shaped p on those axes and 1 on the others.  The shares off
    # axis 0 are summed once, the others once per slab of axis 0.
    weights = [1]
    for *_, span in rows[:-1]:
        weights.append(weights[-1] * span)
    supports = [tuple(a for a, x in enumerate(c) if x) for c, *_ in rows]

    def floor_sum(axes, on_axis_0, extra=0):
        # the shares of the rays whose support meets axis 0 (or misses it),
        # summed from the largest down, and then extra
        shares: dict[tuple[int, ...], np.ndarray] = {}
        for (c, _, r, lo, _), support, weight in zip(rows, supports, weights):
            if (0 in support) != on_axis_0:
                continue
            t = sum((c[a] * axes[a] for a in support), r)
            t //= p
            t -= lo
            t *= weight
            if support in shares:
                shares[support] += t
            else:
                shares[support] = t
        total, *rest = sorted(shares.values(), key=np.size, reverse=True) + [extra]
        for part in rest:
            if np.broadcast_shapes(total.shape, np.shape(part)) == total.shape:
                total += part
            else:
                total = total + part
        return total

    dense = dtype is not object and key_space <= p ** n   # count by bincount, else np.unique

    def run_counts(key):
        # along a row of the last axis the key changes at most sum_j |c_j|
        # times, so each run of equal keys is counted once, by its length
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        runs = np.diff(starts, append=key.size)
        if dense:
            counts = np.bincount(key[starts], runs, key_space)
            keys = np.flatnonzero(counts)
            counts = counts[keys]
        else:
            keys, index = np.unique(key[starts], return_inverse=True)
            counts = np.bincount(index, runs)
        return dict(zip(keys.tolist(), counts.astype(np.int64).tolist()))

    axes = [None] + [np.arange(p, dtype=dtype).reshape((p,) + (1,) * (n - 1 - a))
                     for a in range(1, n)]
    fixed = floor_sum(axes, False)
    step = -(-_SLAB // p ** (n - 1))   # rows of axis 0 per slab, at least one
    tally: Counter[int] = Counter()
    for start in range(0, p, step):
        axes[0] = np.arange(start, min(start + step, p), dtype=dtype).reshape((-1,) + (1,) * (n - 1))
        # the base cone's rays cover every axis, so the key fills the slab
        tally.update(run_counts(floor_sum(axes, True, fixed).ravel()))
    assert sum(tally.values()) == p ** n

    totals: dict[ClassVector, int] = {}
    for packed, mult in tally.items():
        coeffs = []
        for _, q, _, lo, span in rows:
            packed, offset = divmod(packed, span)
            coeffs.append(-(q + lo + offset))
        cls = to_class(ctx, coeffs)
        totals[cls] = totals.get(cls, 0) + mult
    return FrobeniusDecomposition(p, to_class(ctx, divisor), tuple(sorted(totals.items())))


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
    """L, the lcm of the nonzero n x n ray minors; each is <v_S0, normal of S minus S0>."""
    rays, normals, L = fan.rays, ridge_normals(fan), 1
    for S in combinations(range(fan.n_rays), fan.dim):
        minor = sum(a * b for a, b in zip(rays[S[0]], normals[S[1:]]))
        if minor:
            L = math.lcm(L, minor)
    return L


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
