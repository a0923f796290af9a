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
alone.  decompose counts the summands that way.  For p large enough the
set of distinct summand classes stops depending on p; stable_summands
demands agreement across at least two primes, by default DEFAULT_PRIMES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NotStabilized, RayNotCovered
from .fan import Fan, cone_inverse
from .lattice import _INT64_SAFE
from .picard import ClassVector, PicContext, to_class

DEFAULT_PRIMES = (31, 37)


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
    base_cone: int = 0,
) -> FrobeniusDecomposition:
    """Full splitting of (pi_p)_* O(D) dual into line bundle classes.

    Ray j reads its row c_j = v_j B_l of the divide step and its shift
    w_j = a_j - <c_j, a restricted to sigma_l> = q_j p + r_j, both from the
    base cone alone.  Its coefficient in D_v is -(q_j + floor((<c_j, v> +
    r_j) / p)), and that floor lies in a range [lo_j, hi_j] known in advance,
    so only q_j carries the size of a twist.  Each floor is computed on the
    axes where c_j is nonzero and packed into one mixed-radix key per
    residue vector; the keys are counted (by bincount when the key space is
    no larger than the p^n residues) and each distinct key is decoded into
    D_v.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    cones = fan.max_cones
    if not 0 <= base_cone < len(cones):
        raise ValueError(f"base cone index {base_cone} out of range")
    uncovered = set(range(fan.n_rays)).difference(*cones)
    if uncovered:
        raise RayNotCovered(f"ray {min(uncovered)} lies in no maximal cone")
    Bt = cone_inverse(fan, cones[base_cone]).transpose()
    divisor = tuple(int(a) for a in divisor)
    base = [divisor[i] for i in cones[base_cone]]

    n = fan.dim
    rows = []                         # (c_j, q_j, r_j, lo_j, span_j) per ray
    for ray, a in zip(fan.rays, divisor):
        c = Bt.mul_vec(ray)           # v_j B_l: v_j on the base cone's ray basis
        q, r = divmod(a - sum(x * u for x, u in zip(c, base)), p)
        lo = ((p - 1) * sum(min(x, 0) for x in c) + r) // p
        hi = ((p - 1) * sum(max(x, 0) for x in c) + r) // p
        rows.append((c, q, r, lo, hi - lo + 1))

    bound = max(abs(x) for c, *_ in rows for x in c) * p * n + p
    key_space = math.prod(span for *_, span in rows)
    dtype = np.int64 if max(bound, key_space) < _INT64_SAFE else object

    # ray 0 is the lowest digit; the rays with the same support share one
    # array, shaped p on those axes and 1 on the others
    axes = [np.arange(p, dtype=dtype).reshape((p,) + (1,) * (n - 1 - a)) for a in range(n)]
    shares: dict[tuple[int, ...], np.ndarray] = {}
    weight = 1
    for c, _, r, lo, span in rows:
        support = tuple(a for a, x in enumerate(c) if x)
        t = sum((c[a] * axes[a] for a in support), r)
        t //= p
        t -= lo
        t *= weight
        if support in shares:
            shares[support] += t
        else:
            shares[support] = t
        weight *= span
    parts = sorted(shares.values(), key=np.size, reverse=True)
    key = parts[0]
    for part in parts[1:]:
        if key.size == p ** n:
            key += part
        else:
            key = key + part
    key = key.ravel()                 # the base cone's rays cover every axis

    if dtype is object or key_space > p ** n:
        keys, counts = np.unique(key, return_counts=True)
    else:
        counts = np.bincount(key)
        keys = np.flatnonzero(counts)
        counts = counts[keys]
    assert int(counts.sum()) == p ** n

    totals: dict[ClassVector, int] = {}
    for packed, mult in zip(keys.tolist(), counts.tolist()):
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
