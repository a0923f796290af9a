"""Reference computations for the output checks, in plain Python integers.

Nothing here imports toric_exc: every expected value is derived from the
fan data alone (rays and maximal cones of a smooth complete 3-dimensional
fan), so a fault in the program cannot also hide in its own check.

Classes are compared in the program's chosen Picard basis.  That basis is
taken as a plain matrix M (rows = class coordinates, columns = rays) and
is validated first: M must kill every principal divisor and be unimodular
on the rays outside one smooth cone, which makes its kernel exactly the
principal divisors.  After that, the class of a divisor a is just M a.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product


def det(rows):
    """Determinant of a square integer matrix (exact, by rational elimination)."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    sign = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    out = Fraction(sign)
    for k in range(n):
        out *= a[k][k]
    assert out.denominator == 1
    return int(out)


def coordinates(basis, point):
    """Integer coefficients of `point` on three lattice-basis vectors (det +-1)."""
    d0 = det(basis)
    if abs(d0) != 1:
        raise ValueError(f"vectors {basis} are not a lattice basis")
    # Cramer's rule on point = l0*basis[0] + l1*basis[1] + l2*basis[2];
    # dividing by d0 = +-1 is multiplying by it.
    out = []
    for k in range(3):
        cols = list(basis)
        cols[k] = point
        out.append(det([[col[r] for col in cols] for r in range(3)]) * d0)
    return tuple(out)


def apply(M, divisor):
    return tuple(sum(x * a for x, a in zip(row, divisor)) for row in M)


def basis_problems(M, rays, cones):
    """Why M is not a class map of this fan's Picard group (empty: it is)."""
    m = len(rays)
    if len(M) != m - 3 or any(len(row) != m for row in M):
        return [f"class map has shape {len(M)}x{len(M[0]) if M else 0}, expected {m - 3}x{m}"]
    problems = []
    for j in range(3):
        principal = [ray[j] for ray in rays]
        if any(apply(M, principal)):
            problems.append(f"class map does not kill the principal divisor of e{j + 1}")
    outside = [r for r in range(m) if r not in cones[0]]
    if abs(det([[row[r] for r in outside] for row in M])) != 1:
        problems.append("class map is not unimodular on the rays outside a smooth cone")
    return problems


def bondal_classes(M, rays, denominator=12):
    """{[-floor(<theta, v>)] : theta in (1/N)Z^3 cap [0,1)^3} as class vectors."""
    out = set()
    for k in product(range(denominator), repeat=3):
        divisor = [-((k[0] * v[0] + k[1] * v[1] + k[2] * v[2]) // denominator) for v in rays]
        out.add(apply(M, divisor))
    return out


def thomsen_multiset(M, rays, a, p):
    """Counter of [-floor((<t, v> + a_v)/p)] over t in {0..p-1}^3, as classes."""
    divisors = Counter()
    for t0, t1 in product(range(p), repeat=2):
        columns = [[-((t0 * v[0] + t1 * v[1] + ai + t2 * v[2]) // p) for t2 in range(p)] for v, ai in zip(rays, a)]
        divisors.update(zip(*columns))
    out = Counter()
    for divisor, mult in divisors.items():
        out[apply(M, divisor)] += mult
    return out


def thomsen_c1(M, a, p):
    """First Chern class of the pushforward: -p^2 [D] + p^2 (p-1)/2 [-K]."""
    d = apply(M, a)
    minus_k = apply(M, [1] * len(a))
    return tuple(-p * p * x + p * p * (p - 1) // 2 * k for x, k in zip(d, minus_k))


def faces(cones):
    out = {()}
    for cone in cones:
        for size in range(1, len(cone) + 1):
            out.update(combinations(sorted(cone), size))
    return out


def primitive_collections(m, cones):
    """Minimal non-faces; in a simplicial 3-fan they have 2 to 4 rays."""
    fs = faces(cones)
    out = set()
    for size in range(2, 5):
        for s in combinations(range(m), size):
            if s not in fs and all(s[:i] + s[i + 1:] in fs for i in range(size)):
                out.add(s)
    return out


def is_fano(rays, cones):
    """-K is ample iff every wall curve C has -K.C = 2 - sum(c_i) > 0.

    For adjacent cones F+{a} and F+{b}, the wall relation is
    v_a + v_b = sum over i in F of c_i v_i.
    """
    for cone, other in combinations(cones, 2):
        wall = set(cone) & set(other)
        if len(wall) != 2:
            continue
        (a,) = set(cone) - wall
        (b,) = set(other) - wall
        order = sorted(wall) + [a]
        coords = coordinates([rays[i] for i in order], rays[b])
        if coords[2] != -1:
            raise ValueError(f"cones {cone} and {other} do not meet along a smooth wall")
        if 2 - (coords[0] + coords[1]) <= 0:
            return False
    return True


def forbidden_sets(m, cones):
    """{ray subset: reduced homology ranks in degrees -1..2} for every forbidden set.

    The boundary complex of a complete simplicial 3-fan is a 2-sphere, so
    for a nonempty proper subset I, rank H~0(C_I) is the number of
    components of C_I minus one, and Alexander duality gives
    rank H~1(C_I) = rank H~0(C_(complement of I)).  H~2 vanishes on proper
    subsets and H~-1 only on the empty set.
    """
    edges = {e for cone in cones for e in combinations(sorted(cone), 2)}
    full = (1 << m) - 1

    def components(mask):
        parent = {i: i for i in range(m) if mask >> i & 1}

        def root(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        count = len(parent)
        for i, j in edges:
            if i in parent and j in parent:
                ri, rj = root(i), root(j)
                if ri != rj:
                    parent[ri] = rj
                    count -= 1
        return count

    comps = [components(mask) for mask in range(full + 1)]
    out = {(): (1, 0, 0, 0)}
    for mask in range(1, full):
        ranks = (0, comps[mask] - 1, comps[full ^ mask] - 1, 0)
        if any(ranks):
            out[tuple(i for i in range(m) if mask >> i & 1)] = ranks
    return out
