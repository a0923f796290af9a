"""Thomsen's per-cone algorithm, one residue vector at a time.

An independent reference for toric_exc.frobenius.decompose, which reads
every ray's row of the divide step from the base cone alone.  Here every
maximal cone sigma_i carries its ray-row matrix A_i, its inverse B_i and
C_li = A_i B_l relative to the base cone sigma_l, and

    C_li v + u_li = p * h_i + r_i,   0 <= r_i < p componentwise,

is solved per cone; the coefficient of Z_j in D_v is -<B_k h_k, v_j> for a
maximal cone sigma_k containing ray j (the choice does not matter).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from toric_exc.errors import RayNotCovered
from toric_exc.fan import Fan, cone_inverse, cone_matrix
from toric_exc.lattice import IntMatrix


@dataclass(frozen=True)
class ConeFrame:
    """Per-cone matrices of Thomsen's algorithm for a fixed base cone."""

    fan: Fan
    base_cone: int
    cones: tuple[tuple[int, ...], ...]
    A: tuple[IntMatrix, ...]
    B: tuple[IntMatrix, ...]
    C: tuple[IntMatrix, ...]          # C[i] = C_{l i} = A_i @ B_l
    ray_cone: tuple[int, ...]         # chosen covering maximal cone per ray


@lru_cache(maxsize=None)
def cone_frame(fan: Fan, base_cone: int = 0) -> ConeFrame:
    """Every maximal cone's matrices, for summand_divisor."""
    cones = fan.max_cones
    if not 0 <= base_cone < len(cones):
        raise ValueError(f"base cone index {base_cone} out of range")
    A = tuple(cone_matrix(fan, c) for c in cones)
    B = tuple(cone_inverse(fan, c) for c in cones)
    C = tuple(a @ B[base_cone] for a in A)
    ray_cone = []
    for ray in range(fan.n_rays):
        k = next((i for i, c in enumerate(cones) if ray in c), None)
        if k is None:
            raise RayNotCovered(f"ray {ray} lies in no maximal cone")
        ray_cone.append(k)
    return ConeFrame(fan, base_cone, cones, A, B, C, tuple(ray_cone))


def divide_step(C: IntMatrix, w: Sequence[int], v: Sequence[int], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Unique h, r with C v + w == p*h + r and 0 <= r < p componentwise."""
    t = C.mul_vec(v)
    h = tuple((a + b) // p for a, b in zip(t, w))
    r = tuple((a + b) - p * hh for a, b, hh in zip(t, w, h))
    assert all(0 <= x < p for x in r)
    return h, r


def cartier_shifts(frame: ConeFrame, divisor: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The vectors u_li = u_i - C_li u_l for the Cartier data of a divisor.

    u_i holds the exponents of the local equation of D on U_i in the cone's
    own coordinate ring: since the chart coordinates cut out exactly the
    cone's ray divisors, u_i is the coefficient vector of D restricted to
    those rays.  (Equivalently, the local character m_i = B_i u_i satisfies
    <m_i, v_rho> = a_rho on the cone; the projection formula and the
    pushforward of global sections both confirm this orientation.)
    """
    us = [tuple(divisor[i] for i in cone) for cone in frame.cones]
    base = us[frame.base_cone]
    return tuple(
        tuple(u - cv for u, cv in zip(ui, Ci.mul_vec(base)))
        for ui, Ci in zip(us, frame.C)
    )


def summand_divisor(
    frame: ConeFrame,
    v: Sequence[int],
    p: int,
    shifts: Optional[tuple[tuple[int, ...], ...]] = None,
) -> tuple[int, ...]:
    """The divisor D_v attached to one residue vector (shifts=None: trivial bundle)."""
    fan = frame.fan
    if shifts is None:
        shifts = ((0,) * fan.dim,) * len(frame.cones)
    lcov = []
    for C, B, w in zip(frame.C, frame.B, shifts):
        h, _ = divide_step(C, w, v, p)
        lcov.append(B.mul_vec(h))
    coeffs = []
    for j in range(fan.n_rays):
        k = frame.ray_cone[j]
        coeffs.append(-sum(a * b for a, b in zip(lcov[k], fan.rays[j])))
    return tuple(coeffs)
