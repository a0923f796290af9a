"""Divisor classes and linear equivalence.

For a smooth complete toric variety with m rays in an n-dimensional lattice,
the characters of the torus embed into the divisor group through the pairing
u -> (<u, v_rho>)_rho, and the Picard group is the (free, rank m-n)
cokernel.  A PicContext fixes a basis of that quotient, either a preferred
list of ray divisors whose classes form a basis, or the Smith-normal-form
quotient basis, and exposes class computation as an exact linear map.
A stored basis reads its class map from fan.cone_inverse of the n rays
outside the basis (one ray_minors request, not cached); the Smith basis
reads it from U and the U^-1 that the Smith normal form carries.
Neither inverts an m x m matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import NotABasis, NotUnimodular, TorsionInPicard
from .fan import Fan, cone_inverse
from .lattice import IntMatrix, _is_identity_product, smith_normal_form

DivisorVector = tuple[int, ...]  # coefficients on Z_1 ... Z_m
ClassVector = tuple[int, ...]    # coordinates in the chosen Pic basis


def pairing_matrix(fan: Fan) -> IntMatrix:
    """The m x n matrix with entry (rho, j) = <e_j dual, v_rho>."""
    return IntMatrix.from_rows(fan.rays)


@dataclass(frozen=True)
class PicContext:
    """Divisor-class encoder for a fixed fan and Pic basis.

    class_map is an (m-n) x m integer matrix computing class coordinates;
    rep_map is an m x (m-n) right inverse picking a representative divisor
    for each class.  The kernel of class_map is exactly the image of the
    character pairing, so equality of classes is linear equivalence.
    """

    fan: Fan
    class_map: IntMatrix
    rep_map: IntMatrix

    @property
    def rank(self) -> int:
        return self.fan.n_rays - self.fan.dim


def build_pic_context(fan: Fan, basis_divisors: Optional[Sequence[int]] = None) -> PicContext:
    """Build the class encoder, optionally on a user-chosen divisor basis.

    Both ways describe an m x m unimodular frame W whose first n columns
    are the character pairing P (row i is ray i) and whose last m - n
    columns represent the basis classes: class_map is the last m - n rows
    of W^-1 and rep_map the last m - n columns of W.  Neither inverts W.
    - With a basis, those columns are the basis unit vectors.  Up to the
      order of rows, W = [[A_R, 0], [A_basis, I]], with A_R the rays of the
      n indices R outside the basis, so W is unimodular exactly when A_R
      is, and class_map is the identity on the basis columns and
      -A_basis B on the columns R, B = A_R^-1 read from fan.cone_inverse.
    - Without one, W = U^-1 for the Smith normal form U P V = D, which only
      chooses the quotient basis and carries U^-1 beside U.
    Raises NotABasis when the supplied divisors' classes do not freely
    generate Pic (A_R is not unimodular), and TorsionInPicard if the
    quotient is not free (which cannot happen for a smooth complete fan
    and signals corrupt input).
    """
    m, n = fan.n_rays, fan.dim
    rho = m - n

    if basis_divisors is not None:
        basis = tuple(int(i) for i in basis_divisors)
        if len(basis) != rho or len(set(basis)) != rho or any(i < 0 or i >= m for i in basis):
            raise NotABasis(f"need {rho} distinct ray indices, got {basis}")
        rest = tuple(i for i in range(m) if i not in basis)
        try:
            B = cone_inverse(fan, rest)
        except NotUnimodular as exc:
            raise NotABasis(f"classes of rays {basis} do not freely generate Pic: rays {rest}: {exc}") from exc
        rows = [[int(i == b) for i in range(m)] for b in basis]
        for row, product in zip(rows, (IntMatrix.from_rows(fan.rays[b] for b in basis) @ B).entries):
            for i, x in zip(rest, product):
                row[i] = -x
        class_map = IntMatrix.from_rows(rows)
        rep_map = IntMatrix(tuple(tuple(int(i == b) for b in basis) for i in range(m)))
    else:
        snf = smith_normal_form(pairing_matrix(fan))
        diag = snf.D.diagonal_entries()
        if any(d not in (0, 1) for d in diag):
            raise TorsionInPicard(f"divisor class group has torsion: invariant factors {diag}")
        if sum(1 for d in diag if d == 1) != n:
            raise TorsionInPicard("character pairing is not injective; fan does not span the lattice")
        class_map = IntMatrix(snf.U.entries[n:])
        rep_map = IntMatrix(tuple(row[n:] for row in snf.U_inverse.entries))

    assert _is_identity_product(class_map.entries, tuple(zip(*rep_map.entries)))
    return PicContext(fan, class_map, rep_map)


def _check_length(fan: Fan, divisor: Sequence[int]) -> None:
    """Refuse a divisor coefficient vector that does not have one entry per ray."""
    if len(divisor) != fan.n_rays:
        raise ValueError("divisor coefficient vector has wrong length")


def to_class(ctx: PicContext, divisor: Sequence[int]) -> ClassVector:
    """Class coordinates of a toric divisor sum(a_rho Z_rho)."""
    _check_length(ctx.fan, divisor)
    return ctx.class_map.mul_vec(divisor)


def class_to_divisor(ctx: PicContext, cls: Sequence[int]) -> DivisorVector:
    """A representative divisor for a class (basis divisors when available)."""
    if len(cls) != ctx.rank:
        raise ValueError("class vector has wrong length")
    return ctx.rep_map.mul_vec(cls)


def anticanonical_divisor(fan: Fan) -> DivisorVector:
    """-K = Z_1 + ... + Z_m."""
    return (1,) * fan.n_rays


def canonical_divisor(fan: Fan) -> DivisorVector:
    return (-1,) * fan.n_rays


def divisor_label(divisor: Sequence[int]) -> str:
    """Human-readable name of sum(a_rho Z_rho), e.g. 'Z4+2Z5-Z6' or 'O'."""
    parts = []
    for i, a in enumerate(divisor):
        if a == 0:
            continue
        coeff = "" if abs(a) == 1 else str(abs(a))
        parts.append(("-" if a < 0 else "+") + coeff + f"Z{i + 1}")
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def class_label(ctx: PicContext, cls: Sequence[int]) -> str:
    """Render a class as a line bundle on the context's basis divisors."""
    divisor = class_to_divisor(ctx, cls)
    name = divisor_label(divisor)
    return "O" if name == "0" else f"O({name})"
