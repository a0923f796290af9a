"""Exception hierarchy shared across the package.

Every mathematically meaningful failure raises a subclass of ToricExcError,
so callers (in particular the command line front end) can separate "the
computation ran and a check failed" from "the input was unusable".
"""


class ToricExcError(Exception):
    """Base class for all errors raised by this package."""


class NotUnimodular(ToricExcError):
    """An integer matrix expected to have determinant +-1 does not."""


class InteriorCoverFailure(ToricExcError):
    """The sum of a primitive collection lies in no cone of the fan."""


class NotABasis(ToricExcError):
    """Supplied divisor classes do not freely generate the Picard group."""


class TorsionInPicard(ToricExcError):
    """The divisor class group has torsion (impossible for smooth complete fans)."""


class RayNotCovered(ToricExcError):
    """Some ray lies in no maximal cone of the fan."""


class NotStabilized(ToricExcError):
    """Frobenius summand sets differ across the supplied primes."""

    def __init__(self, per_prime):
        self.per_prime = dict(per_prime)
        parts = ", ".join(f"p={p}: {len(s)} classes" for p, s in self.per_prime.items())
        super().__init__(f"summand sets not stabilized across primes ({parts})")


class TooManyRays(ToricExcError):
    """Exhaustive subset sweep refused: too many rays."""


class TooManyResidues(ToricExcError):
    """A Frobenius splitting refused: p^n residues are too many to enumerate."""


class BoxUnstable(ToricExcError):
    """A query held to its start radius (no escalation) has an answer resting on a character past it."""


class BoxTooLarge(ToricExcError):
    """A query's start radius, its certified box, or the fan's vertex pass that fixes the box is past its limit."""


class UnboundedRegion(ToricExcError):
    """A box query on a fan without the completeness certificate, whose regions of characters may be unbounded."""


class TermOutsideCollection(ToricExcError):
    """A Koszul resolution term is not among the collection's classes."""

    def __init__(self, offending):
        self.offending = tuple(offending)
        super().__init__(f"resolution terms outside the collection: {self.offending}")


class NotPrimitive(ToricExcError):
    """The given ray set spans a cone, so its Koszul complex is not exact."""
