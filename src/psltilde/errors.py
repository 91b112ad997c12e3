"""Exception types shared across the package."""


class PslTildeError(Exception):
    """Base class for all errors raised by this package."""


class NonUnitDeterminant(PslTildeError):
    """Matrix cannot be normalized: determinant nonpositive or far from 1."""


class NotHyperbolic(PslTildeError):
    pass


class NotConjugate(PslTildeError):
    pass


class EllipticHasNoHyp0Lift(PslTildeError):
    pass


class UnknownGenerator(PslTildeError):
    pass


class NotHP(PslTildeError):
    """A peripheral image is elliptic (or central), so the representation is
    outside the hyperbolic-or-parabolic boundary class."""


class RelatorNotCentral(PslTildeError):
    pass


class BoundaryElliptic(PslTildeError):
    pass


class UnsupportedCurve(PslTildeError):
    pass


class UnreachableTarget(PslTildeError):
    """The requested factor kinds cannot produce the target's component."""


class TargetOutsideImage(PslTildeError):
    """The target component is outside the image of the commutator map."""


class SolveFailed(PslTildeError):
    """A bracketed search did not find a solution; message carries the scan."""


class InfeasibleRequest(PslTildeError):
    pass


class NotSupported(PslTildeError):
    """Feasible request outside the construction families this release covers."""


class NotTypePreserving(PslTildeError):
    pass


class SelfVerificationError(PslTildeError):
    """A constructor's post-condition failed, most often through float
    assembly error; the message carries diagnostics. The builders retry it
    like any numerical failure and raise SolveFailed after their last
    attempt; the solvers, twist_deform and build_negative_control raise it
    directly."""
