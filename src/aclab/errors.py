"""Exception types shared across the package."""


class AcLabError(Exception):
    """Base class for all package errors."""


class InvalidPotential(AcLabError):
    """Potential violates the double-well axioms at construction."""


class QuadratureFailure(AcLabError):
    """Adaptive quadrature failed to reach the requested error estimate."""


class InvalidShapeParams(AcLabError):
    """Domain shape parameters are inconsistent or nonpositive."""


class RadiusTooSmall(AcLabError):
    """Ball radius does not exceed the 2h resolvability floor."""


class BallEscapesU(AcLabError):
    """Requested ball is not contained in the padding region U."""


class InvalidCutoffScale(AcLabError):
    """Boundary cutoff scale is nonpositive or too large for the domain."""


class NoConvergence(AcLabError):
    """Iteration budget exhausted before the tolerance was met; the message
    names the smallest residual reached."""


class Blowup(AcLabError):
    """Field values left the physically meaningful range during a flow."""


class SingularJacobian(AcLabError):
    """Newton linearization could not be factorized."""


class UnresolvedInterface(AcLabError):
    """An epsilon in the sweep is too small for the grid spacing."""


class NotTangential(AcLabError):
    """Test vector field is not tangential along the domain boundary."""


class NoInterface(AcLabError):
    """Field has no sign change, so no zero level set exists."""


class NoPlateau(AcLabError):
    """Density-ratio curve has no stable window for plateau detection."""


class ConfigError(AcLabError):
    """Run configuration is missing or malformed."""


class DomainMismatch(AcLabError):
    """Stored solution does not match the configured domain."""
