"""Exception types shared across the package.

Everything raised on a numerical-contract violation derives from
ComputationError so callers (and the command line driver) can map
"the math refused" to a single failure path, distinct from bad input.
"""


class OpuczError(Exception):
    pass


class UsageError(OpuczError):
    """Malformed input: bad grammar strings, out-of-range parameters."""


class ComputationError(OpuczError):
    """A numerical contract could not be met."""


class InvalidVerblunsky(UsageError):
    """A recurrence coefficient has modulus >= 1."""


class InsufficientCoefficients(UsageError):
    """Fewer recurrence coefficients supplied than the requested degree needs."""


class NotPositiveDefinite(ComputationError):
    """Toeplitz moment matrix is not positive definite (pivot <= 1e-13)."""


class QuadratureNotConverged(ComputationError):
    """Adaptive refinement hit its node budget before the tolerance."""


class SeriesNotConverged(ComputationError):
    """A series reached its term cap before its tail bound met the tolerance."""


class NearDiagonalSingularity(ComputationError):
    """Closed-form kernel evaluated too close to its removable singularity."""


class OnUnitCircle(UsageError):
    """Limiting formulas are undefined on the unit circle itself."""


class MixedSides(UsageError):
    """Limiting pair formulas need both points on the same side of the circle."""


class RegionTouchesCircle(UsageError):
    """Limiting variance needs an annulus whose closure avoids the unit circle."""


class DegenerateLeadingCoefficient(ComputationError):
    """Leading coefficient too small to define the root set (|c_n| <= 1e-300)."""


class NoConvergence(ComputationError):
    """The Aberth iteration left a root uncertified, even from the comrade
    eigenvalues, or those eigenvalues could not be computed."""


class BoundaryProximity(ComputationError):
    """Contour count did not land near an integer; a zero sits near the boundary."""


class ExclusionBudgetExceeded(ComputationError):
    """More than 0.1% of Monte Carlo trials had to be excluded."""


class AuditMismatch(ComputationError):
    """An argument-principle audit disagreed with a trial's root count."""
