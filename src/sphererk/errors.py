"""Exception hierarchy shared across the package."""


class SphereRKError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVectorError(SphereRKError, ValueError):
    """A vector with (numerically) zero length cannot be projected to the sphere."""


class AntipodalPointsError(SphereRKError, ValueError):
    """SLERP endpoints are (numerically) antipodal; the connecting geodesic is not unique."""


class StepTooLargeError(SphereRKError, ValueError):
    """A stage arc length h*|f| exceeds the bound that keeps SLERP on the minor arc."""


class NonFiniteStateError(SphereRKError, ArithmeticError):
    """A state, velocity or error value is NaN or infinite, so no guard can vouch for it."""


class ZeroQuaternionError(SphereRKError, ValueError):
    """The zero quaternion has no inverse or logarithm."""


class LogBranchUndefinedError(SphereRKError, ValueError):
    """Quaternion logarithm requested on the cut (a <= 0 with zero imaginary part)."""


class NearPoleError(SphereRKError, ValueError):
    """Velocity field evaluated too close to a vortex center."""


class DegenerateFrontError(SphereRKError, ValueError):
    """Wavefront polyline has (numerically) zero total length."""


class NonPositiveError(SphereRKError, ValueError):
    """Order fitting received non-positive error values."""


class ReferenceUnavailableError(SphereRKError, RuntimeError):
    """The reference integration failed, or its error estimate is too large to grade errors with."""
