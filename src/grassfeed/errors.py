"""Exception types shared across the package.

Every guard in the library raises one of these so callers can tell a
numerical-rank problem from a bad argument or an out-of-contract request.
"""

__all__ = [
    "GrassfeedError",
    "DimensionError",
    "ParameterError",
    "RankDeficient",
    "NotHermitian",
    "NotPSD",
    "NotPD",
    "DegenerateProjection",
    "DomainError",
    "Infeasible",
    "FallbackRequired",
    "MemoryGuard",
    "IncompatiblePolicy",
    "NoOverlap",
    "ConfigError",
]


class GrassfeedError(Exception):
    """Base class for all library errors."""


class DimensionError(GrassfeedError):
    """Array shape incompatible with the operation."""


class ParameterError(GrassfeedError):
    """Scalar argument outside the operation's domain."""


class RankDeficient(GrassfeedError):
    """Matrix numerically rank deficient under the library rank floor."""


class NotHermitian(GrassfeedError):
    """Matrix is not Hermitian within tolerance."""


class NotPSD(GrassfeedError):
    """Matrix has an eigenvalue below the PSD clamping window."""


class NotPD(GrassfeedError):
    """Matrix is not positive definite."""


class DegenerateProjection(GrassfeedError):
    """Subspace projection lost rank, so the split is undefined."""


class DomainError(GrassfeedError):
    """Value left the closed-form expression's region of validity."""


class Infeasible(GrassfeedError):
    """No bit budget can meet the requested rate-loss target."""


class FallbackRequired(GrassfeedError):
    """Emulation guard failed; use the exhaustive codebook path."""


class MemoryGuard(GrassfeedError):
    """Requested allocation exceeds the codebook size cap."""


class IncompatiblePolicy(GrassfeedError):
    """Feedback policy fields contradict each other or the system shape."""


class NoOverlap(GrassfeedError):
    """Rate ranges of two curves do not intersect; no gap is measurable."""


class ConfigError(GrassfeedError):
    """Config file or CLI arguments could not be parsed."""
