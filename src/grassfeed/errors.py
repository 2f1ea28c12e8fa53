"""Exception types shared across the package, and the argument checks.

Every guard in the library raises one of these so callers can tell a
numerical-rank problem from a bad argument or an out-of-contract request.
The checks at the end state the count, shape, real-parameter and
numeric-array rules once.
"""

import sys
from numbers import Integral, Real

import numpy as np

__all__ = [
    "GrassfeedError",
    "DimensionError",
    "ParameterError",
    "RankDeficient",
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
    """Requested allocation exceeds the codebook size cap, or numpy refuses it."""


class IncompatiblePolicy(GrassfeedError):
    """Feedback policy fields contradict each other or the system shape."""


class NoOverlap(GrassfeedError):
    """Rate ranges of two curves do not intersect; no gap is measurable."""


class ConfigError(GrassfeedError):
    """Config file or CLI arguments could not be parsed."""


def _is_count(x):
    """True for a nonnegative integer; bools and integral floats are not counts."""
    return isinstance(x, Integral) and not isinstance(x, bool) and x >= 0


def _check_count(name, x, low=0):
    """Raise ParameterError unless x is an integer >= low."""
    if not (_is_count(x) and x >= low):
        raise ParameterError(f"{name} must be an integer >= {low}, got {x!r}")


def _check_shape(m, n, loaded=False):
    """Raise ParameterError unless 1 <= N <= M/2 are integers and, when the
    system is fully loaded with K = M/N users, N divides M."""
    if not (_is_count(m) and _is_count(n)) or n < 1 or m < 2 * n or (loaded and m % n):
        rule = "K = M/N >= 2 users" if loaded else "1 <= N <= M/2"
        raise ParameterError(f"need integers M, N with {rule}, got M={m!r}, N={n!r}")


def _check_real(name, x, low=None, closed=False, high=None, error=ParameterError):
    """Raise ``error`` unless x is a finite real number above low (or equal
    to it when closed) and below high."""
    # abs(x) <= max compares an int exactly and fails for NaN and inf
    ok = isinstance(x, Real) and abs(x) <= sys.float_info.max
    ok = ok and (low is None or (x >= low if closed else x > low)) and (high is None or x < high)
    if not ok:
        bound = "" if low is None else f" {'>=' if closed else '>'} {low}"
        bound += "" if high is None else f" and < {high}"
        raise error(f"{name} must be a finite real{bound}, got {x!r}")


def _as_array(name, x, dtype=np.complex128):
    """x as an array of ``dtype``; ParameterError where numpy cannot convert
    it, as for strings or objects where numbers belong."""
    try:
        return np.asarray(x, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be a numeric array: {exc}") from exc
