"""Vectorized exp-map / SLERP kernels for arrays of sphere points.

Rays and director-curve nodes evolve independently, so the wavefront and
p-harmonic solvers step whole (n, 3) arrays at once.  These kernels apply the
same formulas as :mod:`sphererk.geometry` rowwise; the test suite checks
parity against the scalar versions.  Every kernel is a few whole-array
ufuncs, and the result keeps the input's memory layout.  Both flows march
column-major (Fortran-ordered) (n, 3) state, so each ufunc streams three
contiguous columns of n; on row-major rows numpy's inner loop would run over
the 3-wide axis instead.  ``row_dot`` sums its three products in a fixed
order, so every row's result is the same bits in either layout.  Besides the
kernels there is only ``check_arc``, the stage-arc guard of both row flows;
their step grid comes from :mod:`sphererk.integrators`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AntipodalPointsError, NonFiniteStateError, StepTooLargeError
from .geometry import ANTIPODAL_LIMIT, SMALL_ANGLE


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise dot product over the last axis, (a0 b0 + a2 b2) + a1 b1.

    This is the order ``np.einsum`` sums rows of a row-major array in, bit
    for bit; on column-major input einsum sums in another order.  The sums
    run in place, so at most two (n,) arrays are live at once.
    """
    d = a[..., 0] * b[..., 0]
    d += a[..., 2] * b[..., 2]
    d += a[..., 1] * b[..., 1]
    return d


def row_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(row_dot(a, a))


def row_angle(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rowwise distance 2 atan2(|p - q|, |p + q|) of unit vectors, exact near 0 and pi."""
    return 2.0 * np.arctan2(row_norm(p - q), row_norm(p + q))


def normalize_rows(x: np.ndarray) -> np.ndarray:
    return x / row_norm(x)[..., None]


def check_arc(h: float, v: np.ndarray, limit: float, what: str) -> None:
    """Raise unless every stage arc |h| |v_j| is below ``limit``; NaN fails the test.

    A non-finite velocity raises NonFiniteStateError, a finite one StepTooLargeError.
    """
    # einsum, unlike the products of row_dot, raises no overflow warning at
    # |v| ~ 1e200, which must reach the StepTooLargeError below
    arc = abs(h) * math.sqrt(float(np.max(np.einsum("...i,...i->...", v, v))))
    if not arc < limit:
        if not (math.isfinite(h) and np.isfinite(v).all()):
            raise NonFiniteStateError(f"{what} stage velocity is not finite (arc {arc!r})")
        raise StepTooLargeError(f"{what} stage arc {arc!r} exceeds {limit!r}")


def exp_rows(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rowwise exponential map cos(|s|) p + sin(|s|) s/|s|."""
    n = row_norm(s)[..., None]
    # sin(n)/n as in geometry.exp_raw, with 1.0 where n = 0 (0/0 would warn)
    sinc = np.divide(np.sin(n), n, out=np.ones_like(n), where=n != 0.0)
    return np.cos(n) * p + sinc * s


def slerp_rows(p: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    """Rowwise SLERP at a common parameter t; rows with a NaN or infinite
    coordinate raise NonFiniteStateError.

    Rows closer than SMALL_ANGLE take the nlerp weights 1 - t and t, unit to
    about 1e-17 without renormalizing.
    """
    omega = row_angle(p, q)
    widest = float(np.max(omega))
    if not widest <= ANTIPODAL_LIMIT:
        if math.isnan(widest):
            raise NonFiniteStateError("slerp rows contain a non-finite point")
        raise AntipodalPointsError("slerp rows contain an antipodal pair")
    omega = omega[..., None]
    small = omega < SMALL_ANGLE
    safe = np.where(small, 1.0, omega)
    s = np.sin(safe)
    a = np.where(small, 1.0 - t, np.sin((1.0 - t) * safe) / s)
    b = np.where(small, t, np.sin(t * safe) / s)
    out = a * p + b * q
    # an infinite coordinate leaves omega finite (2 atan2(inf, inf) = pi/2)
    # but not the result; one sum is cheaper than testing both inputs
    if not math.isfinite(float(np.sum(out))):
        raise NonFiniteStateError("slerp rows contain a non-finite point")
    return out
