"""Vectorized exp-map / SLERP kernels for arrays of sphere points.

Rays and director-curve nodes evolve independently, so the wavefront and
p-harmonic solvers step whole (n, 3) arrays at once.  These kernels apply the
same formulas as :mod:`sphererk.geometry` rowwise; the test suite checks
parity against the scalar versions.  Row code reduces with the einsum
helpers below: at a few hundred rows numpy's cost is per call, not per row.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Set, Tuple

import numpy as np

from .errors import AntipodalPointsError, NonFiniteStateError, StepTooLargeError
from .geometry import ANTIPODAL_LIMIT, SMALL_ANGLE


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise dot product over the last axis."""
    return np.einsum("...i,...i->...", a, b)


def row_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(row_dot(a, a))


def row_angle(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rowwise distance 2 atan2(|p - q|, |p + q|) of unit vectors, exact near 0 and pi."""
    return 2.0 * np.arctan2(row_norm(p - q), row_norm(p + q))


def normalize_rows(x: np.ndarray) -> np.ndarray:
    return x / row_norm(x)[..., None]


def snapshot_steps(h: float, t_final: float, times: Optional[Sequence[float]]) -> Tuple[int, Set[int]]:
    """Step count to ``t_final`` and the step indices of the snapshot ``times``.

    All must lie on the grid of step ``h``; ``times`` defaults to t_final alone.
    """
    n_steps = round(t_final / h)
    if abs(n_steps * h - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError("t_final must be an integer number of steps")
    want = set()
    for t in [t_final] if times is None else times:
        i = round(t / h)
        if abs(i * h - t) > 1e-6:
            raise ValueError(f"snapshot time {t!r} is not on the step grid")
        want.add(i)
    return n_steps, want


def check_arc(h: float, v: np.ndarray, limit: float, what: str) -> None:
    """Raise unless every stage arc |h| |v_j| is below ``limit``; NaN fails the test.

    A non-finite velocity raises NonFiniteStateError, a finite one StepTooLargeError.
    """
    arc = abs(h) * math.sqrt(float(np.max(row_dot(v, v))))
    if not arc < limit:
        if not (math.isfinite(h) and np.isfinite(v).all()):
            raise NonFiniteStateError(f"{what} stage velocity is not finite (arc {arc!r})")
        raise StepTooLargeError(f"{what} stage arc {arc!r} exceeds {limit!r}")


def exp_rows(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rowwise exponential map cos(|s|) p + sin(|s|) s/|s|."""
    n = row_norm(s)[..., None]
    small = n < SMALL_ANGLE
    safe = np.where(small, 1.0, n)
    sinc = np.where(small, 1.0 - n * n / 6.0, np.sin(safe) / safe)
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
