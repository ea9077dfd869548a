"""Quaternion algebra and the quaternion-form SLERP.

Serves as an independent parity oracle for :func:`sphererk.geometry.slerp`:
sphere points embed as pure quaternions (0, p) and the interpolant is
``qa (qa^-1 qb)^t``.  The two routes must agree to 1e-12 componentwise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import vec
from .errors import (
    AntipodalPointsError,
    LogBranchUndefinedError,
    NonFiniteStateError,
    ZeroQuaternionError,
)
from .geometry import ANTIPODAL_LIMIT, UnitVector3, geodesic_distance
from .vec import Vec3

NEAR_REAL = 1e-10

ONE: "Quaternion"


class Quaternion(NamedTuple):
    """Scalar/vector form (a, u) with u the imaginary 3-vector (b, c, d)."""

    a: float
    u: Vec3


ONE = Quaternion(1.0, vec.ZERO)


def q_norm(q: Quaternion) -> float:
    return math.sqrt(q.a * q.a + vec.dot(q.u, q.u))


def hamilton_product(q1: Quaternion, q2: Quaternion) -> Quaternion:
    """(a1 a2 - u1 . u2,  a1 u2 + a2 u1 + u1 x u2)."""
    a = q1.a * q2.a - vec.dot(q1.u, q2.u)
    u = vec.add(
        vec.add(vec.scale(q2.u, q1.a), vec.scale(q1.u, q2.a)),
        vec.cross(q1.u, q2.u),
    )
    return Quaternion(a, u)


def inverse(q: Quaternion) -> Quaternion:
    """(a, -u) / |q|^2."""
    n2 = q.a * q.a + vec.dot(q.u, q.u)
    if n2 < 1e-300:
        raise ZeroQuaternionError("zero quaternion has no inverse")
    return Quaternion(q.a / n2, vec.scale(q.u, -1.0 / n2))


def q_exp(q: Quaternion) -> Quaternion:
    """exp(a) (cos|u|, sin(|u|)/|u| u)."""
    n = vec.norm(q.u)
    sinc = math.sin(n) / n if n else 1.0  # exact below 2**-26, as in geometry.exp_raw
    ea = math.exp(q.a)
    return Quaternion(ea * math.cos(n), vec.scale(q.u, ea * sinc))


def q_log(q: Quaternion) -> Quaternion:
    """(ln|q|, arccos(a/|q|) u/|u|).

    The angle is evaluated as atan2(|u|, a), which is the same function but
    remains well conditioned as |u| -> 0.  Near-real quaternions with a > 0
    return (ln a, 0); the branch is undefined for a <= 0 with u ~ 0.
    """
    n = q_norm(q)
    if n < 1e-300:
        raise ZeroQuaternionError("zero quaternion has no logarithm")
    nu = vec.norm(q.u)
    if nu < NEAR_REAL:
        if q.a <= 0.0:
            raise LogBranchUndefinedError("log undefined for (a, 0) with a <= 0")
        return Quaternion(math.log(n), vec.ZERO)
    theta = math.atan2(nu, q.a)
    return Quaternion(math.log(n), vec.scale(q.u, theta / nu))


def q_pow(q: Quaternion, t: float) -> Quaternion:
    """(a, u)^t = exp(t ln(a, u))."""
    lg = q_log(q)
    return q_exp(Quaternion(t * lg.a, vec.scale(lg.u, t)))


def quat_slerp(pa: UnitVector3, pb: UnitVector3, t: float) -> UnitVector3:
    """SLERP via qa (qa^-1 qb)^t on the pure-quaternion embedding (0, p).

    The result is a pure quaternion up to rounding; its imaginary part is
    returned as the interpolated sphere point.  Raises NonFiniteStateError for
    a NaN separation (a NaN or infinite coordinate), as geometry.slerp does.
    """
    omega = geodesic_distance(pa, pb)
    if not (omega <= ANTIPODAL_LIMIT):
        if math.isnan(omega):
            raise NonFiniteStateError("quaternion slerp endpoints are not finite")
        raise AntipodalPointsError("quaternion slerp endpoints are antipodal")
    qa = Quaternion(0.0, (pa[0], pa[1], pa[2]))
    qb = Quaternion(0.0, (pb[0], pb[1], pb[2]))
    rel = hamilton_product(inverse(qa), qb)
    out = hamilton_product(qa, q_pow(rel, t))
    return tuple(out.u)
