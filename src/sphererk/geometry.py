"""Exact spherical primitives on the unit 2-sphere.

Points live on S^2 as plain unit 3-tuples (``UnitVector3``), velocities as
plain tangent 3-tuples.  Everything here is a pure function over immutable
values; the geodesic building blocks are

* ``exp_raw``: exponential map cos(|s|) p + sin(|s|) s/|s|
* ``slerp``: constant-speed interpolation along the minor great-circle arc
* ``geodesic_distance``: arc length between two points.
"""

from __future__ import annotations

import math

from . import vec
from .errors import AntipodalPointsError, NonFiniteStateError, ZeroVectorError
from .vec import Vec3

# Below this separation SLERP takes the normalized linear interpolation.
SMALL_ANGLE = 1e-8
# SLERP endpoints farther apart than this count as antipodal.  Near pi the
# geodesic is ill-defined and the sine weights round the result's norm by
# ~2.4e-16/sin(w): 2.4e-13 here, within UNIT_NORM_TOL, but 2.4e-10 at pi - 1e-6.
ANTIPODAL_LIMIT = math.pi - 1e-3
# Stage-arc bound of the multi-stage schemes, keeping SLERP on the minor arc.
HALF_PI = 0.5 * math.pi

UNIT_NORM_TOL = 1e-12


# A point on S^2: a Vec3 of unit norm, which its producers are expected to deliver.
UnitVector3 = Vec3


def project(v: Vec3) -> UnitVector3:
    """Closest-point projection v/|v| onto the sphere.

    Raises
    ------
    ZeroVectorError
        If |v| is numerically zero (below 1e-300).
    NonFiniteStateError
        If |v| is NaN or infinite.
    """
    x, y, z = v
    n = math.sqrt(x * x + y * y + z * z)
    if not (1e-300 <= n < math.inf):
        if n < 1e-300:
            raise ZeroVectorError("cannot project a zero vector onto the sphere")
        raise NonFiniteStateError(f"cannot project a vector of norm {n!r} onto the sphere")
    return (x / n, y / n, z / n)


def check_on_sphere(p: Vec3, what: str) -> None:
    """Raise NonFiniteStateError unless every coordinate of ``p`` is finite, and
    ValueError unless |p| is 1 to UNIT_NORM_TOL; ``what`` names p in the message."""
    if not all(map(math.isfinite, p)):
        raise NonFiniteStateError(f"{what} {tuple(p)!r} is not finite")
    x, y, z = p
    defect = math.sqrt(x * x + y * y + z * z) - 1.0
    if not abs(defect) <= UNIT_NORM_TOL:
        raise ValueError(f"{what} {tuple(p)!r} is off the unit sphere: |p| - 1 = {defect!r}")


def geodesic_distance(p: Vec3, q: Vec3) -> float:
    """Arc length between two unit vectors, in [0, pi].

    Evaluated as atan2(|p x q|, p . q), which equals arccos(clamp(p . q, -1, 1))
    but stays well conditioned near 0 and pi.
    """
    px, py, pz = p
    qx, qy, qz = q
    cx = py * qz - pz * qy
    cy = pz * qx - px * qz
    cz = px * qy - py * qx
    return math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), px * qx + py * qy + pz * qz)


def exp_raw(p: Vec3, s: Vec3) -> UnitVector3:
    """Exponential map at ``p`` applied to a tangent 3-vector, no tangency check."""
    sx, sy, sz = s
    n = math.sqrt(sx * sx + sy * sy + sz * sz)
    # below 2**-26 sin(n) rounds to n, so sin(n)/n is the exact 1.0 of its series
    sinc = math.sin(n) / n if n else 1.0
    c = math.cos(n)
    px, py, pz = p
    return (c * px + sinc * sx, c * py + sinc * sy, c * pz + sinc * sz)


def slerp(p: Vec3, q: Vec3, t: float) -> UnitVector3:
    """Point at parameter ``t`` of the minor great-circle arc from p to q.

    Returns [sin((1-t)w) p + sin(t w) q] / sin(w) with w the geodesic distance.
    Below the small-angle threshold this degrades gracefully to normalized
    linear interpolation (identical to O(w^2) there).

    Raises
    ------
    AntipodalPointsError
        If the points are antipodal within 1e-3 radians (ANTIPODAL_LIMIT),
        where the connecting geodesic is ill-defined and the result would
        miss unit norm by more than UNIT_NORM_TOL.
    NonFiniteStateError
        If the separation is NaN (a NaN or infinite coordinate).
    """
    omega = geodesic_distance(p, q)
    if not (omega <= ANTIPODAL_LIMIT):
        if math.isnan(omega):
            raise NonFiniteStateError("slerp endpoints are not finite")
        raise AntipodalPointsError(f"slerp endpoints are antipodal (separation {omega!r})")
    if omega < SMALL_ANGLE:
        return project(vec.add(vec.scale(p, 1.0 - t), vec.scale(q, t)))
    s = math.sin(omega)
    a = math.sin((1.0 - t) * omega) / s
    b = math.sin(t * omega) / s
    return (a * p[0] + b * q[0], a * p[1] + b * q[1], a * p[2] + b * q[2])
