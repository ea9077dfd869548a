"""Velocity fields and model problems used by the benchmark harness.

All fields map a sphere point (and time) to a tangent vector.  Evaluations
work on plain tuples for speed and return the tangential part, which scrubs
the O(1e-16) normal drift that embedded-space formulas accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from . import vec
from .errors import NearPoleError
from .geometry import UnitVector3, check_on_sphere, project
from .vec import Vec3

Matrix3 = Tuple[Vec3, Vec3, Vec3]


@dataclass(frozen=True)
class VelocityField:
    """A tangent velocity field f(p, t) on the unit sphere.

    ``raw`` evaluates at an on-sphere point and returns the tangent 3-vector
    (already projected onto the tangent plane).  It may depend on t: every
    stepper evaluates it at its stages' own times.  ``params`` holds the
    hashable values defining ``raw`` (vortex centres, rotation, matrix), so
    caches key on the field.
    """

    raw: Callable[[Vec3, float], Vec3]
    name: str = ""
    params: Tuple = ()


VORTEX4_CENTERS: Tuple[UnitVector3, ...] = (
    project((1.0, -1.0, 1.0)),
    project((1.0, -1.0, -1.0)),
    project((-2.0, 1.0, 0.0)),
    project((-1.0, -1.0, 0.0)),
)

POLE_GUARD = 1e-12


@dataclass(frozen=True)
class VortexConfig:
    """Four-vortex benchmark setup: centers and start point."""

    centers: Tuple[UnitVector3, ...] = VORTEX4_CENTERS
    p0: UnitVector3 = (1.0, 0.0, 0.0)


def vortex4_field(centers: Tuple[UnitVector3, ...] = VORTEX4_CENTERS) -> VelocityField:
    """Point-vortex interaction field sum_i (x_i x p) / (2 (1 - x_i . p)).

    Raises NearPoleError when evaluated within 1e-12 of a vortex center,
    where the denominator degenerates; ``check_on_sphere`` checks each
    center when the field is built.
    """
    for c in centers:
        check_on_sphere(c, "vortex center")
    # Plain tuples: CPython's fast unpacking path takes exact tuples only.
    unpacked = tuple((c[0], c[1], c[2]) for c in centers)

    def raw(p: Vec3, t: float) -> Vec3:
        # vec.dot, vec.cross and vec.axpy written out, same operations in the
        # same order, then the tangent projection -(p . out) p + out.
        px, py, pz = p
        ox = oy = oz = 0.0
        for cx, cy, cz in unpacked:
            d = 1.0 - (cx * px + cy * py + cz * pz)
            if d < POLE_GUARD:
                raise NearPoleError(f"field evaluated at distance {d!r} from a vortex center")
            s = 0.5 / d
            ox = s * (cy * pz - cz * py) + ox
            oy = s * (cz * px - cx * pz) + oy
            oz = s * (cx * py - cy * px) + oz
        k = -(px * ox + py * oy + pz * oz)
        return (k * px + ox, k * py + oy, k * pz + oz)

    return VelocityField(raw, name="vortex4", params=unpacked)


def rigid_rotation_field(omega: Vec3) -> VelocityField:
    """Rigid rotation f(p) = omega x p about a fixed axis."""

    def raw(p: Vec3, t: float) -> Vec3:
        return vec.cross(omega, p)

    return VelocityField(raw, name="rotation", params=tuple(omega))


def projected_linear_field(m: Matrix3) -> VelocityField:
    """Sphere-projected linear flow g(q) = (I - q q^T) M q.

    Every eigenvector of M (and its antipode) is an equilibrium of g.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m

    def raw(q: Vec3, t: float) -> Vec3:
        # M q row by row, then -(q . Mq) q + Mq, in vec.dot/vec.axpy order.
        qx, qy, qz = q
        ax = m00 * qx + m01 * qy + m02 * qz
        ay = m10 * qx + m11 * qy + m12 * qz
        az = m20 * qx + m21 * qy + m22 * qz
        k = -(qx * ax + qy * ay + qz * az)
        return (k * qx + ax, k * qy + ay, k * qz + az)

    return VelocityField(raw, name="projected-linear", params=tuple(map(tuple, m)))


def diag(d1: float, d2: float, d3: float) -> Matrix3:
    return ((d1, 0.0, 0.0), (0.0, d2, 0.0), (0.0, 0.0, d3))


STABILITY_MATRIX: Matrix3 = diag(0.5, -0.5, -0.5)


def stability_interval(order: int) -> float:
    """Lower bound mu* of the absolute-stability interval mu* <= sigma*h <= 0.

    Orders 1 and 2 share the classical bound -2.  For order 3 the bound is the
    unique real root of mu^3/6 + mu^2/2 + mu + 2 = 0, by Cardano's formula
    mu* = cbrt(sqrt(17) - 4) - cbrt(sqrt(17) + 4) - 1.
    """
    if order in (1, 2):
        return -2.0
    if order != 3:
        raise ValueError(f"no stability interval tabulated for order {order!r}")
    r = math.sqrt(17.0)
    return (r - 4.0) ** (1.0 / 3.0) - (r + 4.0) ** (1.0 / 3.0) - 1.0
