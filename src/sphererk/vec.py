"""Plain-tuple 3-vector helpers.

The scalar path runs on ``Vec3 = tuple[float, float, float]``; free functions
over tuples avoid per-call array overhead for the small fixed-size states this
package evolves.  The innermost kernels (the field evaluations, the exp-map
substep, ``geodesic_distance``, ``exp_raw`` and ``project``) unpack their
tuples into local floats and write these formulas out instead, in the same
operation order, because at one point per call the cost there is the Python
calls themselves.  The helpers serve everything else.
"""

from __future__ import annotations

import math
from typing import Tuple

Vec3 = Tuple[float, float, float]

ZERO: Vec3 = (0.0, 0.0, 0.0)


def add(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scale(a: Vec3, s: float) -> Vec3:
    return (a[0] * s, a[1] * s, a[2] * s)


def axpy(s: float, a: Vec3, b: Vec3) -> Vec3:
    """s*a + b."""
    return (s * a[0] + b[0], s * a[1] + b[1], s * a[2] + b[2])


def dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(a: Vec3) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])
