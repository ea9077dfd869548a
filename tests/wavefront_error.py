"""Arc-length weighted L2 error of a unit-velocity wavefront, a test metric.

For unit velocity the exact front at time t is the circle of geodesic radius
t about the source, so the error of a traced front needs no reference run.
Acceptance criterion 9 grades the coupled eikonal schemes with it.  The
package writes fronts; it does not grade them.
"""

from __future__ import annotations

import math

import numpy as np

from sphererk.batch import row_angle
from sphererk.eikonal import Wavefront
from sphererk.errors import SphereRKError
from sphererk.geometry import UnitVector3


class DegenerateFrontError(SphereRKError, ValueError):
    """Wavefront polyline has (numerically) zero total length."""


def wavefront_E2(front: Wavefront, xs: UnitVector3) -> float:
    """Arc-length weighted L2 deviation of the front from the exact circle.

    For unit velocity the exact wavefront at the front's time t is the circle
    of geodesic radius t about the source xs; the error integrand
    (t - d(x, xs))^2 is integrated over the closed ray polyline by the
    trapezoidal rule with geodesic segment lengths.
    """
    x = front.x
    xs_arr = np.asarray(xs, dtype=float)
    g = (front.t - row_angle(x, xs_arr)) ** 2
    seg = row_angle(x, np.roll(x, -1, axis=0))
    total = float(np.sum(seg))
    if total < 1e-12:
        raise DegenerateFrontError("wavefront polyline has zero length")
    integral = float(np.sum(seg * 0.5 * (g + np.roll(g, -1))))
    return math.sqrt(integral)
