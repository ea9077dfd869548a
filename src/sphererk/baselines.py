"""Embedded-space Runge-Kutta baselines and their projected variants.

These are the comparison schemes: Cartesian steppers that either ignore the
sphere constraint (FE, RK2-4, TVDRK2-3), radially project the final stage
(PFE, PRK2-4, PTVDRK2, PTVDRK3), or project every intermediate stage (the
primed internal-projection variants PTVDRK2', PTVDRK3').
``BASELINE_STEPPERS`` maps each name (``"fe"``, ..., ``"ptvdrk3p"`` for
PTVDRK3') to its stepper.  Each entry is one of three constructions:
``_butcher_step`` on a Butcher tableau for RK2-4, listed as its rows A and
weights b with the stage times c derived from the rows;
``integrators.tvdrk_step`` over forward Euler and linear interpolation for
the TVDRK family (their projected forms for the primed variants); or
``_projected`` of another entry.  The table is declared as an unprojected
and a projected half, and ``ON_SPHERE`` is the projected half.

The velocity field is always evaluated through the closest-point extension
f(x, t) = f(x/|x|, t), so stage values slightly off the sphere remain legal
field arguments.  States are free 3-vectors; projected variants return unit
vectors, unprojected ones generally do not.

``rk6_step`` (Butcher's sixth-order method) is not a baseline: the harness
uses it only for reference endpoints, so no scheme under test grades itself.
The harness's Appendix A norm model steps the ``tvdrk2`` entry itself.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from . import vec
from .fields import VelocityField
from .geometry import project
from .integrators import Stepper, tvdrk_step
from .vec import Vec3


def _ext(f: VelocityField, x: Vec3, t: float) -> Vec3:
    """Closest-point velocity extension: evaluate the field at x/|x|."""
    return f.raw(project(x), t)


def _fe(f, x, t, h):
    """Forward Euler, also the Cartesian substep of the TVDRK baselines."""
    return vec.axpy(h, _ext(f, x, t), x)


def _pfe(f, x, t, h):
    """Projected forward Euler, also the substep of the primed variants."""
    return project(_fe(f, x, t, h))


def _lerp(a, b, w):
    """(1 - w) a + w b."""
    return vec.axpy(w, b, vec.scale(a, 1.0 - w))


def _plerp(a, b, w):
    return project(_lerp(a, b, w))


def _tableau(rows, weights):
    """Tableau (c, A, b) of rows a_ij and weights b_i, with stage times c_i = sum_j a_ij."""
    return tuple(sum(row, 0.0) for row in rows), rows, weights


# Heun's method, Kutta's third-order method and classical RK4:
RK2_TABLEAU = _tableau(((), (1.0,)), (0.5, 0.5))
RK3_TABLEAU = _tableau(((), (0.5,), (-1.0, 2.0)), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0))
RK4_TABLEAU = _tableau(((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
                       (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0))

# Butcher's seven-stage sixth-order method (J. Austral. Math. Soc. 4, 1964).
RK6_A = (
    (),
    (1.0 / 3.0,),
    (0.0, 2.0 / 3.0),
    (1.0 / 12.0, 1.0 / 3.0, -1.0 / 12.0),
    (-1.0 / 16.0, 9.0 / 8.0, -3.0 / 16.0, -3.0 / 8.0),
    (0.0, 9.0 / 8.0, -3.0 / 8.0, -3.0 / 4.0, 0.5),
    (9.0 / 44.0, -9.0 / 11.0, 63.0 / 44.0, 18.0 / 11.0, 0.0, -16.0 / 11.0),
)
RK6_B = (11.0 / 120.0, 0.0, 27.0 / 40.0, 27.0 / 40.0, -4.0 / 15.0, -4.0 / 15.0, 11.0 / 120.0)
RK6_TABLEAU = _tableau(RK6_A, RK6_B)


def _butcher_step(tableau, f: VelocityField, x: Vec3, t: float, h: float) -> Vec3:
    """One unprojected explicit RK step of ``tableau`` on the extension f(x/|x|, t)."""
    cs, rows, bs = tableau
    ks = []
    for c, row in zip(cs, rows):
        y = x
        for a, k in zip(row, ks):
            if a:
                y = vec.axpy(a * h, k, y)
        ks.append(_ext(f, y, t + c * h))
    for b, k in zip(bs, ks):
        if b:
            x = vec.axpy(b * h, k, x)
    return x


def rk6_step(f: VelocityField, x: Vec3, t: float, h: float) -> Vec3:
    """One unprojected step of Butcher's sixth-order RK on the extension f(x/|x|, t).

    The exact flow of the extension keeps |x| fixed, so projecting once at
    the end of an integration keeps the sixth order.  This is the harness's
    reference method, deliberately not one of the schemes under test.
    """
    return _butcher_step(RK6_TABLEAU, f, x, t, h)


def _projected(step: Stepper) -> Stepper:
    """``step`` with its output radially projected to the sphere."""
    return lambda f, x, t, h: project(step(f, x, t, h))


# No entry binds ``project``: it is looked up when a step runs, so replacing
# ``baselines.project`` (as perfbench's tracer does) reaches every projection.
_UNPROJECTED: Dict[str, Stepper] = {
    "fe": _fe,
    "rk2": partial(_butcher_step, RK2_TABLEAU),
    "rk3": partial(_butcher_step, RK3_TABLEAU),
    "rk4": partial(_butcher_step, RK4_TABLEAU),
    "tvdrk2": partial(tvdrk_step, 2, _fe, _lerp),
    "tvdrk3": partial(tvdrk_step, 3, _fe, _lerp),
}
_PROJECTED: Dict[str, Stepper] = {
    "pfe": _pfe,
    "prk2": _projected(_UNPROJECTED["rk2"]),
    "prk3": _projected(_UNPROJECTED["rk3"]),
    "prk4": _projected(_UNPROJECTED["rk4"]),
    "ptvdrk2": _projected(_UNPROJECTED["tvdrk2"]),
    "ptvdrk2p": partial(tvdrk_step, 2, _pfe, _plerp),
    "ptvdrk3": _projected(_UNPROJECTED["tvdrk3"]),
    "ptvdrk3p": partial(tvdrk_step, 3, _pfe, _plerp),
}
BASELINE_STEPPERS: Dict[str, Stepper] = {**_UNPROJECTED, **_PROJECTED}

# Projected variants end every step on the sphere; the rest drift off it.
ON_SPHERE = frozenset(_PROJECTED)
