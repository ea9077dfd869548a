"""Every stepper commutes with rotations: R step(f, p) = step(f_R, R p).

f_R(x) = R f(R^T x) is the field turned with the sphere, so the property
needs no reference solution.  It is checked over seeded rotations for every
scalar scheme on the four-vortex flow, every coupled eikonal scheme on the
y31 velocity model and one p-harmonic step of each order.  Over these 50
rotations the worst differences measured were 6.0e-16 in norm for the scalar
schemes (prk4), 6.7e-16 in any coordinate for the coupled ones (ptvdrk2) and
4.4e-16 for the p-harmonic step (order 3): rounding, far below the 1e-14 gate.
"""

import math

import numpy as np
import pytest

from sphererk import vec
from sphererk.baselines import BASELINE_STEPPERS
from sphererk.eikonal import COUPLED_STEPPERS, VelocityModel, initial_rays, y31_model
from sphererk.fields import VORTEX4_CENTERS, vortex4_field
from sphererk.integrators import STEPPERS
from sphererk.pharmonic import (
    DirectorCurve,
    PFlowParams,
    default_dt,
    initial_discontinuous_curve,
    pflow_evolve,
)

TOL = 1e-14
ROTATIONS = 50


def _rotation(seed):
    """A uniformly random rotation matrix, from a normalised Gaussian quaternion."""
    w, x, y, z = np.random.default_rng(seed).normal(size=4)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _turn(r, p):
    """R p as a tuple of Python floats."""
    return tuple((r @ np.asarray(p)).tolist())


@pytest.mark.parametrize("scheme", [*STEPPERS, *BASELINE_STEPPERS])
def test_scalar_steps_commute_with_rotations(scheme):
    step = {**STEPPERS, **BASELINE_STEPPERS}[scheme]
    p0, h = (1.0, 0.0, 0.0), 0.1
    end = step(vortex4_field(), p0, 0.0, h)
    worst = 0.0
    for seed in range(ROTATIONS):
        r = _rotation(seed)
        turned = vortex4_field(tuple(_turn(r, c) for c in VORTEX4_CENTERS))
        got = step(turned, _turn(r, p0), 0.0, h)
        worst = max(worst, vec.norm(vec.sub(got, _turn(r, end))))
    assert worst <= TOL


def _turned_model(model, r):
    """v_R(x) = v(R^T x) and grad v_R(x) = R grad v(R^T x), on rows x."""
    return VelocityModel(v=lambda x: model.v(x @ r), grad_v=lambda x: model.grad_v(x @ r) @ r.T)


@pytest.mark.parametrize("scheme", list(COUPLED_STEPPERS))
def test_coupled_steps_commute_with_rotations(scheme):
    step = COUPLED_STEPPERS[scheme]
    model, dt = y31_model(), 0.05
    x0, k0 = initial_rays(model, (1.0, 0.0, 0.0), 64)
    x1, k1 = step(model, (x0, k0), 0.0, dt)
    worst = 0.0
    for seed in range(ROTATIONS):
        r = _rotation(seed)
        y0 = (np.asfortranarray(x0 @ r.T), np.asfortranarray(k0 @ r.T))
        x, k = step(_turned_model(model, r), y0, 0.0, dt)
        worst = max(worst, np.max(np.abs(x - x1 @ r.T)), np.max(np.abs(k - k1 @ r.T)))
    assert worst <= TOL


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_pharmonic_step_commutes_with_rotations(order, p):
    curve = initial_discontinuous_curve(64)
    dt = default_dt(curve, p)
    params = PFlowParams(p=p, dt=dt, t_final=dt)
    [(_, end)] = pflow_evolve(curve, params, order=order)
    worst = 0.0
    for seed in range(ROTATIONS):
        r = _rotation(seed)
        [(_, got)] = pflow_evolve(DirectorCurve(curve.m @ r.T), params, order=order)
        worst = max(worst, np.max(np.abs(got.m - end.m @ r.T)))
    assert worst <= TOL
