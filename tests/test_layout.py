"""Memory layout of the row kernels and of both row flows.

The eikonal and p-harmonic marches step column-major (n, 3) state, so each
ufunc streams whole columns, while the arrays they hand out (fronts and
snapshot curves) stay row-major.  Two things hold that together:

- every kernel and step gives the same bits for a row-major and a
  column-major copy of its input, which fails if ``row_dot`` sums in an order
  that depends on the layout, as ``np.einsum`` does;
- column-major input stays column-major through every stage, so a stray
  row-major copy cannot silently undo the layout, and the public arrays stay
  row-major.
"""

import math
from functools import partial

import numpy as np
import pytest

from conftest import last_state
from sphererk.batch import exp_rows, normalize_rows, row_angle, row_dot, row_norm, slerp_rows
from sphererk.eikonal import COUPLED_SCHEMES, COUPLED_STEPPERS, initial_rays, trace_wavefront, y31_model
from sphererk.integrators import integrate_steps, tvdrk_step
from sphererk.pharmonic import (
    DirectorCurve,
    PFlowParams,
    _exp_euler,
    default_dt,
    initial_discontinuous_curve,
    pflow_evolve,
)

N_ROWS = 4096
XS = (0.6, -0.48, 0.64)
H = math.pi / 50


def layouts(*arrays):
    """Row-major and column-major copies of the arrays."""
    return [np.ascontiguousarray(a) for a in arrays], [np.asfortranarray(a) for a in arrays]


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def unit_pairs(seed=11):
    """Unit rows p and tangent steps s at them, with |s| up to 1.5."""
    rng = np.random.default_rng(seed)
    p = normalize_rows(rng.standard_normal((N_ROWS, 3)))
    s = rng.standard_normal((N_ROWS, 3))
    s -= row_dot(s, p)[:, None] * p
    s *= (rng.uniform(0.0, 1.5, N_ROWS) / row_norm(s))[:, None]
    return p, s


def spread_rays():
    """Column-major rays of y31 after three stvdrk3 steps from XS."""
    model = y31_model()
    y = initial_rays(model, XS, N_ROWS)
    for i in range(3):
        y = COUPLED_STEPPERS["stvdrk3"](model, y, i * H, H)
    return model, y


def rotated_curve(n=256, seed=3):
    """The discontinuous director curve under a random rotation, so no coordinate is a round number."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return DirectorCurve(initial_discontinuous_curve(n).m @ q.T)


def test_row_reductions_do_not_depend_on_the_layout():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, N_ROWS, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, N_ROWS, 3))
    (ac, bc), (af, bf) = layouts(a, b)
    assert_same_bits(row_dot(ac, bc), row_dot(af, bf))
    assert_same_bits(row_norm(ac), row_norm(af))


def test_row_kernels_do_not_depend_on_the_layout():
    p, s = unit_pairs()
    q = exp_rows(p, s)
    (pc, sc, qc), (pf, sf, qf) = layouts(p, s, q)
    assert_same_bits(row_angle(pc, qc), row_angle(pf, qf))
    assert_same_bits(exp_rows(pc, sc), exp_rows(pf, sf))
    for t in (0.25, 0.5, 2.0 / 3.0):
        assert_same_bits(slerp_rows(pc, qc, t), slerp_rows(pf, qf, t))


@pytest.mark.parametrize("scheme", COUPLED_SCHEMES)
def test_ray_step_does_not_depend_on_the_layout(scheme):
    model, y = spread_rays()
    rows, cols = layouts(*y)
    for a, b in zip(COUPLED_STEPPERS[scheme](model, tuple(rows), 0.0, H),
                    COUPLED_STEPPERS[scheme](model, tuple(cols), 0.0, H)):
        assert_same_bits(a, b)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("order", [2, 3])
def test_pflow_evolve_matches_a_row_major_march(p, order):
    c0 = rotated_curve()
    dt = default_dt(c0, p)
    got = pflow_evolve(c0, PFlowParams(p=p, dt=dt, t_final=20 * dt), order=order)[-1][1].m
    step = partial(tvdrk_step, order, _exp_euler, slerp_rows)
    flow = (c0.ds, p, 1e-6)
    want = last_state(integrate_steps(step, flow, np.ascontiguousarray(c0.m), 0.0, 20 * dt, dt))
    assert want.flags.c_contiguous
    assert_same_bits(got, want)


def test_initial_rays_are_column_major():
    x0, k0 = initial_rays(y31_model(), XS, 5)
    assert x0.shape == k0.shape == (5, 3)
    assert x0.flags.f_contiguous and k0.flags.f_contiguous


@pytest.mark.parametrize("scheme", COUPLED_SCHEMES)
def test_ray_step_keeps_column_major_state(scheme):
    model, y = spread_rays()
    x, k = COUPLED_STEPPERS[scheme](model, y, 0.0, H)
    assert x.flags.f_contiguous and k.flags.f_contiguous


def test_pflow_stages_keep_column_major_state():
    c0 = rotated_curve()
    dt = default_dt(c0, 1.0)
    m = np.asfortranarray(c0.m)
    e = _exp_euler((c0.ds, 1.0, 1e-6), m, 0.0, dt)
    assert e.flags.f_contiguous
    for t in (0.25, 0.5, 2.0 / 3.0):
        assert slerp_rows(m, e, t).flags.f_contiguous


def test_fronts_and_snapshot_curves_are_row_major():
    fronts = trace_wavefront(y31_model(), XS, 64, H, 2 * H, snapshot_times=[0.0, H, 2 * H])
    assert len(fronts) == 3
    for front in fronts:
        assert front.x.flags.c_contiguous and front.k.flags.c_contiguous
    c0 = rotated_curve(16)
    dt = default_dt(c0, 2.0)
    snaps = pflow_evolve(c0, PFlowParams(p=2.0, dt=dt, t_final=2 * dt), snapshot_times=[0.0, dt, 2 * dt])
    assert len(snaps) == 3
    for _, curve in snaps:
        assert curve.m.flags.c_contiguous
