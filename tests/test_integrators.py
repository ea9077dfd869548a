import functools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import last_state, rotate_about
from sphererk import vec
from sphererk.baselines import BASELINE_STEPPERS, BaselineId, baseline_stepper
from sphererk.eikonal import VelocityModel, trace_wavefront
from sphererk.errors import NonFiniteStateError, NonTangentVelocityError, SphereRKError, StepTooLargeError
from sphererk.fields import VelocityField, rigid_rotation_field, vortex4_field
from sphererk.geometry import HALF_PI, exp_raw, geodesic_distance, project, slerp
from sphererk.integrators import (
    STAGE_TABLES,
    STEPPERS,
    SchemeId,
    _advance,
    grid_steps,
    integrate_steps,
    projected_mean,
    sfe_step,
    snapshot_steps,
    stepper_for,
    stvdrk2_step,
    stvdrk3_step,
)
from sphererk.pharmonic import PFlowParams, default_dt, initial_discontinuous_curve, pflow_evolve

ZERO_FIELD = VelocityField(lambda p, t: (0.0, 0.0, 0.0), name="zero")
VORTEX = vortex4_field()
P0 = (1.0, 0.0, 0.0)
OMEGA = (1.0, 0.0, 0.0)
EQUATOR_P = (0.0, 0.0, 1.0)  # perpendicular to OMEGA: great-circle motion


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_zero_field_fixes_every_scheme(scheme):
    q = stepper_for(scheme)(ZERO_FIELD, P0, 0.0, 0.1)
    assert vec.norm(vec.sub(q, P0)) <= 1e-15


@pytest.mark.parametrize(
    "scheme,tol",
    [
        (SchemeId.SFE, 1e-12),
        (SchemeId.STVDRK2, 1e-12),
        (SchemeId.STVDRK3, 1e-12),
        (SchemeId.STVDRK4, 1e-12),
        (SchemeId.SSSPRK104, 1e-12),
    ],
)
def test_rigid_rotation_exact_per_step(scheme, tol):
    f = rigid_rotation_field(OMEGA)
    h = 0.37
    q = stepper_for(scheme)(f, EQUATOR_P, 0.0, h)
    exact = rotate_about(OMEGA, EQUATOR_P, h)
    assert vec.norm(vec.sub(q, exact)) <= tol


def test_ssprk54_rotation_coefficient_floor():
    # On the rotation problem the error is h times the landing-time defect
    # 1 - 0.9999999999122238 of the printed coefficients: the output lands
    # at t + (1 - 8.8e-11) h on the one flow the scheme should reproduce exactly.
    f = rigid_rotation_field(OMEGA)
    h = 0.3
    q = STEPPERS[SchemeId.SSSPRK54](f, EQUATOR_P, 0.0, h)
    err = vec.norm(vec.sub(q, rotate_about(OMEGA, EQUATOR_P, h)))
    assert err / h == pytest.approx(8.77762e-11, rel=1e-4)


def _candidate_param(step_id, scheme, *values):
    """A parameter set ending in ``scheme``'s stepper, a partial, which has no
    __name__: its id is ``step_id`` + "_step", as the other steppers' ids are their names."""
    return pytest.param(*values, STEPPERS[scheme], id=f"{step_id}_step")


def _one_step_reference(f, p, t, h):
    return last_state(integrate_steps(stvdrk3_step, f, p, t, t + h, h / 1000.0))


def _local_order(step, hs=(0.1, 0.05, 0.025, 0.0125)):
    errs = []
    for h in hs:
        ref = _one_step_reference(VORTEX, P0, 0.0, h)
        errs.append((h, vec.norm(vec.sub(step(VORTEX, P0, 0.0, h), ref))))
    logh = np.log([h for h, _ in errs])
    loge = np.log([e for _, e in errs])
    return np.polyfit(logh, loge, 1)[0]


@pytest.mark.parametrize(
    "step,order",
    [(sfe_step, 2), (stvdrk2_step, 3), (stvdrk3_step, 4)],
)
def test_local_orders_on_vortex(step, order):
    assert abs(_local_order(step) - order) <= 0.3


@pytest.mark.parametrize(
    "scheme,order",
    [(SchemeId.SFE, 1), (SchemeId.STVDRK2, 2), (SchemeId.STVDRK3, 3)],
)
def test_global_orders_against_closed_form_rotation(scheme, order):
    # tilted axis: the trajectory is a latitude circle, so no scheme is exact
    # and the rotated endpoint is an independent closed-form reference
    omega = (0.3, -0.5, 0.8)
    p0 = project((1.0, 0.4, -0.2))
    f = rigid_rotation_field(omega)
    exact = rotate_about(omega, p0, 1.0)
    rows = []
    for k in range(5):
        h = 0.1 * 2.0**-k
        end = last_state(integrate_steps(stepper_for(scheme), f, p0, 0.0, 1.0, h))
        rows.append((h, vec.norm(vec.sub(end, exact))))
    slope = np.polyfit(np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1)[0]
    assert abs(slope - order) <= 0.3


def test_fe_sfe_gap_is_second_order():
    rows = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        v = VORTEX.raw(P0, 0.0)
        fe = vec.axpy(h, v, P0)
        sfe = sfe_step(VORTEX, P0, 0.0, h)
        rows.append((h, vec.norm(vec.sub(fe, sfe))))
    slope = np.polyfit(np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1)[0]
    assert abs(slope - 2.0) <= 0.3


def progressive_slerp_combine(points, alphas):
    """Left fold of pairwise SLERPs with weights alpha_k / (alpha_0 + ... + alpha_k),
    skipping zero weights; the ordering of ``points`` is part of the definition."""
    live = [(a, pt) for a, pt in zip(alphas, points) if a > 0.0]
    acc_w, acc = live[0]
    acc = tuple(acc)
    for a, pt in live[1:]:
        acc_w += a
        acc = slerp(acc, pt, a / acc_w)
    return acc


def _log_raw(q, p):
    """Tangent vector at q pointing to p with length d(q, p) (inverse of exp_raw)."""
    theta = geodesic_distance(q, p)
    if theta < 1e-12:
        return vec.ZERO
    d = vec.axpy(-math.cos(theta), q, p)
    return vec.scale(d, theta / vec.norm(d))


def frechet_mean(weighted_points, tol=1e-13, max_iter=200):
    """Minimizer of sum_i w_i dist(q, p_i)^2 over the sphere, by fixed-point
    Riemannian gradient descent from the projected average; the points must
    lie inside one open hemisphere."""
    q = projected_mean(weighted_points)
    for _ in range(max_iter):
        grad = vec.ZERO
        for w, pt in weighted_points:
            grad = vec.axpy(w, _log_raw(q, pt), grad)
        if vec.norm(grad) <= tol:
            return q
        q = exp_raw(q, grad)
    raise AssertionError(f"Frechet mean did not converge in {max_iter} iterations")


def test_progressive_combine_single_point():
    p = project((0.2, -0.4, 0.7))
    assert progressive_slerp_combine([p], [1.0]) == p


def test_progressive_combine_pair_is_midpoint():
    p, q = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    got = progressive_slerp_combine([p, q], [0.5, 0.5])
    want = slerp(p, q, 0.5)
    assert vec.norm(vec.sub(got, want)) <= 1e-15


def test_progressive_combine_skips_zero_weights():
    p, q = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    got = progressive_slerp_combine([p, (0.0, 0.0, 1.0), q], [0.5, 0.0, 0.5])
    want = slerp(p, q, 0.5)
    assert vec.norm(vec.sub(got, want)) <= 1e-15


def test_progressive_combine_is_not_associative():
    pts = [
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
    ]
    ws = [0.25, 0.25, 0.5]
    left = progressive_slerp_combine(pts, ws)
    right = progressive_slerp_combine(list(reversed(pts)), list(reversed(ws)))
    assert vec.norm(vec.sub(left, right)) > 1e-6


def test_frechet_mean_single_point():
    p = project((0.3, 0.5, -0.8))
    assert frechet_mean([(1.0, p)]) == p


def test_frechet_mean_two_points_is_slerp():
    p, q = project((1.0, 0.2, 0.1)), project((0.1, 1.0, -0.3))
    for t in (0.25, 0.5, 0.9):
        got = frechet_mean([(1.0 - t, p), (t, q)])
        want = slerp(p, q, t)
        assert vec.norm(vec.sub(got, want)) <= 1e-12


def test_frechet_mean_octant_symmetry():
    pts = [
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
    ]
    third = 1.0 / 3.0
    got = frechet_mean([(third, p) for p in pts], tol=1e-13)
    want = project((1.0, 1.0, 1.0))
    assert vec.norm(vec.sub(got, want)) <= 1e-12
    dists = [geodesic_distance(got, p) for p in pts]
    assert max(dists) - min(dists) <= 1e-12


def test_frechet_mean_objective_beats_projected_average():
    import random

    rng = random.Random(13)
    for _ in range(20):
        center = project((rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)))
        pts = []
        for _ in range(4):
            bump = (rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            pts.append(project(vec.add(center, bump)))
        ws = [rng.uniform(0.1, 1.0) for _ in pts]
        total = sum(ws)
        pairs = [(w / total, p) for w, p in zip(ws, pts)]

        def objective(q):
            return sum(w * geodesic_distance(q, p) ** 2 for w, p in pairs)

        mean = frechet_mean(pairs)
        fast = projected_mean(pairs)
        assert objective(mean) <= objective(fast) + 1e-14


def test_projected_mean_differs_from_slerp_off_midpoint():
    p, q = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    fast = projected_mean([(0.7, p), (0.3, q)])
    true = slerp(p, q, 0.3)
    assert vec.norm(vec.sub(fast, true)) > 1e-3
    # but the half-half case coincides with the geodesic midpoint
    assert vec.norm(vec.sub(projected_mean([(0.5, p), (0.5, q)]), slerp(p, q, 0.5))) <= 1e-15


# Absolute weights of the three-point combination forming STVDRK4's third
# combined stage from the points q30, q31, q32 below.
STVDRK4_Q3_WEIGHTS = (0.0215956, 0.24031065, 0.73809375)


def _stvdrk4_q3_points(f, p, t, h):
    """The three points STVDRK4 combines into its third stage (points 5-7 of its stage table)."""
    fp = f.raw(p, t)
    q1 = _advance(p, fp, 0.500000000000000 * h, HALF_PI)
    fq1 = f.raw(q1, t)
    q20 = _advance(p, fp, -1.065687335761845 * h, HALF_PI)
    q21 = _advance(q1, fq1, 1.068486941019387 * h, HALF_PI)
    q2 = slerp(q20, q21, 0.594375000000000)
    q30 = _advance(p, fp, -0.947054029524533 * h, HALF_PI)
    q31 = _advance(q1, fq1, -1.065495848810696 * h, HALF_PI)
    q32 = _advance(q2, f.raw(q2, t), 1.066666666666667 * h, HALF_PI)
    return q30, q31, q32


def test_stvdrk4_fold_orders_disagree():
    # progressive SLERP is not associative: folding the same three points in
    # the other order moves the third stage
    q30, q31, q32 = _stvdrk4_q3_points(VORTEX, P0, 0.0, 0.1)
    q3 = slerp(slerp(q30, q31, 0.917544541224197), q32, 0.738093750000000)
    q3_alt = slerp(slerp(q32, q31, 0.245614850055866), q30, 0.021595600000000)
    assert vec.norm(vec.sub(q3, q3_alt)) > 1e-8


def test_stvdrk4_q3_weights_match_fold_parameters():
    # folding the printed absolute weights must reproduce the printed chain
    q30, q31, q32 = _stvdrk4_q3_points(VORTEX, P0, 0.0, 0.1)
    via_weights = progressive_slerp_combine([q30, q31, q32], list(STVDRK4_Q3_WEIGHTS))
    r31 = slerp(q30, q31, 0.917544541224197)
    printed = slerp(r31, q32, 0.738093750000000)
    assert vec.norm(vec.sub(via_weights, printed)) <= 1e-8


def _ssprk104_tableau():
    """Shu-Osher (alpha, beta) rows of SSPRK(10,4): stage i is
    sum_k alpha_ik u_k + beta_ik h f(u_k) over the earlier stages u_0..u_{i-1}."""
    alpha, beta = [], []
    for i in range(1, 11):
        arow, brow = [0.0] * i, [0.0] * i
        if i == 5:
            arow[0], arow[4], brow[4] = 0.6, 0.4, 0.4 / 6.0
        elif i == 10:
            arow[0], arow[4], arow[9] = 0.04, 0.36, 0.6
            brow[4], brow[9] = 0.36 / 6.0, 0.1
        else:
            arow[i - 1], brow[i - 1] = 1.0, 1.0 / 6.0
        alpha.append(arow)
        beta.append(brow)
    return alpha, beta


def _shu_osher_fold(alpha, beta, f, p, t, h):
    """Exp-map/progressive-SLERP step of an (alpha, beta) tableau, stages at t.

    Each building block alpha u + beta h f(u) becomes exp_u((beta/alpha) h f(u))
    and each stage's convex combination a left fold of SLERPs.
    """
    us = [p]
    for arow, brow in zip(alpha, beta):
        acc, acc_w = None, 0.0
        for u, a, b in zip(us, arow, brow):
            if a == 0.0:
                continue
            pt = u if b == 0.0 else _advance(u, f.raw(u, t), (b / a) * h, HALF_PI)
            acc_w += a
            acc = pt if acc is None else slerp(acc, pt, a / acc_w)
        us.append(acc)
    return us[-1]


@pytest.mark.parametrize(
    "tableau,step",
    [
        (([[1.0], [0.5, 0.5]], [[1.0], [0.0, 0.5]]), stvdrk2_step),
        (([[1.0], [0.75, 0.25], [1.0 / 3.0, 0.0, 2.0 / 3.0]],
          [[1.0], [0.0, 0.25], [0.0, 0.0, 2.0 / 3.0]]), stvdrk3_step),
        _candidate_param("tableau2-ssprk104", SchemeId.SSSPRK104, _ssprk104_tableau()),
    ],
)
def test_generic_ssp_step_matches_hardcoded(tableau, step):
    # the field is autonomous so stage-time conventions cannot differ
    got = _shu_osher_fold(*tableau, VORTEX, P0, 0.0, 0.05)
    want = step(VORTEX, P0, 0.0, 0.05)
    assert vec.norm(vec.sub(got, want)) <= 1e-13


def test_sfe_guard_at_pi():
    f = rigid_rotation_field((0.0, 0.0, 4.0))
    with pytest.raises(StepTooLargeError):
        sfe_step(f, P0, 0.0, 1.0)  # arc = 4 > pi
    # under the bound it works
    sfe_step(f, P0, 0.0, 0.5)


def test_stvdrk_guard_at_half_pi():
    f = rigid_rotation_field((0.0, 0.0, 2.0))
    with pytest.raises(StepTooLargeError):
        stvdrk2_step(f, P0, 0.0, 1.0)  # arc = 2 > pi/2
    stvdrk2_step(f, P0, 0.0, 0.7)


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_non_tangent_field_raises_for_every_scheme(scheme):
    # the normal field (0, 0, 1) at e3 would push |p| to ~1.93 over [0, 1]
    normal = VelocityField(lambda p, t: (0.0, 0.0, 1.0))
    with pytest.raises(NonTangentVelocityError, match=r"^step 0 at t=0\.0: "):
        list(integrate_steps(stepper_for(scheme), normal, (0.0, 0.0, 1.0), 0.0, 1.0, 0.1))


def _spin_plus_normal(c):
    # rotation about e3 plus c p: p . v = c on the sphere, so h |p . v| = c h
    return VelocityField(lambda p, t: vec.axpy(c, p, (-p[1], p[0], 0.0)))


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_normal_part_within_the_norm_tolerance_passes(scheme):
    p = project((0.6, 0.0, 0.8))
    stepper_for(scheme)(_spin_plus_normal(1e-12), p, 0.0, 0.1)  # h |p . v| = 1e-13
    with pytest.raises(NonTangentVelocityError):
        # 1e-11 at h, and still over 1e-12 on the h/6 substeps of sssprk104
        stepper_for(scheme)(_spin_plus_normal(1e-10), p, 0.0, 0.1)


def test_tangency_guard_rejects_nan():
    with pytest.raises(NonTangentVelocityError):
        _advance((math.nan, 0.0, 0.0), (0.0, 1.0, 0.0), 0.1, HALF_PI)


def test_integrate_zero_span():
    traj = list(integrate_steps(stepper_for(SchemeId.STVDRK3), VORTEX, P0, 0.0, 0.0, 0.1))
    assert traj == [(0.0, P0)]


def test_integrate_counts_and_grid():
    traj = list(integrate_steps(stepper_for(SchemeId.SFE), VORTEX, P0, 0.0, 1.0, 0.1))
    assert len(traj) == 11
    assert traj[-1][0] == 1.0
    assert traj[3][0] == pytest.approx(0.3, abs=1e-15)


def test_integrate_partial_final_step():
    traj = list(integrate_steps(stepper_for(SchemeId.STVDRK2), VORTEX, P0, 0.0, 0.25, 0.1))
    assert len(traj) == 4  # ceil(2.5) + 1
    assert traj[-1][0] == 0.25
    # endpoint agrees with an exactly divisible run to the same time
    other = last_state(integrate_steps(stepper_for(SchemeId.STVDRK2), VORTEX, P0, 0.0, 0.25, 0.05))
    assert vec.norm(vec.sub(traj[-1][1], other)) < 5e-3


def test_integrate_full_revolution_returns_home():
    f = rigid_rotation_field(OMEGA)
    end = last_state(integrate_steps(stepper_for(SchemeId.STVDRK3), f, EQUATOR_P, 0.0, 2.0 * math.pi, math.pi / 100.0))
    assert vec.norm(vec.sub(end, EQUATOR_P)) <= 1e-10


def test_integrate_annotates_step_errors():
    f = rigid_rotation_field((0.0, 0.0, 4.0))
    with pytest.raises(StepTooLargeError, match="step 0"):
        list(integrate_steps(stepper_for(SchemeId.SFE), f, P0, 0.0, 2.0, 1.0))


def test_integrate_steps_holds_no_memory_before_the_first_step():
    # the step grid is counted, not built: what is held when the first step
    # runs must not grow with the step count
    held = {}

    def failing(f, x, t, h):
        held[n] = tracemalloc.get_traced_memory()[0] - start
        raise StepTooLargeError("first step")

    tracemalloc.start()
    try:
        for n in (10**3, 10**7):
            start = tracemalloc.get_traced_memory()[0]
            with pytest.raises(StepTooLargeError, match=r"^step 0 at t=0\.0: first step$"):
                for _ in integrate_steps(failing, ZERO_FIELD, P0, 0.0, float(n), 1.0):
                    pass
    finally:
        tracemalloc.stop()
    assert held[10**7] <= held[10**3] + 512


def test_integrate_steps_steps_only_when_asked():
    calls = []

    def counting(f, x, t, h):
        calls.append(t)
        return x

    steps = integrate_steps(counting, ZERO_FIELD, P0, 0.0, 1.0, 0.1)
    assert calls == []
    for k in range(1, 12):
        next(steps)
        assert len(calls) == k - 1
    with pytest.raises(StopIteration):
        next(steps)
    assert len(calls) == 10


def test_row_flows_report_the_failing_step():
    # unit speed from e1, NaN speed beyond distance 0.25: the rays reach it in step 2
    def v(x):
        out = np.ones(x.shape[:-1])
        out[x[..., 0] < math.cos(0.25)] = math.nan
        return out

    model = VelocityModel("nan-cap", v=v, grad_v=lambda x: np.zeros_like(x))
    with pytest.raises(NonFiniteStateError, match=r"^step 2 at t=0\.2: ray stage velocity"):
        trace_wavefront(model, (1.0, 0.0, 0.0), 8, 0.1, 0.5)
    # ten times the default step: the seams' arcs pass pi/2 in step 1
    curve = initial_discontinuous_curve(16)
    dt = 10.0 * default_dt(curve, 2.0)
    with pytest.raises(StepTooLargeError, match=r"^step 1 at t=0\.00390625: node stage arc"):
        pflow_evolve(curve, PFlowParams(p=2.0, dt=dt, t_final=50 * dt))


def test_integrate_validates_arguments():
    with pytest.raises(ValueError):
        integrate_steps(stepper_for(SchemeId.SFE), VORTEX, P0, 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        integrate_steps(stepper_for(SchemeId.SFE), VORTEX, P0, 1.0, 0.0, 0.1)


@pytest.mark.parametrize("t_final, h", [(1.0, math.nan), (1.0, math.inf), (math.nan, 0.1), (math.inf, 0.1)])
def test_integrate_rejects_non_finite_step_or_horizon(t_final, h):
    with pytest.raises(ValueError, match="step"):
        integrate_steps(stepper_for(SchemeId.SFE), VORTEX, P0, 0.0, t_final, h)


@pytest.mark.parametrize("h, span, counted", [
    (0.1, 0.0, (0, True)),
    (0.1, 0.3, (3, True)),
    (0.1, 0.25, (2, False)),
    (0.1, 0.04, (0, False)),
    (1e-7, 5.045e-6, (50, False)),
])
def test_grid_steps_counts_whole_steps(h, span, counted):
    assert grid_steps(h, span) == counted


def test_snapshot_steps_rejects_time_between_grid_points():
    with pytest.raises(ValueError, match="not on the step grid"):
        snapshot_steps(1e-7, 1e-5, [5.045e-6])


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_sphere_invariance_along_trajectories(scheme):
    steps = integrate_steps(stepper_for(scheme), VORTEX, P0, 0.0, 0.5, 1e-2)
    worst = max(abs(vec.norm(p) - 1.0) for _, p in steps)
    assert worst <= 1e-12


def test_endpoint_matches_fine_reference():
    end = last_state(integrate_steps(stepper_for(SchemeId.STVDRK3), VORTEX, P0, 0.0, 2.0, 1e-3))
    ref = last_state(integrate_steps(stepper_for(SchemeId.STVDRK3), VORTEX, P0, 0.0, 2.0, 1e-4))
    assert vec.norm(vec.sub(end, ref)) < 1e-8


def test_steppers_registry_is_complete():
    assert set(STEPPERS) == set(SchemeId)


NAN_FIELD = VelocityField(lambda p, t: (math.nan, math.nan, math.nan), name="nan")


@pytest.mark.parametrize("scheme", list(SchemeId) + list(BaselineId), ids=lambda s: s.value)
def test_nan_field_raises_for_every_scheme(scheme):
    step = STEPPERS[scheme] if isinstance(scheme, SchemeId) else BASELINE_STEPPERS[scheme]
    with pytest.raises(SphereRKError):
        list(integrate_steps(step, NAN_FIELD, P0, 0.0, 0.2, 0.1))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_scalar_guards_raise_non_finite_state(bad):
    with pytest.raises(NonFiniteStateError):
        sfe_step(VelocityField(lambda p, t: (0.0, bad, 0.0)), P0, 0.0, 0.1)
    with pytest.raises(NonFiniteStateError):
        slerp(P0, (bad, 0.0, 0.0), 0.5)
    with pytest.raises(NonFiniteStateError):
        project((0.0, bad, 1.0))


# rotation about e3 at rate 1 + t: a time-dependent field
SPUN_UP = VelocityField(lambda p, t: vec.cross((0.0, 0.0, 1.0 + t), p), name="spun-up")

CANDIDATES = {s.value: STEPPERS[s] for s in STAGE_TABLES}


@pytest.mark.parametrize(
    "step",
    [sfe_step, stvdrk2_step, stvdrk3_step]
    + [_candidate_param(step_id, scheme) for step_id, scheme in
       [("stvdrk4", SchemeId.STVDRK4), ("ssprk54", SchemeId.SSSPRK54), ("ssprk104", SchemeId.SSSPRK104),
        ("ssprk104_frechet", SchemeId.SSSPRK104_FRECHET)]]
    # baseline ids "_" + name stay the same whatever object builds the stepper
    + [pytest.param(step, id=f"_{b.value}") for b, step in BASELINE_STEPPERS.items()],
)
def test_stage_time_steppers_accept_non_autonomous_fields(step):
    # the exact flow turns P0 about e3 by t + t^2/2
    end = last_state(integrate_steps(step, SPUN_UP, P0, 0.0, 0.5, 0.01))
    angle = 0.5 + 0.5**2 / 2.0
    assert vec.norm(vec.sub(project(end), (math.cos(angle), math.sin(angle), 0.0))) < 0.02


# (cos 2t, sin 2t, 1/2) x p: the rotation axis turns about e3, so a stage
# evaluated at the wrong time costs order.
TWIRL = VelocityField(lambda p, t: vec.cross((math.cos(2.0 * t), math.sin(2.0 * t), 0.5), p),
                      name="twirl")
TWIRL_P0 = project((0.3, 0.2, 1.0))


def _twirl_exact(t):
    # in the frame turning about e3 at rate 2 the axis stands still at (1, 0, -3/2)
    return rotate_about((0.0, 0.0, 2.0), rotate_about((1.0, 0.0, -1.5), TWIRL_P0, t), t)


TVDRK_FAMILY = {
    "sfe": sfe_step,
    "stvdrk2": stvdrk2_step,
    "stvdrk3": stvdrk3_step,
    **{b.value: baseline_stepper(b) for b in BaselineId if "tvdrk" in b.value},
}
TWIRL_STEPPERS = {**TVDRK_FAMILY, **CANDIDATES}


@pytest.mark.parametrize(
    "name,order",
    [("sfe", 1), ("stvdrk2", 2), ("stvdrk3", 3), ("tvdrk2", 2), ("tvdrk3", 3),
     ("ptvdrk3", 3), ("ptvdrk2p", 2), ("ptvdrk3p", 2),
     ("stvdrk4", 3), ("sssprk54", 3), ("sssprk104", 3), ("sssprk104-frechet", 2)],
)
def test_stage_times_keep_the_order_on_a_time_dependent_field(name, order):
    # with every stage at the step's start time each scheme here would fit about 1
    hs = [0.05 * 2.0**-k for k in range(5)]
    exact = _twirl_exact(2.0)
    errs = [vec.norm(vec.sub(last_state(integrate_steps(TWIRL_STEPPERS[name], TWIRL, TWIRL_P0, 0.0, 2.0, h)),
                             exact)) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - order) <= 0.25


def _stvdrk2_chain(f, p, t, h):
    q1 = _advance(p, f.raw(p, t), h, HALF_PI)
    q2 = _advance(q1, f.raw(q1, t + h), h, HALF_PI)
    return slerp(p, q2, 0.5)


def _stvdrk3_chain(f, p, t, h):
    q1 = _advance(p, f.raw(p, t), h, HALF_PI)
    q2 = _advance(q1, f.raw(q1, t + h), h, HALF_PI)
    q3 = slerp(p, q2, 0.25)
    q4 = _advance(q3, f.raw(q3, t + 0.5 * h), h, HALF_PI)
    return slerp(p, q4, 2.0 / 3.0)


@pytest.mark.parametrize("step,chain", [(stvdrk2_step, _stvdrk2_chain), (stvdrk3_step, _stvdrk3_chain)])
@pytest.mark.parametrize("field,p0", [(VORTEX, P0), (TWIRL, TWIRL_P0)], ids=["vortex4", "twirl"])
def test_tvdrk_step_equals_the_written_out_chain(step, chain, field, p0):
    got = list(integrate_steps(step, field, p0, 0.0, 2.0, 0.05))
    assert got == list(integrate_steps(chain, field, p0, 0.0, 2.0, 0.05))


# Endpoints at T = 2 with h = 0.1 on TWIRL, recorded from the written-out
# stage chains of each scheme.
PINNED_TWIRL_ENDPOINTS = {
    "sfe": (0.8002058888268783, 0.582861037048013, 0.14122162362082094),
    "stvdrk2": (0.7708568991641889, 0.628731176085469, 0.10235599263919026),
    "stvdrk3": (0.7696669061486401, 0.6307110467888061, 0.09907789379145386),
    "tvdrk2": (0.771361396841396, 0.6293307128224076, 0.10440587327870526),
    "tvdrk3": (0.7701510463078589, 0.630945738896283, 0.0996166753261833),
    "ptvdrk2": (0.7706421730841131, 0.6288034996271374, 0.10352197796053204),
    "ptvdrk2p": (0.7696024546589807, 0.6296338945105852, 0.10617542402225086),
    "ptvdrk3": (0.769695225918483, 0.6306617997792644, 0.09917133405109804),
    "ptvdrk3p": (0.7682802974751087, 0.6317067623491942, 0.10340189028183723),
}


@pytest.mark.parametrize("name", sorted(PINNED_TWIRL_ENDPOINTS))
def test_pinned_endpoints_on_a_time_dependent_field(name):
    end = last_state(integrate_steps(TVDRK_FAMILY[name], TWIRL, TWIRL_P0, 0.0, 2.0, 0.1))
    assert vec.norm(vec.sub(end, PINNED_TWIRL_ENDPOINTS[name])) <= 1e-14


# Endpoints at T = 2 with h = 0.1 of the fourth-order candidates.  The
# vortex4 values were recorded while every stage still ran at the step's start
# time, which an autonomous field cannot tell apart; the twirl values with the
# stage times.  A 1e-9 change to one sssprk54 SLERP weight moves the vortex4
# endpoint by about 1e-9.
PINNED_CANDIDATE_ENDPOINTS = {
    ("vortex4", "stvdrk4"): (-0.5922588313168846, 0.36928435898716017, 0.716141423836519),
    ("vortex4", "sssprk54"): (-0.5922311688137979, 0.3693334775309156, 0.7161389704941077),
    ("vortex4", "sssprk104"): (-0.5922302639276644, 0.3693408739125939, 0.7161359042427983),
    ("vortex4", "sssprk104-frechet"): (-0.5922412591161244, 0.36946605928022086, 0.7160622333571935),
    ("twirl", "stvdrk4"): (0.7696741576510524, 0.6307333355588876, 0.09887947440645908),
    ("twirl", "sssprk54"): (0.7697355323157611, 0.6306450767554896, 0.09896462728992872),
    ("twirl", "sssprk104"): (0.7697413828791515, 0.6306368112553359, 0.09897179281487536),
    ("twirl", "sssprk104-frechet"): (0.7697531986131464, 0.6306290842132609, 0.09892912295766934),
}


@pytest.mark.parametrize("field,name", sorted(PINNED_CANDIDATE_ENDPOINTS),
                         ids=[f"{field}-{name}" for field, name in sorted(PINNED_CANDIDATE_ENDPOINTS)])
def test_pinned_candidate_endpoints(field, name):
    f, p0 = (VORTEX, P0) if field == "vortex4" else (TWIRL, TWIRL_P0)
    end = last_state(integrate_steps(CANDIDATES[name], f, p0, 0.0, 2.0, 0.1))
    assert vec.norm(vec.sub(end, PINNED_CANDIDATE_ENDPOINTS[field, name])) <= 1e-14


def _evaluated_points(table):
    """The points whose field a step of ``table`` evaluates, in the order it needs them."""
    return list(dict.fromkeys(op[1] for op in table.ops if op[0] == "exp"))


@pytest.mark.parametrize("scheme,end", [(SchemeId.STVDRK4, 1.0), (SchemeId.SSSPRK54, 0.9999999999122238),
                                        (SchemeId.SSSPRK104, 1.0), (SchemeId.SSSPRK104_FRECHET, 1.0)])
def test_stage_tables_derive_the_stage_times(scheme, end):
    # sssprk54's printed coefficients land its output at t + (1 - 8.8e-11) h
    table = STAGE_TABLES[scheme]
    assert abs(table.times[-1] - end) <= 1e-15
    # with t = 0 and h = 1 a step evaluates each field at its point's time
    seen = []
    stepper_for(scheme)(VelocityField(lambda p, t: seen.append(t) or vec.ZERO), P0, 0.0, 1.0)
    assert seen == [table.times[j] for j in _evaluated_points(table)]


def test_stvdrk4_evaluates_its_fields_at_0_half_half_1():
    table = STAGE_TABLES[SchemeId.STVDRK4]
    times = sorted(table.times[j] for j in _evaluated_points(table))
    assert np.allclose(times, [0.0, 0.5, 0.5, 1.0], rtol=0.0, atol=1e-15)


# w(p, t) e1 x p with w = 1 + p_y/2 + 0.3 cos 2t keeps e2 on the great circle
# perpendicular to e1, p = (0, cos th, sin th).  Exp maps and SLERPs along it
# are exact angle arithmetic, so each scheme reduces to its Euclidean Runge-Kutta
# method on th' = 1 + cos(th)/2 + 0.3 cos 2t.
GREAT_CIRCLE = VelocityField(
    lambda p, t: vec.scale((0.0, -p[2], p[1]), 1.0 + 0.5 * p[1] + 0.3 * math.cos(2.0 * t)), name="great-circle")


@functools.lru_cache(maxsize=None)
def _great_circle_endpoint(t_final=2.0, n=100_000):
    """The flow from e2 at t_final, by classical RK4 on th at n steps."""
    def g(th, t):
        return 1.0 + 0.5 * math.cos(th) + 0.3 * math.cos(2.0 * t)

    th, h = 0.0, t_final / n
    for i in range(n):
        t = i * h
        k1 = g(th, t)
        k2 = g(th + 0.5 * h * k1, t + 0.5 * h)
        k3 = g(th + 0.5 * h * k2, t + 0.5 * h)
        k4 = g(th + h * k3, t + h)
        th += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return (0.0, math.cos(th), math.sin(th))


# (order, error floor): a pair is fitted only when its finer error is above
# the floor.  sssprk54's ~1e-10 coefficient floor needs a margin of 50; the
# projected mean is no angle interpolation, so sssprk104-frechet stays second order.
GREAT_CIRCLE_ORDERS = {
    SchemeId.STVDRK4: (4, 0.0),
    SchemeId.SSSPRK54: (4, 5e-9),
    SchemeId.SSSPRK104: (4, 0.0),
    SchemeId.SSSPRK104_FRECHET: (2, 0.0),
    SchemeId.STVDRK3: (3, 0.0),
}


@pytest.mark.parametrize("scheme", list(GREAT_CIRCLE_ORDERS), ids=lambda s: s.value)
def test_candidates_are_fourth_order_on_a_great_circle(scheme):
    # in one dimension the candidates keep their order: the r >= 4 barrier
    # comes from the sphere's two-dimensional geometry
    order, floor = GREAT_CIRCLE_ORDERS[scheme]
    exact = _great_circle_endpoint()
    errs = [vec.norm(vec.sub(last_state(integrate_steps(stepper_for(scheme), GREAT_CIRCLE, (0.0, 1.0, 0.0),
                                                        0.0, 2.0, 0.2 * 2.0**-k)), exact)) for k in range(6)]
    slopes = [math.log2(coarse / fine) for coarse, fine in zip(errs, errs[1:]) if fine > floor]
    assert len(slopes) >= 2
    assert all(abs(s - order) <= 0.25 for s in slopes), slopes


# Endpoints at T = 2 with h = 0.1, recorded from the hand-written RK2-4
# stages before they moved onto the Butcher-tableau loop.
PINNED_RK_ENDPOINTS = {
    ("vortex4", "rk2"): (-0.592110663731908, 0.36595904511499144, 0.7198812817646062),
    ("vortex4", "rk3"): (-0.592366547023161, 0.3693044182572316, 0.7154111667093561),
    ("vortex4", "rk4"): (-0.5922237964896757, 0.36933026206027886, 0.7161537233376342),
    ("vortex4", "prk2"): (-0.5914705800250305, 0.3670904416344383, 0.7179186309223955),
    ("vortex4", "prk3"): (-0.5925792263410566, 0.36892746210581506, 0.716060324423297),
    ("vortex4", "prk4"): (-0.5922213774734619, 0.36933384720712015, 0.7161468769537594),
    ("twirl", "rk2"): (0.7713613968413962, 0.6293307128224077, 0.10440587327870551),
    ("twirl", "rk3"): (0.7695116521562826, 0.6304566154941394, 0.09860454363772847),
    ("twirl", "rk4"): (0.7697414026696524, 0.6306358687771397, 0.09897518269919352),
    ("twirl", "prk2"): (0.7706421730841131, 0.6288034996271373, 0.103521977960532),
    ("twirl", "prk3"): (0.7697525970554502, 0.6306340624769824, 0.09890206555055898),
    ("twirl", "prk4"): (0.7697414278014896, 0.6306360934592459, 0.09897601705759661),
}


@pytest.mark.parametrize("field,name", sorted(PINNED_RK_ENDPOINTS),
                         ids=[f"{field}-{name}" for field, name in sorted(PINNED_RK_ENDPOINTS)])
def test_pinned_rk_endpoints(field, name):
    f, p0 = (VORTEX, P0) if field == "vortex4" else (TWIRL, TWIRL_P0)
    end = last_state(integrate_steps(baseline_stepper(name), f, p0, 0.0, 2.0, 0.1))
    assert vec.norm(vec.sub(end, PINNED_RK_ENDPOINTS[(field, name)])) <= 1e-14
