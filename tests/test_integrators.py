import math

import numpy as np
import pytest

from sphererk import vec
from sphererk.baselines import BASELINE_STEPPERS, BaselineId
from sphererk.errors import (
    HemisphereViolationError,
    NoConvergenceError,
    NonAutonomousFieldError,
    NonFiniteStateError,
    SphereRKError,
    StepTooLargeError,
)
from sphererk.fields import VelocityField, rigid_rotation_field, rotate_about, vortex4_field
from sphererk.geometry import UnitVector3, geodesic_distance, project, slerp
from sphererk.integrators import (
    SSPRK104_TABLEAU,
    STEPPERS,
    STVDRK4_Q3_WEIGHTS,
    TVDRK2_TABLEAU,
    TVDRK3_TABLEAU,
    SchemeId,
    SspTableau,
    _stvdrk4_stages,
    frechet_mean,
    integrate,
    integrate_steps,
    progressive_slerp_combine,
    projected_mean,
    sfe_step,
    ssp_step,
    ssprk104_step,
    ssprk54_step,
    stepper_for,
    stvdrk2_step,
    stvdrk3_step,
    stvdrk4_q3_variants,
    stvdrk4_step,
)

ZERO_FIELD = VelocityField(lambda p, t: (0.0, 0.0, 0.0), name="zero")
VORTEX = vortex4_field()
P0 = UnitVector3(1.0, 0.0, 0.0)
OMEGA = (1.0, 0.0, 0.0)
EQUATOR_P = UnitVector3(0.0, 0.0, 1.0)  # perpendicular to OMEGA: great-circle motion


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
    # printed coefficients are consistent only to ~1e-11, visible on the
    # one flow the scheme should reproduce exactly
    f = rigid_rotation_field(OMEGA)
    q = ssprk54_step(f, EQUATOR_P, 0.0, 0.3)
    err = vec.norm(vec.sub(q, rotate_about(OMEGA, EQUATOR_P, 0.3)))
    assert 1e-14 < err < 5e-10


def _one_step_reference(f, p, t, h):
    return integrate_steps(stvdrk3_step, f, p, t, t + h, h / 1000.0)[-1][1]


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
        end = integrate(scheme, f, p0, 0.0, 1.0, h)[-1][1]
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


def test_progressive_combine_single_point():
    p = project((0.2, -0.4, 0.7))
    assert progressive_slerp_combine([p], [1.0]) == p


def test_progressive_combine_pair_is_midpoint():
    p, q = UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 1.0, 0.0)
    got = progressive_slerp_combine([p, q], [0.5, 0.5])
    want = slerp(p, q, 0.5)
    assert vec.norm(vec.sub(got, want)) <= 1e-15


def test_progressive_combine_skips_zero_weights():
    p, q = UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 1.0, 0.0)
    got = progressive_slerp_combine([p, (0.0, 0.0, 1.0), q], [0.5, 0.0, 0.5])
    want = slerp(p, q, 0.5)
    assert vec.norm(vec.sub(got, want)) <= 1e-15


def test_progressive_combine_is_not_associative():
    pts = [
        UnitVector3(1.0, 0.0, 0.0),
        UnitVector3(0.0, 1.0, 0.0),
        UnitVector3(0.0, 0.0, 1.0),
    ]
    ws = [0.25, 0.25, 0.5]
    left = progressive_slerp_combine(pts, ws)
    right = progressive_slerp_combine(list(reversed(pts)), list(reversed(ws)))
    assert vec.norm(vec.sub(left, right)) > 1e-6


def test_progressive_combine_validates_weights():
    p, q = UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        progressive_slerp_combine([p, q], [0.7, 0.7])
    with pytest.raises(ValueError):
        progressive_slerp_combine([p, q], [1.5, -0.5])
    with pytest.raises(ValueError):
        progressive_slerp_combine([p], [0.5, 0.5])


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
        UnitVector3(1.0, 0.0, 0.0),
        UnitVector3(0.0, 1.0, 0.0),
        UnitVector3(0.0, 0.0, 1.0),
    ]
    third = 1.0 / 3.0
    got = frechet_mean([(third, p) for p in pts], tol=1e-13)
    want = project((1.0, 1.0, 1.0))
    assert vec.norm(vec.sub(got, want)) <= 1e-12
    dists = [geodesic_distance(got, p) for p in pts]
    assert max(dists) - min(dists) <= 1e-12


def test_frechet_mean_objective_beats_projected_average():
    import random

    from sphererk.geometry import geodesic_distance as gd

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
            return sum(w * gd(q, p) ** 2 for w, p in pairs)

        mean = frechet_mean(pairs)
        fast = projected_mean(pairs)
        assert objective(mean) <= objective(fast) + 1e-14


def test_frechet_mean_hemisphere_violation():
    p = UnitVector3(1.0, 0.0, 0.0)
    q = UnitVector3(-1.0, 0.0, 0.0)
    with pytest.raises(HemisphereViolationError):
        frechet_mean([(0.5, p), (0.5, q)])


def test_frechet_mean_no_convergence_budget():
    p, q = project((1.0, 0.2, 0.0)), project((0.3, 1.0, 0.0))
    with pytest.raises(NoConvergenceError):
        frechet_mean([(0.5, p), (0.5, q)], max_iter=0)


def test_frechet_mean_validates_weights():
    p = UnitVector3(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        frechet_mean([(0.6, p), (0.6, p)])


def test_projected_mean_differs_from_slerp_off_midpoint():
    p, q = UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, 1.0, 0.0)
    fast = projected_mean([(0.7, p), (0.3, q)])
    true = slerp(p, q, 0.3)
    assert vec.norm(vec.sub(fast, true)) > 1e-3
    # but the half-half case coincides with the geodesic midpoint
    assert vec.norm(vec.sub(projected_mean([(0.5, p), (0.5, q)]), slerp(p, q, 0.5))) <= 1e-15


def test_stvdrk4_fold_orders_disagree():
    q3, q3_alt = stvdrk4_q3_variants(VORTEX, P0, 0.0, 0.1)
    assert vec.norm(vec.sub(q3, q3_alt)) > 1e-8


def test_stvdrk4_q3_weights_match_fold_parameters():
    # folding the printed absolute weights must reproduce the printed chain
    _, _, _, _, q30, q31, q32 = _stvdrk4_stages(VORTEX, P0, 0.0, 0.1)
    via_weights = progressive_slerp_combine([q30, q31, q32], list(STVDRK4_Q3_WEIGHTS))
    r31 = slerp(q30, q31, 0.917544541224197)
    printed = slerp(r31, q32, 0.738093750000000)
    assert vec.norm(vec.sub(via_weights, printed)) <= 1e-8


def test_tableau_validation():
    with pytest.raises(ValueError):
        SspTableau(alpha=((1.0,), (0.7, 0.7)), beta=((1.0,), (0.0, 0.5)))
    with pytest.raises(ValueError):
        SspTableau(alpha=((1.0,), (0.0, 1.0)), beta=((1.0,), (0.5, 0.5)))
    with pytest.raises(ValueError):
        SspTableau(alpha=((-1.0,),), beta=((1.0,),))
    with pytest.raises(ValueError):
        SspTableau(alpha=((1.0,), (1.0,)), beta=((1.0,), (1.0,)))


@pytest.mark.parametrize(
    "tableau,step",
    [
        (TVDRK2_TABLEAU, stvdrk2_step),
        (TVDRK3_TABLEAU, stvdrk3_step),
        (SSPRK104_TABLEAU, ssprk104_step),
    ],
)
def test_generic_ssp_step_matches_hardcoded(tableau, step):
    # the field is autonomous so stage-time conventions cannot differ
    got = ssp_step(tableau, VORTEX, P0, 0.0, 0.05)
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


def test_integrate_zero_span():
    traj = integrate(SchemeId.STVDRK3, VORTEX, P0, 0.0, 0.0, 0.1)
    assert traj == [(0.0, P0)]


def test_integrate_counts_and_grid():
    traj = integrate(SchemeId.SFE, VORTEX, P0, 0.0, 1.0, 0.1)
    assert len(traj) == 11
    assert traj[-1][0] == 1.0
    assert traj[3][0] == pytest.approx(0.3, abs=1e-15)


def test_integrate_partial_final_step():
    traj = integrate(SchemeId.STVDRK2, VORTEX, P0, 0.0, 0.25, 0.1)
    assert len(traj) == 4  # ceil(2.5) + 1
    assert traj[-1][0] == 0.25
    # endpoint agrees with an exactly divisible run to the same time
    other = integrate(SchemeId.STVDRK2, VORTEX, P0, 0.0, 0.25, 0.05)
    assert vec.norm(vec.sub(traj[-1][1], other[-1][1])) < 5e-3


def test_integrate_full_revolution_returns_home():
    f = rigid_rotation_field(OMEGA)
    traj = integrate(SchemeId.STVDRK3, f, EQUATOR_P, 0.0, 2.0 * math.pi, math.pi / 100.0)
    assert vec.norm(vec.sub(traj[-1][1], EQUATOR_P)) <= 1e-10


def test_integrate_annotates_step_errors():
    f = rigid_rotation_field((0.0, 0.0, 4.0))
    with pytest.raises(StepTooLargeError, match="step 0"):
        integrate(SchemeId.SFE, f, P0, 0.0, 2.0, 1.0)


def test_integrate_validates_arguments():
    with pytest.raises(ValueError):
        integrate(SchemeId.SFE, VORTEX, P0, 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        integrate(SchemeId.SFE, VORTEX, P0, 1.0, 0.0, 0.1)


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_sphere_invariance_along_trajectories(scheme):
    traj = integrate(scheme, VORTEX, P0, 0.0, 0.5, 1e-2)
    worst = max(abs(vec.norm(p) - 1.0) for _, p in traj)
    assert worst <= 1e-12


def test_endpoint_matches_fine_reference():
    end = integrate(SchemeId.STVDRK3, VORTEX, P0, 0.0, 2.0, 1e-3)[-1][1]
    ref = integrate(SchemeId.STVDRK3, VORTEX, P0, 0.0, 2.0, 1e-4)[-1][1]
    assert vec.norm(vec.sub(end, ref)) < 1e-8


def test_steppers_registry_is_complete():
    assert set(STEPPERS) == set(SchemeId)


NAN_FIELD = VelocityField(lambda p, t: (math.nan, math.nan, math.nan), name="nan")


@pytest.mark.parametrize("scheme", list(SchemeId) + list(BaselineId), ids=lambda s: s.value)
def test_nan_field_raises_for_every_scheme(scheme):
    step = STEPPERS[scheme] if isinstance(scheme, SchemeId) else BASELINE_STEPPERS[scheme]
    with pytest.raises(SphereRKError):
        integrate_steps(step, NAN_FIELD, P0, 0.0, 0.2, 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_scalar_guards_raise_non_finite_state(bad):
    with pytest.raises(NonFiniteStateError):
        sfe_step(VelocityField(lambda p, t: (0.0, bad, 0.0)), P0, 0.0, 0.1)
    with pytest.raises(NonFiniteStateError):
        slerp(P0, (bad, 0.0, 0.0), 0.5)
    with pytest.raises(NonFiniteStateError):
        project((0.0, bad, 1.0))


# rotation about e3 at rate 1 + t: a time-dependent field
SPUN_UP = VelocityField(lambda p, t: vec.cross((0.0, 0.0, 1.0 + t), p),
                        autonomous=False, name="spun-up")


@pytest.mark.parametrize(
    "step",
    [
        lambda f, p, t, h: ssp_step(TVDRK3_TABLEAU, f, p, t, h),
        stvdrk4_step,
        stvdrk4_q3_variants,
        ssprk54_step,
        ssprk104_step,
        lambda f, p, t, h: ssprk104_step(f, p, t, h, combine="frechet"),
    ],
    ids=["ssp_step", "stvdrk4", "stvdrk4_q3_variants", "sssprk54", "sssprk104",
         "sssprk104-frechet"],
)
def test_start_time_steppers_reject_non_autonomous_fields(step):
    import sphererk

    assert sphererk.NonAutonomousFieldError is NonAutonomousFieldError
    with pytest.raises(NonAutonomousFieldError):
        step(SPUN_UP, P0, 0.0, 0.1)


@pytest.mark.parametrize(
    "step",
    [sfe_step, stvdrk2_step, stvdrk3_step] + list(BASELINE_STEPPERS.values()),
)
def test_stage_time_steppers_accept_non_autonomous_fields(step):
    # the exact flow turns P0 about e3 by t + t^2/2
    end = integrate_steps(step, SPUN_UP, P0, 0.0, 0.5, 0.01)[-1][1]
    angle = 0.5 + 0.5**2 / 2.0
    assert vec.norm(vec.sub(project(end), (math.cos(angle), math.sin(angle), 0.0))) < 0.02
