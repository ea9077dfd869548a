import math

import numpy as np
import pytest

from quaternion_oracle import quat_slerp
from sphererk.batch import (
    check_arc,
    exp_rows,
    normalize_rows,
    row_angle,
    row_dot,
    row_norm,
    slerp_rows,
)
from sphererk.errors import AntipodalPointsError, NonFiniteStateError, StepTooLargeError
from sphererk.geometry import HALF_PI, UNIT_NORM_TOL, exp_raw, geodesic_distance, slerp
from sphererk.integrators import snapshot_steps

# The last separation sits just inside ANTIPODAL_LIMIT = pi - 1e-3.
OMEGAS = [0.0, 1e-12, 1e-9, 1e-7, 1e-3, 1.0, 3.0, math.pi - 1.001e-3]


def frame(n, seed=7):
    """Unit rows P with unit tangent directions D at them."""
    rng = np.random.default_rng(seed)
    p = normalize_rows(rng.standard_normal((n, 3)))
    d = rng.standard_normal((n, 3))
    d -= row_dot(d, p)[:, None] * p
    return p, normalize_rows(d)


def pairs_at(omega, n=64):
    p, d = frame(n)
    q = np.array([exp_raw(tuple(pi), tuple(omega * di)) for pi, di in zip(p, d)])
    return p, q


def test_row_helpers_match_numpy_reductions():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
    assert np.allclose(row_dot(a, b), np.sum(a * b, axis=1), rtol=1e-15, atol=1e-15)
    assert np.allclose(row_norm(a), np.linalg.norm(a, axis=1), rtol=1e-15, atol=0.0)
    assert row_dot(a[0], b[0]).shape == ()


def test_row_angle_matches_scalar_distance():
    for omega in OMEGAS:
        p, q = pairs_at(omega)
        scalar = [geodesic_distance(tuple(pi), tuple(qi)) for pi, qi in zip(p, q)]
        assert np.max(np.abs(row_angle(p, q) - scalar)) <= 1e-14


@pytest.mark.parametrize("omega", OMEGAS)
def test_slerp_rows_matches_scalar_across_separations(omega):
    p, q = pairs_at(omega)
    for t in (0.25, 0.5, 2.0 / 3.0):
        rows = slerp_rows(p, q, t)
        scalar = np.array([slerp(tuple(pi), tuple(qi), t) for pi, qi in zip(p, q)])
        assert np.max(np.abs(rows - scalar)) <= 1e-14
        # The sine weights grow like 1/sin(omega), and so does the rounding in
        # the result's norm; below 1 rad (the nlerp rows included) it is 1e-15,
        # and at the antipodal limit it reaches the unit tolerance.
        bound = 1e-15 if omega <= 1.0 else 1e-15 / math.sin(omega)
        assert np.max(np.abs(row_norm(rows) - 1.0)) <= min(bound, UNIT_NORM_TOL)


# Past the limit the norm rounding (~2.4e-16/sin(omega)) would exceed
# UNIT_NORM_TOL: 2.4e-10 at pi - 1e-6.
@pytest.mark.parametrize("omega", [math.pi - 0.999e-3, math.pi - 1e-6])
def test_slerp_rejects_separations_past_the_limit(omega):
    p, q = pairs_at(omega)
    with pytest.raises(AntipodalPointsError):
        slerp_rows(p, q, 0.5)
    for pi, qi in zip(p, q):
        for route in (slerp, quat_slerp):
            with pytest.raises(AntipodalPointsError):
                route(tuple(pi), tuple(qi), 0.5)


def test_slerp_rows_rejects_antipodal_rows():
    p, q = pairs_at(math.pi - 1e-9)
    with pytest.raises(AntipodalPointsError):
        slerp_rows(p, q, 0.5)


def test_slerp_rows_rejects_nan_rows():
    p, q = pairs_at(0.5)
    q[3, 1] = math.nan
    with pytest.raises(NonFiniteStateError):
        slerp_rows(p, q, 0.5)


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_slerp_rows_rejects_infinite_rows(bad, t):
    # 2 atan2(inf, inf) is finite, so the separation alone does not catch these
    p, q = pairs_at(0.5)
    q[3, 1] = bad
    with pytest.raises(NonFiniteStateError), np.errstate(invalid="ignore"):
        slerp_rows(p, q, t)


def test_exp_rows_mixed_small_and_large_steps():
    p, d = frame(8)
    lengths = np.array([0.0, 1e-12, 1e-9, 5e-9, 1e-3, 0.5, 1.0, 2.0])
    out = exp_rows(p, lengths[:, None] * d)
    for i in range(8):
        scalar = exp_raw(tuple(p[i]), tuple(lengths[i] * d[i]))
        assert np.max(np.abs(out[i] - scalar)) <= 1e-15
    assert np.array_equal(out[0], p[0])


def test_exp_maps_are_exact_below_the_series_range():
    # exp_raw and exp_rows take sin(n)/n down to n = 0; below 2**-26 sin(n)
    # rounds to n, so the quotient is the 1.0 that the series 1 - n^2/6 gave
    n = 10.0 ** np.random.default_rng(71).uniform(-320.0, -8.0, 2048)
    assert np.array_equal(np.sin(n), n)
    assert all(math.sin(x) == x for x in n.tolist())
    p, d = frame(n.size)
    s = n[:, None] * d
    assert np.array_equal(exp_rows(p, s), p + s)
    assert all(exp_raw(tuple(pi), tuple(si)) == tuple(pi + si) for pi, si in zip(p, s))


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_snapshot_steps_rejects_bad_step(h):
    with pytest.raises(ValueError, match="step"):
        snapshot_steps(h, 1.0, None)


@pytest.mark.parametrize("t_final", [-0.1, math.nan, math.inf])
def test_snapshot_steps_rejects_bad_horizon(t_final):
    with pytest.raises(ValueError, match="t_final"):
        snapshot_steps(0.1, t_final, None)


@pytest.mark.parametrize("t", [-0.1, 1.1])
def test_snapshot_steps_rejects_times_off_the_horizon(t):
    with pytest.raises(ValueError, match="outside"):
        snapshot_steps(0.1, 1.0, [0.0, t])


def test_snapshot_steps_accepts_zero_horizon():
    assert snapshot_steps(0.1, 0.0, None) == {0}


def test_check_arc_passes_below_limit():
    v = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    check_arc(0.5, v, 1.0 + 1e-12, "test")
    check_arc(-0.5, v, 1.0 + 1e-12, "test")


def test_check_arc_rejects_finite_arc_at_or_over_limit():
    v = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    with pytest.raises(StepTooLargeError):
        check_arc(0.5, v, 1.0, "test")
    # squares that overflow still come from a finite velocity
    with pytest.raises(StepTooLargeError):
        check_arc(1.0, np.array([[1e200, 0.0, 0.0]]), 1.0, "test")


def test_check_arc_bound_is_exact():
    # a unit velocity makes the stage arc h itself: the bound fails, one ulp below passes
    v = np.array([[0.0, -1.0, 0.0]])
    with pytest.raises(StepTooLargeError):
        check_arc(HALF_PI, v, HALF_PI, "ray")
    check_arc(math.nextafter(HALF_PI, 0.0), v, HALF_PI, "ray")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_arc_rejects_non_finite_velocity(bad):
    v = np.zeros((4, 3))
    v[2, 0] = bad
    with pytest.raises(NonFiniteStateError):
        check_arc(0.1, v, 1.0, "test")


def test_check_arc_rejects_nan_step():
    with pytest.raises(NonFiniteStateError):
        check_arc(math.nan, np.ones((2, 3)), 1.0, "test")
