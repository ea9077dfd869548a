"""Bit-identity pins for the scalar kernels that work on local floats.

The field evaluations, ``geodesic_distance``, ``exp_raw``, ``project``,
``slerp``, the exp-map substep and the stability attractor distance unpack
their tuples and do the arithmetic inline.  Each oracle here is the same
formula written with the ``vec`` helpers; the kernels must match it with
``==``, because they do the same IEEE operations in the same order.  Every
point they return is a plain tuple, the scalar path's one point type.
"""

import math
import random

import pytest

from conftest import seeded_unit_vectors
from sphererk import vec
from sphererk.quaternion import quat_slerp
from sphererk.errors import NearPoleError, NonFiniteStateError
from sphererk.fields import (
    POLE_GUARD,
    STABILITY_MATRIX,
    VORTEX4_CENTERS,
    projected_linear_field,
    vortex4_field,
)
from sphererk.geometry import SMALL_ANGLE, exp_raw, geodesic_distance, project, slerp
from sphererk.harness import _attractor_distance, random_unit_vector, run_stability
from sphererk.integrators import SchemeId, _advance, stepper_for, stvdrk3_step

N = 1000


def oracle_vortex4(centers):
    def raw(p, t):
        out = vec.ZERO
        for c in centers:
            d = 1.0 - vec.dot(c, p)
            if d < POLE_GUARD:
                raise NearPoleError(repr(d))
            out = vec.axpy(0.5 / d, vec.cross(c, p), out)
        return vec.axpy(-vec.dot(p, out), p, out)

    return raw


def oracle_projected_linear(m):
    def raw(q, t):
        mq = (vec.dot(m[0], q), vec.dot(m[1], q), vec.dot(m[2], q))
        return vec.axpy(-vec.dot(q, mq), q, mq)

    return raw


def oracle_geodesic_distance(p, q):
    return math.atan2(vec.norm(vec.cross(p, q)), vec.dot(p, q))


def oracle_exp_raw(p, s):
    # the oracle keeps the series form below SMALL_ANGLE: there it rounds to
    # the same 1.0 as the kernel's sin(n)/n, so the two must match with ==
    n = vec.norm(s)
    sinc = 1.0 - n * n / 6.0 if n < SMALL_ANGLE else math.sin(n) / n
    c = math.cos(n)
    return tuple(vec.add(vec.scale(p, c), vec.scale(s, sinc)))


def oracle_project(v):
    n = vec.norm(v)
    return (v[0] / n, v[1] / n, v[2] / n)


def oracle_slerp(p, q, t):
    omega = oracle_geodesic_distance(p, q)
    if omega < SMALL_ANGLE:
        return oracle_project(vec.add(vec.scale(p, 1.0 - t), vec.scale(q, t)))
    s = math.sin(omega)
    return vec.add(vec.scale(p, math.sin((1.0 - t) * omega) / s), vec.scale(q, math.sin(t * omega) / s))


def random_vectors(seed, count):
    rng = random.Random(seed)
    return [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(count)]


def near_centre_points(centers, seed, count):
    """Points at 1e-5 to 1e-3 rad from a vortex centre, beyond POLE_GUARD."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        c = centers[i % len(centers)]
        u = seeded_unit_vectors(seed + i, 1)[0]
        t = vec.cross(c, u)
        t = vec.scale(t, 1.0 / vec.norm(t))
        out.append(exp_raw(c, vec.scale(t, 10.0 ** rng.uniform(-5.0, -3.0))))
    return out


def test_vortex4_field_matches_vec_oracle():
    rotated = tuple(seeded_unit_vectors(17, 4))
    for centers in (VORTEX4_CENTERS, rotated):
        got, want = vortex4_field(centers).raw, oracle_vortex4(centers)
        points = seeded_unit_vectors(11, N) + near_centre_points(centers, 23, 200)
        for p in points:
            assert got(p, 0.0) == want(p, 0.0)


def test_vortex4_field_within_pole_guard_raises():
    f = vortex4_field()
    for c in VORTEX4_CENTERS:
        t = vec.cross(c, (0.0, 0.0, 1.0))
        p = exp_raw(c, vec.scale(t, 1e-7 / vec.norm(t)))
        assert 1.0 - vec.dot(c, p) < POLE_GUARD
        with pytest.raises(NearPoleError):
            f.raw(p, 0.0)


def test_projected_linear_field_matches_vec_oracle():
    rng = random.Random(29)
    general = tuple(tuple(rng.uniform(-1.0, 1.0) for _ in range(3)) for _ in range(3))
    for m in (STABILITY_MATRIX, general):
        got, want = projected_linear_field(m).raw, oracle_projected_linear(m)
        for q in seeded_unit_vectors(31, N):
            assert got(q, 0.0) == want(q, 0.0)


def test_geodesic_distance_matches_vec_oracle():
    ps = seeded_unit_vectors(41, N)
    qs = seeded_unit_vectors(43, N)
    for p, q in zip(ps, qs):
        near = project(vec.axpy(1e-9, q, p))
        far = project(vec.axpy(1e-9, q, vec.scale(p, -1.0)))
        for other in (q, p, near, far):
            assert geodesic_distance(p, other) == oracle_geodesic_distance(p, other)


def test_exp_raw_matches_vec_oracle():
    rng = random.Random(47)
    for p, s in zip(seeded_unit_vectors(53, N), random_vectors(59, N)):
        tiny = vec.scale(s, 10.0 ** rng.uniform(-12.0, -8.5))
        assert vec.norm(tiny) < SMALL_ANGLE
        for v in (s, tiny, vec.ZERO):
            assert exp_raw(p, v) == oracle_exp_raw(p, v)


def test_project_matches_vec_oracle():
    rng = random.Random(61)
    for v in random_vectors(67, N):
        scaled = vec.scale(v, 10.0 ** rng.uniform(-3.0, 3.0))
        assert project(scaled) == oracle_project(scaled)


def test_slerp_matches_vec_oracle():
    for p, q in zip(seeded_unit_vectors(83, N), seeded_unit_vectors(89, N)):
        near = project(vec.axpy(1e-9, q, p))
        assert geodesic_distance(p, near) < SMALL_ANGLE
        for other in (q, near):
            for t in (0.25, 0.5, 2.0 / 3.0, 0.9):
                assert slerp(p, other, t) == oracle_slerp(p, other, t)


def test_scalar_points_are_plain_tuples():
    p, q = seeded_unit_vectors(97, 2)
    near = project(vec.axpy(1e-9, q, p))
    points = [
        exp_raw(p, (0.0, 0.1, 0.0)),
        slerp(p, q, 0.3),
        slerp(p, near, 0.3),
        project((2.0, 0.0, 0.0)),
        quat_slerp(p, q, 0.3),
        random_unit_vector(random.Random(101)),
    ]
    points += [stepper_for(s)(vortex4_field(), (1.0, 0.0, 0.0), 0.0, 0.1) for s in SchemeId]
    for point in points:
        assert type(point) is tuple and len(point) == 3


def test_advance_matches_vec_oracle():
    f = vortex4_field()
    rng = random.Random(71)
    for p in seeded_unit_vectors(73, N):
        v = f.raw(p, 0.0)
        h = rng.uniform(-0.2, 0.2)
        assert _advance(p, v, h, math.inf) == oracle_exp_raw(p, vec.scale(v, h))


def test_attractor_distance_is_min_over_both_poles():
    e1, neg_e1 = (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)
    axis = [
        (1.0, 0.0, 0.0),
        (-1.0, 0.0, 0.0),
        (1.0, -0.0, 0.0),
        (-1.0, 0.0, -0.0),
        (-0.0, 1.0, 0.0),
        (0.0, 0.6, -0.8),
        project((1.0, 1e-12, -1e-12)),
        project((-1.0, -1e-9, 1e-9)),
    ]
    for p in seeded_unit_vectors(79, N) + axis:
        want = min(geodesic_distance(p, e1), geodesic_distance(p, neg_e1))
        assert _attractor_distance(p) == want


@pytest.mark.parametrize(
    "h, final, verdict",
    [(2.51, 0.0013215761045390904, "converged"), (2.52, 0.050384324850441524, "diverged")],
)
def test_run_stability_golden(h, final, verdict):
    # Recorded before the kernels were written out; abs 1e-15 leaves room for
    # another libm, the pins above check bit identity on this one.
    run = run_stability("stvdrk3", h, 500)
    assert run.distances[-1] == pytest.approx(final, rel=0.0, abs=1e-15)
    assert run.verdict == verdict


def test_nan_point_raises_non_finite_through_stvdrk3_on_vortex4():
    with pytest.raises(NonFiniteStateError):
        stvdrk3_step(vortex4_field(), (math.nan, 0.0, 0.0), 0.0, 0.1)

