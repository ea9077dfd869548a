import math

import numpy as np
import pytest
from mpmath import mp, mpf

from conftest import rotate_about, seeded_unit_vectors
from sphererk import vec
from sphererk.errors import NearPoleError
from sphererk.fields import (
    STABILITY_MATRIX,
    VORTEX4_CENTERS,
    diag,
    projected_linear_field,
    rigid_rotation_field,
    stability_interval,
    vortex4_field,
)
from sphererk.geometry import project


def vortex_value_oracle(p):
    """Term-by-term four-vortex sum in 50-digit arithmetic."""
    mp.dps = 50
    raw_centers = [
        ((1, -1, 1), 3),
        ((1, -1, -1), 3),
        ((-2, 1, 0), 5),
        ((-1, -1, 0), 2),
    ]
    acc = [mpf(0)] * 3
    pm = [mpf(repr(c)) for c in p]
    for comps, sq in raw_centers:
        s = 1 / mp.sqrt(sq)
        c = [mpf(x) * s for x in comps]
        cross = [
            c[1] * pm[2] - c[2] * pm[1],
            c[2] * pm[0] - c[0] * pm[2],
            c[0] * pm[1] - c[1] * pm[0],
        ]
        d = 1 - (c[0] * pm[0] + c[1] * pm[1] + c[2] * pm[2])
        for i in range(3):
            acc[i] += cross[i] / (2 * d)
    radial = sum(a * b for a, b in zip(acc, pm))
    return [float(acc[i] - radial * pm[i]) for i in range(3)]


def test_vortex_value_at_benchmark_start():
    f = vortex4_field()
    got = f.raw((1.0, 0.0, 0.0), 0.0)
    want = vortex_value_oracle((1.0, 0.0, 0.0))
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-15


def test_vortex_value_generic_points():
    f = vortex4_field()
    for p in seeded_unit_vectors(5, 25):
        got = f.raw(p, 0.0)
        want = vortex_value_oracle(p)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-13


def test_vortex_tangency_thousand_points():
    f = vortex4_field()
    for p in seeded_unit_vectors(99, 1000):
        v = f.raw(p, 0.0)
        assert abs(vec.dot(v, p)) <= 1e-10


def test_vortex_near_pole_rejected():
    f = vortex4_field()
    with pytest.raises(NearPoleError):
        f.raw(VORTEX4_CENTERS[0], 0.0)


def test_rotation_field_examples():
    zero = rigid_rotation_field((0.0, 0.0, 0.0))
    assert zero.raw((0.0, 0.0, 1.0), 0.0) == (0.0, 0.0, 0.0)
    f = rigid_rotation_field((1.0, 0.0, 0.0))
    assert f.raw((0.0, 0.0, 1.0), 0.0) == (0.0, -1.0, 0.0)


def test_rotation_exact_flow():
    p = (0.0, 0.0, 1.0)
    q = rotate_about((1.0, 0.0, 0.0), p, 0.25)
    assert q[1] == pytest.approx(-math.sin(0.25), abs=1e-15)
    assert q[2] == pytest.approx(math.cos(0.25), abs=1e-15)
    assert rotate_about((0.0, 0.0, 0.0), p, 5.0) == p


def test_projected_linear_identity_matrix_vanishes():
    g = projected_linear_field(diag(1.0, 1.0, 1.0))
    for p in seeded_unit_vectors(3, 20):
        assert vec.norm(g.raw(p, 0.0)) < 1e-15


def test_projected_linear_eigenvector_equilibria():
    g = projected_linear_field(STABILITY_MATRIX)
    for axis in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]:
        assert vec.norm(g.raw(axis, 0.0)) == 0.0
        assert vec.norm(g.raw(vec.scale(axis, -1.0), 0.0)) == 0.0


def test_projected_linear_generic_value():
    g = projected_linear_field(STABILITY_MATRIX)
    q = project((1.0, 1.0, 0.0))
    got = g.raw(q, 0.0)
    want = (1.0 / (2.0 * math.sqrt(2.0)), -1.0 / (2.0 * math.sqrt(2.0)), 0.0)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-15


def test_projected_linear_tangency():
    g = projected_linear_field(diag(0.7, -0.2, 0.4))
    for p in seeded_unit_vectors(8, 50):
        assert abs(vec.dot(g.raw(p, 0.0), p)) <= 1e-10


def test_stability_sigma_benchmark_matrix():
    # at the equilibrium e_i the linearized flow acts on e_j with the gap
    # sigma_ij = lambda_j - lambda_i; the benchmark's smallest gap is -1
    lam = [STABILITY_MATRIX[i][i] for i in range(3)]
    gaps = {(i, j): lam[j] - lam[i] for i in range(3) for j in range(3) if i != j}
    assert min(gaps.values()) == -1.0
    assert gaps[(0, 1)] == -1.0 and gaps[(0, 2)] == -1.0
    assert gaps[(1, 0)] == 1.0


def test_jacobian_matches_finite_differences():
    g = projected_linear_field(STABILITY_MATRIX)
    e1 = (1.0, 0.0, 0.0)
    eps = 1e-6
    base = g.raw(e1, 0.0)
    for j, ej in [(1, (0.0, 1.0, 0.0)), (2, (0.0, 0.0, 1.0))]:
        bumped = project(vec.axpy(eps, ej, e1))
        col = vec.scale(vec.sub(g.raw(bumped, 0.0), base), 1.0 / eps)
        # column should be sigma_{1,j} * e_j = -e_j
        expect = vec.scale(ej, -1.0)
        assert max(abs(a - b) for a, b in zip(col, expect)) < 1e-5


def test_stability_interval_low_orders():
    assert stability_interval(1) == -2.0
    assert stability_interval(2) == -2.0
    with pytest.raises(ValueError):
        stability_interval(4)


def test_stability_interval_order3_root():
    mu = stability_interval(3)
    assert -2.52 < mu < -2.50
    residual = mu**3 / 6.0 + mu**2 / 2.0 + mu + 2.0
    assert abs(residual) <= 1e-12
    # independent oracle: polynomial root finder
    roots = np.roots([1.0 / 6.0, 0.5, 1.0, 2.0])
    real = [r.real for r in roots if abs(r.imag) < 1e-10]
    assert len(real) == 1
    assert mu == pytest.approx(real[0], abs=1e-10)


def test_projected_linear_trajectories_stay_on_sphere():
    from sphererk.integrators import SchemeId, integrate_steps, stepper_for

    g = projected_linear_field(STABILITY_MATRIX)
    steps = integrate_steps(stepper_for(SchemeId.STVDRK3), g, project((1.0, 1.0, 1.0)), 0.0, 2.0, 1e-3)
    worst = max(abs(vec.norm(p) - 1.0) for _, p in steps)
    assert worst <= 1e-10
