import math

import numpy as np
import pytest

from conftest import read_csv_floats, seeded_unit_vectors
from sphererk import vec
from sphererk.batch import exp_rows, slerp_rows
from sphererk.eikonal import (
    COUPLED_SCHEMES,
    MODELS,
    RayState,
    VelocityModel,
    Wavefront,
    constant_model,
    coupled_step,
    gaussian_z_model,
    hamiltonian,
    initial_rays,
    ray_rhs,
    scheme_for_order,
    spherical_to_cartesian,
    trace_wavefront,
    wavefront_E2,
    write_wavefronts_csv,
    y31,
    y31_model,
)
from sphererk.errors import DegenerateFrontError, NonFiniteStateError, StepTooLargeError
from sphererk.geometry import UnitVector3, exp_raw, geodesic_distance, slerp

XS = UnitVector3(1.0, 0.0, 0.0)


def test_batch_exp_matches_scalar():
    ps = seeded_unit_vectors(31, 64)
    ds = seeded_unit_vectors(32, 64)
    P = np.array(ps)
    V = np.array([vec.axpy(-vec.dot(d, p), p, d) for p, d in zip(ps, ds)]) * 0.7
    batch = exp_rows(P, V)
    for i, (p, v) in enumerate(zip(ps, V)):
        scalar = exp_raw(p, tuple(v))
        assert max(abs(batch[i][j] - scalar[j]) for j in range(3)) < 1e-14


def test_batch_slerp_matches_scalar():
    ps = seeded_unit_vectors(41, 64)
    qs = seeded_unit_vectors(42, 64)
    pairs = [
        (p, q)
        for p, q in zip(ps, qs)
        if geodesic_distance(p, q) < math.pi - 1e-3
    ]
    P = np.array([p for p, _ in pairs])
    Q = np.array([q for _, q in pairs])
    batch = slerp_rows(P, Q, 0.3)
    for i, (p, q) in enumerate(pairs):
        scalar = slerp(p, q, 0.3)
        assert max(abs(batch[i][j] - scalar[j]) for j in range(3)) < 1e-14


def test_rhs_unit_velocity_tangent_direction():
    model = constant_model()
    k = (0.0, 1.0, 0.0)  # tangent unit at XS
    dx, dk, du = ray_rhs(model, RayState(XS, k, 0.0))
    assert max(abs(dx.v[i] - k[i]) for i in range(3)) < 1e-15
    assert vec.norm(dk) < 1e-15
    assert du == 1.0


def test_rhs_position_velocity_is_tangent():
    model = y31_model()
    for p, d in zip(seeded_unit_vectors(51, 30), seeded_unit_vectors(52, 30)):
        dx, _, _ = ray_rhs(model, RayState(p, d, 0.0))
        assert abs(vec.dot(dx.v, p)) < 1e-12


@pytest.mark.parametrize("name", ["expz2", "y31"])
def test_grad_v_matches_finite_differences(name):
    model = MODELS[name]()
    eps = 1e-6
    for p in seeded_unit_vectors(61, 20):
        x = np.asarray(p)[None, :]
        grad = model.grad_v(x)[0]
        for j in range(3):
            e = np.zeros(3)
            e[j] = eps
            fd = (model.v((x + e)[None, 0][None, :])[0] - model.v((x - e)[None, 0][None, :])[0]) / (2 * eps)
            assert abs(grad[j] - fd) < 1e-6 * max(1.0, abs(grad[j]))


def test_y31_closed_form_zeros_and_bounds():
    assert y31(0.0, 0.3) == 0.0
    assert abs(y31(1.1, math.pi / 2)) < 1e-16
    thetas = np.linspace(0.0, math.pi, 181)
    phis = np.linspace(0.0, 2.0 * math.pi, 361)
    tt, pp = np.meshgrid(thetas, phis)
    vals = y31(tt, pp)
    assert float(np.min(1.0 + vals)) > 0.0
    assert float(np.max(np.abs(vals))) < 1.0


def test_y31_model_matches_angle_form_on_sphere():
    model = y31_model()
    for theta, phi in [(0.3, 1.1), (1.2, 4.0), (2.6, 0.2), (1.5707, 3.1)]:
        x = np.array(spherical_to_cartesian(theta, phi))[None, :]
        assert model.v(x)[0] == pytest.approx(1.0 + y31(theta, phi), abs=1e-12)


def test_unit_speed_rays_travel_geodesics():
    model = constant_model()
    tf = math.pi / 2
    front = trace_wavefront(model, XS, 16, tf / 200, tf, scheme="stvdrk3")[-1]
    d = [geodesic_distance(tuple(x), XS) for x in front.x]
    assert max(abs(di - tf) for di in d) < 1e-6


def test_hamiltonian_preserved_along_rays():
    model = gaussian_z_model()
    x0, k0 = initial_rays(model, XS, 8)
    h0 = hamiltonian(model, x0, k0)
    assert float(np.max(np.abs(h0))) < 1e-14
    front = trace_wavefront(model, XS, 8, 0.01, 1.0, scheme="stvdrk3")[-1]
    hT = hamiltonian(model, front.x, front.k)
    assert float(np.max(np.abs(hT))) < 1e-5


def test_phase_is_exactly_step_count_times_h():
    model = constant_model()
    h = 0.1
    fronts = trace_wavefront(model, XS, 4, h, 1.0, scheme="stvdrk2",
                             snapshot_times=[0.5, 1.0])
    assert fronts[0].t == 5 * h
    assert np.all(fronts[0].u == 5 * h)
    assert fronts[1].t == 10 * h


def test_harmonic_velocity_long_run_stays_on_sphere():
    model = y31_model()
    dt = math.pi / 100
    fronts = trace_wavefront(
        model, XS, 64, dt, 1.75 * math.pi, scheme="stvdrk3",
        snapshot_times=[75 * dt, 175 * dt],
    )
    for front in fronts:
        drift = float(np.max(np.abs(np.linalg.norm(front.x, axis=1) - 1.0)))
        assert drift <= 1e-12


def test_gaussian_velocity_front_folds_after_five_intervals():
    # the z-focusing velocity refocuses the fan: launch-distant rays approach
    # each other once the front turns multivalued, around the fifth interval
    model = gaussian_z_model()
    dt = math.pi / 5
    n = 256
    fronts = trace_wavefront(
        model, XS, n, dt / 100, 2 * math.pi, scheme="stvdrk3",
        snapshot_times=[k * dt for k in (1, 3, 5)],
    )

    def fold_metric(front):
        x = front.x
        spacing = float(np.median(np.linalg.norm(np.roll(x, -1, axis=0) - x, axis=1)))
        nearest = math.inf
        for off in range(n // 16, n // 2 + 1, n // 32):
            d = np.linalg.norm(x - np.roll(x, off, axis=0), axis=1)
            nearest = min(nearest, float(np.min(d)))
        return nearest / spacing

    early, mid, onset = (fold_metric(f) for f in fronts)
    assert early > 5.0 and mid > 5.0
    assert onset < 1.0


def test_coupled_step_scalar_wrapper():
    model = constant_model()
    s0 = RayState(XS, (0.0, 1.0, 0.0), 0.0)
    s1 = coupled_step(3, model, s0, 0.05)
    assert s1.u == 0.05
    assert abs(vec.norm(s1.x) - 1.0) < 1e-14
    assert geodesic_distance(s1.x, XS) == pytest.approx(0.05, abs=1e-6)


def test_wavefront_E2_exact_circle_is_zero():
    n = 128
    ang = 2 * math.pi * np.arange(n) / n
    x = np.stack([np.zeros(n), np.cos(ang), np.sin(ang)], axis=1)
    front = Wavefront(t=math.pi / 2, xs=XS, x=x, k=x.copy(), u=np.full(n, math.pi / 2))
    assert wavefront_E2(front, XS) < 1e-13


def test_wavefront_E2_uniform_offset():
    n = 256
    eps = 1e-3
    ang = 2 * math.pi * np.arange(n) / n
    r = math.pi / 2 + eps
    x = np.stack(
        [np.full(n, math.cos(r)), math.sin(r) * np.cos(ang), math.sin(r) * np.sin(ang)],
        axis=1,
    )
    front = Wavefront(t=math.pi / 2, xs=XS, x=x, k=x.copy(), u=np.full(n, math.pi / 2))
    seg = math.acos(math.cos(r) ** 2 + math.sin(r) ** 2 * math.cos(2 * math.pi / n))
    assert wavefront_E2(front, XS) == pytest.approx(eps * math.sqrt(n * seg), rel=1e-9)


def test_wavefront_E2_degenerate_front():
    x = np.tile(np.asarray(XS), (8, 1))
    front = Wavefront(t=0.0, xs=XS, x=x, k=x.copy(), u=np.zeros(8))
    with pytest.raises(DegenerateFrontError):
        wavefront_E2(front, XS)


def test_trace_validates_arguments():
    model = constant_model()
    with pytest.raises(ValueError):
        trace_wavefront(model, XS, 2, 0.1, 1.0)
    with pytest.raises(ValueError):
        trace_wavefront(model, XS, 8, 0.1, 1.05)
    with pytest.raises(ValueError):
        trace_wavefront(model, XS, 8, 0.1, 1.0, snapshot_times=[0.333])
    with pytest.raises(ValueError):
        trace_wavefront(model, XS, 8, 0.1, 1.0, scheme="leapfrog")


def test_step_guard_on_large_arcs():
    model = constant_model()
    with pytest.raises(StepTooLargeError):
        trace_wavefront(model, XS, 8, 2.0, 4.0, scheme="stvdrk3")


def test_order_shorthand():
    assert scheme_for_order(1) == "sfe"
    assert scheme_for_order(3) == "stvdrk3"
    assert set(COUPLED_SCHEMES) >= {"sfe", "stvdrk2", "stvdrk3", "ptvdrk2", "ptvdrk3", "tvdrk3"}


def test_wavefront_csv(tmp_path):
    model = constant_model()
    fronts = trace_wavefront(model, XS, 8, 0.1, 0.5, scheme="stvdrk2",
                             snapshot_times=[0.2, 0.5])
    out = tmp_path / "front.csv"
    write_wavefronts_csv(out, fronts)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,ray_index,x,y,z,kx,ky,kz,u"
    assert len(lines) == 1 + 2 * 8


def test_y31_grad_v_matches_finite_differences_below_the_equator():
    model = y31_model()
    eps = 1e-6
    pts = [p for p in seeded_unit_vectors(63, 60) if p[2] < -0.05][:20]
    x = np.array(pts) * np.array([[1.0], [0.8], [1.3], [1.0]] * 5)  # off the sphere too
    grad = model.grad_v(x)
    for j in range(3):
        e = np.zeros(3)
        e[j] = eps
        fd = (model.v(x + e) - model.v(x - e)) / (2 * eps)
        assert np.max(np.abs(grad[:, j] - fd)) < 1e-6 * max(1.0, float(np.max(np.abs(grad[:, j]))))


@pytest.mark.parametrize("scheme", ["sfe", "stvdrk2", "stvdrk3"])
def test_non_finite_velocity_raises_non_finite_state(scheme):
    def v(x):
        out = np.ones(x.shape[:-1])
        out[x[..., 2] > 0.0] = math.nan
        return out

    model = VelocityModel("nan-north", v=v, grad_v=lambda x: np.zeros_like(x))
    with pytest.raises(NonFiniteStateError):
        trace_wavefront(model, XS, 8, 0.1, 1.0, scheme=scheme)


def test_wavefront_csv_cells_are_round_trip_floats(tmp_path):
    model = y31_model()
    fronts = trace_wavefront(model, XS, 8, 0.1, 0.5, scheme="stvdrk3", snapshot_times=[0.2, 0.5])
    out = tmp_path / "front.csv"
    write_wavefronts_csv(out, fronts)
    want = np.concatenate(
        [np.column_stack([np.full(8, f.t), np.arange(8), f.x, f.k, f.u]) for f in fronts]
    )
    assert np.array_equal(read_csv_floats(out), want)
