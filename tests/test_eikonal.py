import math
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from conftest import read_csv_floats, seeded_unit_vectors
from sphererk import cli, eikonal, vec, wavefront_rows
from sphererk.batch import exp_rows, slerp_rows
from sphererk.eikonal import (
    _rhs,
    _step_rows,
    COUPLED_SCHEMES,
    CSV_CHUNK_ROWS,
    MODELS,
    RAY_BLOCK,
    Y31_AMPLITUDE,
    VelocityModel,
    Wavefront,
    constant_model,
    gaussian_z_model,
    hamiltonian,
    initial_rays,
    scheme_for_order,
    trace_wavefront,
    wavefront_E2,
    write_wavefronts_csv,
    y31_model,
)
from sphererk.errors import DegenerateFrontError, NonFiniteStateError, StepTooLargeError
from sphererk.geometry import exp_raw, geodesic_distance, slerp
from sphererk.integrators import integrate_steps

XS = (1.0, 0.0, 0.0)


def y31(theta, phi):
    """Spherical harmonic -(1/8) sqrt(21/pi) cos(phi) sin(theta) (5 cos^2(theta) - 1).

    theta is the polar angle in [0, pi], phi the azimuth.
    """
    ct = np.cos(theta)
    return Y31_AMPLITUDE * np.cos(phi) * np.sin(theta) * (5.0 * ct * ct - 1.0)


def spherical_to_cartesian(theta, phi):
    st = math.sin(theta)
    return (st * math.cos(phi), st * math.sin(phi), math.cos(theta))


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
    k = np.array([[0.0, 1.0, 0.0]])  # tangent unit at XS
    dx, dk = _rhs(model, np.array([XS]), k)
    assert np.max(np.abs(dx - k)) < 1e-15
    assert np.max(np.abs(dk)) < 1e-15


def test_rhs_position_velocity_is_tangent():
    model = y31_model()
    x = np.array(seeded_unit_vectors(51, 30))
    dx, _ = _rhs(model, x, np.array(seeded_unit_vectors(52, 30)))
    assert np.max(np.abs(np.sum(dx * x, axis=1))) < 1e-12


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


@pytest.mark.parametrize("xs,error", [
    ((2.0, 0.0, 0.0), ValueError),
    ((0.0, 0.0, 1.0 + 1e-11), ValueError),
    ((0.6, -0.48, 0.64 - 1e-11), ValueError),
    ((math.nan, 0.0, 1.0), NonFiniteStateError),
    ((0.0, math.inf, 0.0), NonFiniteStateError),
])
def test_source_off_the_sphere_fails_before_any_thread_starts(monkeypatch, xs, error):
    # the march itself would not notice: from (2, 0, 0) its fronts sit at |x| = 1.90, 1.77, 1.66, ...
    def no_thread(*args, **kwargs):
        raise AssertionError("a march thread was made")

    monkeypatch.setattr(eikonal.threading, "Thread", no_thread)
    with pytest.raises(error):
        initial_rays(constant_model(), xs, 8)
    with pytest.raises(error):
        trace_wavefront(constant_model(), xs, 8, 0.1, 0.5)


def test_hamiltonian_preserved_along_rays():
    model = gaussian_z_model()
    x0, k0 = initial_rays(model, XS, 8)
    h0 = hamiltonian(model, x0, k0)
    assert float(np.max(np.abs(h0))) < 1e-14
    front = trace_wavefront(model, XS, 8, 0.01, 1.0, scheme="stvdrk3")[-1]
    hT = hamiltonian(model, front.x, front.k)
    assert float(np.max(np.abs(hT))) < 1e-5


def test_hamiltonian_value_off_the_level_set():
    # 0.5 (v^2 |k_tan|^2 - 1) with v = 1 and |k_tan| = 2
    h = hamiltonian(constant_model(), np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 2.0, 0.0]]))
    assert h.tolist() == [1.5]


def test_phase_is_exactly_step_count_times_h():
    model = constant_model()
    h = 0.1
    fronts = trace_wavefront(model, XS, 4, h, 1.0, scheme="stvdrk2",
                             snapshot_times=[0.5, 1.0])
    assert fronts[0].t == 5 * h
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


def test_single_ray_step():
    x, k = _step_rows("stvdrk3", constant_model(), (np.array([XS]), np.array([[0.0, 1.0, 0.0]])), 0.0, 0.05)
    assert abs(vec.norm(x[0]) - 1.0) < 1e-14
    assert geodesic_distance(x[0], XS) == pytest.approx(0.05, abs=1e-6)


def test_wavefront_E2_exact_circle_is_zero():
    n = 128
    ang = 2 * math.pi * np.arange(n) / n
    x = np.stack([np.zeros(n), np.cos(ang), np.sin(ang)], axis=1)
    front = Wavefront(t=math.pi / 2, x=x, k=x.copy())
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
    front = Wavefront(t=math.pi / 2, x=x, k=x.copy())
    seg = math.acos(math.cos(r) ** 2 + math.sin(r) ** 2 * math.cos(2 * math.pi / n))
    assert wavefront_E2(front, XS) == pytest.approx(eps * math.sqrt(n * seg), rel=1e-12)


def test_wavefront_E2_degenerate_front():
    x = np.tile(np.asarray(XS), (8, 1))
    front = Wavefront(t=0.0, x=x, k=x.copy())
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
        [np.column_stack([np.full(8, f.t), np.arange(8), f.x, f.k, np.full(8, f.t)]) for f in fronts]
    )
    assert np.array_equal(read_csv_floats(out), want)


def test_wavefront_csv_chunks_match_whole_front_rows(tmp_path):
    # more rays than two slices and not a multiple of the slice length
    n = 2 * CSV_CHUNK_ROWS + 3
    rng = np.random.default_rng(5)
    fronts = [Wavefront(t=0.1 * i, x=rng.standard_normal((n, 3)), k=rng.standard_normal((n, 3)))
              for i in range(3)]
    out = tmp_path / "front.csv"
    write_wavefronts_csv(out, fronts)
    assert out.read_bytes() == _row_formula(fronts)


def _row_formula(fronts):
    """The CSV as one f-string per row: the bytes the writer produced before it
    formatted in several processes."""
    want = ["t,ray_index,x,y,z,kx,ky,kz,u\n"]
    for f in fronts:
        rows = zip(f.x.tolist(), f.k.tolist())
        want.extend(f"{f.t!r},{j},{px!r},{py!r},{pz!r},{kx!r},{ky!r},{kz!r},{f.t!r}\n"
                    for j, ((px, py, pz), (kx, ky, kz)) in enumerate(rows))
    return "".join(want).encode("utf-8")


@pytest.fixture
def formatters(monkeypatch):
    """Every formatter child the writer starts, kept so a test can see it was reaped."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


def _awkward_fronts():
    """Fronts of 10, 3 and 7 rays: 6 slices of 4 rows at most, cut by 2 workers at
    a front boundary and by 3 workers within front 0 and at a boundary."""
    rng = np.random.default_rng(11)
    fronts = []
    for t, n in ((0.0, 10), (0.1, 3), (2.5, 7)):
        x, k = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
        fronts.append(Wavefront(t=t, x=x, k=k))
    fronts[0].x[1] = (-0.0, 1e-300, 1e17)
    fronts[1].k[2] = (math.nan, -1e-300, -0.0)
    fronts[2].x[6] = (1e17 + 16.0, math.nan, 5e-324)
    return fronts


def test_wavefront_csv_bytes_do_not_depend_on_the_worker_count(monkeypatch, tmp_path, formatters):
    monkeypatch.setattr(eikonal, "CSV_CHUNK_ROWS", 4)
    fronts = _awkward_fronts()
    want = _row_formula(fronts)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(eikonal, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"front{cpus}.csv"
        started = len(formatters)
        write_wavefronts_csv(out, fronts)
        assert out.read_bytes() == want
        assert len(formatters) - started == cpus - 1
    assert all(proc.returncode == 0 for proc in formatters)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["front1.csv", "front2.csv", "front3.csv"]


def test_wavefront_csv_without_an_interpreter_formats_in_process(monkeypatch, tmp_path, formatters):
    monkeypatch.setattr(eikonal, "CSV_CHUNK_ROWS", 4)
    monkeypatch.setattr(eikonal, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sys, "executable", "")
    fronts = _awkward_fronts()
    out = tmp_path / "front.csv"
    write_wavefronts_csv(out, fronts)
    assert out.read_bytes() == _row_formula(fronts)
    assert formatters == []


def _failing_interpreter(tmp_path, script="exit 3"):
    prog = tmp_path / "bin" / "python"
    prog.parent.mkdir()
    prog.write_text(f"#!/bin/sh\n{script}\n")
    prog.chmod(0o755)
    return str(prog)


@pytest.mark.parametrize("script,message", [
    ("cat > /dev/null; exit 3", "exited with status 3"),
    # two full slices overflow the pipe, so the parent finds it closed
    ("exit 3", "stopped reading its input"),
])
def test_wavefront_csv_formatter_failure_raises_oserror(monkeypatch, tmp_path, formatters, script, message):
    monkeypatch.setattr(eikonal, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sys, "executable", _failing_interpreter(tmp_path, script))
    n = 3 * CSV_CHUNK_ROWS
    front = Wavefront(t=0.5, x=np.ones((n, 3)), k=np.ones((n, 3)))
    outdir = tmp_path / "out"
    outdir.mkdir()
    with pytest.raises(OSError, match=f"wavefront CSV formatter {message}"):
        write_wavefronts_csv(outdir / "front.csv", [front])
    assert [proc.returncode for proc in formatters] == [3]
    assert list(outdir.iterdir()) == []


def test_wavefront_csv_error_in_the_parent_stops_the_children(monkeypatch, tmp_path, formatters):
    def fail(*args):
        raise RuntimeError("formatting failed")

    monkeypatch.setattr(eikonal, "CSV_CHUNK_ROWS", 4)
    monkeypatch.setattr(eikonal, "_usable_cpus", lambda: 3)
    # only this process's copy of the module fails; the children run the file
    monkeypatch.setattr(wavefront_rows, "format_slice", fail)
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_wavefronts_csv(tmp_path / "front.csv", _awkward_fronts())
    assert len(formatters) == 2
    assert all(proc.returncode is not None for proc in formatters)
    assert list(tmp_path.iterdir()) == []


def test_cli_reports_a_failed_formatter_without_traceback(monkeypatch, tmp_path, formatters, capfd):
    monkeypatch.setattr(eikonal, "CSV_CHUNK_ROWS", 4)
    monkeypatch.setattr(eikonal, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sys, "executable", _failing_interpreter(tmp_path))
    outdir = tmp_path / "out"
    outdir.mkdir()
    code = cli.main(["eikonal", "--velocity", "const", "--rays", "16", "--dt", "0.1",
                     "--t-final", "0.2", "--out", str(outdir / "front.csv")])
    err = capfd.readouterr().err
    assert code == 1
    assert "sphererk: error: wavefront CSV formatter" in err
    assert "Traceback" not in err
    assert [proc.returncode for proc in formatters] == [3]
    assert list(outdir.iterdir()) == []


def _one_block_march(scheme, model, n_rays, h, n_steps):
    """Every ray stepped as one block through ``integrate_steps``, front by
    front: the reference for the block march."""
    rays = initial_rays(model, XS, n_rays)
    return [y for _, y in integrate_steps(partial(_step_rows, scheme), model, rays, 0.0, n_steps * h, h)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("scheme", ["sfe", "stvdrk2", "stvdrk3", "ptvdrk3"])
def test_block_march_is_bit_identical_to_one_block(monkeypatch, scheme, cpus):
    # two full blocks and a short one; three workers may outnumber the cores,
    # and a short switch interval interleaves them finely
    monkeypatch.setattr(eikonal, "_usable_cpus", lambda: cpus)
    n, h = 2 * RAY_BLOCK + 5, math.pi / 50
    model = y31_model()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        fronts = trace_wavefront(model, XS, n, h, 2 * h, scheme=scheme, snapshot_times=[0.0, h, 2 * h])
    finally:
        sys.setswitchinterval(interval)
    want = _one_block_march(scheme, model, n, h, 2)
    assert len(fronts) == len(want)
    for front, (x, k) in zip(fronts, want):
        assert np.array_equal(front.x, x) and np.array_equal(front.k, k)


def _blockwise_failing_model(nan_from, fast_from):
    """Unit speed, except past geodesic distance ``nan_from`` from XS a NaN speed
    on the last block's rays, and past ``fast_from`` speed 50 on the first
    block's rays and 60 on the second's (n = 2 RAY_BLOCK + 5 from XS = e1).

    Ray j leaves along azimuth 2 pi j / n about e1, which unit speed keeps."""

    def v(x):
        dist = np.arctan2(np.hypot(x[..., 1], x[..., 2]), x[..., 0])
        az = np.arctan2(x[..., 2], x[..., 1])
        out = np.ones(x.shape[:-1])
        fast = dist > fast_from
        out[fast & (az > 0.5) & (az < 2.5)] = 50.0
        out[fast & (az < -0.5) & (az > -2.5)] = 60.0
        out[(dist > nan_from) & (az < 0.0) & (az > -1.05e-3)] = math.nan
        return out

    return VelocityModel("blockwise", v=v, grad_v=lambda x: np.zeros_like(x))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("nan_from,fast_from", [(0.15, 0.35), (0.35, 0.15)])
def test_block_march_errors_match_one_block(monkeypatch, cpus, nan_from, fast_from):
    # Each block alone fails otherwise: a NaN speed in the last block, too-large
    # arcs in the first two, at different steps or with a different largest arc.
    monkeypatch.setattr(eikonal, "_usable_cpus", lambda: cpus)
    model = _blockwise_failing_model(nan_from, fast_from)
    n, h = 2 * RAY_BLOCK + 5, 0.1
    with pytest.raises((NonFiniteStateError, StepTooLargeError)) as want:
        _one_block_march("stvdrk3", model, n, h, 5)
    with pytest.raises(want.type) as got:
        trace_wavefront(model, XS, n, h, 5 * h, scheme="stvdrk3")
    assert str(got.value) == str(want.value)


def test_block_march_imports_no_thread_pool():
    # concurrent.futures loads logging: the first threaded march would pay for
    # the import inside its own time
    code = ("import sys\n"
            "from sphererk import eikonal\n"
            "eikonal._usable_cpus = lambda: 2\n"
            "eikonal.trace_wavefront(eikonal.constant_model(), (1.0, 0.0, 0.0), eikonal.RAY_BLOCK + 5, 0.1, 0.2)\n"
            "sys.exit('concurrent.futures' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(eikonal.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# Ray 1 of 3 on y31 after 5 steps of pi/50 from e1, (x, k), recorded from
# the written-out stage chains of each coupled scheme.
PINNED_RAYS = {
    "sfe": ((0.924071887229703, -0.1866545415398658, 0.3335434444780432),
            (-0.03557041770973586, -0.401660629766434, 0.8085001821467831)),
    "pfe": ((0.9243352978577952, -0.18635103373453565, 0.33298280640329053),
            (-0.035437779660575014, -0.4016437300945183, 0.8082246757631926)),
    "stvdrk2": ((0.9243124494895525, -0.18221466045283824, 0.33532717342124296),
                (-0.049542975593572666, -0.40515084867981127, 0.8451546716496829)),
    "tvdrk2": ((0.9242902600480497, -0.1821407493178503, 0.33513573299222865),
               (-0.04943175512758395, -0.4051398773679061, 0.8447471466934027)),
    "ptvdrk2": ((0.9243846749171658, -0.18215479914832772, 0.3351605614112706),
                (-0.04942942804174426, -0.4051399390864524, 0.8447392643495288)),
    "stvdrk3": ((0.923547722456922, -0.18265273549688277, 0.33719072134348377),
                (-0.04904119083491751, -0.40554484096762117, 0.8462602316557556)),
    "tvdrk3": ((0.9236497793206434, -0.18266975327302734, 0.3371992278104002),
               (-0.04901584460289179, -0.4055424400615239, 0.8461888287731304)),
    "ptvdrk3": ((0.9235512785712643, -0.18265752028440155, 0.3371783891843255),
                (-0.049019793912589045, -0.4055424631389961, 0.8462016840896918)),
}


# The same run on expz2: the one test that sees the model's gradient factor
# -2 (scaling it by 1 + 1e-9 moves ray 1 by ~7e-11).
PINNED_EXPZ2_RAYS = {
    "sfe": ((0.9535491846751546, -0.14890261748642714, 0.261862488552749),
            (-0.007021733396329638, -0.5183441190690329, 0.9659685107690059)),
    "pfe": ((0.9536561347348477, -0.1487371551474756, 0.26156688506236025),
            (-0.007005460632898852, -0.5183247880760833, 0.9658496142914087)),
    "stvdrk2": ((0.9535426099793076, -0.1472659100845928, 0.2628102788720543),
                (-0.01007007399300378, -0.5228142294914425, 0.9913885119897423)),
    "tvdrk2": ((0.9535359687471527, -0.14720810334957096, 0.2627078571314018),
               (-0.010070635773141476, -0.5227991917493064, 0.9914118810559334)),
    "ptvdrk2": ((0.9535768363926304, -0.1472126402838021, 0.2627159219310751),
                (-0.010070677586837396, -0.5227990211565647, 0.9914125022510998)),
    "stvdrk3": ((0.9532945794857592, -0.14749606444826252, 0.26357988484583444),
                (-0.009939563398980672, -0.522939220334243, 0.9917790355779206)),
    "tvdrk3": ((0.9533252481215675, -0.1474983934181686, 0.26358409642393327),
               (-0.009938077335216573, -0.5229355797422401, 0.9917672794297128)),
    "ptvdrk3": ((0.9532947749836536, -0.14749573743247052, 0.26357936077795896),
                (-0.009938073605177636, -0.5229357968930569, 0.9917668320413753)),
}


def _assert_pinned_ray(model, scheme, pinned):
    front = trace_wavefront(model, XS, 3, math.pi / 50, math.pi / 10, scheme=scheme)[-1]
    x, k = pinned[scheme]
    assert np.max(np.abs(front.x[1] - x)) <= 1e-14
    assert np.max(np.abs(front.k[1] - k)) <= 1e-14


@pytest.mark.parametrize("scheme", COUPLED_SCHEMES)
def test_pinned_ray_endpoints(scheme):
    _assert_pinned_ray(y31_model(), scheme, PINNED_RAYS)


@pytest.mark.parametrize("scheme", COUPLED_SCHEMES)
def test_pinned_expz2_ray_endpoints(scheme):
    _assert_pinned_ray(gaussian_z_model(), scheme, PINNED_EXPZ2_RAYS)


# Self-convergence at T = 1: max over rays of |x_h - x_{h/2}| for h = 2^-4..2^-8.
# The finest local slopes measure sfe 0.99, stvdrk2 2.00-2.02 and stvdrk3 3.00
# on both models; +-0.25 catches an order lost on an inhomogeneous field.
SELF_CONVERGENCE_LEVELS = range(4, 9)


def self_convergence_differences(velocity, scheme, n_rays=16):
    model = MODELS[velocity]()
    fronts = [trace_wavefront(model, XS, n_rays, 2.0**-k, 1.0, scheme=scheme)[-1].x
              for k in SELF_CONVERGENCE_LEVELS]
    return [float(np.max(np.linalg.norm(a - b, axis=1))) for a, b in zip(fronts, fronts[1:])]


@pytest.mark.parametrize("velocity", ["y31", "expz2"])
@pytest.mark.parametrize("scheme,order", [("sfe", 1), ("stvdrk2", 2), ("stvdrk3", 3)])
def test_self_convergence_slope_on_the_finest_pair(velocity, scheme, order):
    d = self_convergence_differences(velocity, scheme)
    assert math.log2(d[-2] / d[-1]) == pytest.approx(order, abs=0.25)


def test_stvdrk3_beats_tvdrk3_on_y31_at_every_h():
    intrinsic = self_convergence_differences("y31", "stvdrk3")
    cartesian = self_convergence_differences("y31", "tvdrk3")
    assert all(s < c for s, c in zip(intrinsic, cartesian))
