import math

import numpy as np
import pytest

from conftest import read_csv_floats, seam_indices
from sphererk.errors import NonFiniteStateError, StepTooLargeError
from sphererk.pharmonic import (
    _lap_rows,
    _velocity,
    DirectorCurve,
    PFlowParams,
    default_dt,
    initial_discontinuous_curve,
    node_jumps,
    p_energy,
    pflow_evolve,
    total_variation,
    write_snapshots_csv,
)


def constant_curve(n=16):
    m = np.tile(np.array([0.0, 0.6, 0.8]), (n, 1))
    return DirectorCurve(m)


def great_circle_curve(n):
    s = np.arange(n) / n
    ang = 2 * math.pi * s
    return DirectorCurve(np.stack([np.cos(ang), np.sin(ang), np.zeros(n)], axis=1))


def wobbly_curve(n=64, seed=5):
    rng = np.random.default_rng(seed)
    s = np.arange(n) / n
    base = np.stack(
        [
            np.cos(2 * math.pi * s),
            np.sin(2 * math.pi * s),
            0.3 * np.sin(4 * math.pi * s) + 0.05 * rng.standard_normal(n),
        ],
        axis=1,
    )
    return DirectorCurve(base / np.linalg.norm(base, axis=1, keepdims=True))


def test_curve_validation():
    assert great_circle_curve(4).n_nodes == 4
    for bad in (np.ones((3, 3)), great_circle_curve(8).m[:3], np.ones((8, 2)) / math.sqrt(2.0),
                np.array([1.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match=r"needs an \(N, 3\) array"):
            DirectorCurve(bad)
    with pytest.raises(ValueError):
        DirectorCurve(2.0 * np.tile(np.array([1.0, 0.0, 0.0]), (8, 1)))


@pytest.mark.parametrize("order", [1, 4])
def test_pflow_rejects_orders_other_than_2_and_3(order):
    params = PFlowParams(p=2.0, dt=1e-4, t_final=1e-3)
    with pytest.raises(ValueError, match="order must be 2 or 3"):
        pflow_evolve(constant_curve(), params, order=order)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("n", [8, 64])
def test_p_energy_of_a_great_circle(p, n):
    # every difference quotient of the N-gon has length 2 N sin(pi / N)
    want = (2.0 * n * math.sin(math.pi / n)) ** p / p
    assert p_energy(great_circle_curve(n), p) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_snapshot_times_are_whole_steps(tmp_path):
    from sphererk.cli import main

    dt = 1e-4
    params = PFlowParams(p=2.0, dt=dt, t_final=1e-3)
    snaps = pflow_evolve(wobbly_curve(16), params, snapshot_times=[0.0, 3e-4, 1e-3])
    assert [t for t, _ in snaps] == [0 * dt, 3 * dt, 10 * dt]
    out = tmp_path / "flow.csv"
    assert main(["pharmonic", "--p", "2", "--nodes", "16", "--dt", "1e-4", "--t-final", "1e-3",
                 "--snapshots", "0,3e-4,1e-3", "--out", str(out)]) == 0
    t_column = read_csv_floats(out)[:, 0]
    assert sorted(set(t_column)) == [0 * dt, 3 * dt, 10 * dt]


def test_constant_curve_is_steady():
    c = constant_curve()
    assert np.max(np.abs(_lap_rows(c.m, c.ds, 2.0, 1e-6))) == 0.0
    assert np.max(np.abs(_velocity(c.m, c.ds, 2.0, 1e-6))) == 0.0
    params = PFlowParams(p=2.0, dt=default_dt(c, 2.0), t_final=10 * default_dt(c, 2.0))
    snaps = pflow_evolve(c, params)
    assert np.max(np.abs(snaps[-1][1].m - c.m)) == 0.0


def test_p2_laplacian_on_great_circle_is_centripetal_and_second_order():
    errs = []
    for n in (16, 32, 64, 128):
        c = great_circle_curve(n)
        lap = _lap_rows(c.m, c.ds, 2.0, 1e-6)
        # discrete second difference of the circle points radially inward
        radial = lap + (2.0 * math.pi) ** 2 * c.m
        cosine = np.sum(lap * c.m, axis=1) / np.linalg.norm(lap, axis=1)
        assert np.max(np.abs(cosine + 1.0)) < 1e-12
        errs.append((1.0 / n, float(np.max(np.linalg.norm(radial, axis=1)))))
    slope = np.polyfit(np.log([e[0] for e in errs]), np.log([e[1] for e in errs]), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_p2_ignores_regularization():
    c = wobbly_curve()
    a = _lap_rows(c.m, c.ds, 2.0, 1e-6)
    b = _lap_rows(c.m, c.ds, 2.0, 1e-2)
    assert np.array_equal(a, b)


def test_rhs_is_tangent_everywhere():
    c = wobbly_curve()
    for p in (1.0, 2.0):
        rhs = _velocity(c.m, c.ds, p, 1e-6)
        dots = np.abs(np.sum(rhs * c.m, axis=1))
        assert float(np.max(dots)) < 1e-10


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_energy_decays_monotonically(p):
    c = wobbly_curve()
    dt = default_dt(c, p)
    params = PFlowParams(p=p, dt=dt, t_final=30 * dt)
    snaps = pflow_evolve(c, params, snapshot_times=[k * dt for k in range(31)])
    energies = [p_energy(curve, p) for _, curve in snaps]
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))
    assert energies[-1] < energies[0]


def test_p2_energy_monotone_up_to_parabolic_bound():
    c = wobbly_curve()
    dt = 0.4 * c.ds**2
    params = PFlowParams(p=2.0, dt=dt, t_final=50 * dt)
    snaps = pflow_evolve(c, params, snapshot_times=[k * dt for k in range(51)])
    energies = [p_energy(curve, 2.0) for _, curve in snaps]
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


def test_initial_curve_structure():
    n = 32
    c = initial_discontinuous_curve(n)
    assert c.n_nodes == n
    assert np.max(np.abs(np.linalg.norm(c.m, axis=1) - 1.0)) < 1e-15
    # y = 0 samples project to the axis poles of the two branch planes
    assert np.allclose(c.m[n // 4], [1.0, 0.0, 0.0])
    assert np.allclose(c.m[n // 2 + n // 4], [-1.0, 0.0, 0.0])
    s1, s2 = seam_indices(n)
    jumps = node_jumps(c)
    assert jumps[s1] > 0.5 and jumps[s2] > 0.5
    # the two largest inter-node gaps are exactly the seams
    top2 = set(np.argsort(jumps)[-2:])
    assert top2 == {s1, s2}


def test_initial_curve_needs_even_node_count():
    with pytest.raises(ValueError):
        initial_discontinuous_curve(33)


def test_evolution_preserves_unit_norms():
    c = initial_discontinuous_curve(32)
    dt = default_dt(c, 2.0)
    params = PFlowParams(p=2.0, dt=dt, t_final=50 * dt)
    for order in (2, 3):
        snaps = pflow_evolve(c, params, order=order)
        worst = np.max(np.abs(np.linalg.norm(snaps[-1][1].m, axis=1) - 1.0))
        assert worst <= 1e-12


def test_p1_total_variation_nonincreasing():
    c = initial_discontinuous_curve(32)
    dt = default_dt(c, 1.0)
    params = PFlowParams(p=1.0, dt=dt, t_final=100 * dt)
    snaps = pflow_evolve(c, params, snapshot_times=[k * dt for k in range(0, 101, 5)])
    tvs = [total_variation(curve) for _, curve in snaps]
    assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))


def test_default_dt_values():
    c = initial_discontinuous_curve(64)
    assert default_dt(c, 2.0) == pytest.approx(0.1 / 64**2)
    assert default_dt(c, 1.0) <= 0.1 / 64**2 + 1e-18


def test_default_dt_follows_eps_reg_on_a_nearly_constant_curve():
    # gradients below 1e-6: at p = 1 the largest flux weight is ~1/eps_reg
    a = 1e-7 * np.sin(2.0 * math.pi * np.arange(16) / 16)
    c = DirectorCurve(np.stack([np.sin(a), np.zeros(16), np.cos(a)], axis=1))
    assert default_dt(c, 1.0, eps_reg=1e-2) == pytest.approx(0.1 * c.ds**2 / 1e2, rel=1e-8)
    assert default_dt(c, 1.0, eps_reg=1e-1) == pytest.approx(0.1 * c.ds**2 / 1e1, rel=1e-8)
    assert default_dt(c, 2.0, eps_reg=1e-2) == 0.1 * c.ds**2


def test_step_guard_on_oversized_dt():
    c = initial_discontinuous_curve(32)
    params = PFlowParams(p=2.0, dt=0.5, t_final=1.0)
    with pytest.raises(StepTooLargeError):
        pflow_evolve(c, params)


def test_snapshot_grid_validation():
    c = constant_curve()
    params = PFlowParams(p=2.0, dt=0.1, t_final=1.0)
    with pytest.raises(ValueError):
        pflow_evolve(c, params, snapshot_times=[0.55])
    with pytest.raises(ValueError):
        pflow_evolve(c, PFlowParams(p=2.0, dt=0.3, t_final=1.0))


def test_snapshot_csv(tmp_path):
    c = constant_curve(8)
    params = PFlowParams(p=2.0, dt=0.001, t_final=0.01)
    snaps = pflow_evolve(c, params, snapshot_times=[0.0, 0.01])
    out = tmp_path / "flow.csv"
    write_snapshots_csv(out, snaps)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,s,mx,my,mz"
    assert len(lines) == 1 + 2 * 8
    assert lines[1].startswith("0.0,0.0,")


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_rhs_equals_double_cross_form(p):
    for c in (wobbly_curve(), initial_discontinuous_curve(64)):
        lap = _lap_rows(c.m, c.ds, p, 1e-6)
        double_cross = np.cross(c.m, np.cross(lap, c.m))
        rhs = _velocity(c.m, c.ds, p, 1e-6)
        assert np.max(np.abs(rhs - double_cross)) <= 1e-12 * np.max(np.abs(double_cross))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_curve_validation_rejects_non_finite_samples(bad):
    m = wobbly_curve().m.copy()
    m[5, 2] = bad
    with pytest.raises(ValueError):
        DirectorCurve(m)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_node_raises_non_finite_state(bad):
    c = wobbly_curve()
    c.m[5, 2] = bad  # poisoned after validation
    params = PFlowParams(p=1.0, dt=default_dt(c, 1.0), t_final=default_dt(c, 1.0))
    with pytest.raises(NonFiniteStateError), np.errstate(invalid="ignore"):
        pflow_evolve(c, params)


def test_snapshot_csv_cells_are_round_trip_floats(tmp_path):
    c = wobbly_curve(16)
    dt = default_dt(c, 1.0)
    snaps = pflow_evolve(c, PFlowParams(p=1.0, dt=dt, t_final=3 * dt), snapshot_times=[0.0, 3 * dt])
    out = tmp_path / "flow.csv"
    write_snapshots_csv(out, snaps)
    want = np.concatenate(
        [np.column_stack([np.full(16, t), np.arange(16) / 16, curve.m]) for t, curve in snaps]
    )
    assert np.array_equal(read_csv_floats(out), want)


# Nodes 3 and 12 of the 16-node discontinuous curve after 20 default steps,
# recorded from the written-out stage chains.
PINNED_NODES = {
    (1.0, 2): ((0.5801967240350683, -0.2122354186417469, -0.7863382786644295),
               (-0.9999999925504286, 0.0001217501578979843, 8.720210343843297e-06)),
    (1.0, 3): ((0.5801789987900643, -0.2122130911121133, -0.7863573826979691),
               (-0.9999999925159127, 0.00012203663335653448, 8.673826505406107e-06)),
    (2.0, 2): ((0.9379065071146175, -0.2085811364908283, -0.27717376032419594),
               (-0.9984033528037937, -0.026582724998035552, 0.04984078492380929)),
    (2.0, 3): ((0.9379538100086287, -0.20855597879680915, -0.2770325865280173),
               (-0.9984090046331618, -0.02654432821786008, 0.049747945755385645)),
}


@pytest.mark.parametrize("p,order", sorted(PINNED_NODES))
def test_pinned_pflow_nodes(p, order):
    c0 = initial_discontinuous_curve(16)
    dt = default_dt(c0, p)
    m = pflow_evolve(c0, PFlowParams(p=p, dt=dt, t_final=20 * dt), order=order)[-1][1].m
    assert np.max(np.abs(m[[3, 12]] - np.array(PINNED_NODES[p, order]))) <= 1e-14


# Temporal self-convergence on the 64-node discontinuous curve at T = 32 default
# steps: max |m_dt - m_dt/2| for dt = default/2^0..4.  The finest local slopes
# measure 2.010 and 3.015 at p = 1, 2.023 and 3.022 at p = 2; +-0.25 catches a
# lost order in the stage structure or the p-Laplacian velocity.
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("order", [2, 3])
def test_temporal_self_convergence_slope_on_the_finest_pair(p, order):
    c0 = initial_discontinuous_curve(64)
    dt = default_dt(c0, p)
    ends = [pflow_evolve(c0, PFlowParams(p=p, dt=dt / 2**k, t_final=32 * dt), order=order)[-1][1].m
            for k in range(5)]
    d = [float(np.max(np.abs(a - b))) for a, b in zip(ends, ends[1:])]
    assert math.log2(d[-2] / d[-1]) == pytest.approx(order, abs=0.25)
