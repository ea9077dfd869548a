"""Acceptance suite: one test per benchmark criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible with -s or on failure).
Criterion 5's h^4-sign clause is a documented expected failure; see the
repository notes outside the package for the analysis.
"""

import math
import time

import numpy as np
import pytest

from conftest import last_state, rotate_about, seam_indices, seeded_unit_vectors
from quaternion_oracle import quat_slerp
from sphererk import eikonal, harness, pharmonic, vec
from sphererk.baselines import BASELINE_STEPPERS
from sphererk.fields import rigid_rotation_field, stability_interval
from sphererk.geometry import ANTIPODAL_LIMIT, geodesic_distance, slerp
from sphererk.integrators import STEPPERS, integrate_steps
from wavefront_error import wavefront_E2

XS = (1.0, 0.0, 0.0)


def announce(cid, ok, detail):
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


@pytest.fixture(scope="module")
def table2_report():
    t0 = time.perf_counter()
    rep = harness.verify_table2()
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fourth_order_reports():
    prob = harness.vortex_problem()
    names = ["stvdrk4", "sssprk54", "sssprk104", "sssprk104-frechet"]
    return {name: harness.run_convergence(name, prob) for name in names}


@pytest.fixture(scope="module")
def eikonal_sweep():
    t0 = time.perf_counter()
    model = eikonal.constant_model()
    tf = math.pi / 2
    schemes = ["sfe", "ptvdrk2", "stvdrk2", "ptvdrk3", "stvdrk3"]
    errors = {}
    for scheme in schemes:
        rows = []
        for n in (20, 40, 80, 160, 320):
            h = tf / n
            front = eikonal.trace_wavefront(model, XS, 512, h, tf, scheme=scheme)[-1]
            rows.append((h, wavefront_E2(front, XS)))
        errors[scheme] = rows
    return errors, time.perf_counter() - t0


def test_c01_table2_e2_orders(table2_report):
    rep, elapsed = table2_report
    orders = {k: round(r.order_e2, 3) for k, r in rep.reports.items()}
    announce(
        "criterion-1 (vortex convergence-order table, 13 schemes, +-0.25; runtime < 10 s)",
        not rep.order_failures and elapsed < 10.0,
        f"orders={orders} elapsed={elapsed:.2f}s failures={rep.order_failures}",
    )


def test_c02_norm_error_column(table2_report):
    rep, _ = table2_report
    slopes = {
        k: round(rep.reports[k].order_enorm, 3) for k in harness.EXPECTED_ENORM_ORDER
    }
    exact_ok = all(
        all(row.enorm <= 1e-12 for row in rep.reports[name].rows)
        for name in rep.reports
        if harness.stays_on_sphere(harness.resolve_scheme(name))
    )
    announce(
        "criterion-2 (E_norm orders 3/3/3/4 +-0.3; sphere schemes exact to 1e-12)",
        not rep.enorm_failures and exact_ok,
        f"slopes={slopes} exact_ok={exact_ok} failures={rep.enorm_failures}",
    )


def test_c03_fourth_order_negative_result(fourth_order_reports):
    orders = {k: r.order_e2 for k, r in fourth_order_reports.items()}
    ok = (
        2.5 <= orders["stvdrk4"] <= 3.5
        and 2.5 <= orders["sssprk54"] <= 3.5
        and 2.5 <= orders["sssprk104"] <= 3.5
        and 1.5 <= orders["sssprk104-frechet"] <= 2.5
    )
    announce(
        "criterion-3a (progressive-SLERP orders in [2.5,3.5]; Frechet-mean in [1.5,2.5])",
        ok,
        "orders=" + str({k: round(v, 3) for k, v in orders.items()}),
    )


def test_c03_ssprk54_error_floor():
    prob = harness.vortex_problem()
    ref = harness.reference_endpoint(prob).endpoint
    step = STEPPERS["sssprk54"]
    errs = []
    for h in (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4):
        end = last_state(integrate_steps(step, prob.f, prob.p0, 0.0, prob.t_final, h))
        errs.append(vec.norm(vec.sub(end, ref)))
    flattened = errs[-1] > errs[-2] / 3.0  # an order-3 scheme would shrink 8x
    near_1e10 = 1e-12 < min(errs) < 5e-9
    announce(
        "criterion-3b (SSSPRK(5,4) error flattens near 1e-10, not machine epsilon)",
        flattened and near_1e10,
        f"errors={[f'{e:.2e}' for e in errs]}",
    )


def test_c04_stability_thresholds():
    runs = {
        ("sfe", 1.99): "converged",
        ("sfe", 2.01): "diverged",
        ("stvdrk2", 1.99): "converged",
        ("stvdrk2", 2.01): "diverged",
        ("stvdrk3", 2.51): "converged",
        ("stvdrk3", 2.52): "diverged",
    }
    got = {}
    ok = True
    for (scheme, h), want in runs.items():
        verdict = harness.run_stability(scheme, h, n_steps=500).verdict
        got[(scheme, h)] = verdict
        ok = ok and verdict == want
    mu = stability_interval(3)
    residual = mu**3 / 6.0 + mu**2 / 2.0 + mu + 2.0
    ok = ok and (-2.52 < mu < -2.50) and abs(residual) <= 1e-12
    announce(
        "criterion-4 (stability verdicts at h=1.99/2.01/2.51/2.52; mu* root check)",
        ok,
        f"verdicts={got} mu*={mu:.6f} residual={residual:.2e}",
    )


def test_c05_appendix_a_coefficients():
    rep = harness.verify_appendix_a()
    h2_ok = abs(rep.c2_measured - rep.c2_exact) <= 0.01 * abs(rep.c2_exact)
    h4_derived_ok = abs(rep.c4_measured - rep.c4_exact) <= 0.02 * abs(rep.c4_exact)
    h4_magnitude_ok = abs(abs(rep.c4_measured) - abs(rep.c4_printed)) <= 0.02 * abs(rep.c4_printed)
    announce(
        "criterion-5 (Appendix A: h^2 within 1%; h^4 within 2% of the construction)",
        h2_ok and h4_derived_ok and h4_magnitude_ok,
        f"c2={rep.c2_measured:.6e} (exact {rep.c2_exact:.6e}); "
        f"c4={rep.c4_measured:.6e} (construction {rep.c4_exact:.6e}, "
        f"printed {rep.c4_printed:.6e})",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the quoted h^4 closed form -((a-b)^4+16a^3b)/128 flips the sign of "
    "the dominant term relative to the exact planar construction (verified "
    "symbolically and numerically); magnitudes agree to 0.006%",
)
def test_c05_appendix_a_printed_h4_sign():
    rep = harness.verify_appendix_a()
    assert abs(rep.c4_measured - rep.c4_printed) <= 0.02 * abs(rep.c4_printed)


def test_c06_appendix_b_orders():
    rep = harness.verify_appendix_b()
    ok = (
        abs(rep.orders["pfe"] - 1.0) <= 0.1
        and abs(rep.orders["ptvdrk2p"] - 2.0) <= 0.1
        and abs(rep.orders["ptvdrk3p"] - 2.0) <= 0.1
        and abs(rep.ptvdrk3p_h3_coefficient - (-1.0 / 3.0)) <= 0.05 / 3.0
    )
    announce(
        "criterion-6 (angle-recurrence orders 1/2/2 +-0.1; PTVDRK3' defect -1/3 within 5%)",
        ok,
        f"orders={ {k: round(v,3) for k,v in rep.orders.items()} } "
        f"h3_coeff={rep.ptvdrk3p_h3_coefficient:.6f}",
    )


def test_c07_slerp_parity():
    # 1000 pairs of seeded random points, p from the even draws and q from the
    # odd ones, skipping near-coincident and near-antipodal pairs
    draws = seeded_unit_vectors(20240817, 2200)
    pairs = [
        (p, q) for p, q in zip(draws[0::2], draws[1::2])
        if 1e-6 < geodesic_distance(p, q) < ANTIPODAL_LIMIT
    ][:1000]
    assert len(pairs) == 1000
    worst_parity = 0.0
    for p, q in pairs:
        for t in (0.1 * k for k in range(1, 10)):
            d, qd = slerp(p, q, t), quat_slerp(p, q, t)
            worst_parity = max(worst_parity, max(abs(d[i] - qd[i]) for i in range(3)))
    worst_identity = 0.0
    for p, q in zip(seeded_unit_vectors(71, 50), seeded_unit_vectors(72, 50)):
        if geodesic_distance(p, q) > math.pi - 1e-3:
            continue
        for route in (slerp, quat_slerp):
            d0 = vec.norm(vec.sub(route(p, q, 0.0), p))
            d1 = vec.norm(vec.sub(route(p, q, 1.0), q))
            dm = vec.norm(vec.sub(route(p, q, 0.5), route(q, p, 0.5)))
            worst_identity = max(worst_identity, d0, d1, dm)
    announce(
        "criterion-7 (quaternion/geodesic SLERP parity 1e-12; identities 1e-13)",
        worst_parity <= 1e-12 and worst_identity <= 1e-13,
        f"max_parity_dev={worst_parity!r} max_identity_dev={worst_identity:.2e}",
    )


def test_c08_great_circle_exactness():
    omega = (1.0, 0.0, 0.0)
    f = rigid_rotation_field(omega)
    p = (0.0, 0.0, 1.0)
    hs = [0.1, 0.5, 1.0, 1.3, 0.9 * math.pi / 2]
    per_step_worst = 0.0
    for scheme in ("sfe", "stvdrk2", "stvdrk3"):
        step = STEPPERS[scheme]
        for h in hs:
            err = vec.norm(vec.sub(step(f, p, 0.0, h), rotate_about(omega, p, h)))
            per_step_worst = max(per_step_worst, err)
    revolution_worst = 0.0
    for scheme in ("sfe", "stvdrk2", "stvdrk3"):
        end = last_state(integrate_steps(STEPPERS[scheme], f, p, 0.0, 2.0 * math.pi, math.pi / 100.0))
        revolution_worst = max(revolution_worst, vec.norm(vec.sub(end, p)))
    announce(
        "criterion-8 (rotation exact to 1e-12/step up to 0.9*pi/2; revolution 1e-10)",
        per_step_worst <= 1e-12 and revolution_worst <= 1e-10,
        f"per_step={per_step_worst:.2e} revolution={revolution_worst:.2e}",
    )


def test_c09_eikonal_convergence(eikonal_sweep):
    errors, elapsed = eikonal_sweep
    expected = {"sfe": 1, "ptvdrk2": 2, "stvdrk2": 2, "ptvdrk3": 3, "stvdrk3": 3}
    slopes = {}
    ok = elapsed < 30.0
    for scheme, want in expected.items():
        rows = errors[scheme]
        slope = np.polyfit(np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1)[0]
        slopes[scheme] = round(float(slope), 3)
        ok = ok and abs(slope - want) <= 0.3
    # the intrinsic scheme beats its projected counterpart at every h
    pair2 = all(
        s[1] < p[1] for s, p in zip(errors["stvdrk2"], errors["ptvdrk2"])
    )
    pair3 = all(
        s[1] < p[1] for s, p in zip(errors["stvdrk3"], errors["ptvdrk3"])
    )
    ok = ok and pair2 and pair3
    ratios = {
        "stvdrk2/ptvdrk2": round(errors["stvdrk2"][0][1] / errors["ptvdrk2"][0][1], 3),
        "stvdrk3/ptvdrk3": round(errors["stvdrk3"][0][1] / errors["ptvdrk3"][0][1], 3),
    }
    announce(
        "criterion-9 (eikonal E2 slopes 1/2/2/3/3 +-0.3; STVDRK constants below "
        "the matching PTVDRK constants; runtime < 30 s)",
        ok,
        f"slopes={slopes} constant_ratios={ratios} elapsed={elapsed:.1f}s",
    )


def test_c10_eikonal_sphere_invariance():
    model = eikonal.gaussian_z_model()
    dt = math.pi / 5
    times = [k * dt for k in range(1, 11)]
    fronts_s = eikonal.trace_wavefront(model, XS, 256, dt, 2 * math.pi,
                                       scheme="stvdrk3", snapshot_times=times)
    fronts_t = eikonal.trace_wavefront(model, XS, 256, dt, 2 * math.pi,
                                       scheme="tvdrk3", snapshot_times=times)
    drift_s = max(float(np.max(np.abs(np.linalg.norm(f.x, axis=1) - 1.0))) for f in fronts_s)
    drift_t = max(float(np.max(np.abs(np.linalg.norm(f.x, axis=1) - 1.0))) for f in fronts_t)
    announce(
        "criterion-10 (dt=pi/5, v=exp(-z^2): STVDRK3 on-sphere to 1e-12, TVDRK3 "
        "drifts past 1e-3)",
        drift_s <= 1e-12 and drift_t > 1e-3,
        f"stvdrk3_drift={drift_s:.2e} tvdrk3_drift={drift_t:.2e}",
    )


def test_c11_pharmonic_flow_properties():
    n = 32
    curve = pharmonic.initial_discontinuous_curve(n)
    s1, s2 = seam_indices(n)
    j0 = pharmonic.node_jumps(curve)

    # p = 2: jump heals to the grid scale by the time half the energy is gone
    dt2 = pharmonic.default_dt(curve, 2.0)
    params2 = pharmonic.PFlowParams(p=2.0, dt=dt2, t_final=100 * dt2)
    snaps2 = pharmonic.pflow_evolve(
        curve, params2, snapshot_times=[k * dt2 for k in range(101)]
    )
    e0 = pharmonic.p_energy(curve, 2.0)
    norm_ok = all(
        float(np.max(np.abs(np.linalg.norm(c.m, axis=1) - 1.0))) <= 1e-12
        for _, c in snaps2
    )
    halved = next((c for _, c in snaps2 if pharmonic.p_energy(c, 2.0) <= 0.5 * e0), None)
    jumps = pharmonic.node_jumps(halved) if halved is not None else None
    p2_ok = halved is not None and float(jumps.max()) < 3.0 * float(jumps.mean())

    # p = 1: seams persist while total variation decays
    dt1 = pharmonic.default_dt(curve, 1.0)
    params1 = pharmonic.PFlowParams(p=1.0, dt=dt1, t_final=400 * dt1)
    snaps1 = pharmonic.pflow_evolve(
        curve, params1, snapshot_times=[k * dt1 for k in range(0, 401, 10)]
    )
    norm_ok = norm_ok and all(
        float(np.max(np.abs(np.linalg.norm(c.m, axis=1) - 1.0))) <= 1e-12
        for _, c in snaps1
    )
    tvs = [pharmonic.total_variation(c) for _, c in snaps1]
    tv_ok = all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))
    jend = pharmonic.node_jumps(snaps1[-1][1])
    seams_ok = jend[s1] >= 0.5 * j0[s1] and jend[s2] >= 0.5 * j0[s2]

    announce(
        "criterion-11 (p-flow: unit norms 1e-12; p=2 jump < 3x mean spacing at "
        "half energy; p=1 seams persist with TV non-increasing)",
        norm_ok and p2_ok and tv_ok and seams_ok,
        f"p2_max/mean={float(jumps.max() / jumps.mean()):.2f} "
        f"seam_retention=({jend[s1] / j0[s1]:.2f}, {jend[s2] / j0[s2]:.2f}) "
        f"tv…{tvs[0]:.3f}->{tvs[-1]:.3f}",
    )


def test_c12_structural_equivalence():
    prob = harness.vortex_problem()
    x = prob.p0
    max_gap = 0.0
    for i in range(20):
        a = BASELINE_STEPPERS["ptvdrk2"](prob.f, x, i * 0.1, 0.1)
        b = BASELINE_STEPPERS["prk2"](prob.f, x, i * 0.1, 0.1)
        max_gap = max(max_gap, vec.norm(vec.sub(a, b)))
        x = a
    primed = BASELINE_STEPPERS["ptvdrk2p"](prob.f, prob.p0, 0.0, 0.1)
    plain = BASELINE_STEPPERS["ptvdrk2"](prob.f, prob.p0, 0.0, 0.1)
    primed_gap = vec.norm(vec.sub(primed, plain))
    announce(
        "criterion-12 (PTVDRK2 == PRK2 to 1e-13; PTVDRK2' differs by > 1e-12)",
        max_gap <= 1e-13 and primed_gap > 1e-12,
        f"ptvdrk2_vs_prk2={max_gap:.2e} primed_gap={primed_gap:.2e}",
    )
