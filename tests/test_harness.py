import dataclasses
import json
import math

import pytest

from conftest import last_state, rotate_about
from sphererk import harness, vec
from sphererk.baselines import rk6_step
from sphererk.errors import NonFiniteStateError, NonPositiveError, ReferenceUnavailableError
from sphererk.fields import VORTEX4_CENTERS, VortexConfig
from sphererk.geometry import project
from sphererk.integrators import integrate_steps
from sphererk.harness import (
    REFERENCE_H,
    AppendixAReport,
    appendix_a_coefficients,
    fit_order,
    reference_endpoint,
    rotation_problem,
    run_convergence,
    run_stability,
    tvdrk2_planar_norm,
    verify_appendix_a,
    verify_appendix_b,
    vortex_problem,
    write_convergence_csv,
    write_orders_json,
    write_stability_csv,
)

H4 = [0.1 * 2.0**-k for k in range(4)]


def test_fit_order_exact_powers():
    rows = [(h, h**2) for h in (0.1, 0.05, 0.025, 0.0125)]
    assert fit_order(rows) == pytest.approx(2.0, abs=1e-12)
    rows = [(h, 7.3 * h**3) for h in (0.1, 0.05, 0.025, 0.0125)]
    assert fit_order(rows) == pytest.approx(3.0, abs=1e-12)


def test_fit_order_excludes_floor_rows():
    rows = [(0.1, 1e-2), (0.05, 2.5e-3), (0.025, 6.25e-4), (0.0125, 1e-16)]
    assert fit_order(rows) == pytest.approx(2.0, abs=1e-9)


def test_fit_order_rejects_negative_errors():
    with pytest.raises(NonPositiveError):
        fit_order([(0.1, 1e-2), (0.05, -1.0), (0.025, 1e-4)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_order_rejects_non_finite_errors(bad):
    rows = [(0.1, 1e-2), (0.05, bad), (0.025, 1e-3), (0.0125, 2e-4), (0.00625, 3e-5)]
    with pytest.raises(NonFiniteStateError):
        fit_order(rows)
    with pytest.raises(NonFiniteStateError):
        fit_order(rows, floor=0.0, cap=math.inf)


def test_fit_order_needs_three_usable_rows():
    with pytest.raises(ValueError):
        fit_order([(0.1, 1e-2), (0.05, 2.5e-3)])
    # rows count by distinct step size: one h has no slope, two fit exactly
    with pytest.raises(ValueError):
        fit_order([(0.1, 1e-3)] * 4)
    with pytest.raises(ValueError):
        fit_order([(0.1, 1e-2), (0.05, 2.5e-3), (0.05, 2.5e-3), (0.05, 2.5e-3)])


def test_convergence_report_shape():
    rep = run_convergence("stvdrk3", vortex_problem(), H4)
    assert rep.scheme == "stvdrk3"
    assert [r.h for r in rep.rows] == sorted(H4, reverse=True)
    assert rep.order_e2 == pytest.approx(3.0, abs=0.3)
    assert rep.order_enorm is None  # exact norm at all h


def test_convergence_sweeps_each_step_size_once():
    # rows of a repeated finest h would fill the fit's window of the finest
    # ASYMPTOTIC_FIT_POINTS rows with one step size and leave no order
    rep = run_convergence("stvdrk3", vortex_problem(), H4 + [H4[-1]] * 2)
    assert rep == run_convergence("stvdrk3", vortex_problem(), H4)
    assert [r.h for r in rep.rows] == H4
    assert rep.order_e2 == pytest.approx(3.0, abs=0.3)


# Endpoint of the default vortex4 problem from STVDRK3 at h = 2e-5 (64 000
# steps), the reference the harness used before the sixth-order one; its own
# error is ~4e-13.
STVDRK3_FINE_ENDPOINT = (-0.5922305982738809, 0.36934451521402006, 0.7161337497632319)


def _rk6_endpoint(prob, h):
    return project(last_state(integrate_steps(rk6_step, prob.f, prob.p0, 0.0, prob.t_final, h)))


def test_reference_is_cached():
    prob = vortex_problem()
    a = reference_endpoint(prob)
    b = reference_endpoint(prob)
    assert a is b


def test_reference_cache_is_keyed_by_the_vortex_centres():
    c, s = math.cos(0.4), math.sin(0.4)
    shifted = tuple(project((c * x - s * y, s * x + c * y, z)) for x, y, z in VORTEX4_CENTERS)
    default, moved = vortex_problem(), vortex_problem(VortexConfig(centers=shifted))
    assert moved.p0 == default.p0
    a = reference_endpoint(default)
    b = reference_endpoint(moved)
    assert b.endpoint == _rk6_endpoint(moved, REFERENCE_H)
    assert vec.norm(vec.sub(a.endpoint, b.endpoint)) > 1e-3
    # equal configurations still share one cached reference
    again = vortex_problem(VortexConfig(centers=shifted))
    assert reference_endpoint(again) is b


def test_reference_stable_under_refinement():
    prob = vortex_problem()
    ref = reference_endpoint(prob)
    coarse = _rk6_endpoint(prob, 2.0 * REFERENCE_H)
    assert ref.error_estimate == vec.norm(vec.sub(ref.endpoint, coarse))
    assert ref.error_estimate <= 1e-13
    # the estimate bounds the reference's distance to a 4x finer run
    finer = _rk6_endpoint(prob, REFERENCE_H / 4.0)
    assert vec.norm(vec.sub(ref.endpoint, finer)) <= ref.error_estimate


def test_reference_matches_the_fine_stvdrk3_endpoint():
    ref = reference_endpoint(vortex_problem())
    assert vec.norm(vec.sub(ref.endpoint, STVDRK3_FINE_ENDPOINT)) <= 1e-12


def test_reference_method_is_sixth_order_on_vortex4():
    prob = vortex_problem()
    exact = _rk6_endpoint(prob, REFERENCE_H / 4.0)
    rows = [(h, vec.norm(vec.sub(_rk6_endpoint(prob, h), exact))) for h in H4]
    assert fit_order(rows) == pytest.approx(6.0, abs=0.3)


def test_rotation_problem_reference_matches_closed_form():
    prob = rotation_problem()
    ref = reference_endpoint(prob)
    exact = rotate_about((1.0, 0.0, 0.0), prob.p0, prob.t_final)
    assert vec.norm(vec.sub(ref.endpoint, exact)) < 1e-14


def _forge_reference_error(monkeypatch, prob, estimate):
    monkeypatch.setattr(harness, "_reference_cache", {})
    ref = reference_endpoint(prob)
    (key,) = harness._reference_cache
    harness._reference_cache[key] = dataclasses.replace(ref, error_estimate=estimate)


def test_reports_carry_the_reference_error():
    prob = vortex_problem()
    rep = run_convergence("stvdrk3", prob, H4)
    assert rep.reference_error == reference_endpoint(prob).error_estimate
    payload = harness.orders_payload([rep])
    assert payload["stvdrk3"]["reference_error"] == rep.reference_error


def test_reference_error_above_a_hundredth_of_the_graded_errors_raises(monkeypatch):
    prob = vortex_problem()
    # the finest stvdrk3 error over H4 is 2.6e-6, so 1e-7 is too coarse a reference
    _forge_reference_error(monkeypatch, prob, 1e-7)
    with pytest.raises(ReferenceUnavailableError):
        run_convergence("stvdrk3", prob, H4)
    _forge_reference_error(monkeypatch, prob, 1e-10)
    assert run_convergence("stvdrk3", prob, H4).reference_error == 1e-10


def test_reference_error_at_round_off_grades_round_off_errors(monkeypatch):
    # stvdrk3 is exact on the rotation problem; its errors are round-off of
    # 1e-14..7e-14, so no row is fitted and the estimate must be round-off too
    prob = rotation_problem()
    _forge_reference_error(monkeypatch, prob, harness.REFERENCE_ROUNDOFF)
    rep = run_convergence("stvdrk3", prob)
    assert rep.order_e2 is None
    assert rep.reference_error == harness.REFERENCE_ROUNDOFF
    _forge_reference_error(monkeypatch, prob, 2.0 * harness.REFERENCE_ROUNDOFF)
    with pytest.raises(ReferenceUnavailableError):
        run_convergence("stvdrk3", prob)


def test_report_csv_and_json_are_deterministic(tmp_path):
    prob = vortex_problem()
    reports = [run_convergence("sfe", prob, H4), run_convergence("ptvdrk2", prob, H4)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_convergence_csv(p1, reports)
    write_convergence_csv(p2, [run_convergence("sfe", prob, H4), run_convergence("ptvdrk2", prob, H4)])
    assert p1.read_bytes() == p2.read_bytes()
    j = tmp_path / "a.json"
    write_orders_json(j, reports)
    payload = json.loads(j.read_text())
    assert set(payload) == {"sfe", "ptvdrk2"}
    assert payload["sfe"]["order_enorm"] is None


def test_convergence_csv_layout(tmp_path):
    rep = run_convergence("sfe", vortex_problem(), H4)
    out = tmp_path / "rows.csv"
    write_convergence_csv(out, [rep])
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scheme,h,e2,enorm"
    assert len(lines) == 1 + len(H4)
    assert lines[1].startswith("sfe,0.1,")


def test_ptvdrk2_and_prk2_report_rows_agree():
    prob = vortex_problem()
    a = run_convergence("ptvdrk2", prob, H4)
    b = run_convergence("prk2", prob, H4)
    for ra, rb in zip(a.rows, b.rows):
        assert abs(ra.e2 - rb.e2) <= 1e-13


def test_stability_run_records_series(tmp_path):
    run = run_stability("sfe", 1.0, n_steps=50)
    assert len(run.distances) == 51
    assert run.verdict == "converged"
    assert run.distances[-1] < run.distances[0]
    out = tmp_path / "stab.csv"
    write_stability_csv(out, run)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scheme,h,step,distance"
    assert len(lines) == 52


def test_stability_diverged_verdict():
    run = run_stability("sfe", 2.2, n_steps=200)
    assert run.verdict == "diverged"


@pytest.mark.parametrize("n_steps", [-1, -3])
def test_stability_rejects_negative_step_count(n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        run_stability("sfe", 0.1, n_steps)


@pytest.mark.parametrize("n_steps", [0, 1, 5])
@pytest.mark.parametrize("q0", [(math.inf, 0.0, 0.0), (0.0, math.nan, 1.0), (0.0, 0.0, -math.inf)])
def test_stability_rejects_non_finite_start(q0, n_steps):
    with pytest.raises(NonFiniteStateError):
        run_stability("sfe", 0.1, n_steps, q0)


@pytest.mark.parametrize("n_steps", [0, 5])
@pytest.mark.parametrize("q0", [(2.0, 0.0, 0.0), (0.0, 0.0, 1.1), (0.0, 1.0 - 1e-11, 0.0)])
def test_stability_rejects_a_start_off_the_sphere(q0, n_steps):
    # the error names the start point, not the stage arc or the velocity's
    # normal part that the first step would report
    with pytest.raises(ValueError, match="off the unit sphere"):
        run_stability("stvdrk3", 0.1, n_steps, q0)


def test_appendix_a_report():
    rep = verify_appendix_a()
    assert isinstance(rep, AppendixAReport)
    assert rep.passed
    assert rep.c2_measured == pytest.approx(rep.c2_exact, rel=0.01)
    assert rep.c4_measured == pytest.approx(rep.c4_exact, rel=0.02)
    # the printed closed form agrees in magnitude but not in sign
    assert abs(rep.c4_printed) == pytest.approx(abs(rep.c4_exact), rel=1e-3)
    assert rep.c4_printed * rep.c4_exact < 0.0


def test_appendix_a_closed_forms():
    c2, c4, c4p = appendix_a_coefficients(1.0, 1.0)
    assert c2 == 0.0
    assert c4 == pytest.approx(1.0 / 8.0)
    assert c4p == pytest.approx(-1.0 / 8.0)
    # direct construction agrees with the derived sign
    h = 1e-2
    assert tvdrk2_planar_norm(1.0, 1.0, h) - 1.0 == pytest.approx(c4 * h**4, rel=1e-3)


def test_appendix_b_report():
    rep = verify_appendix_b()
    assert rep.passed
    assert rep.orders["pfe"] == pytest.approx(1.0, abs=0.1)
    assert rep.orders["ptvdrk2p"] == pytest.approx(2.0, abs=0.1)
    assert rep.orders["ptvdrk3p"] == pytest.approx(2.0, abs=0.1)
    assert rep.ptvdrk3p_h3_coefficient == pytest.approx(-1.0 / 3.0, rel=0.05)


def test_resolve_unknown_scheme():
    with pytest.raises(ValueError):
        run_convergence("nope", vortex_problem(), H4)


def test_reference_failure_is_wrapped():
    from sphererk.fields import vortex4_field
    from sphererk.harness import Problem

    # starting at a vortex center makes the very first field evaluation blow up
    bad = Problem(vortex4_field(), VORTEX4_CENTERS[0], 1.0)
    with pytest.raises(ReferenceUnavailableError):
        reference_endpoint(bad)
