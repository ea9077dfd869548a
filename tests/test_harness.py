import dataclasses
import json
import math
import re

import numpy as np
import pytest

from conftest import last_state, rotate_about
from sphererk import cli, harness, vec
from sphererk.baselines import ON_SPHERE, rk6_step
from sphererk.errors import NonFiniteStateError, NonPositiveError, ReferenceUnavailableError
from sphererk.fields import VORTEX4_CENTERS, VortexConfig
from sphererk.geometry import UNIT_NORM_TOL, project
from sphererk.integrators import integrate_steps
from sphererk.harness import (
    EXPECTED_E2_ORDER,
    EXPECTED_ENORM_ORDER,
    REFERENCE_H,
    AppendixAReport,
    ConvergenceReport,
    ConvergenceRow,
    appendix_a_coefficients,
    fit_order,
    reference_endpoint,
    resolve_scheme,
    rotation_problem,
    run_convergence,
    run_stability,
    tvdrk2_planar_norm,
    verify_appendix_a,
    verify_appendix_b,
    verify_table2,
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
    # a row at the floor is dropped and one at the cap kept
    assert fit_order(rows, floor=1e-16, cap=1e-2) == pytest.approx(2.0, abs=1e-9)
    # a zero error is round-off, not a negative one
    assert fit_order(rows[:3] + [(0.0125, 0.0)]) == pytest.approx(2.0, abs=1e-9)


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


@pytest.mark.parametrize("bad", [-0.05, 0.0, math.inf, math.nan])
def test_fit_order_rejects_a_step_size_not_finite_and_positive(bad, capfd):
    rows = [(0.1, 1e-2), (bad, 1e-3), (0.025, 1e-4)]
    with pytest.raises(ValueError, match=re.escape(f"need finite step sizes h > 0, got [0.1, {bad!r}, 0.025]")):
        fit_order(rows)
    # rejected before np.log: no numpy warning, and nothing from LAPACK on fd 2
    assert capfd.readouterr().err == ""


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


@pytest.mark.parametrize("h", [1e-2, 5e-3])
def test_appendix_a_closed_forms_at_unequal_speeds(h):
    # a != 1 tells a*x from x/a, and at b - a = 0.6 the (a - b)^4 term is
    # large enough that its sign shows: flipping it misses by 2e-11 at h = 1e-2
    c2, c4, c4_printed = appendix_a_coefficients(0.7, 1.3)
    residual = tvdrk2_planar_norm(0.7, 1.3, h) - (1.0 + c2 * h**2 + c4 * h**4)
    assert abs(residual) <= 10.0 * h**6
    # the printed form differs only in the sign of its 16 a^3 b / 128 term
    assert c4 - c4_printed == pytest.approx(0.7**3 * 1.3 / 4.0, rel=1e-12)


def test_appendix_b_report():
    rep = verify_appendix_b()
    assert rep.passed
    assert rep.orders["pfe"] == pytest.approx(1.0, abs=0.1)
    assert rep.orders["ptvdrk2p"] == pytest.approx(2.0, abs=0.1)
    assert rep.orders["ptvdrk3p"] == pytest.approx(2.0, abs=0.1)
    # 1.4e-6 off with the Richardson partner c3(h0 / 2); 1.1e-2 off with c3(2 h0)
    assert rep.ptvdrk3p_h3_coefficient == pytest.approx(-1.0 / 3.0, abs=1e-4)


# verify_appendix_a on planar norms that miss one of its three conditions:
# dc2 and dc4 shift the fitted h^2 and h^4 coefficients by that fraction of
# their exact values, and a coupled defect of h^2 fits slope 2, not 4.
@pytest.mark.parametrize("dc2, dc4, coupled_slope", [
    (0.02, 0.0, 4.0),
    (0.0, 0.03, 4.0),
    (0.0, 0.0, 2.0),
], ids=["c2-off-2%", "c4-off-3%", "coupled-slope-2"])
def test_appendix_a_verdict_fails_on_each_condition_alone(monkeypatch, dc2, dc4, coupled_slope):
    real = harness.tvdrk2_planar_norm
    c2, c4, _ = appendix_a_coefficients(1.0, 1.1)

    def norm(a, b, h):
        if b == 1.1:
            return real(a, b, h) + dc2 * c2 * h**2 + dc4 * c4 * h**4
        return 1.0 + h**2 if coupled_slope == 2.0 else real(a, b, h)

    monkeypatch.setattr(harness, "tvdrk2_planar_norm", norm)
    rep = verify_appendix_a()
    assert rep.c2_measured == pytest.approx((1.0 + dc2) * c2, rel=2e-3)
    assert rep.c4_measured == pytest.approx((1.0 + dc4) * c4, rel=5e-3)
    assert rep.coupled_slope == pytest.approx(coupled_slope, abs=0.05)
    assert not rep.passed


# verify_appendix_b on recurrences that miss one of its conditions: a factor
# exp(h) + h^(p + 1.2) has global order p + 0.2, and adding d h^3 to a
# PTVDRK3' step moves its h^3 coefficient by d, here 6% of 1/3.
@pytest.mark.parametrize("scheme, order, extra", [
    ("pfe", 1.2, None),
    ("ptvdrk2p", 2.2, None),
    ("ptvdrk3p", 2.0, -0.02),
], ids=["pfe-order", "ptvdrk2p-order", "ptvdrk3p-coefficient"])
def test_appendix_b_verdict_fails_on_each_condition_alone(monkeypatch, scheme, order, extra):
    real = harness.angle_recurrence

    def recurrence(s, theta, h):
        if s != scheme:
            return real(s, theta, h)
        if extra is None:
            return (math.exp(h) + h ** (order + 1.0)) * theta
        return real(s, theta, h) + extra * h**3 * theta

    monkeypatch.setattr(harness, "angle_recurrence", recurrence)
    rep = verify_appendix_b()
    expected = {"pfe": 1.0, "ptvdrk2p": 2.0, "ptvdrk3p": 2.0, scheme: order}
    assert rep.orders == pytest.approx(expected, abs=0.05)
    assert rep.ptvdrk3p_h3_coefficient == pytest.approx(-1.0 / 3.0 + (extra or 0.0), abs=1e-4)
    assert not rep.passed


SPHERE_SCHEMES = ["sfe", "stvdrk2", "stvdrk3", "stvdrk4", "sssprk54", "sssprk104", "sssprk104-frechet"]
PROJECTED = ["pfe", "prk2", "prk3", "prk4", "ptvdrk2", "ptvdrk2p", "ptvdrk3", "ptvdrk3p"]
UNPROJECTED = ["fe", "rk2", "rk3", "rk4", "tvdrk2", "tvdrk3"]


def test_scheme_names_are_pinned():
    # the stepper tables are the only list of names; their order is the row
    # order of the converge-all CSV and the list in converge --help
    assert cli.all_scheme_names() == SPHERE_SCHEMES + UNPROJECTED + PROJECTED
    assert ON_SPHERE == set(PROJECTED)
    assert [n for n in cli.all_scheme_names() if harness.stays_on_sphere(n)] == SPHERE_SCHEMES + PROJECTED


def test_resolve_unknown_scheme():
    with pytest.raises(ValueError, match="^unknown scheme 'nope'$"):
        run_convergence("nope", vortex_problem(), H4)
    with pytest.raises(ValueError, match="^unknown scheme 'stvdrk5'$"):
        run_stability("stvdrk5", 0.1, n_steps=3)


def test_reference_failure_is_wrapped():
    from sphererk.fields import vortex4_field
    from sphererk.harness import Problem

    # starting at a vortex center makes the very first field evaluation blow up
    bad = Problem(vortex4_field(), VORTEX4_CENTERS[0], 1.0)
    with pytest.raises(ReferenceUnavailableError):
        reference_endpoint(bad)


@pytest.mark.parametrize("p0", [(1.5, 0.0, 0.0), (0.0, 0.0, 0.9)])
@pytest.mark.parametrize("scheme", ["rk4", "stvdrk3"])
def test_convergence_rejects_a_start_off_the_sphere(p0, scheme):
    # the error names the start point: rk4 used to fit nothing, stvdrk3 to
    # report a vortex center at a negative distance
    with pytest.raises(ValueError, match="start point .* off the unit sphere"):
        run_convergence(scheme, vortex_problem(VortexConfig(p0=p0)), H4)


@pytest.mark.parametrize("config", [
    VortexConfig(p0=np.array([1.0, 0.0, 0.0])),
    VortexConfig(p0=[1.0, 0.0, 0.0]),
    VortexConfig(centers=np.array(VORTEX4_CENTERS)),
], ids=["numpy-start", "list-start", "numpy-centres"])
def test_convergence_accepts_array_inputs(config):
    prob = vortex_problem(config)
    assert run_convergence("stvdrk3", prob, H4) == run_convergence("stvdrk3", vortex_problem(), H4)
    # equal values share the tuple inputs' cached reference
    assert reference_endpoint(prob) is reference_endpoint(vortex_problem())


def test_convergence_rejects_an_empty_step_list():
    with pytest.raises(ValueError, match="at least one step size"):
        run_convergence("stvdrk3", vortex_problem(), [])


def test_convergence_rejects_a_non_finite_start():
    with pytest.raises(NonFiniteStateError, match="start point"):
        run_convergence("rk4", vortex_problem(VortexConfig(p0=(math.nan, 0.0, 0.0))), H4)


def test_convergence_rejects_a_vortex_center_off_the_sphere():
    centers = ((0.0, 0.0, 2.0),) + VORTEX4_CENTERS[1:]
    with pytest.raises(ValueError, match="vortex center .* off the unit sphere"):
        run_convergence("stvdrk3", vortex_problem(VortexConfig(centers=centers)), H4)


def _fake_table2_run(monkeypatch, e2=None, enorm=None, row_enorm=None):
    """Make verify_table2 grade made-up reports: every scheme's orders are
    their expected values, and its norm errors 1e-16 (on the sphere) or 1e-6,
    except for the overrides keyed by scheme name."""
    e2, enorm, row_enorm = e2 or {}, enorm or {}, row_enorm or {}

    def fake(name, problem, h_list=harness.DEFAULT_H_LIST):
        on_sphere = harness.stays_on_sphere(resolve_scheme(name))
        norm_errors = row_enorm.get(name, [1e-16 if on_sphere else 1e-6] * len(h_list))
        rows = tuple(ConvergenceRow(h, 1e-3, en) for h, en in zip(h_list, norm_errors))
        return ConvergenceReport(
            name,
            rows,
            e2.get(name, EXPECTED_E2_ORDER[name]),
            enorm.get(name, EXPECTED_ENORM_ORDER.get(name)),
            1e-14,
        )

    monkeypatch.setattr(harness, "run_convergence", fake)


def test_table2_verdict_on_expected_orders(monkeypatch):
    _fake_table2_run(monkeypatch)
    rep = verify_table2()
    assert (rep.order_failures, rep.enorm_failures, rep.passed) == ((), (), True)


def test_table2_verdict_on_failing_orders(monkeypatch):
    _fake_table2_run(
        monkeypatch,
        e2={"rk3": EXPECTED_E2_ORDER["rk3"] - 0.3, "prk3": None},
        enorm={"tvdrk3": EXPECTED_ENORM_ORDER["tvdrk3"] + 0.4, "rk4": None},
    )
    rep = verify_table2()
    assert rep.order_failures == ("rk3", "prk3")
    assert rep.enorm_failures == ("tvdrk3", "rk4")
    assert not rep.passed


@pytest.mark.parametrize("name", ["stvdrk2", "ptvdrk2"])
def test_table2_verdict_on_an_on_sphere_norm_error(monkeypatch, name):
    norm_errors = [1e-16] * 5 + [2.0 * UNIT_NORM_TOL]
    _fake_table2_run(monkeypatch, row_enorm={name: norm_errors})
    rep = verify_table2()
    assert (rep.order_failures, rep.enorm_failures, rep.passed) == ((), (name,), False)


def test_table2_verdict_on_an_order_failure_alone(monkeypatch):
    _fake_table2_run(monkeypatch, e2={"sfe": EXPECTED_E2_ORDER["sfe"] + 0.3})
    rep = verify_table2()
    assert (rep.order_failures, rep.enorm_failures, rep.passed) == (("sfe",), (), False)


def test_verify_table2_cli_prints_a_norm_error_failure(monkeypatch, capsys):
    from sphererk.cli import main

    _fake_table2_run(monkeypatch, row_enorm={"stvdrk3": [2.0 * UNIT_NORM_TOL] * 6})
    assert main(["verify", "--target", "table2"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["norm-error failures: stvdrk3", "FAIL"]
