"""Benchmark harness: convergence tables, stability runs, verification reports.

This module drives the sphere schemes and the Cartesian baselines through the
model problems, measures endpoint errors against a sixth-order reference that
is none of the schemes under test, fits convergence orders on log-log data,
and packages everything for CSV/JSON emission by the CLI.  The ``verify_*``
presets take no arguments: each runs the one fixed sweep it reports on, so
the CLI and the suite check the same numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import vec
from .baselines import BASELINE_STEPPERS, ON_SPHERE, angle_recurrence, rk6_step
from .errors import NonFiniteStateError, NonPositiveError, ReferenceUnavailableError, SphereRKError
from .fields import (
    STABILITY_MATRIX,
    VelocityField,
    VortexConfig,
    projected_linear_field,
    rigid_rotation_field,
    vortex4_field,
)
# slerp is not called here: perfbench/tracer.py patches it as a harness attribute
from .geometry import UNIT_NORM_TOL, UnitVector3, check_on_sphere, project, slerp  # noqa: F401
from .integrators import STEPPERS, integrate_steps
from .vec import Vec3

DEFAULT_H_LIST: Tuple[float, ...] = tuple(0.1 * 2.0**-k for k in range(6))

# Errors at or below REFERENCE_ROUNDOFF are round-off: they are left out of
# order fits and, as the reference's error estimate, never fail the gate.
REFERENCE_ROUNDOFF = 1e-13
PREASYMPTOTIC_CAP = 0.1
# Reports fit the asymptotic range only (the finest rows), as the reference
# log-log plots do; four points keep the fit meaningful.
ASYMPTOTIC_FIT_POINTS = 4

# Fitted orders measured on the four-vortex flow at T = 2 (E2 column and the
# norm-error column for the unprojected schemes).
EXPECTED_E2_ORDER: Dict[str, float] = {
    "sfe": 1,
    "stvdrk2": 2,
    "stvdrk3": 3,
    "tvdrk2": 2,
    "tvdrk3": 3,
    "rk3": 3,
    "rk4": 4,
    "prk3": 3,
    "prk4": 4,
    "ptvdrk2": 2,
    "ptvdrk2p": 2,
    "ptvdrk3": 3,
    "ptvdrk3p": 2,
}
EXPECTED_ENORM_ORDER: Dict[str, float] = {
    "tvdrk2": 3,
    "tvdrk3": 3,
    "rk3": 3,
    "rk4": 4,
}
# verify_table2 passes a fitted order within these of its expected value.
ORDER_TOL = 0.25
ENORM_TOL = 0.3


@dataclass(frozen=True)
class Problem:
    """A velocity field together with its benchmark initial data and horizon."""

    f: VelocityField
    p0: UnitVector3
    t_final: float


def vortex_problem(config: VortexConfig = VortexConfig()) -> Problem:
    return Problem(vortex4_field(config.centers), config.p0, 2.0)


def rotation_problem() -> Problem:
    # Rotation about e1, from a start on the great circle perpendicular to the
    # axis, so the motion is geodesic and the sphere schemes are exact.
    return Problem(rigid_rotation_field((1.0, 0.0, 0.0)), (0.0, 0.0, 1.0), 2.0)


def resolve_scheme(name: str) -> str:
    """``name`` if ``STEPPERS`` or ``BASELINE_STEPPERS`` holds it, else ValueError."""
    if name in STEPPERS or name in BASELINE_STEPPERS:
        return name
    raise ValueError(f"unknown scheme {name!r}")


def scheme_stepper(scheme: str):
    """The table entry of a resolved scheme, looked up when a run starts."""
    return STEPPERS[scheme] if scheme in STEPPERS else BASELINE_STEPPERS[scheme]


def stays_on_sphere(scheme: str) -> bool:
    return scheme in STEPPERS or scheme in ON_SPHERE


def _usable_rows(rows: Sequence[Tuple[float, float]], floor: float, cap: float,
                 finest: Optional[int]) -> List[Tuple[float, float]]:
    usable = [(h, err) for h, err in rows if floor < err <= cap]
    return usable if finest is None else usable[-finest:]


def fit_order(rows: Sequence[Tuple[float, float]],
              floor: float = REFERENCE_ROUNDOFF,
              cap: float = PREASYMPTOTIC_CAP,
              finest: Optional[int] = None) -> float:
    """Least-squares slope of log(err) against log(h).

    Rows at the round-off floor (err <= ``floor``) and pre-asymptotic rows
    (err > ``cap``) are excluded before fitting; with ``finest`` set only the
    last ``finest`` usable rows are fitted.  Raises NonFiniteStateError on NaN
    or infinite error values, NonPositiveError on negative ones, ValueError on
    a step size not finite and > 0 or fewer than three distinct usable ones.
    """
    if not all(math.isfinite(err) for _, err in rows):
        raise NonFiniteStateError("error values must be finite")
    if any(err < 0.0 for _, err in rows):
        raise NonPositiveError("error values must not be negative")
    if not all(0.0 < h < math.inf for h, _ in rows):
        raise ValueError(f"need finite step sizes h > 0, got {[h for h, _ in rows]!r}")
    usable = _usable_rows(rows, floor, cap, finest)
    distinct = len({h for h, _ in usable})
    if distinct < 3:
        raise ValueError(f"need at least 3 distinct step sizes to fit an order, got {distinct}")
    logh = np.log([h for h, _ in usable])
    loge = np.log([err for _, err in usable])
    slope, _ = np.polyfit(logh, loge, 1)
    return float(slope)


def _fit_asymptotic(rows: Sequence[Tuple[float, float]]) -> Optional[float]:
    """Fitted order over the finest ASYMPTOTIC_FIT_POINTS usable rows, or None."""
    try:
        return fit_order(rows, finest=ASYMPTOTIC_FIT_POINTS)
    except ValueError:
        return None


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    e2: float
    enorm: float


@dataclass(frozen=True)
class ConvergenceReport:
    scheme: str
    rows: Tuple[ConvergenceRow, ...]
    order_e2: Optional[float]
    order_enorm: Optional[float]
    reference_error: float


# The reference takes fixed steps of REFERENCE_H and 2 * REFERENCE_H; the
# distance between the two endpoints is its error estimate.
REFERENCE_H = 2.0**-8


@dataclass(frozen=True)
class Reference:
    """Endpoint used as the exact solution, with its estimated error."""

    endpoint: UnitVector3
    error_estimate: float


_reference_cache: Dict[Tuple, Reference] = {}


def _endpoint(step, problem: Problem, h: float) -> Vec3:
    """State at the problem's horizon; the steps before it are not kept."""
    for _, x in integrate_steps(step, problem.f, problem.p0, 0.0, problem.t_final, h):
        pass
    return x


def reference_endpoint(problem: Problem) -> Reference:
    """Sixth-order endpoint of the closest-point extension, projected onto the
    sphere, with |fine - coarse| over steps REFERENCE_H and 2 * REFERENCE_H as
    the error estimate.  Cached per field parameters (else raw function),
    start point and horizon."""
    f = problem.f
    key = (f.name, f.params or f.raw, tuple(problem.p0), problem.t_final)
    if key not in _reference_cache:
        try:
            fine = project(_endpoint(rk6_step, problem, REFERENCE_H))
            coarse = project(_endpoint(rk6_step, problem, 2.0 * REFERENCE_H))
        except SphereRKError as exc:
            raise ReferenceUnavailableError(f"reference integration failed: {exc}") from exc
        _reference_cache[key] = Reference(fine, vec.norm(vec.sub(fine, coarse)))
    return _reference_cache[key]


def run_convergence(
    scheme: str,
    problem: Problem,
    h_list: Sequence[float] = DEFAULT_H_LIST,
) -> ConvergenceReport:
    """Endpoint errors over a step-size sweep, with fitted orders attached.

    Each distinct h of ``h_list`` is run once, coarsest first.
    ``order_enorm`` is None when every norm error sits at the round-off floor
    (the projected and SLERP-based schemes, reported as exact).
    ``check_on_sphere`` checks the start point before any step.  Raises
    ValueError on an empty ``h_list``, and ReferenceUnavailableError when the
    reference's error estimate is above round-off and above 1/100 of the
    smallest E2 error entering the fit.
    """
    scheme = resolve_scheme(scheme)
    step = scheme_stepper(scheme)
    hs = sorted(set(h_list), reverse=True)
    if not hs:
        raise ValueError("need at least one step size")
    check_on_sphere(problem.p0, "convergence start point")
    ref = reference_endpoint(problem)
    rows = []
    for h in hs:
        endpoint = _endpoint(step, problem, h)
        e2 = vec.norm(vec.sub(endpoint, ref.endpoint))
        enorm = abs(vec.norm(endpoint) - 1.0)
        rows.append(ConvergenceRow(h, e2, enorm))
    e2_rows = [(r.h, r.e2) for r in rows]
    order_e2 = _fit_asymptotic(e2_rows)
    fitted = _usable_rows(e2_rows, REFERENCE_ROUNDOFF, PREASYMPTOTIC_CAP, ASYMPTOTIC_FIT_POINTS)
    smallest = min((err for _, err in fitted), default=0.0)
    if not (ref.error_estimate <= max(REFERENCE_ROUNDOFF, 0.01 * smallest)):
        raise ReferenceUnavailableError(
            f"reference error estimate {ref.error_estimate!r} exceeds 1/100 "
            f"of the smallest fitted error {smallest!r}"
        )
    return ConvergenceReport(
        scheme=scheme,
        rows=tuple(rows),
        order_e2=order_e2,
        order_enorm=_fit_asymptotic([(r.h, r.enorm) for r in rows]),
        reference_error=ref.error_estimate,
    )


# --- stability runs --------------------------------------------------------

# Final distance to the attractor pair below this counts as converged; runs
# near the stability boundary contract at ~|R| = 0.99/step, so after 500
# steps a stable run sits around 1e-4..3e-3 while an unstable one settles on
# a bounded cycle around 0.05..0.3.
CONVERGENCE_CUTOFF = 1e-2


@dataclass(frozen=True)
class StabilityRun:
    scheme: str
    h: float
    distances: Tuple[float, ...]  # start point and each of the n_steps steps
    verdict: str  # "converged" | "diverged"


def _attractor_distance(p: Vec3) -> float:
    """Arc length from p to the nearer of the poles +-e1.

    p x (+-e1) = (0, +-p_z, -+p_y) and p . (+-e1) = +-p_x, so for finite p
    this is min(geodesic_distance(p, e1), geodesic_distance(p, -e1)) bit for
    bit.  (An infinite coordinate gives a finite value here where that gives
    NaN; every step rejects such a point with NonFiniteStateError.)
    """
    px, py, pz = p
    return math.atan2(math.sqrt(pz * pz + py * py), abs(px))


def run_stability(
    scheme: str,
    h: float,
    n_steps: int = 500,
    q0: Optional[UnitVector3] = None,
) -> StabilityRun:
    """Iterate the projected-linear model and track the distance to +-e1.

    The model matrix diag(1/2, -1/2, -1/2) makes both poles +-e1 attractors
    with eigenvalue gap sigma = -1, so the step size h plays the role of
    sigma*h in the absolute-stability interval.  The run steps through
    ``integrate_steps`` over n_steps * h, so h must be finite and > 0, and
    folds each state into its distance as it arrives: only the distances are
    kept.  A negative ``n_steps`` raises ValueError; whatever ``n_steps``, a
    start point with a NaN or infinite coordinate raises NonFiniteStateError,
    and a finite one off the unit sphere ValueError.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps!r}")
    scheme = resolve_scheme(scheme)
    x0: Vec3 = q0 if q0 is not None else project((1.0, 1.0, 1.0))
    check_on_sphere(x0, "stability start point")
    f = projected_linear_field(STABILITY_MATRIX)
    steps = integrate_steps(scheme_stepper(scheme), f, x0, 0.0, n_steps * h, h)
    distances = [_attractor_distance(x) for _, x in steps]
    verdict = "converged" if distances[-1] < CONVERGENCE_CUTOFF else "diverged"
    return StabilityRun(scheme, h, tuple(distances), verdict)


# --- appendix verifications ------------------------------------------------


def tvdrk2_planar_norm(a: float, b: float, h: float) -> float:
    """Norm of one planar TVDRK2 step with stage speeds a and b.

    Exact plane construction: start at (0, -1), step a*h along the tangent,
    then b*h perpendicular to the new radius, then average with the start
    point.  The norm expands as
    1 + (a-b)^2 h^2 / 8 - ((a-b)^4 + 16 a^3 b) h^4 / 128 + O(h^6).
    """
    r = math.sqrt(1.0 + (a * h) ** 2)
    x = 0.5 * a * h + 0.5 * b * h / r
    y = -1.0 + 0.5 * a * b * h * h / r
    return math.hypot(x, y)


@dataclass(frozen=True)
class AppendixAReport:
    c2_measured: float
    c2_exact: float
    c4_measured: float
    c4_exact: float
    c4_printed: float
    coupled_slope: float
    passed: bool


def appendix_a_coefficients(a: float, b: float) -> Tuple[float, float, float]:
    """Closed-form h^2 and h^4 coefficients of the planar two-speed norm.

    Expanding the exact construction gives
    |p| = 1 + (a-b)^2 h^2 / 8 + (16 a^3 b - (a-b)^4) h^4 / 128 + O(h^6);
    the commonly quoted form carries the opposite sign on the 16 a^3 b term,
    which the construction itself contradicts (at a = b the norm exceeds 1 by
    a^4 h^4 / 8).  Returns (c2, c4, c4_printed).
    """
    c2 = (a - b) ** 2 / 8.0
    c4 = (16.0 * a**3 * b - (a - b) ** 4) / 128.0
    c4_printed = -((a - b) ** 4 + 16.0 * a**3 * b) / 128.0
    return c2, c4, c4_printed


def verify_appendix_a() -> AppendixAReport:
    """Extract the h^2 and h^4 coefficients of |p_TVDRK2| - 1 numerically.

    Fits (norm - 1)/h^2 against [1, h^2, h^4] for speeds a = 1, b = 1.1 over
    h = 0.08/2^0..5 and compares with the closed forms of the exact
    construction (see appendix_a_coefficients for the sign discrepancy
    against the printed expansion, which the report also carries).  Also checks the
    Lipschitz-coupled case b = a + O(h), whose norm defect must fit slope ~4.
    """
    a, b = 1.0, 1.1
    hs = np.array([0.08 * 2.0**-k for k in range(6)])
    g = np.array([(tvdrk2_planar_norm(a, b, h) - 1.0) / (h * h) for h in hs])
    basis = np.vstack([np.ones_like(hs), hs**2, hs**4]).T
    coeffs, *_ = np.linalg.lstsq(basis, g, rcond=None)
    c2_measured, c4_measured = float(coeffs[0]), float(coeffs[1])
    c2_exact, c4_exact, c4_printed = appendix_a_coefficients(a, b)

    coupled = [(h, abs(tvdrk2_planar_norm(a, a + 0.5 * h, h) - 1.0)) for h in hs]
    coupled_slope = fit_order(coupled, floor=0.0, cap=math.inf)

    passed = (
        abs(c2_measured - c2_exact) <= 0.01 * abs(c2_exact)
        and abs(c4_measured - c4_exact) <= 0.02 * abs(c4_exact)
        and abs(coupled_slope - 4.0) <= 0.3
    )
    return AppendixAReport(
        c2_measured, c2_exact, c4_measured, c4_exact, c4_printed, coupled_slope, passed
    )


@dataclass(frozen=True)
class AppendixBReport:
    orders: Dict[str, float]
    ptvdrk3p_h3_coefficient: float
    passed: bool


def verify_appendix_b() -> AppendixBReport:
    """Measure global orders of the angle recurrences and the PTVDRK3' defect.

    On the great-circle model theta' = theta the internal-projection schemes
    reduce to scalar multiplications; stepping them through
    ``integrate_steps`` to T = 1 against e^T yields global orders 1 (PFE)
    and 2 (both primed TVDRK schemes).  The PTVDRK3' third-order coefficient
    is -1/6 against the exact +1/6, a leading defect of -1/3.
    """
    t_final = 1.0
    exact = math.exp(t_final)
    orders: Dict[str, float] = {}
    for scheme in ("pfe", "ptvdrk2p", "ptvdrk3p"):
        step = lambda _f, th, _t, k: angle_recurrence(scheme, th, k)  # noqa: E731
        rows = []
        for h in DEFAULT_H_LIST:
            for _, theta in integrate_steps(step, None, 1.0, 0.0, t_final, h):
                pass
            rows.append((h, abs(theta - exact)))
        orders[scheme] = fit_order(rows, floor=0.0, cap=math.inf)

    def c3(h: float) -> float:
        return (angle_recurrence("ptvdrk3p", 1.0, h) - math.exp(h)) / h**3

    h0 = 1e-2
    coeff = 2.0 * c3(h0 / 2.0) - c3(h0)  # eliminate the O(h) contamination

    passed = (
        abs(orders["pfe"] - 1.0) <= 0.1
        and abs(orders["ptvdrk2p"] - 2.0) <= 0.1
        and abs(orders["ptvdrk3p"] - 2.0) <= 0.1
        and abs(coeff - (-1.0 / 3.0)) <= 0.05 * (1.0 / 3.0)
    )
    return AppendixBReport(orders, coeff, passed)


@dataclass(frozen=True)
class Table2Report:
    reports: Dict[str, ConvergenceReport]
    order_failures: Tuple[str, ...]
    enorm_failures: Tuple[str, ...]
    passed: bool


def verify_table2() -> Table2Report:
    """Reproduce the convergence-order table on the four-vortex flow.

    Checks every scheme's fitted E2 order over DEFAULT_H_LIST against its
    expected value, the norm-error orders of the unprojected schemes, and that
    the projected and SLERP-based schemes keep the endpoint norm within
    UNIT_NORM_TOL of 1 at every h.
    """
    problem = vortex_problem()
    reports: Dict[str, ConvergenceReport] = {}
    order_failures: List[str] = []
    enorm_failures: List[str] = []
    for name, expected in EXPECTED_E2_ORDER.items():
        rep = run_convergence(name, problem)
        reports[name] = rep
        if rep.order_e2 is None or abs(rep.order_e2 - expected) > ORDER_TOL:
            order_failures.append(name)
        if name in EXPECTED_ENORM_ORDER:
            want = EXPECTED_ENORM_ORDER[name]
            if rep.order_enorm is None or abs(rep.order_enorm - want) > ENORM_TOL:
                enorm_failures.append(name)
        elif stays_on_sphere(resolve_scheme(name)):
            if any(row.enorm > UNIT_NORM_TOL for row in rep.rows):
                enorm_failures.append(name)
    passed = not order_failures and not enorm_failures
    return Table2Report(reports, tuple(order_failures), tuple(enorm_failures), passed)


# --- emission ---------------------------------------------------------------


def write_convergence_csv(path: Union[str, Path], reports: Iterable[ConvergenceReport]) -> None:
    lines = ["scheme,h,e2,enorm"]
    for rep in reports:
        for row in rep.rows:
            lines.append(f"{rep.scheme},{row.h!r},{row.e2!r},{row.enorm!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def orders_payload(reports: Iterable[ConvergenceReport]) -> Dict[str, Dict[str, Optional[float]]]:
    return {
        rep.scheme: {
            "order_e2": rep.order_e2,
            "order_enorm": rep.order_enorm,
            "reference_error": rep.reference_error,
        }
        for rep in reports
    }


def write_orders_json(path: Union[str, Path], reports: Iterable[ConvergenceReport]) -> None:
    Path(path).write_text(
        json.dumps(orders_payload(reports), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def write_stability_csv(path: Union[str, Path], run: StabilityRun) -> None:
    prefix = f"{run.scheme},{run.h!r},"
    lines = ["scheme,h,step,distance"]
    for i, d in enumerate(run.distances):
        lines.append(f"{prefix}{i},{d!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
