"""The four benchmark workloads: seeded inputs, the timed library calls, output checks.

Each workload calls the same library drivers and writers as the matching
``sphererk`` subcommand.  Only driver calls and output emission are timed;
input generation and the output checks run outside the timed segments.

A workload fills the :class:`Result` it is given:

* ``wall_s``       - drivers plus writers, summed over the timed segments
* ``driver_s``     - drivers alone (emission excluded)
* ``segments``     - each timed segment's seconds and whether it is a driver
  call, in call order; a seed gives the same sequence in every repetition
* ``point_steps``  - sphere points advanced one step by the drivers
* ``attempted`` / ``failed`` - driver calls, and those that raised or failed
  their output check
* ``quality``      - the numerical figures the checks are made from
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from sphererk import cli, eikonal, harness, pharmonic
from sphererk.errors import SphereRKError
from sphererk.fields import VORTEX4_CENTERS, VortexConfig, stability_interval
from sphererk.geometry import UnitVector3, project

clock = time.perf_counter

# Acceptance gates reused as output checks.
ORDER_TOL = 0.25
ENORM_TOL = 0.3
ON_SPHERE_TOL = 1e-12
FOURTH_ORDER_WINDOWS = {
    "stvdrk4": (2.5, 3.5),
    "sssprk54": (2.5, 3.5),
    "sssprk104": (2.5, 3.5),
    "sssprk104-frechet": (1.5, 2.5),
}
MONOTONE_TOL = 1e-12

CONVERGE_H_SPEC = "0.1/2^0..5"

# Stability sweep: h grid 1.90..2.60 in steps of 0.01.  Each scheme's
# threshold must be located inside its window; every h below the window must
# converge and every h above it must diverge.
STABILITY_STEPS = 500
STABILITY_H_GRID = tuple(round(1.90 + 0.01 * k, 2) for k in range(71))
STABILITY_SCHEMES = {
    "sfe": (1.99, 2.01, 2.0),
    "stvdrk2": (1.99, 2.01, 2.0),
    "stvdrk3": (2.51, 2.52, -stability_interval(3)),
}
# The start point is drawn from a cap around project((1, 1, 1)): the 500-step
# verdicts just below the threshold depend on the starting distance.
STABILITY_CENTER = (1.0, 1.0, 1.0)
STABILITY_CAP_RAD = 0.05

EIKONAL_RAYS = 65536
EIKONAL_DT = math.pi / 100
EIKONAL_SNAPSHOT_STEPS = (5, 10)
# The source is drawn from a cap around the CLI's source e1.  The y31
# gradient costs about 3x more per ray where z < 0 (a power of a negative
# base), so a source anywhere on the sphere would make the cost depend on the
# seed; near e1 about half the rays have z < 0 for every seed.
EIKONAL_CENTER = (1.0, 0.0, 0.0)
EIKONAL_CAP_RAD = 0.02

PHARMONIC_NODES = 256
PHARMONIC_P = 1.0
PHARMONIC_STEPS = 1000
PHARMONIC_SNAPSHOT_STEPS = (0, 250, 500, 750, 1000)


@dataclass
class Result:
    wall_s: float = 0.0
    driver_s: float = 0.0
    point_steps: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    quality: Dict[str, float] = field(default_factory=dict)
    segments: List[Tuple[float, bool]] = field(default_factory=list)
    # A tracer whose ``active`` flag is set for the duration of each segment.
    tracer: Optional[Any] = None

    def timed(self, fn: Callable, *args, driver: bool = True, **kwargs):
        """Call a library function inside a timed segment."""
        if self.tracer is not None:
            self.tracer.active = True
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            if self.tracer is not None:
                self.tracer.active = False
            self.wall_s += dt
            self.segments.append((dt, driver))
            if driver:
                self.driver_s += dt

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def fail_all(self, what: str) -> None:
        """A broken output file misreports every call's result."""
        self.failed = self.attempted
        self.failures.append(what)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random rotation matrix, from a normalised Gaussian quaternion."""
    w, x, y, z = rng.normal(size=4)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _rotate(r: np.ndarray, p) -> UnitVector3:
    return project(tuple(float(c) for c in r @ np.asarray(p, dtype=float)))


def cap_point(rng: np.random.Generator, center, radius: float) -> UnitVector3:
    """A point drawn uniformly from the spherical cap of angular radius ``radius``."""
    c = np.asarray(center, dtype=float)
    c /= np.linalg.norm(c)
    d = rng.normal(size=3)
    d -= np.dot(d, c) * c
    d /= np.linalg.norm(d)
    theta = math.acos(1.0 - rng.uniform() * (1.0 - math.cos(radius)))
    return project(tuple(float(v) for v in math.cos(theta) * c + math.sin(theta) * d))


def _norm_defect(x: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0)))


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


# --- converge_all -----------------------------------------------------------


def converge_all(seed: int, out: Path, res: Result) -> None:
    """``sphererk converge --problem vortex4 --scheme all --h 0.1/2^0..5``.

    The vortex centres and the start point are rotated by a seeded random
    rotation; the flow is rotation-equivariant, so every order gate holds.
    """
    rot = random_rotation(np.random.default_rng(seed))
    config = VortexConfig(
        centers=tuple(_rotate(rot, c) for c in VORTEX4_CENTERS),
        p0=_rotate(rot, (1.0, 0.0, 0.0)),
    )
    problem = harness.vortex_problem(config)
    h_list = cli.parse_h_spec(CONVERGE_H_SPEC)
    names = cli.all_scheme_names()
    h_ref = min(h_list) / 100.0
    res.point_steps = round(problem.t_final / h_ref)
    reports = []
    order_dev = 0.0
    norm_defect = 0.0
    for name in names:
        res.attempted += 1
        try:
            rep = res.timed(harness.run_convergence, name, problem, h_list)
        except SphereRKError as exc:
            res.fail(f"{name}: {type(exc).__name__}: {exc}")
            continue
        reports.append(rep)
        res.point_steps += sum(round(problem.t_final / row.h) for row in rep.rows)
        bad = []
        if name in harness.EXPECTED_E2_ORDER:
            want = harness.EXPECTED_E2_ORDER[name]
            if rep.order_e2 is None or abs(rep.order_e2 - want) > ORDER_TOL:
                bad.append(f"order_e2={rep.order_e2} want {want}")
            else:
                order_dev = max(order_dev, abs(rep.order_e2 - want))
        if name in FOURTH_ORDER_WINDOWS:
            lo, hi = FOURTH_ORDER_WINDOWS[name]
            if rep.order_e2 is None or not lo <= rep.order_e2 <= hi:
                bad.append(f"order_e2={rep.order_e2} outside [{lo}, {hi}]")
        if name in harness.EXPECTED_ENORM_ORDER:
            want = harness.EXPECTED_ENORM_ORDER[name]
            if rep.order_enorm is None or abs(rep.order_enorm - want) > ENORM_TOL:
                bad.append(f"order_enorm={rep.order_enorm} want {want}")
            else:
                order_dev = max(order_dev, abs(rep.order_enorm - want))
        elif harness.stays_on_sphere(harness.resolve_scheme(name)):
            worst = max(row.enorm for row in rep.rows)
            norm_defect = max(norm_defect, worst)
            if worst > ON_SPHERE_TOL:
                bad.append(f"norm defect {worst!r}")
        if bad:
            res.fail(f"{name}: " + "; ".join(bad))
    csv_path = out / "table2.csv"
    res.timed(harness.write_convergence_csv, csv_path, reports, driver=False)
    res.timed(harness.write_orders_json, csv_path.with_suffix(".json"), reports, driver=False)
    if _line_count(csv_path) != 1 + sum(len(r.rows) for r in reports):
        res.fail_all("convergence CSV has the wrong number of lines")
    orders = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
    if sorted(orders) != sorted(r.scheme for r in reports):
        res.fail_all("orders JSON does not list every scheme")
    res.quality = {"order_dev_max": order_dev, "norm_defect_max": norm_defect}


# --- stability_sweep ----------------------------------------------------------


def stability_sweep(seed: int, out: Path, res: Result) -> None:
    """``sphererk stability`` for sfe, stvdrk2 and stvdrk3 over an h grid, from a seeded q0."""
    q0 = cap_point(np.random.default_rng(seed), STABILITY_CENTER, STABILITY_CAP_RAD)
    csv_path = out / "stability.csv"
    threshold_err = 0.0
    for scheme, (lo, hi, bound) in STABILITY_SCHEMES.items():
        located = None
        diverged_below = False
        for h in STABILITY_H_GRID:
            res.attempted += 1
            try:
                run = res.timed(harness.run_stability, scheme, h, STABILITY_STEPS, q0)
            except SphereRKError as exc:
                res.fail(f"{scheme} h={h}: {type(exc).__name__}: {exc}")
                continue
            res.point_steps += STABILITY_STEPS
            res.timed(harness.write_stability_csv, csv_path, run, driver=False)
            converged = run.verdict == "converged"
            if not converged:
                diverged_below = True
            elif not diverged_below:
                located = h
            if (h <= lo and not converged) or (h >= hi and converged):
                res.fail(f"{scheme} h={h}: verdict {run.verdict}")
            elif _line_count(csv_path) != STABILITY_STEPS + 2:
                res.fail(f"{scheme} h={h}: stability CSV has the wrong number of lines")
        if located is None or not lo <= located <= hi:
            res.fail(f"{scheme}: threshold {located} outside [{lo}, {hi}]")
        else:
            threshold_err = max(threshold_err, abs(located - bound))
    res.quality = {"threshold_err": threshold_err}


# --- eikonal_wide -------------------------------------------------------------


def eikonal_wide(seed: int, out: Path, res: Result) -> None:
    """``sphererk eikonal --velocity y31 --order 3 --rays 65536 --dt pi/100`` from a seeded source."""
    xs = cap_point(np.random.default_rng(seed), EIKONAL_CENTER, EIKONAL_CAP_RAD)
    model = eikonal.MODELS["y31"]()
    t_final = EIKONAL_SNAPSHOT_STEPS[-1] * EIKONAL_DT
    snapshots = [k * EIKONAL_DT for k in EIKONAL_SNAPSHOT_STEPS]
    res.attempted = 1
    try:
        fronts = res.timed(
            eikonal.trace_wavefront, model, xs, n_rays=EIKONAL_RAYS, h=EIKONAL_DT,
            t_final=t_final, scheme=eikonal.scheme_for_order(3), snapshot_times=snapshots,
        )
    except SphereRKError as exc:
        res.fail(f"trace_wavefront: {type(exc).__name__}: {exc}")
        return
    res.point_steps = EIKONAL_RAYS * EIKONAL_SNAPSHOT_STEPS[-1]
    csv_path = out / "wavefronts.csv"
    res.timed(eikonal.write_wavefronts_csv, csv_path, fronts, driver=False)
    defect = max(_norm_defect(f.x) for f in fronts)
    ham = float(np.max(np.abs(eikonal.hamiltonian(model, fronts[-1].x, fronts[-1].k))))
    if len(fronts) != len(snapshots) or defect > ON_SPHERE_TOL or not math.isfinite(ham):
        res.fail(f"trace_wavefront: {len(fronts)} fronts, norm defect {defect!r}, |H| {ham!r}")
    elif _line_count(csv_path) != 1 + EIKONAL_RAYS * len(snapshots):
        res.fail("wavefront CSV has the wrong number of lines")
    res.quality = {"norm_defect_max": defect, "hamiltonian_max": ham}


# --- pharmonic_curve ----------------------------------------------------------


def pharmonic_curve(seed: int, out: Path, res: Result) -> None:
    """``sphererk pharmonic --p 1 --nodes 256 --order 3`` with the default dt, seeded rotation."""
    rot = random_rotation(np.random.default_rng(seed))
    m = pharmonic.initial_discontinuous_curve(PHARMONIC_NODES).m @ rot.T
    curve = pharmonic.DirectorCurve(m / np.linalg.norm(m, axis=1, keepdims=True))
    dt = pharmonic.default_dt(curve, PHARMONIC_P)
    params = pharmonic.PFlowParams(p=PHARMONIC_P, dt=dt, t_final=PHARMONIC_STEPS * dt)
    snapshots = [k * dt for k in PHARMONIC_SNAPSHOT_STEPS]
    res.attempted = 1
    try:
        snaps = res.timed(pharmonic.pflow_evolve, curve, params, order=3, snapshot_times=snapshots)
    except SphereRKError as exc:
        res.fail(f"pflow_evolve: {type(exc).__name__}: {exc}")
        return
    res.point_steps = PHARMONIC_NODES * PHARMONIC_STEPS
    csv_path = out / "snapshots.csv"
    res.timed(pharmonic.write_snapshots_csv, csv_path, snaps, driver=False)
    defect = max(_norm_defect(c.m) for _, c in snaps)
    energies = [pharmonic.p_energy(c, PHARMONIC_P) for _, c in snaps]
    tvs = [pharmonic.total_variation(c) for _, c in snaps]

    def non_increasing(xs):
        return all(b <= a + MONOTONE_TOL for a, b in zip(xs, xs[1:]))

    if (len(snaps) != len(snapshots) or defect > ON_SPHERE_TOL
            or not non_increasing(energies) or not non_increasing(tvs)):
        res.fail(f"pflow_evolve: norm defect {defect!r}, energies {energies}, tv {tvs}")
    elif _line_count(csv_path) != 1 + PHARMONIC_NODES * len(snapshots):
        res.fail("snapshot CSV has the wrong number of lines")
    res.quality = {"norm_defect_max": defect}


WORKLOADS: Dict[str, Callable[[int, Path, Result], None]] = {
    "converge_all": converge_all,
    "stability_sweep": stability_sweep,
    "eikonal_wide": eikonal_wide,
    "pharmonic_curve": pharmonic_curve,
}
