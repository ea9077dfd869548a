"""Sphere-intrinsic explicit steppers.

The building blocks are exponential-map substeps (in place of forward Euler)
and SLERP interpolation (in place of convex combinations), which keeps every
stage and every output on the unit sphere by construction:

* ``sfe_step``       - spherical forward Euler, first order
* ``stvdrk2_step``   - two exp-map stages + one SLERP, second order
* ``stvdrk3_step``   - three exp-map stages + two SLERPs, third order
* ``stvdrk4``, ``sssprk54``, ``sssprk104`` - fourth-order candidates, each a
  table in ``STAGE_TABLES`` run by ``stage_step``; their observed
  convergence tops out at third order (second with the projected-average
  combination of ``sssprk104-frechet``), which the benchmark harness
  documents.

``STEPPERS`` maps each scheme's name (``"sfe"``, ..., ``"sssprk104-frechet"``)
to its stepper: a sphere scheme exists when it has a key there.

The same construction fixes each stage's time: an exp-map substep with
coefficient beta from a point at time c lands at c + beta, and
SLERP(a, b, w) lands at (1 - w) c_a + w c_b.  Every stepper evaluates its
stages at these times; a stage table derives them when it is built.

``tvdrk_step`` holds the Shu-Osher stage structure of TVDRK1-3 once; the
sphere steppers here, the Cartesian baselines and the eikonal and p-harmonic
row steppers run it with their own substep and combination.

``grid_steps`` is the one step-grid rule: it checks a step size and a horizon
and counts the steps of h in it.  ``integrate_steps`` is the one step loop:
the scheme, baseline and stability runs, the eikonal ray march and the
p-harmonic flow all step through it.  It yields each (t, state) pair as it
is asked for, so a driver holds only the states it keeps, and the flows keep
those at the step indices ``snapshot_steps`` picks.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence, Set, Tuple

from . import vec
from .errors import NonFiniteStateError, NonTangentVelocityError, SphereRKError, StepTooLargeError
from .fields import VelocityField
from .geometry import HALF_PI, UNIT_NORM_TOL, UnitVector3, exp_raw, project, slerp
from .vec import Vec3

Stepper = Callable[[VelocityField, UnitVector3, float, float], UnitVector3]

# A spherical convex combination: (weight, point) pairs with nonnegative
# weights summing to 1.
WeightedPoints = Sequence[Tuple[float, Vec3]]


def _advance(p: Vec3, v: Vec3, eff_h: float, limit: float) -> UnitVector3:
    """One exp-map substep exp_p(eff_h * v), guarding the stage arc and v's normal part.

    To first order exp_p(h v) moves |p| by h (p . v), so the normal part is
    bounded in that unit, not relative to |v|: near an equilibrium |v| -> 0
    while the rounding in p . v does not.
    """
    vx, vy, vz = v
    arc = abs(eff_h) * math.sqrt(vx * vx + vy * vy + vz * vz)
    if not (arc < limit):
        if not math.isfinite(arc):
            raise NonFiniteStateError(f"stage arc {arc!r} is not finite")
        raise StepTooLargeError(
            f"stage arc {arc!r} exceeds the interpolation bound {limit!r}"
        )
    px, py, pz = p
    drift = eff_h * (px * vx + py * vy + pz * vz)
    if not (abs(drift) <= UNIT_NORM_TOL):
        raise NonTangentVelocityError(
            f"velocity's normal part moves |p| by {drift!r}, beyond {UNIT_NORM_TOL!r}"
        )
    return exp_raw(p, (vx * eff_h, vy * eff_h, vz * eff_h))


def tvdrk_step(order: int, euler, combine, f, x, t: float, h: float):
    """One step of TVDRK``order`` (1-3) in Shu-Osher form, over any space.

    ``euler(f, y, s, h)`` is the space's forward-Euler substep from y with the
    field evaluated at time s; ``combine(a, b, w)`` is its (1 - w) a + w b.
    The stages sit at t, t + h and t + h/2:

        y1 = E(x, t)                              (TVDRK1 ends here)
        y2 = E(y1, t + h)                         TVDRK2: x + 1/2 (y2 - x)
        y3 = E(x + 1/4 (y2 - x), t + h/2)         TVDRK3: x + 2/3 (y3 - x)

    Every stage stays bound until the step returns: on (n, 3) rows, freeing
    stages mid-step made the allocator hand pages back and fault them in again.
    """
    y1 = euler(f, x, t, h)
    if order == 1:
        return y1
    y2 = euler(f, y1, t + h, h)
    if order == 2:
        return combine(x, y2, 0.5)
    c = combine(x, y2, 0.25)
    y3 = euler(f, c, t + 0.5 * h, h)
    return combine(x, y3, 2.0 / 3.0)


def _exp_euler(f: VelocityField, p: UnitVector3, s: float, h: float) -> UnitVector3:
    """Exp-map substep of a multi-stage scheme; stage arcs stay below pi/2."""
    return _advance(p, f.raw(p, s), h, HALF_PI)


def sfe_step(f: VelocityField, p: UnitVector3, t: float, h: float) -> UnitVector3:
    """Spherical forward Euler exp_p(h f(p, t)), the TVDRK1 substep.  Requires h |f| < pi."""
    return _advance(p, f.raw(p, t), h, math.pi)


def stvdrk2_step(f: VelocityField, p: UnitVector3, t: float, h: float) -> UnitVector3:
    """Two exp-map stages and the SLERP midpoint.  Requires h |f| < pi/2 per stage."""
    return tvdrk_step(2, _exp_euler, slerp, f, p, t, h)


def stvdrk3_step(f: VelocityField, p: UnitVector3, t: float, h: float) -> UnitVector3:
    """Third-order stepper: stages at t, t+h, t+h/2 with SLERP weights 1/4 and 2/3."""
    return tvdrk_step(3, _exp_euler, slerp, f, p, t, h)


# A stage table lists a scheme's operations over numbered points.  Point 0 is
# the step's start point p, at time 0; each operation appends one point, and
# the last is the step's output.  Times c_j are in units of h:
#   ("exp", j, beta)         exp_{q_j}(beta h f(q_j)), at time c_j + beta
#   ("slerp", a, b, w)       SLERP(q_a, q_b, w), at time (1 - w) c_a + w c_b
#   ("mean", ((w, j), ...))  projected_mean of the weighted points, at time sum w c_j
class StageTable(NamedTuple):
    ops: Tuple[tuple, ...]
    times: Tuple[float, ...]  # c_j of every point, derived from the ops


def stage_table(*ops: tuple) -> StageTable:
    """The table of ``ops``, with each point's time derived from the operation that makes it."""
    times = [0.0]
    for op in ops:
        if op[0] == "exp":
            times.append(times[op[1]] + op[2])
        elif op[0] == "slerp":
            times.append((1.0 - op[3]) * times[op[1]] + op[3] * times[op[2]])
        else:
            times.append(sum(w * times[j] for w, j in op[1]))
    return StageTable(ops, tuple(times))


def stage_step(table: StageTable, f: VelocityField, p: UnitVector3, t: float, h: float) -> UnitVector3:
    """One step of ``table`` from p at time t, with every stage arc below pi/2: each
    point's field is evaluated once, at t + c_j h, however many substeps start from it."""
    times = table.times
    qs = [p]
    vs = [None] * len(times)
    for op in table.ops:
        if op[0] == "exp":
            _, j, beta = op
            v = vs[j]
            if v is None:
                v = vs[j] = f.raw(qs[j], t + times[j] * h)
            qs.append(_advance(qs[j], v, beta * h, HALF_PI))
        elif op[0] == "slerp":
            qs.append(slerp(qs[op[1]], qs[op[2]], op[3]))
        else:
            qs.append(projected_mean([(w, qs[j]) for w, j in op[1]]))
    return qs[-1]


def _ssprk104_table(first: tuple, *last: tuple) -> StageTable:
    """SSPRK(10,4): h/6 substeps from p to point 5, ``first``, h/6 substeps from it to 11, ``last``."""
    sixths = [("exp", j, 1.0 / 6.0) for j in range(11) if j != 5]
    return stage_table(*sixths[:5], first, *sixths[5:], *last)


STAGE_TABLES: dict[str, StageTable] = {
    # eight exp maps and six SLERPs; the fields of points 0, 1, 4 and 9 are
    # evaluated, at times 0, 1/2, 1/2 and 1
    "stvdrk4": stage_table(
        ("exp", 0, 0.500000000000000),
        ("exp", 0, -1.065687335761845), ("exp", 1, 1.068486941019387), ("slerp", 2, 3, 0.594375000000000),
        ("exp", 0, -0.947054029524533), ("exp", 1, -1.065495848810696), ("exp", 4, 1.066666666666667),
        ("slerp", 5, 6, 0.917544541224197), ("slerp", 8, 7, 0.738093750000000),
        ("exp", 1, 0.816060062020566), ("exp", 9, 0.500000000000000),
        ("slerp", 1, 10, 0.505236249690773), ("slerp", 12, 4, 0.393650000000000),
        ("slerp", 13, 11, 0.333333333333333)),
    # five stages; the printed 15-digit coefficients are consistent only to
    # ~1e-11: the output lands at time 1 - 8.8e-11, the source of the ~1e-10
    # error floor under time-step refinement
    "sssprk54": stage_table(
        ("exp", 0, 0.39175222700392), ("exp", 1, 0.663050807590193), ("slerp", 0, 2, 0.55562950593266),
        ("exp", 3, 0.663050807607172), ("slerp", 0, 4, 0.37989814861460),
        ("exp", 5, 0.663050807601060), ("slerp", 0, 6, 0.82192004589227),
        ("exp", 5, 0.663050807634935), ("exp", 7, 0.648818932180072), ("slerp", 0, 3, 0.986961045402787),
        ("slerp", 10, 8, 0.195804064212316), ("slerp", 11, 9, 0.348336757736944)),
    # the SLERP weights 0.4, 0.9, 0.6 are the fold parameters of the convex
    # combinations 0.6 p + 0.4 q_5 and 0.04 p + 0.36 q_5 + 0.6 q_11
    "sssprk104": _ssprk104_table(("slerp", 0, 5, 0.4), ("slerp", 0, 5, 0.9), ("slerp", 12, 11, 0.6)),
    # the same combinations as projected averages, the fast stand-in for their
    # Frechet mean, whose defect caps the scheme at second order; a weighted
    # Karcher mean in their place fit 3.27 -> 3.04 -> 2.85 on vortex4 at
    # h = 0.1/2^0..5, a one-off measurement that no test gates
    "sssprk104-frechet": _ssprk104_table(("mean", ((0.6, 0), (0.4, 5))),
                                         ("mean", ((0.04, 0), (0.36, 5), (0.6, 11)))),
}


def projected_mean(weighted_points: WeightedPoints) -> UnitVector3:
    """Weighted Euclidean average projected back onto the sphere.

    This is the fast stand-in for the Frechet mean; unlike progressive SLERP
    it is not exact on geodesic configurations, deviating at third order in
    the point spread.
    """
    acc = vec.ZERO
    for w, pt in weighted_points:
        acc = vec.axpy(w, pt, acc)
    return project(acc)


STEPPERS: dict[str, Stepper] = {
    "sfe": sfe_step,
    "stvdrk2": stvdrk2_step,
    "stvdrk3": stvdrk3_step,
    **{scheme: partial(stage_step, table) for scheme, table in STAGE_TABLES.items()},
}


def grid_steps(h: float, span: float) -> Tuple[int, bool]:
    """Steps of ``h`` in ``span``, and whether they fill it to 1e-12 relative.

    The one step-grid rule of the package.  Raises ValueError unless h is
    finite and > 0 and span is finite and >= 0.  When the steps do not fill
    the span, the count is the whole steps that fit in it.
    """
    if not (0.0 < h < math.inf and 0.0 <= span < math.inf):
        raise ValueError(f"need a finite step h > 0 and a finite span t_final - t0 >= 0, "
                         f"got h={h!r}, span={span!r}")
    n_float = span / h
    n = round(n_float)
    if (n > 0 or span == 0.0) and abs(n_float - n) <= 1e-12 * max(1.0, n_float):
        return n, True
    return math.floor(n_float), False


def snapshot_steps(h: float, t_final: float, times: Optional[Sequence[float]]) -> Set[int]:
    """Step indices of the snapshot ``times`` on the grid of ``h`` up to ``t_final``.

    t_final and each time (default: t_final alone) must be whole steps of
    ``h`` by ``grid_steps``, with the times' steps in [0, n_steps]; else
    ValueError.
    """
    n_steps, whole = grid_steps(h, t_final)
    if not whole:
        raise ValueError(f"t_final {t_final!r} must be a whole number of steps of {h!r}")
    want = set()
    for t in [t_final] if times is None else times:
        i, whole = grid_steps(h, abs(t))
        if not whole:
            raise ValueError(f"snapshot time {t!r} is not on the step grid")
        if t < 0.0 or i > n_steps:
            raise ValueError(f"snapshot time {t!r} lies outside [0, t_final]")
        want.add(i)
    return want


def integrate_steps(step, f, x0, t0: float, t_final: float, h: float) -> Iterator[Tuple[float, Any]]:
    """The package's one step loop: (t, state) pairs from ``t0`` to ``t_final``.

    ``step(f, x, t, h)`` advances a state by one step.  ``grid_steps`` checks
    h and the span at the call, so a bad one raises ValueError before any
    step; when the span is not a whole number of steps, the final step is
    taken with reduced h.  The pairs, both endpoints included, are computed
    as they are asked for, so memory does not grow with the step count: the
    first pair is (t0, x0), and each later one takes one stepper call.
    Stepper errors are re-raised annotated with the step index and time.
    """
    span = t_final - t0
    n, whole = grid_steps(h, span)
    last = h if whole else span - n * h
    return _step_loop(step, f, x0, t0, t_final, h, n if whole else n + 1, last)


def _step_loop(step, f, x, t0: float, t_final: float, h: float, n: int, last: float):
    t = t0
    yield t, x
    for i in range(n):
        try:
            x = step(f, x, t, h if i < n - 1 else last)
        except SphereRKError as exc:
            raise type(exc)(f"step {i} at t={t!r}: {exc}") from exc
        t = t_final if i == n - 1 else t0 + (i + 1) * h
        yield t, x
