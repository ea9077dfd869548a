"""Ray tracing for the surface eikonal equation |grad_S2 u| = 1/v on the sphere.

The characteristics of the Hamiltonian
H(x, k) = (v(x)^2 [|k|^2 - (k . x/|x|)^2] - 1) / 2 form the coupled system

    x' = v^2 [k - (x . k) x/|x|],
    k' = v^2 (x . k)/|x| [k - (x . k)/|x| x] - grad(v)/v,
    u' = 1,

with x on the sphere, k the ray direction grad(u) in R^3, and u the travel
time (phase).  u' = 1 gives u = t on every ray, so a front stores only t and
the CSV's u column repeats it.  Each coupled scheme is a ready stepper of the
pair (x, k) in COUPLED_STEPPERS, built as the baselines are, on
``integrators.tvdrk_step``.  The sphere-intrinsic ones, sfe, stvdrk2 and
stvdrk3 (``scheme_for_order`` maps 1-3 to them), step x with exp maps and
SLERPs while k takes Euler steps and linear interpolation in lock step; the
Cartesian ones, for comparison runs, come plain and ``_projected``.

Rays are independent: ``trace_wavefront`` cuts the fan into blocks of
RAY_BLOCK rows, marches each block as (n, 3) arrays through
``integrators.integrate_steps``, keeping only the snapshot steps, and runs
every w-th block on thread w of one per usable CPU (numpy releases the
interpreter lock inside its loops).  Each row's arithmetic is that of a
one-block march, so the fronts are bit-identical whatever the block count and
worker count; an error in any block is reported as the one-block march
reports it.  The march state is column-major (``initial_rays`` builds it so
and every row kernel keeps the layout), so each ufunc streams whole columns
of a block instead of looping over the 3-wide axis of row-major rows; the
bits are the same in either layout.  The fronts are copied out row-major;
``wavefront_rows.write_wavefronts_csv``, bound here too, writes them as CSV.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence

import numpy as np

from .batch import check_arc, exp_rows, normalize_rows, row_dot, row_norm, slerp_rows
from .errors import NonFiniteStateError
from .geometry import HALF_PI, UnitVector3, check_on_sphere
from .integrators import integrate_steps, snapshot_steps, tvdrk_step
from .wavefront_rows import usable_cpus, write_wavefronts_csv  # noqa: F401 (the writer, bound here)

Y31_AMPLITUDE = -0.125 * math.sqrt(21.0 / math.pi)


@dataclass(frozen=True)
class VelocityModel:
    """Wave velocity v(x) > 0 with its analytic ambient gradient."""

    v: Callable[[np.ndarray], np.ndarray]
    grad_v: Callable[[np.ndarray], np.ndarray]


def constant_model() -> VelocityModel:
    return VelocityModel(v=lambda x: np.ones(x.shape[:-1]), grad_v=lambda x: np.zeros_like(x))


def gaussian_z_model() -> VelocityModel:
    """v = exp(-z^2) as a function of the ambient z coordinate."""

    def v(x: np.ndarray) -> np.ndarray:
        return np.exp(-x[..., 2] ** 2)

    def grad_v(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        out[..., 2] = -2.0 * x[..., 2] * np.exp(-x[..., 2] ** 2)
        return out

    return VelocityModel(v, grad_v)


def y31_model() -> VelocityModel:
    """v = 1 + Y_3^1 extended off the sphere as a function of direction only.

    On the unit sphere Y_3^1 = c * x (5 z^2 - 1) with c the harmonic's
    amplitude; the degree-0 extension c * x (5 z^2 - r^2) / r^3 keeps the
    spherical-angle definition valid for |x| != 1 and has a closed-form
    gradient (validated against finite differences in the tests).
    """

    # Reciprocal powers of r are built by multiplication: z**3 takes numpy's
    # slow pow path for negative z.
    def v(x: np.ndarray) -> np.ndarray:
        xx, zz = x[..., 0], x[..., 2]
        r2 = row_dot(x, x)
        return 1.0 + Y31_AMPLITUDE * xx * (5.0 * zz * zz - r2) / (r2 * np.sqrt(r2))

    def grad_v(x: np.ndarray) -> np.ndarray:
        xx, yy, zz = x[..., 0], x[..., 1], x[..., 2]
        r2 = row_dot(x, x)
        inv_r = 1.0 / np.sqrt(r2)
        inv_r3 = inv_r / r2
        c = 15.0 * zz * zz * (inv_r3 / r2)  # 15 z^2 / r^5
        out = np.empty_like(x)
        out[..., 0] = (5.0 * zz * zz + xx * xx) * inv_r3 - xx * xx * c - inv_r
        out[..., 1] = xx * yy * (inv_r3 - c)
        out[..., 2] = xx * zz * (11.0 * inv_r3 - c)
        out *= Y31_AMPLITUDE
        return out

    return VelocityModel(v, grad_v)


MODELS = {
    "const": constant_model,
    "expz2": gaussian_z_model,
    "y31": y31_model,
}


@dataclass(frozen=True)
class Wavefront:
    """Snapshot of all rays at the common phase value u = t."""

    t: float
    x: np.ndarray  # (n, 3) ray positions
    k: np.ndarray  # (n, 3) ray directions


def _rhs(model: VelocityModel, x: np.ndarray, k: np.ndarray):
    """Ray right-hand sides f1 = v^2 [k - (x.k) x/|x|] and
    f2 = v^2 (x.k)/|x| [k - (x.k)/|x| x] - grad(v)/v; a non-finite row of
    either raises NonFiniteStateError."""
    v = model.v(x)[..., None]
    v2 = v * v
    xk = row_dot(x, k)
    xk /= row_norm(x)
    xk = xk[..., None]
    bracket = xk * x
    np.subtract(k, bracket, out=bracket)
    f1 = v2 * bracket
    # the bracket array becomes f2; products commute bit for bit
    f2 = bracket
    f2 *= v2 * xk
    f2 -= model.grad_v(x) / v
    if not (np.isfinite(f1).all() and np.isfinite(f2).all()):
        raise NonFiniteStateError("ray stage velocity is not finite")
    return f1, f2


def hamiltonian(model: VelocityModel, x: np.ndarray, k: np.ndarray) -> np.ndarray:
    v = model.v(x)
    kn = row_dot(k, x) / row_norm(x)
    return 0.5 * (v * v * (row_dot(k, k) - kn * kn) - 1.0)


def _exp_pair(model: VelocityModel, y, s: float, h: float, limit: float = HALF_PI):
    """Substep of the pair (x, k): exp map for x, forward Euler for k."""
    x, k = y
    f1, f2 = _rhs(model, x, k)
    check_arc(h, f1, limit, "ray")
    # the right-hand sides are fresh arrays: update them in place
    f1 *= h
    f2 *= h
    f2 += k
    return exp_rows(x, f1), f2


def _axpy_pair(model: VelocityModel, y, s: float, h: float):
    """Forward-Euler substep of the pair (x, k)."""
    x, k = y
    f1, f2 = _rhs(model, x, k)
    f1 *= h
    f1 += x
    f2 *= h
    f2 += k
    return f1, f2


def _lerp(a: np.ndarray, b: np.ndarray, w: float) -> np.ndarray:
    out = (1.0 - w) * a
    out += w * b
    return out


def _slerp_pair(a, b, w: float):
    return slerp_rows(a[0], b[0], w), _lerp(a[1], b[1], w)


def _lerp_pair(a, b, w: float):
    return _lerp(a[0], b[0], w), _lerp(a[1], b[1], w)


def _projected(step):
    """``step`` with its x rows normalized to the sphere at the end."""

    def projected(model: VelocityModel, y, t: float, h: float):
        x, k = step(model, y, t, h)
        return normalize_rows(x), k

    return projected


# Coupled scheme -> its step of the rays (x, k).  Spherical forward Euler
# needs no SLERP, so its stage arc may reach pi.
COUPLED_STEPPERS = {
    "sfe": partial(_exp_pair, limit=math.pi),
    "pfe": _projected(_axpy_pair),
    "stvdrk2": partial(tvdrk_step, 2, _exp_pair, _slerp_pair),
    "tvdrk2": partial(tvdrk_step, 2, _axpy_pair, _lerp_pair),
    "ptvdrk2": _projected(partial(tvdrk_step, 2, _axpy_pair, _lerp_pair)),
    "stvdrk3": partial(tvdrk_step, 3, _exp_pair, _slerp_pair),
    "tvdrk3": partial(tvdrk_step, 3, _axpy_pair, _lerp_pair),
    "ptvdrk3": _projected(partial(tvdrk_step, 3, _axpy_pair, _lerp_pair)),
}

_ORDER_TO_SCHEME = {1: "sfe", 2: "stvdrk2", 3: "stvdrk3"}


def scheme_for_order(order: int) -> str:
    """Sphere-intrinsic coupled scheme of the given order."""
    return _ORDER_TO_SCHEME[order]


def initial_rays(model: VelocityModel, xs: UnitVector3, n_rays: int):
    """Launch directions fanned uniformly in the tangent frame (e2, e3) at xs.

    |k| = 1/v(xs) makes the initial data satisfy H = 0 exactly.  Returns the
    (n_rays, 3) arrays (x0, k0) in column-major (Fortran) order, the layout
    the march steps in.  A source with a NaN or infinite coordinate raises
    NonFiniteStateError, and a finite one off the unit sphere ValueError.
    """
    if n_rays < 3:
        raise ValueError("need at least 3 rays to form a wavefront")
    check_on_sphere(xs, "source point")
    xs_arr = np.asarray(xs, dtype=float)
    # orthonormal tangent frame at xs
    helper = np.array([0.0, 1.0, 0.0])
    if abs(np.dot(helper, xs_arr)) > 0.9:
        helper = np.array([0.0, 0.0, 1.0])
    t1 = helper - np.dot(helper, xs_arr) * xs_arr
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(xs_arr, t1)
    ang = 2.0 * math.pi * np.arange(n_rays) / n_rays
    # built as (3, n) rows and transposed, so no column-major copy is made
    dirs = (t1[:, None] * np.cos(ang) + t2[:, None] * np.sin(ang)).T
    v0 = float(model.v(xs_arr[None, :])[0])
    x0 = np.repeat(xs_arr[:, None], n_rays, axis=1).T
    return x0, dirs / v0


# Rays per block of the march.  Blocks step independently, on as many threads
# as there are usable CPUs, and a block's temporaries stay small enough for
# the cache.
RAY_BLOCK = 16384


def trace_wavefront(
    model: VelocityModel,
    xs: UnitVector3,
    n_rays: int,
    h: float,
    t_final: float,
    scheme: str = "stvdrk3",
    snapshot_times: Optional[Sequence[float]] = None,
) -> List[Wavefront]:
    """March a fan of rays from a point source and snapshot the wavefront.

    ``snapshot_times`` must lie on the step grid (multiples of h); by default
    only the final time is recorded.  The rays march in blocks of
    RAY_BLOCK rows on up to one thread per usable CPU, so the model's ``v``
    and ``grad_v`` may run on several threads at once.
    """
    if scheme not in COUPLED_STEPPERS:
        raise ValueError(f"unknown coupled scheme {scheme!r}")
    step = COUPLED_STEPPERS[scheme]
    snaps = sorted(snapshot_steps(h, t_final, snapshot_times))
    x0, k0 = initial_rays(model, xs, n_rays)
    # row-major fronts: the march's column-major layout stays inside it
    front_x = {i: np.empty(x0.shape) for i in snaps}
    front_k = {i: np.empty(k0.shape) for i in snaps}

    def march(rows: slice) -> None:
        steps = integrate_steps(step, model, (x0[rows], k0[rows]), 0.0, t_final, h)
        for i, (_, (x, k)) in enumerate(steps):
            if i in front_x:
                front_x[i][rows] = x
                front_k[i][rows] = k

    blocks = [slice(j, j + RAY_BLOCK) for j in range(0, n_rays, RAY_BLOCK)]
    workers = min(usable_cpus(), len(blocks))
    failed = []

    def run(stride: List[slice]) -> None:
        try:  # caught here, so no thread ends on an error; reported below
            for rows in stride:
                march(rows)
        except Exception:
            failed.append(stride)

    threads = [threading.Thread(target=run, args=(blocks[w::workers],)) for w in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failed:
        # a block reports its own first failure (a stage arc is its maximum): raise what one block reports
        march(slice(None))
    return [Wavefront(t=i * h, x=front_x[i], k=front_k[i]) for i in snaps]
