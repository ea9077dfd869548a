"""Ray tracing for the surface eikonal equation |grad_S2 u| = 1/v on the sphere.

The characteristics of the Hamiltonian
H(x, k) = (v(x)^2 [|k|^2 - (k . x/|x|)^2] - 1) / 2 form the coupled system

    x' = v^2 [k - (x . k) x/|x|],
    k' = v^2 (x . k)/|x| [k - (x . k)/|x| x] - grad(v)/v,
    u' = 1,

with x on the sphere, k the ray direction grad(u) in R^3, and u the travel
time (phase).  u' = 1 gives u = t on every ray, so a front stores only t and
the CSV's u column repeats it.  A coupled scheme is named by one string
(COUPLED_SCHEMES).  The sphere-intrinsic ones, sfe, stvdrk2 and stvdrk3
(``scheme_for_order`` maps 1-3 to them), step x with the exp-map/SLERP
stages while k takes the matching Cartesian TVDRK stages in lock step:
``integrators.tvdrk_step`` runs on the pair (x, k).  Projected and
unprojected Cartesian variants of the x-update are there for comparison runs.

Rays are independent: ``trace_wavefront`` cuts the fan into blocks of
RAY_BLOCK rows, marches each block as (n, 3) arrays through every step, and
runs the blocks on a thread pool sized by the usable CPUs (numpy releases the
interpreter lock inside its loops).  Each row's arithmetic is that of a
one-block march, so the fronts are bit-identical whatever the block count and
worker count; an error in any block is reported as the one-block march
reports it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .batch import check_arc, exp_rows, normalize_rows, row_angle, row_dot, row_norm, slerp_rows
from .errors import DegenerateFrontError
from .geometry import HALF_PI, UnitVector3
from .integrators import snapshot_steps, tvdrk_step

Y31_AMPLITUDE = -0.125 * math.sqrt(21.0 / math.pi)


def y31(theta: float, phi: float):
    """Spherical harmonic -(1/8) sqrt(21/pi) cos(phi) sin(theta) (5 cos^2(theta) - 1).

    theta is the polar angle in [0, pi], phi the azimuth.  The magnitude stays
    below 1, so 1 + y31 is a valid (positive) wave velocity.
    """
    ct = np.cos(theta)
    return Y31_AMPLITUDE * np.cos(phi) * np.sin(theta) * (5.0 * ct * ct - 1.0)


def spherical_to_cartesian(theta: float, phi: float) -> Tuple[float, float, float]:
    st = math.sin(theta)
    return (st * math.cos(phi), st * math.sin(phi), math.cos(theta))


@dataclass(frozen=True)
class VelocityModel:
    """Wave velocity v(x) > 0 with its analytic ambient gradient."""

    name: str
    v: Callable[[np.ndarray], np.ndarray]
    grad_v: Callable[[np.ndarray], np.ndarray]


def constant_model() -> VelocityModel:
    return VelocityModel(
        "const",
        v=lambda x: np.ones(x.shape[:-1]),
        grad_v=lambda x: np.zeros_like(x),
    )


def gaussian_z_model() -> VelocityModel:
    """v = exp(-z^2) as a function of the ambient z coordinate."""

    def v(x: np.ndarray) -> np.ndarray:
        return np.exp(-x[..., 2] ** 2)

    def grad_v(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        out[..., 2] = -2.0 * x[..., 2] * np.exp(-x[..., 2] ** 2)
        return out

    return VelocityModel("expz2", v, grad_v)


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

    return VelocityModel("y31", v, grad_v)


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
    f2 = v^2 (x.k)/|x| [k - (x.k)/|x| x] - grad(v)/v."""
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


# Coupled scheme -> (TVDRK order, substep, combination, normalize x at the end).
# Spherical forward Euler needs no SLERP, so its stage arc may reach pi.
_COUPLED = {
    "sfe": (1, partial(_exp_pair, limit=math.pi), None, False),
    "pfe": (1, _axpy_pair, None, True),
    "stvdrk2": (2, _exp_pair, _slerp_pair, False),
    "tvdrk2": (2, _axpy_pair, _lerp_pair, False),
    "ptvdrk2": (2, _axpy_pair, _lerp_pair, True),
    "stvdrk3": (3, _exp_pair, _slerp_pair, False),
    "tvdrk3": (3, _axpy_pair, _lerp_pair, False),
    "ptvdrk3": (3, _axpy_pair, _lerp_pair, True),
}


def _step_rows(scheme: str, model: VelocityModel, x: np.ndarray, k: np.ndarray, h: float):
    """Advance all rays by one step of the requested coupled scheme."""
    order, euler, combine, normalize = _COUPLED[scheme]
    x, k = tvdrk_step(order, euler, combine, model, (x, k), 0.0, h)
    return (normalize_rows(x) if normalize else x), k


COUPLED_SCHEMES = tuple(_COUPLED)

_ORDER_TO_SCHEME = {1: "sfe", 2: "stvdrk2", 3: "stvdrk3"}


def scheme_for_order(order: int) -> str:
    """Sphere-intrinsic coupled scheme of the given order."""
    return _ORDER_TO_SCHEME[order]


def initial_rays(model: VelocityModel, xs: UnitVector3, n_rays: int):
    """Launch directions fanned uniformly in the tangent frame (e2, e3) at xs.

    |k| = 1/v(xs) makes the initial data satisfy H = 0 exactly.
    """
    if n_rays < 3:
        raise ValueError("need at least 3 rays to form a wavefront")
    xs_arr = np.asarray(xs, dtype=float)
    # orthonormal tangent frame at xs
    helper = np.array([0.0, 1.0, 0.0])
    if abs(np.dot(helper, xs_arr)) > 0.9:
        helper = np.array([0.0, 0.0, 1.0])
    t1 = helper - np.dot(helper, xs_arr) * xs_arr
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(xs_arr, t1)
    ang = 2.0 * math.pi * np.arange(n_rays) / n_rays
    dirs = np.cos(ang)[:, None] * t1 + np.sin(ang)[:, None] * t2
    v0 = float(model.v(xs_arr[None, :])[0])
    x0 = np.tile(xs_arr, (n_rays, 1))
    return x0, dirs / v0


# Rays per block of the march.  Blocks step independently, on as many threads
# as there are usable CPUs, and a block's temporaries stay small enough for
# the cache.
RAY_BLOCK = 16384


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    if scheme not in COUPLED_SCHEMES:
        raise ValueError(f"unknown coupled scheme {scheme!r}")
    n_steps, want = snapshot_steps(h, t_final, snapshot_times)
    x0, k0 = initial_rays(model, xs, n_rays)
    snaps = sorted(want)
    front_x = {i: np.empty_like(x0) for i in snaps}
    front_k = {i: np.empty_like(k0) for i in snaps}

    def march(rows: slice) -> None:
        x, k = x0[rows], k0[rows]
        for i in range(n_steps + 1):
            if i:
                x, k = _step_rows(scheme, model, x, k, h)
            if i in front_x:
                front_x[i][rows] = x
                front_k[i][rows] = k

    blocks = [slice(j, j + RAY_BLOCK) for j in range(0, n_rays, RAY_BLOCK)]
    workers = min(_usable_cpus(), len(blocks))
    try:
        if workers == 1:
            for rows in blocks:
                march(rows)
        else:
            # imported here: concurrent.futures loads logging, which every
            # other command importing this module would pay for
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(workers) as pool:
                list(pool.map(march, blocks))
    except Exception:
        if len(blocks) == 1:
            raise
        # A block reports its own first failure (a stage arc is the block's
        # maximum); march all rows as one block to raise what that reports.
        march(slice(None))
    return [Wavefront(t=i * h, x=front_x[i], k=front_k[i]) for i in snaps]


def wavefront_E2(front: Wavefront, xs: UnitVector3) -> float:
    """Arc-length weighted L2 deviation of the front from the exact circle.

    For unit velocity the exact wavefront at the front's time t is the circle
    of geodesic radius t about the source xs; the error integrand
    (t - d(x, xs))^2 is integrated over the closed ray polyline by the
    trapezoidal rule with geodesic segment lengths.
    """
    x = front.x
    xs_arr = np.asarray(xs, dtype=float)
    g = (front.t - row_angle(x, xs_arr)) ** 2
    seg = row_angle(x, np.roll(x, -1, axis=0))
    total = float(np.sum(seg))
    if total < 1e-12:
        raise DegenerateFrontError("wavefront polyline has zero length")
    integral = float(np.sum(seg * 0.5 * (g + np.roll(g, -1))))
    return math.sqrt(integral)


# Rows per slice converted to Python floats while writing a front, so the
# transient lists stay small however many rays the front has.
CSV_CHUNK_ROWS = 4096


def write_wavefronts_csv(path: Union[str, Path], fronts: Sequence[Wavefront]) -> None:
    """Write every front's rows, streamed in slices of CSV_CHUNK_ROWS rays.

    Cells are formatted column by column; .tolist() yields Python floats,
    whose repr is the shortest round trip.  The u cell is the front's t cell.
    """
    with open(path, "w", encoding="utf-8") as out:
        out.write("t,ray_index,x,y,z,kx,ky,kz,u\n")
        for front in fronts:
            t = repr(float(front.t))
            for j0 in range(0, len(front.x), CSV_CHUNK_ROWS):
                j1 = j0 + CSV_CHUNK_ROWS
                coords = front.x[j0:j1].T.tolist() + front.k[j0:j1].T.tolist()
                rows = zip(repeat(t), map(str, range(j0, j1)), *(map(repr, c) for c in coords), repeat(t))
                out.writelines(",".join(row) + "\n" for row in rows)
