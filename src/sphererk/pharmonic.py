"""p-harmonic flow of a sphere-valued director curve on a periodic 1-D grid.

The curve m(s) with |m| = 1 evolves by the projected p-Laplacian flow

    m_t = m x (Delta_p m x m) = (I - m m^T) Delta_p m,

the double cross product keeping the velocity tangent so the nodewise
sphere-intrinsic steppers preserve |m_j| = 1 exactly.  The p-Laplacian is
discretized in conservative flux form with half-grid weights

    Delta_p m_j ~ D_-( w_{j+1/2} D_+ m_j ),
    w_{j+1/2} = (|D_+ m_j|^2 + eps^2)^{(p-2)/2},

which reduces to the standard second difference at p = 2.  For p = 1 the
weight is regularized (the flow is singular elliptic) and sharp jumps move
slowly while small oscillations relax; for p = 2 jumps smooth out almost
immediately.

``pflow_evolve`` steps the whole curve with ``tvdrk_step`` over exp-map and
SLERP rows, through the package's one step loop,
``integrators.integrate_steps``, and keeps only the snapshot states.  It
marches a column-major (Fortran-ordered) copy of the nodes, which every row
kernel and the periodic shifts keep, so each ufunc streams whole columns;
the snapshots are row-major copies with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .batch import check_arc, exp_rows, row_angle, row_dot, row_norm, slerp_rows
from .geometry import HALF_PI, UNIT_NORM_TOL
from .integrators import integrate_steps, snapshot_steps, tvdrk_step


@dataclass(frozen=True)
class DirectorCurve:
    """N unit-vector samples m_j ~ m(j/N) on the periodic parameter grid."""

    m: np.ndarray  # (N, 3)

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 2 or m.shape[1] != 3 or m.shape[0] < 4:
            raise ValueError("director curve needs an (N, 3) array with N >= 4")
        # written so that a NaN or infinite sample fails the check as well
        if not np.max(np.abs(row_norm(m) - 1.0)) <= UNIT_NORM_TOL:
            raise ValueError("director samples must be unit vectors")
        object.__setattr__(self, "m", m)

    @property
    def n_nodes(self) -> int:
        return self.m.shape[0]

    @property
    def ds(self) -> float:
        return 1.0 / self.m.shape[0]


@dataclass(frozen=True)
class PFlowParams:
    p: float
    dt: float
    t_final: float
    eps_reg: float = 1e-6


def initial_discontinuous_curve(n_nodes: int) -> DirectorCurve:
    """Closed curve built from two sinusoidal branches on the planes x = +-1.

    Branch one projects (1, y, 2 sin(pi y)) for y sweeping [-1, 1]; branch two
    projects (-1, y, -2 sin(pi y)) sweeping back.  The concatenation carries a
    jump at each junction (the seam after indices n/2 - 1 and n - 1).
    """
    if n_nodes % 2 != 0:
        raise ValueError("node count must be even")
    half = n_nodes // 2
    y_up = -1.0 + 2.0 * np.arange(half) / half
    y_down = 1.0 - 2.0 * np.arange(half) / half
    first = np.stack([np.ones(half), y_up, 2.0 * np.sin(math.pi * y_up)], axis=1)
    second = np.stack([-np.ones(half), y_down, -2.0 * np.sin(math.pi * y_down)], axis=1)
    pts = np.vstack([first, second])
    return DirectorCurve(pts / np.linalg.norm(pts, axis=1, keepdims=True))


def _next(a: np.ndarray) -> np.ndarray:
    """Periodic shift: row j holds a_{j+1}, the last row a_0."""
    return np.concatenate((a[1:], a[:1]))


def _gradient_weights(m: np.ndarray, ds: float, p: float, eps_reg: float) -> Tuple[np.ndarray, np.ndarray]:
    d_plus = (_next(m) - m) / ds
    w = (row_dot(d_plus, d_plus) + eps_reg * eps_reg) ** ((p - 2.0) / 2.0)
    return d_plus, w


def _lap_rows(m: np.ndarray, ds: float, p: float, eps_reg: float) -> np.ndarray:
    d_plus, w = _gradient_weights(m, ds, p, eps_reg)
    flux = w[:, None] * d_plus
    return (flux - np.concatenate((flux[-1:], flux[:-1]))) / ds


def _velocity(m: np.ndarray, ds: float, p: float, eps_reg: float) -> np.ndarray:
    """Tangential part lap - (m . lap) m of the p-Laplacian at every node."""
    lap = _lap_rows(m, ds, p, eps_reg)
    return lap - row_dot(m, lap)[:, None] * m


def _exp_euler(flow: Tuple[float, float, float], q: np.ndarray, s: float, h: float) -> np.ndarray:
    """Exp-map substep of every node; ``flow`` is (ds, p, eps_reg)."""
    v = _velocity(q, *flow)
    check_arc(h, v, HALF_PI, "node")
    v *= h
    return exp_rows(q, v)


def p_energy(curve: DirectorCurve, p: float) -> float:
    """Discrete p-energy (1/p) sum |D_+ m_j|^p ds."""
    g = row_norm((_next(curve.m) - curve.m) / curve.ds)
    return float(np.sum(g**p) * curve.ds / p)


def node_jumps(curve: DirectorCurve) -> np.ndarray:
    """Geodesic distances between consecutive nodes (wrapping around)."""
    return row_angle(curve.m, _next(curve.m))


def total_variation(curve: DirectorCurve) -> float:
    return float(np.sum(node_jumps(curve)))


def default_dt(curve: DirectorCurve, p: float, eps_reg: float = 1e-6) -> float:
    """Parabolic step bound 0.1 ds^2 scaled by the largest initial flux weight.

    At p = 2 the weight is identically 1; for p < 2 flat regions raise the
    effective diffusivity to at most the regularized weight of the initial
    curve, which this default accounts for.
    """
    _, w = _gradient_weights(curve.m, curve.ds, p, eps_reg)
    return 0.1 * curve.ds**2 / max(1.0, float(np.max(w)))


def pflow_evolve(
    curve0: DirectorCurve,
    params: PFlowParams,
    order: int = 3,
    snapshot_times: Optional[Sequence[float]] = None,
) -> List[Tuple[float, DirectorCurve]]:
    """Evolve the curve with the nodewise sphere-intrinsic stepper.

    The semi-discrete velocity is recomputed from the whole stage curve, so
    the method-of-lines system is advanced with the second- or third-order
    scheme acting componentwise through exp-map and SLERP rows, stepped
    through ``integrate_steps``.  Snapshots (defaulting to the final state
    only) must land on the step grid; only they are kept.
    """
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    dt = params.dt
    want = snapshot_steps(dt, params.t_final, snapshot_times)
    step = partial(tvdrk_step, order, _exp_euler, slerp_rows)
    flow = (curve0.ds, params.p, params.eps_reg)
    steps = integrate_steps(step, flow, np.asfortranarray(curve0.m), 0.0, params.t_final, dt)
    # ndarray.copy() is row-major whatever the march's layout
    return [(i * dt, DirectorCurve(m.copy())) for i, (_, m) in enumerate(steps) if i in want]


def write_snapshots_csv(
    path: Union[str, Path], snapshots: Sequence[Tuple[float, DirectorCurve]]
) -> None:
    lines = ["t,s,mx,my,mz"]
    for t, curve in snapshots:
        t, n = float(t), curve.n_nodes
        # .tolist() yields Python floats, whose repr is the shortest round trip
        for j, (mx, my, mz) in enumerate(curve.m.tolist()):
            lines.append(f"{t!r},{j / n!r},{mx!r},{my!r},{mz!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
