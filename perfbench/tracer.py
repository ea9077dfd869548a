"""Per-layer tracing by wrapping the public functions of each ``sphererk`` module.

Modules import names with ``from ... import``, so every wrapper is installed
at each lookup site that the workloads reach, and every replaced name is put
back by :meth:`Tracer.restore`.  Nothing under ``src/`` changes.

Calls are aggregated per layer name into a count, total time, self time and
the number of ``SphereRKError``\\ s that crossed the boundary; the ~10^6 leaf
calls of a ``converge_all`` run therefore take constant memory.  Driver-level
calls also record a span (id, parent id, name, start, end).  A wrapper only
records while ``active`` is set, which the workloads do around their timed
segments, so input generation and output checks stay out of the figures.

Layers with no metrics of their own, by design: ``vec`` (0.1 us tuple helpers
a wrapper would swamp; their time counts in their callers' self time),
``quaternion`` (a parity oracle on no workload's path) and ``cli`` (argument
parsing only).
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Callable, Dict, List, Optional

from sphererk import baselines, batch, eikonal, fields, geometry, harness, integrators, pharmonic
from sphererk.errors import SphereRKError

clock = time.perf_counter

# Bytes a row kernel touches per row: p, s (or q) and the result, 3 float64 each.
ROW_BYTES = 3 * 24

LEAF = (
    "geometry.exp_raw",
    "geometry.slerp",
    "geometry.project",
    "fields.vortex4.raw",
    "fields.projected_linear.raw",
    "integrators.step",
    "baselines.step",
    "batch.exp_rows",
    "batch.slerp_rows",
    "eikonal.model",
)
DRIVER = (
    "integrators.integrate_steps",
    "harness.reference_endpoint",
    "harness.run_convergence",
    "harness.run_stability",
    "harness.fit_order",
    "harness.write_convergence_csv",
    "harness.write_orders_json",
    "harness.write_stability_csv",
    "eikonal.trace_wavefront",
    "eikonal.write_wavefronts_csv",
    "pharmonic.pflow_evolve",
    "pharmonic.write_snapshots_csv",
)
LAYERS = LEAF + DRIVER


class Tracer:
    def __init__(self) -> None:
        self.active = False
        # name -> [calls, total_s, self_s, errors]
        self.stats: Dict[str, List[float]] = {name: [0, 0.0, 0.0, 0] for name in LAYERS}
        self.counts: Dict[str, float] = {
            "harness.reference_endpoint.hits": 0,
            "batch.exp_rows.rows": 0,
            "batch.slerp_rows.rows": 0,
            "eikonal.write_wavefronts_csv.bytes": 0,
            "pharmonic.write_snapshots_csv.bytes": 0,
        }
        self.spans: List[tuple] = []
        self._child = [0.0]  # time covered by child calls, one entry per open call
        self._open_spans: List[Optional[int]] = [None]
        self._undo: List[Callable[[], None]] = []

    # --- wrapping -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped to aggregate its calls under ``name``.

        ``before(args)`` runs first and its value goes to ``after(token, args, out)``,
        which runs once the call returned; both count as tracing overhead.
        """
        stat = self.stats[name]
        child = self._child
        spans = self._open_spans if name in DRIVER else None
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(args) if before else None
            if spans is not None:
                sid = len(tracer.spans)
                tracer.spans.append(None)
                parent = spans[-1]
                spans.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except SphereRKError:
                stat[3] += 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                covered = child.pop()
                child[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - covered
                if spans is not None:
                    spans.pop()
                    tracer.spans[sid] = (sid, parent, name, t0, t1)
            if after:
                after(token, args, out)
            return out

        return wrapper

    def _setattr(self, obj, attr: str, value) -> None:
        old = getattr(obj, attr)
        setattr(obj, attr, value)
        self._undo.append(lambda: setattr(obj, attr, old))

    def _setitem(self, d: dict, key, value) -> None:
        old = d[key]
        d[key] = value
        self._undo.append(lambda: d.__setitem__(key, old))

    def _patch(self, name: str, sites, attr: str, **hooks) -> None:
        """Wrap ``attr`` once and install the wrapper in every module of ``sites``."""
        wrapped = self.wrap(name, getattr(sites[0], attr), **hooks)
        for module in sites:
            self._setattr(module, attr, wrapped)

    def _count(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def install(self) -> "Tracer":
        self._patch("geometry.exp_raw", (geometry, integrators), "exp_raw")
        self._patch("geometry.slerp", (geometry, integrators, harness), "slerp")
        self._patch("geometry.project", (geometry, integrators, baselines, harness), "project")

        for table, name in ((integrators.STEPPERS, "integrators.step"),
                            (baselines.BASELINE_STEPPERS, "baselines.step")):
            for key, fn in list(table.items()):
                self._setitem(table, key, self.wrap(name, fn))
        self._patch("integrators.integrate_steps", (integrators, harness), "integrate_steps")

        def with_raw(factory: Callable, name: str) -> Callable:
            def build(*args, **kwargs):
                f = factory(*args, **kwargs)
                return dataclasses.replace(f, raw=self.wrap(name, f.raw))
            return build

        self._setattr(harness, "vortex4_field", with_raw(fields.vortex4_field, "fields.vortex4.raw"))
        self._setattr(harness, "projected_linear_field",
                      with_raw(fields.projected_linear_field, "fields.projected_linear.raw"))

        cache = getattr(harness, "_reference_cache", None)

        def cache_size(args):
            return len(cache) if cache is not None else None

        def cache_hit(size, args, out):
            if size is not None and len(cache) == size:
                self._count("harness.reference_endpoint.hits", 1)

        self._patch("harness.reference_endpoint", (harness,), "reference_endpoint",
                    before=cache_size, after=cache_hit)
        for attr in ("run_convergence", "run_stability", "fit_order", "write_convergence_csv",
                     "write_orders_json", "write_stability_csv"):
            self._patch(f"harness.{attr}", (harness,), attr)

        for attr in ("exp_rows", "slerp_rows"):
            key = f"batch.{attr}.rows"
            self._patch(f"batch.{attr}", (batch, eikonal, pharmonic), attr,
                        after=lambda _, args, out, key=key: self._count(key, args[0].shape[0]))

        def with_model(factory: Callable) -> Callable:
            def build():
                m = factory()
                return dataclasses.replace(m, v=self.wrap("eikonal.model", m.v),
                                           grad_v=self.wrap("eikonal.model", m.grad_v))
            return build

        for key, factory in list(eikonal.MODELS.items()):
            self._setitem(eikonal.MODELS, key, with_model(factory))

        def file_bytes(key: str) -> Callable:
            return lambda _, args, out: self._count(key, os.path.getsize(args[0]))

        self._patch("eikonal.trace_wavefront", (eikonal,), "trace_wavefront")
        self._patch("eikonal.write_wavefronts_csv", (eikonal,), "write_wavefronts_csv",
                    after=file_bytes("eikonal.write_wavefronts_csv.bytes"))
        self._patch("pharmonic.pflow_evolve", (pharmonic,), "pflow_evolve")
        self._patch("pharmonic.write_snapshots_csv", (pharmonic,), "write_snapshots_csv",
                    after=file_bytes("pharmonic.write_snapshots_csv.bytes"))
        return self

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # --- report ---------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer figures of one traced run, keyed as in BENCHMARK.json."""
        out: Dict[str, float] = {}
        for name, (calls, total_s, self_s, errors) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.errors"] = errors
            if name in DRIVER:
                out[f"{name}.total_s"] = total_s
        calls = self.stats["harness.reference_endpoint"][0]
        out["harness.reference_endpoint.hit_ratio"] = (
            self.counts["harness.reference_endpoint.hits"] / calls if calls else 0.0
        )
        for attr in ("exp_rows", "slerp_rows"):
            rows = self.counts[f"batch.{attr}.rows"]
            out[f"batch.{attr}.rows"] = rows
            out[f"batch.{attr}.ns_per_row"] = (
                1e9 * self.stats[f"batch.{attr}"][2] / rows if rows else 0.0
            )
            out[f"batch.{attr}.bytes_computed"] = rows * ROW_BYTES
        for key in ("eikonal.write_wavefronts_csv.bytes", "pharmonic.write_snapshots_csv.bytes"):
            out[key] = self.counts[key]
        out["trace.self_sum_s"] = sum(s[2] for s in self.stats.values())
        return out
