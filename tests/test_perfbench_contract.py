"""The benchmark's tracer and workloads still fit the package.

``perfbench/worker.py`` imports both modules even for untraced runs, so a
renamed function or registry in ``sphererk`` would break every benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

from sphererk import baselines, batch, eikonal, geometry, harness, integrators, pharmonic

ROOT = Path(__file__).resolve().parents[1]
# every module and registry the tracer patches
MODULES = (baselines, batch, eikonal, geometry, harness, integrators, pharmonic)
REGISTRIES = (integrators.STEPPERS, baselines.BASELINE_STEPPERS, eikonal.MODELS)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return [dict(vars(m)) for m in MODULES] + [dict(r) for r in REGISTRIES]


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_tracer_installs_and_restores_every_patch():
    before = _snapshot()
    tracer = _load("tracer").Tracer().install()
    try:
        assert not any(_same(a, b) for a, b in zip(before, _snapshot()))
    finally:
        tracer.restore()
    assert all(_same(a, b) for a, b in zip(before, _snapshot()))


def test_workload_names_match_the_benchmark_declaration():
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(_load("workloads").WORKLOADS) == sorted(declared)
