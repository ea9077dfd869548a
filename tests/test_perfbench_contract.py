"""The benchmark's tracer and workloads still fit the package.

``perfbench/worker.py`` imports both modules even for untraced runs, so a
renamed function or registry in ``sphererk`` would break every benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

from sphererk import baselines, batch, eikonal, fields, geometry, harness, integrators, pharmonic

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


# Schemes whose combinations are SLERPs; sfe has none, and the frechet
# variant combines by projected averages.
SLERP_SCHEMES = set(integrators.STEPPERS) - {"sfe", "sssprk104-frechet"}


def test_tracer_sees_every_step_through_the_tables():
    # a table entry that bound a primitive at import would hide its calls
    evals = [0]
    vortex = fields.vortex4_field()

    def raw(p, t):
        evals[0] += 1
        return vortex.raw(p, t)

    f = fields.VelocityField(raw)
    p = (0.6, 0.0, 0.8)
    tracer = _load("tracer").Tracer().install()
    tracer.active = True
    try:
        def one_step(step):
            evals[0] = 0
            before = {name: s[0] for name, s in tracer.stats.items()}
            step(f, p, 0.0, 0.01)
            return {name: s[0] - before[name] for name, s in tracer.stats.items()}

        for scheme in list(baselines.BASELINE_STEPPERS):
            calls = one_step(baselines.BASELINE_STEPPERS[scheme])
            assert (calls["baselines.step"], calls["integrators.step"]) == (1, 0), scheme
            # every stage projects its argument; projected schemes also project outputs
            if scheme in baselines.ON_SPHERE:
                assert calls["geometry.project"] > evals[0], scheme
            else:
                assert calls["geometry.project"] == evals[0], scheme
        for scheme in list(integrators.STEPPERS):
            calls = one_step(integrators.STEPPERS[scheme])
            assert (calls["integrators.step"], calls["baselines.step"]) == (1, 0), scheme
            # each field value drives at least one exp-map substep
            assert calls["geometry.exp_raw"] >= evals[0] > 0, scheme
            assert (calls["geometry.slerp"] > 0) == (scheme in SLERP_SCHEMES), scheme
    finally:
        tracer.active = False
        tracer.restore()
