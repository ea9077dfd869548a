"""One repetition of one workload, in a fresh interpreter started by run.py.

Usage: python3 perfbench/worker.py ROOT WORKLOAD SEED TRACE OUT_DIR

Prints one JSON object: the timings, counts and checks of the repetition,
the process's peak RSS and, when TRACE is 1, the per-layer figures and spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def host_speed_ms() -> float:
    """Milliseconds for a fixed pure-Python loop: a record of the host's speed, not a metric."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += i * 0.5
    return 1000.0 * (time.perf_counter() - t0)


def main(argv) -> int:
    root, workload, seed, trace, out = argv
    import numpy
    import sphererk

    src = (Path(root) / "src").resolve()
    if src not in Path(sphererk.__file__).resolve().parents:
        print(f"worker: sphererk imported from {sphererk.__file__}, not from {src}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS, Result

    calib_ms = host_speed_ms()
    res = Result()
    tracer = Tracer().install() if trace == "1" else None
    res.tracer = tracer
    try:
        WORKLOADS[workload](int(seed), Path(out), res)
    finally:
        if tracer is not None:
            tracer.restore()
    report = {
        "wall_s": res.wall_s,
        "driver_s": res.driver_s,
        "segments": res.segments,
        "point_steps": res.point_steps,
        "attempted": res.attempted,
        "failed": res.failed,
        "failures": res.failures[:10],
        "quality": res.quality,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host_calib_ms": calib_ms,
        "versions": {"numpy": numpy.__version__, "sphererk": sphererk.__version__},
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["spans"] = tracer.spans
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
