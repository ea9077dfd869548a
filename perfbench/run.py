"""Layered benchmark of sphererk over four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload converge_all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

The load is a closed loop with one client: repetitions of one workload run
one after another, each in a fresh interpreter with BLAS threads pinned to 1,
so the harness's reference cache starts cold as it does for every CLI user
and peak RSS is a per-workload figure.  Repetitions start while there is time
left in ``--seconds`` (at least MIN_REPS of them); figures are medians over
the repetitions.  Wall and driver time are the sum, over the workload's timed
calls, of each call's median across the repetitions, so a pause of the host
that stalls a few calls of one repetition does not move the whole repetition's
figure.  Set-up time is a fresh interpreter's ``import sphererk``,
probed PROBES_PER_REP times before every repetition and at least
MIN_SETUP_PROBES times in all.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
and traced repetitions and reports the per-layer metrics of the traced ones
together with the tracing overhead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Every run
also updates a results file (``--out``) that carries provenance and the
numerical figures the output checks are made from; ``--compare`` prints two
such files side by side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("converge_all", "stability_sweep", "eikonal_wide", "pharmonic_curve")
MIN_REPS = 3
MIN_TRACED_REPS = 2
MIN_SETUP_PROBES = 15
PROBES_PER_REP = 2
CHILD_TIMEOUT_S = 150.0
DEFAULT_OUT = ROOT / ".perfbench" / "results.json"

median = statistics.median

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "point_steps_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".errors", ".rows")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ns_per_row"):
        return "ns"
    if name.endswith(("bytes", "bytes_computed")):
        return "B"
    return "ratio"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: List[str], env: Dict[str, str]) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion; a timed-out child is killed and reaped."""
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child {args[:2]} timed out after {CHILD_TIMEOUT_S} s")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def setup_probe(env: Dict[str, str]) -> float:
    """Seconds for a fresh interpreter to start, ``import sphererk`` and exit."""
    t0 = time.perf_counter()
    done = run_child(["-c", "import sphererk"], env)
    dt = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"import sphererk failed:\n{done.stderr}")
    return dt


def repetition(workload: str, seed: int, traced: bool, tmp: Path, env) -> dict:
    done = run_child([str(HERE / "worker.py"), str(ROOT), workload, str(seed),
                      "1" if traced else "0", str(tmp)], env)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# --- provenance -----------------------------------------------------------------


def git_commit() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sphererk").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_info() -> dict:
    info: dict = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches: Dict[str, dict] = {}
    seen = set()
    for index in sorted(Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        if (name, shared) in seen:
            continue
        seen.add((name, shared))
        entry = caches.setdefault(name, {"size": size, "instances": 0})
        entry["instances"] += 1
    info["caches"] = caches
    return info


def provenance(seed: int, reps: int, versions: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "repeats": reps,
        "python": platform.python_version(),
        **versions,
        "cpu": cpu_info(),
        "host": platform.platform(),
    }


# --- one benchmark run ------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    env = child_env()
    setup_probe(env)  # first import may write bytecode caches; not counted
    probes: List[float] = []
    plain: List[dict] = []
    traced: List[dict] = []
    durations: List[float] = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        enough = len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_TRACED_REPS)
        if enough and elapsed + median(durations) > seconds:
            break
        t0 = time.perf_counter()
        probes.extend(setup_probe(env) for _ in range(PROBES_PER_REP))
        want_traced = trace and len(traced) < len(plain)
        rep = repetition(workload, seed, want_traced, tmp, env)
        (traced if want_traced else plain).append(rep)
        durations.append(time.perf_counter() - t0)
    while len(probes) < MIN_SETUP_PROBES:
        probes.append(setup_probe(env))
    return {"probes": probes, "plain": plain, "traced": traced}


def call_medians(reps: List[dict]) -> Optional[Tuple[float, float]]:
    """Wall and driver seconds of one repetition, each timed call taken at its median.

    A seed makes the same sequence of timed calls in every repetition, so the
    i-th segment of one repetition is the same call as the i-th of another.
    Returns None when the sequences differ, which only a failing call causes.
    """
    seqs = [r["segments"] for r in reps]
    if len({len(seq) for seq in seqs}) != 1 or any(
            [d for _, d in seq] != [d for _, d in seqs[0]] for seq in seqs):
        return None
    calls = [(median(dt for dt, _ in col), col[0][1]) for col in zip(*seqs)]
    return sum(dt for dt, _ in calls), sum(dt for dt, driver in calls if driver)


def summarise(workload: str, seed: int, trace: bool, raw: dict) -> dict:
    plain, traced, reps = raw["plain"], raw["traced"], raw["plain"] + raw["traced"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [f for r in reps for f in r["failures"]][:10]
    quality = plain[0]["quality"]
    if any(r["quality"] != quality for r in reps):
        problems.append("numerical figures differ between repetitions of one seed")
    wall = [r["wall_s"] for r in plain]
    timed = call_medians(plain)
    if timed is None:
        problems.append("timed calls differ between repetitions of one seed")
        timed = median(wall), median([r["driver_s"] for r in plain])
    wall_s, driver_s = timed
    extra = {
        "failed_frac": failed / attempted,
        **quality,
        "reps": len(plain),
        "traced_reps": len(traced),
        "setup_probes": len(raw["probes"]),
        "rep_wall_s_median": median(wall),
        "rep_wall_s_min": min(wall),
        "rep_wall_s_max": max(wall),
        "driver_s": driver_s,
        "host_calib_ms": median([r["host_calib_ms"] for r in reps]),
        "point_steps": plain[0]["point_steps"],
    }
    if trace:
        layers = [r["layers"] for r in traced]
        calls = {k: v for k, v in layers[0].items() if k.endswith(".calls")}
        if any({k: v for k, v in m.items() if k.endswith(".calls")} != calls for m in layers):
            problems.append("per-layer call counts differ between traced repetitions")
        # median_low keeps counts whole: it always picks an observed value
        values = {k: statistics.median_low([m[k] for m in layers]) for k in layers[0]}
        traced_timed = call_medians(traced)
        values["trace.wall_s"] = (traced_timed[0] if traced_timed is not None
                                  else median([r["wall_s"] for r in traced]))
        values["trace.untraced_wall_s"] = wall_s
        # Each traced repetition follows a plain one; pairs adjacent in time
        # share the host's speed more often than the two medians do.
        values["trace.overhead_s"] = median(
            [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": median(raw["probes"]),
            "wall_s": wall_s,
            "point_steps_per_s": plain[0]["point_steps"] / driver_s,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return {
        "workload": workload,
        "trace": int(trace),
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "extra": extra,
        "spans": traced[-1]["spans"] if traced else [],
        "provenance": provenance(seed, len(reps), plain[0]["versions"]),
    }


def save(record: dict, path: Path) -> None:
    """Insert the record into the results file, replacing one for the same workload and mode."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = {"runs": []}
    data["runs"] = [r for r in data["runs"]
                    if (r["workload"], r["trace"]) != (record["workload"], record["trace"])]
    data["runs"].append(record)
    data["runs"].sort(key=lambda r: (WORKLOADS.index(r["workload"]), r["trace"]))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def print_summary(rec: dict) -> None:
    ex = rec["extra"]
    print(f"{rec['workload']} seed={rec['provenance']['seed']} trace={rec['trace']} "
          f"reps={ex['reps']}+{ex['traced_reps']} traced setup_probes={ex['setup_probes']}")
    for name, m in rec["metrics"].items():
        if m["value"]:
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for name in ("failed_frac", "norm_defect_max", "order_dev_max", "threshold_err",
                 "hamiltonian_max"):
        if name in ex:
            print(f"  {name:48s} {ex[name]:.6g}")
    for problem in rec["problems"]:
        print(f"  FAILED: {problem}")


# --- compare mode -------------------------------------------------------------------


def _load_runs(path: str) -> Dict[tuple, dict]:
    """Map (workload, trace) to {figure: (value, unit)} for every record of a results file."""
    runs = {}
    for r in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        figures = {k: (m["value"], m["unit"]) for k, m in r["metrics"].items()}
        figures.update({k: (v, "") for k, v in r["extra"].items()})
        runs[(r["workload"], r["trace"])] = figures
    return runs


def compare(old_path: str, new_path: str) -> int:
    old, new = _load_runs(old_path), _load_runs(new_path)

    def fmt(v) -> str:
        return f"{v:12.5g}" if v is not None else f"{'-':>12s}"

    print(f"{'workload':16s} {'metric':48s} {'old':>12s} {'new':>12s} {'new/old':>9s}  unit")
    for key in sorted(set(old) | set(new), key=lambda k: (WORKLOADS.index(k[0]), k[1])):
        if key not in old or key not in new:
            print(f"{key[0]:16s} (trace={key[1]}) only in {'new' if key in new else 'old'}")
            continue
        a, b = old[key], new[key]
        for name in dict.fromkeys([*a, *b]):
            va, unit = a.get(name, (None, ""))
            vb, unit = b.get(name, (None, unit))
            ratio = f"{vb / va:9.3f}" if va and vb is not None else f"{'-':>9s}"
            print(f"{key[0]:16s} {name:48s} {fmt(va)} {fmt(vb)} {ratio}  {unit}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="results file to update (default: %(default)s)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "sphererk" / "__init__.py").is_file():
        print(f"run.py: no sphererk sources under {SRC}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        raw = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = summarise(args.workload, args.seed, bool(args.trace), raw)
    save(record, args.out)
    print_summary(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
