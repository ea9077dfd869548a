"""Command-line harness driver.

Subcommands reproduce the benchmark experiments and emit CSV/JSON for
external plotting:

* ``converge``  - step-size sweeps with fitted orders (CSV + JSON sidecar)
* ``stability`` - distance-to-attractor series on the projected linear model
* ``eikonal``   - wavefront snapshots of the surface-eikonal ray tracer
* ``pharmonic`` - director-curve snapshots of the p-harmonic flow
* ``verify``    - self-checks; exit code 2 on verification failure

Exit codes: 0 success, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import eikonal, harness, pharmonic
from .baselines import BASELINE_STEPPERS
from .errors import SphereRKError
from .integrators import STEPPERS

USAGE_ERROR = 1
VERIFY_FAILURE = 2

_H_SPEC = re.compile(r"^\s*([0-9.eE+-]+)\s*/\s*2\^(\d+)\.\.(\d+)\s*$")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def parse_h_spec(spec: str) -> List[float]:
    """Parse '0.1/2^0..5' into the geometric list, or a comma list of floats."""
    m = _H_SPEC.match(spec)
    if m:
        base = float(m.group(1))
        k0, k1 = int(m.group(2)), int(m.group(3))
        if k1 < k0:
            raise ValueError("step-size range must be increasing")
        return [base * 2.0**-k for k in range(k0, k1 + 1)]
    try:
        return parse_float_list(spec)
    except ValueError as exc:
        raise ValueError(f"cannot parse step-size spec {spec!r}") from exc


def parse_float_list(spec: str) -> List[float]:
    """Parse a comma list of floats; ValueError if it holds no value."""
    values = [float(tok) for tok in spec.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"no value in list {spec!r}")
    return values


def _snapshot_times(args) -> Optional[List[float]]:
    return None if args.snapshots is None else parse_float_list(args.snapshots)


def all_scheme_names() -> List[str]:
    return [*STEPPERS, *BASELINE_STEPPERS]


def _cmd_converge(args) -> int:
    base = harness.vortex_problem() if args.problem == "vortex4" else harness.rotation_problem()
    problem = harness.Problem(base.f, base.p0, args.t_final)
    h_list = parse_h_spec(args.h)
    names = all_scheme_names() if args.scheme == "all" else [args.scheme]
    reports = [harness.run_convergence(name, problem, h_list) for name in names]
    out = Path(args.out)
    if out.suffix == ".json":
        payload = {
            "rows": [
                {"scheme": r.scheme, "h": row.h, "e2": row.e2, "enorm": row.enorm}
                for r in reports
                for row in r.rows
            ],
            "orders": harness.orders_payload(reports),
        }
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    else:
        harness.write_convergence_csv(out, reports)
        harness.write_orders_json(out.with_suffix(".json"), reports)
    for r in reports:
        print(f"{r.scheme}: order_e2={r.order_e2} order_enorm={r.order_enorm}")
    return 0


def _cmd_stability(args) -> int:
    run = harness.run_stability(args.scheme, args.h, n_steps=args.steps)
    harness.write_stability_csv(args.out, run)
    print(f"{run.scheme} h={run.h}: {run.verdict} (final distance {run.distances[-1]:.3e})")
    return 0


def _cmd_eikonal(args) -> int:
    model = eikonal.MODELS[args.velocity]()
    fronts = eikonal.trace_wavefront(
        model,
        (1.0, 0.0, 0.0),
        n_rays=args.rays,
        h=args.dt,
        t_final=args.t_final,
        scheme=args.scheme,
        snapshot_times=_snapshot_times(args),
    )
    eikonal.write_wavefronts_csv(args.out, fronts)
    print(f"wrote {len(fronts)} wavefront snapshot(s) of {args.rays} rays to {args.out}")
    return 0


def _cmd_pharmonic(args) -> int:
    curve = pharmonic.initial_discontinuous_curve(args.nodes)
    dt = args.dt if args.dt is not None else pharmonic.default_dt(curve, args.p, args.eps_reg)
    params = pharmonic.PFlowParams(p=args.p, dt=dt, t_final=args.t_final, eps_reg=args.eps_reg)
    snaps = pharmonic.pflow_evolve(curve, params, order=args.order,
                                   snapshot_times=_snapshot_times(args))
    pharmonic.write_snapshots_csv(args.out, snaps)
    print(f"wrote {len(snaps)} curve snapshot(s) of {args.nodes} nodes to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    if args.target == "appendix-a":
        rep = harness.verify_appendix_a()
        print(
            f"h^2 coefficient: measured {rep.c2_measured:.6e} expected {rep.c2_exact:.6e}\n"
            f"h^4 coefficient: measured {rep.c4_measured:.6e} expected {rep.c4_exact:.6e}\n"
            f"  (commonly quoted closed form {rep.c4_printed:.6e} flips the 16 a^3 b sign)\n"
            f"coupled-speeds norm-defect slope: {rep.coupled_slope:.3f} (expect ~4)"
        )
        ok = rep.passed
    elif args.target == "appendix-b":
        rep = harness.verify_appendix_b()
        print(
            f"angle-recurrence orders: {rep.orders}\n"
            f"ptvdrk3p h^3 error coefficient: {rep.ptvdrk3p_h3_coefficient:.6f} (expect -1/3)"
        )
        ok = rep.passed
    else:  # table2
        rep = harness.verify_table2()
        for name, r in sorted(rep.reports.items()):
            e2 = "none" if r.order_e2 is None else f"{r.order_e2:.3f}"
            enorm = "exact" if r.order_enorm is None else f"{r.order_enorm:.3f}"
            print(f"{name}: order_e2={e2} order_enorm={enorm}")
        if rep.order_failures:
            print(f"order failures: {', '.join(rep.order_failures)}")
        if rep.enorm_failures:
            print(f"norm-error failures: {', '.join(rep.enorm_failures)}")
        ok = rep.passed
    print("PASS" if ok else "FAIL")
    return 0 if ok else VERIFY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sphererk", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("converge", help="convergence sweep with fitted orders")
    p.add_argument("--problem", choices=["vortex4", "rotation"], required=True)
    p.add_argument("--scheme", required=True,
                   help="scheme id or 'all' (%s)" % ", ".join(all_scheme_names()))
    p.add_argument("--t-final", type=float, default=2.0)
    p.add_argument("--h", required=True,
                   help="step sizes: geometric spec like '0.1/2^0..5' or comma list")
    p.add_argument("--out", required=True, help="output path (.csv with .json sidecar, or .json)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("stability", help="distance-to-attractor series")
    p.add_argument("--scheme", required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("eikonal", help="surface-eikonal wavefront tracing")
    p.add_argument("--velocity", choices=sorted(eikonal.MODELS), required=True)
    p.add_argument("--scheme", choices=list(eikonal.COUPLED_STEPPERS), default="stvdrk3",
                   help="coupled scheme; sfe, stvdrk2, stvdrk3 are the sphere-intrinsic ones")
    p.add_argument("--rays", type=int, default=512)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--snapshots", default=None, help="comma list of snapshot times")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eikonal)

    p = sub.add_parser("pharmonic", help="p-harmonic director-curve flow")
    p.add_argument("--p", type=float, choices=[1.0, 2.0], required=True)
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--dt", type=float, default=None,
                   help="time step (default: parabolic bound for the initial curve)")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--eps-reg", type=float, default=1e-6)
    p.add_argument("--order", type=int, choices=[2, 3], default=3)
    p.add_argument("--snapshots", default=None, help="comma list of snapshot times")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pharmonic)

    p = sub.add_parser("verify", help="run a self-check (exit 2 on failure)")
    p.add_argument("--target", choices=["appendix-a", "appendix-b", "table2"], required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (ValueError, OSError, SphereRKError) as exc:
        print(f"sphererk: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
