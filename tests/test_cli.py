import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import read_csv_floats
from sphererk import eikonal, pharmonic
from sphererk.cli import build_parser, main, parse_h_spec
from sphererk.harness import AppendixBReport, ConvergenceReport, ConvergenceRow, Table2Report


def test_parse_h_spec_geometric():
    hs = parse_h_spec("0.1/2^0..5")
    assert len(hs) == 6
    assert hs[0] == 0.1
    assert hs[-1] == pytest.approx(0.1 / 32)
    # a one-point range is increasing too
    assert parse_h_spec("0.1/2^2..2") == [0.025]


def test_parse_h_spec_comma_list():
    assert parse_h_spec("0.2, 0.1,0.05") == [0.2, 0.1, 0.05]


def test_parse_h_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_h_spec("nope")
    with pytest.raises(ValueError):
        parse_h_spec("0.1/2^5..2")
    with pytest.raises(ValueError):
        parse_h_spec(" , ")


def test_converge_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main([
        "converge", "--problem", "vortex4", "--scheme", "stvdrk2",
        "--h", "0.1/2^0..3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scheme,h,e2,enorm"
    assert len(lines) == 5
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert "stvdrk2" in sidecar
    assert "order_e2" in sidecar["stvdrk2"]


def test_converge_with_one_repeated_step_size_fits_no_order(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main([
        "converge", "--problem", "vortex4", "--scheme", "rk4",
        "--h", "0.1,0.1,0.1,0.1", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out == "rk4: order_e2=None order_enorm=None\n"
    assert json.loads(out.with_suffix(".json").read_text())["rk4"]["order_e2"] is None


def test_converge_runs_each_repeated_step_size_once(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main([
        "converge", "--problem", "vortex4", "--scheme", "stvdrk3",
        "--h", "0.1,0.05,0.025,0.0125,0.0125,0.0125", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out == "stvdrk3: order_e2=3.0085618249752692 order_enorm=None\n"
    assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == [
        "0.1", "0.05", "0.025", "0.0125"]


def test_converge_json_output(tmp_path):
    out = tmp_path / "conv.json"
    code = main([
        "converge", "--problem", "rotation", "--scheme", "rk4",
        "--h", "0.1/2^0..3", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"rows", "orders"}
    assert len(payload["rows"]) == 4


def test_converge_all_schemes(tmp_path):
    out = tmp_path / "all.csv"
    code = main([
        "converge", "--problem", "vortex4", "--scheme", "all",
        "--h", "0.1/2^0..3", "--out", str(out),
    ])
    assert code == 0
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert {"sfe", "stvdrk3", "rk4", "ptvdrk3p", "sssprk104-frechet"} <= set(sidecar)


def test_stability_writes_series(tmp_path):
    out = tmp_path / "stab.csv"
    code = main(["stability", "--scheme", "stvdrk3", "--h", "2.51",
                 "--steps", "50", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scheme,h,step,distance"
    assert len(lines) == 52


def test_eikonal_writes_snapshots(tmp_path):
    out = tmp_path / "front.csv"
    code = main([
        "eikonal", "--velocity", "const", "--scheme", "stvdrk2", "--rays", "8",
        "--dt", "0.1", "--t-final", "0.5", "--snapshots", "0.2,0.5",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 16


def test_pharmonic_eps_reg_reaches_the_default_step(monkeypatch, tmp_path):
    seen = []
    default_dt = pharmonic.default_dt

    def spy(curve, p, eps_reg=1e-6):
        seen.append(eps_reg)
        return default_dt(curve, p, eps_reg)

    monkeypatch.setattr(pharmonic, "default_dt", spy)
    code = main(["pharmonic", "--p", "1", "--nodes", "16", "--t-final", "0", "--eps-reg", "0.5",
                 "--out", str(tmp_path / "flow.csv")])
    assert code == 0
    assert seen == [0.5]


def test_eikonal_scheme_override(tmp_path):
    out = tmp_path / "front.csv"
    code = main([
        "eikonal", "--velocity", "expz2", "--scheme", "tvdrk3", "--rays", "4",
        "--dt", "0.1", "--t-final", "0.2", "--out", str(out),
    ])
    assert code == 0


def test_pharmonic_writes_snapshots(tmp_path):
    out = tmp_path / "flow.csv"
    code = main([
        "pharmonic", "--p", "2", "--nodes", "16", "--dt", "1e-4",
        "--t-final", "1e-3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,s,mx,my,mz"
    assert len(lines) == 1 + 16


@pytest.mark.parametrize("argv", [
    ["eikonal", "--velocity", "const", "--rays", "8", "--t-final", "0.5", "--dt", "0"],
    ["eikonal", "--velocity", "const", "--rays", "8", "--t-final", "0.5", "--dt=-0.1"],
    ["eikonal", "--velocity", "const", "--rays", "8", "--t-final", "0.5", "--dt", "nan"],
    ["eikonal", "--velocity", "const", "--rays", "8", "--t-final", "-0.5", "--dt", "0.1"],
    ["eikonal", "--velocity", "const", "--rays", "8", "--t-final", "0.5", "--dt", "0.1",
     "--snapshots", "0.6"],
    ["pharmonic", "--p", "2", "--nodes", "16", "--t-final", "1e-3", "--dt", "0"],
    ["pharmonic", "--p", "2", "--nodes", "16", "--t-final", "1e-3", "--dt=-1e-3"],
    ["pharmonic", "--p", "2", "--nodes", "16", "--t-final", "1e-3", "--dt", "inf"],
    ["pharmonic", "--p", "2", "--nodes", "16", "--t-final", "1e-3", "--dt", "1e-4",
     "--snapshots", "0,0.5"],
    ["pharmonic", "--p", "2", "--nodes", "16", "--t-final", "1e-5", "--dt", "1e-7",
     "--snapshots", "5.045e-6"],
    ["pharmonic", "--p", "1", "--nodes", "8", "--t-final", "1e-3", "--dt", "1e-4",
     "--eps-reg", "nan"],
    ["stability", "--scheme", "sfe", "--h", "0.1", "--steps", "-3"],
    ["stability", "--scheme", "sfe", "--h=-1", "--steps", "3"],
    ["stability", "--scheme", "sfe", "--h", "0", "--steps", "3"],
    ["stability", "--scheme", "sfe", "--h", "nan", "--steps", "3"],
    ["stability", "--scheme", "sfe", "--h", "inf", "--steps", "3"],
    ["stability", "--scheme", "sfe", "--h", "1e300", "--steps", "3"],
    ["converge", "--problem", "rotation", "--scheme", "sfe", "--h", "0.1", "--t-final", "inf"],
    ["converge", "--problem", "rotation", "--scheme", "sfe", "--h", "inf"],
    ["converge", "--problem", "rotation", "--scheme", "sfe", "--h", ","],
    ["eikonal", "--velocity", "const", "--rays", "8", "--t-final", "0.5", "--dt", "0.1",
     "--snapshots", ","],
    ["pharmonic", "--p", "2", "--nodes", "16", "--t-final", "1e-3", "--dt", "1e-4",
     "--snapshots", " , "],
    ["eikonal", "--velocity", "const", "--rays", "8", "--t-final", "0.5", "--dt", "0.1",
     "--snapshots", ""],
    ["pharmonic", "--p", "2", "--nodes", "16", "--t-final", "1e-3", "--dt", "1e-4",
     "--snapshots", ""],
], ids=["eikonal-dt0", "eikonal-dt-neg", "eikonal-dt-nan", "eikonal-t-neg", "eikonal-snap-late",
        "pharmonic-dt0", "pharmonic-dt-neg", "pharmonic-dt-inf", "pharmonic-snap-late",
        "pharmonic-snap-off-grid", "pharmonic-eps-nan",
        "stability-steps-neg", "stability-h-neg", "stability-h0", "stability-h-nan",
        "stability-h-inf", "stability-h-huge", "converge-t-inf", "converge-h-inf",
        "converge-h-empty", "eikonal-snap-empty", "pharmonic-snap-empty",
        "eikonal-snap-blank", "pharmonic-snap-blank"])
def test_bad_step_settings_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "sphererk: error:" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["converge", "--problem", "vortex4", "--scheme", "bogus", "--h", "0.1"],
    # a typo of a sphere scheme is named as given, not as a missing baseline
    ["stability", "--scheme", "stvdrk5", "--h", "0.1", "--steps", "3"],
], ids=["converge", "stability"])
def test_unknown_scheme_is_a_one_line_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    name = argv[argv.index("--scheme") + 1]
    assert captured.err == f"sphererk: error: unknown scheme {name!r}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_subcommand_option_sets():
    options = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in _subparsers(build_parser()).items()
    }
    assert options == {
        "converge": {"--problem", "--scheme", "--t-final", "--h", "--out"},
        "stability": {"--scheme", "--h", "--steps", "--out"},
        "eikonal": {"--velocity", "--scheme", "--rays", "--dt", "--t-final", "--snapshots", "--out"},
        "pharmonic": {"--p", "--nodes", "--dt", "--t-final", "--eps-reg", "--order", "--snapshots",
                      "--out"},
        "verify": {"--target"},
    }


def _readme_block(heading):
    """The first fenced code block under README's ``heading``, without its fence lines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n{heading}\n", 1)[1].split("```", 2)[1].split("\n", 1)[1]


def _readme_cli_commands():
    """Every command of README's "## CLI" code block, as an argv list without "sphererk"."""
    lines = _readme_block("## CLI").replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("sphererk ")]


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=lambda argv: argv[0])
def test_readme_cli_commands_run(tmp_path, argv):
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / Path(argv[i]).name)
    assert main(argv) == 0


def test_readme_cli_block_covers_every_subcommand():
    assert {argv[0] for argv in _readme_cli_commands()} == set(_subparsers(build_parser()))


def test_readme_library_quick_start_runs():
    namespace = {}
    exec(_readme_block("## Library quick start"), namespace)
    assert abs(math.sqrt(sum(c * c for c in namespace["p_end"])) - 1.0) <= 1e-12


def test_importing_the_package_loads_nothing_else():
    # a fresh `import sphererk` is the benchmark's setup_s: it loads the
    # package alone, not its modules or numpy
    code = ("import sys\n"
            "import sphererk\n"
            "print(sorted(m for m in sys.modules if m.startswith('sphererk') or m == 'numpy'))\n")
    src = os.path.dirname(os.path.dirname(eikonal.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "['sphererk']\n"


def test_usage_error_exit_code():
    assert main(["converge", "--problem", "bogus", "--scheme", "all",
                 "--h", "0.1", "--out", "x.csv"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["converge", "--problem", "vortex4", "--scheme", "sfe",
                 "--h", "garbage", "--out", "x.csv"]) == 1
    assert main(["verify", "--target", "slerp-parity"]) == 1


def _verify_targets():
    verify = _subparsers(build_parser())["verify"]
    return next(a for a in verify._actions if "--target" in a.option_strings).choices


@pytest.mark.parametrize("target", _verify_targets())
def test_verify_targets_pass(target, capsys):
    assert main(["verify", "--target", target]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


def test_verify_failure_exit_code(monkeypatch, capsys):
    import sphererk.cli as cli

    failed = AppendixBReport(orders={"pfe": 9.0}, ptvdrk3p_h3_coefficient=0.0, passed=False)
    monkeypatch.setattr(cli.harness, "verify_appendix_b", lambda: failed)
    assert main(["verify", "--target", "appendix-b"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_table2_prints_a_missing_order_as_a_failure(monkeypatch, capsys):
    import sphererk.cli as cli

    rows = (ConvergenceRow(0.1, 1e-3, 1e-16),)
    reports = {
        "sfe": ConvergenceReport("sfe", rows, None, None, 1e-12),
        "stvdrk2": ConvergenceReport("stvdrk2", rows, 2.01, None, 1e-12),
    }
    failed = Table2Report(reports, ("sfe",), (), passed=False)
    monkeypatch.setattr(cli.harness, "verify_table2", lambda: failed)
    assert main(["verify", "--target", "table2"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "sfe: order_e2=none order_enorm=exact",
        "stvdrk2: order_e2=2.010 order_enorm=exact",
        "order failures: sfe",
        "FAIL",
    ]


def test_eikonal_csv_cells_are_round_trip_floats(tmp_path):
    out = tmp_path / "front.csv"
    assert main([
        "eikonal", "--velocity", "y31", "--rays", "16",
        "--dt", "0.1", "--t-final", "0.3", "--snapshots", "0.1,0.3", "--out", str(out),
    ]) == 0
    fronts = eikonal.trace_wavefront(eikonal.y31_model(), (1.0, 0.0, 0.0), 16, 0.1, 0.3,
                                     scheme=eikonal.scheme_for_order(3), snapshot_times=[0.1, 0.3])
    want = np.concatenate(
        [np.column_stack([np.full(16, f.t), np.arange(16), f.x, f.k, np.full(16, f.t)]) for f in fronts]
    )
    assert np.array_equal(read_csv_floats(out), want)


def test_pharmonic_csv_cells_are_round_trip_floats(tmp_path):
    out = tmp_path / "flow.csv"
    assert main([
        "pharmonic", "--p", "1", "--nodes", "16", "--dt", "1e-4",
        "--t-final", "3e-4", "--snapshots", "0,3e-4", "--out", str(out),
    ]) == 0
    curve = pharmonic.initial_discontinuous_curve(16)
    snaps = pharmonic.pflow_evolve(curve, pharmonic.PFlowParams(p=1.0, dt=1e-4, t_final=3e-4),
                                   snapshot_times=[0.0, 3e-4])
    want = np.concatenate(
        [np.column_stack([np.full(16, t), np.arange(16) / 16, c.m]) for t, c in snaps]
    )
    assert np.array_equal(read_csv_floats(out), want)
