"""The wavefront CSV writer: its rows, its slices and its formatter processes."""

import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import read_csv_floats
from sphererk import cli, eikonal, wavefront_rows
from sphererk.eikonal import Wavefront, constant_model, trace_wavefront, y31_model
from sphererk.wavefront_rows import CSV_CHUNK_ROWS, write_wavefronts_csv

XS = (1.0, 0.0, 0.0)


def test_eikonal_binds_the_writer():
    # the CLI and the benchmark's workload and tracer reach the writer there
    assert eikonal.write_wavefronts_csv is wavefront_rows.write_wavefronts_csv


def test_wavefront_csv(tmp_path):
    model = constant_model()
    fronts = trace_wavefront(model, XS, 8, 0.1, 0.5, scheme="stvdrk2",
                             snapshot_times=[0.2, 0.5])
    out = tmp_path / "front.csv"
    write_wavefronts_csv(out, fronts)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,ray_index,x,y,z,kx,ky,kz,u"
    assert len(lines) == 1 + 2 * 8


def test_wavefront_csv_cells_are_round_trip_floats(tmp_path):
    model = y31_model()
    fronts = trace_wavefront(model, XS, 8, 0.1, 0.5, scheme="stvdrk3", snapshot_times=[0.2, 0.5])
    out = tmp_path / "front.csv"
    write_wavefronts_csv(out, fronts)
    want = np.concatenate(
        [np.column_stack([np.full(8, f.t), np.arange(8), f.x, f.k, np.full(8, f.t)]) for f in fronts]
    )
    assert np.array_equal(read_csv_floats(out), want)


def test_wavefront_csv_chunks_match_whole_front_rows(tmp_path):
    # more rays than two slices and not a multiple of the slice length
    n = 2 * CSV_CHUNK_ROWS + 3
    rng = np.random.default_rng(5)
    fronts = [Wavefront(t=0.1 * i, x=rng.standard_normal((n, 3)), k=rng.standard_normal((n, 3)))
              for i in range(3)]
    out = tmp_path / "front.csv"
    write_wavefronts_csv(out, fronts)
    assert out.read_bytes() == _row_formula(fronts)


def _row_formula(fronts):
    """The CSV as one f-string per row: the bytes the writer produced before it
    formatted in several processes."""
    want = ["t,ray_index,x,y,z,kx,ky,kz,u\n"]
    for f in fronts:
        rows = zip(f.x.tolist(), f.k.tolist())
        want.extend(f"{f.t!r},{j},{px!r},{py!r},{pz!r},{kx!r},{ky!r},{kz!r},{f.t!r}\n"
                    for j, ((px, py, pz), (kx, ky, kz)) in enumerate(rows))
    return "".join(want).encode("utf-8")


@pytest.fixture
def formatters(monkeypatch):
    """Every formatter child the writer starts, kept so a test can see it was reaped."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


def _awkward_fronts():
    """Fronts of 10, 3 and 7 rays: 6 slices of 4 rows at most, cut by 2 workers at
    a front boundary and by 3 workers within front 0 and at a boundary."""
    rng = np.random.default_rng(11)
    fronts = []
    for t, n in ((0.0, 10), (0.1, 3), (2.5, 7)):
        x, k = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
        fronts.append(Wavefront(t=t, x=x, k=k))
    fronts[0].x[1] = (-0.0, 1e-300, 1e17)
    fronts[1].k[2] = (math.nan, -1e-300, -0.0)
    fronts[2].x[6] = (1e17 + 16.0, math.nan, 5e-324)
    return fronts


def test_wavefront_csv_bytes_do_not_depend_on_the_worker_count(monkeypatch, tmp_path, formatters):
    monkeypatch.setattr(wavefront_rows, "CSV_CHUNK_ROWS", 4)
    fronts = _awkward_fronts()
    want = _row_formula(fronts)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(wavefront_rows, "usable_cpus", lambda: cpus)
        out = tmp_path / f"front{cpus}.csv"
        started = len(formatters)
        write_wavefronts_csv(out, fronts)
        assert out.read_bytes() == want
        assert len(formatters) - started == cpus - 1
    assert all(proc.returncode == 0 for proc in formatters)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["front1.csv", "front2.csv", "front3.csv"]


def test_wavefront_csv_without_an_interpreter_formats_in_process(monkeypatch, tmp_path, formatters):
    monkeypatch.setattr(wavefront_rows, "CSV_CHUNK_ROWS", 4)
    monkeypatch.setattr(wavefront_rows, "usable_cpus", lambda: 3)
    monkeypatch.setattr(sys, "executable", "")
    fronts = _awkward_fronts()
    out = tmp_path / "front.csv"
    write_wavefronts_csv(out, fronts)
    assert out.read_bytes() == _row_formula(fronts)
    assert formatters == []


def _failing_interpreter(tmp_path, script="exit 3"):
    prog = tmp_path / "bin" / "python"
    prog.parent.mkdir()
    prog.write_text(f"#!/bin/sh\n{script}\n")
    prog.chmod(0o755)
    return str(prog)


@pytest.mark.parametrize("script,message", [
    ("cat > /dev/null; exit 3", "exited with status 3"),
    # two full slices overflow the pipe, so the parent finds it closed
    ("exit 3", "stopped reading its input"),
])
def test_wavefront_csv_formatter_failure_raises_oserror(monkeypatch, tmp_path, formatters, script, message):
    monkeypatch.setattr(wavefront_rows, "usable_cpus", lambda: 2)
    monkeypatch.setattr(sys, "executable", _failing_interpreter(tmp_path, script))
    n = 3 * CSV_CHUNK_ROWS
    front = Wavefront(t=0.5, x=np.ones((n, 3)), k=np.ones((n, 3)))
    outdir = tmp_path / "out"
    outdir.mkdir()
    with pytest.raises(OSError, match=f"wavefront CSV formatter {message}"):
        write_wavefronts_csv(outdir / "front.csv", [front])
    assert [proc.returncode for proc in formatters] == [3]
    assert list(outdir.iterdir()) == []


def test_wavefront_csv_error_in_the_parent_stops_the_children(monkeypatch, tmp_path, formatters):
    def fail(*args):
        raise RuntimeError("formatting failed")

    monkeypatch.setattr(wavefront_rows, "CSV_CHUNK_ROWS", 4)
    monkeypatch.setattr(wavefront_rows, "usable_cpus", lambda: 3)
    # only this process's copy of the module fails; the children run the file
    monkeypatch.setattr(wavefront_rows, "format_slice", fail)
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_wavefronts_csv(tmp_path / "front.csv", _awkward_fronts())
    assert len(formatters) == 2
    assert all(proc.returncode is not None for proc in formatters)
    assert list(tmp_path.iterdir()) == []


def test_cli_reports_a_failed_formatter_without_traceback(monkeypatch, tmp_path, formatters, capfd):
    monkeypatch.setattr(wavefront_rows, "CSV_CHUNK_ROWS", 4)
    monkeypatch.setattr(wavefront_rows, "usable_cpus", lambda: 2)
    monkeypatch.setattr(sys, "executable", _failing_interpreter(tmp_path))
    outdir = tmp_path / "out"
    outdir.mkdir()
    code = cli.main(["eikonal", "--velocity", "const", "--rays", "16", "--dt", "0.1",
                     "--t-final", "0.2", "--out", str(outdir / "front.csv")])
    err = capfd.readouterr().err
    assert code == 1
    assert "sphererk: error: wavefront CSV formatter" in err
    assert "Traceback" not in err
    assert [proc.returncode for proc in formatters] == [3]
    assert list(outdir.iterdir()) == []


def test_the_parent_formats_packed_slices(monkeypatch, tmp_path, formatters):
    # the children read packed float64 columns off their input; this process
    # formats its own run from the same packed form
    seen = []
    real = wavefront_rows.format_slice

    def spy(t, j0, values):
        seen.append((type(values), values.format, len(values)))
        return real(t, j0, values)

    monkeypatch.setattr(wavefront_rows, "CSV_CHUNK_ROWS", 4)
    monkeypatch.setattr(wavefront_rows, "usable_cpus", lambda: 2)
    monkeypatch.setattr(wavefront_rows, "format_slice", spy)
    fronts = _awkward_fronts()
    out = tmp_path / "front.csv"
    write_wavefronts_csv(out, fronts)
    assert out.read_bytes() == _row_formula(fronts)
    assert len(formatters) == 1
    # 2 workers cut the 6 slices at front 0's end: its slices of 4, 4 and 2 rows
    assert seen == [(memoryview, "d", 6 * 4), (memoryview, "d", 6 * 4), (memoryview, "d", 6 * 2)]


def test_formatter_child_imports_only_the_standard_library():
    # the child is started bare for every run of slices: none of the writer's
    # own imports, numpy or threads may reach the file's top level
    proc = subprocess.run([sys.executable, "-I", "-S", "-X", "importtime", wavefront_rows.__file__],
                          input=b"", capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == b""
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()
                if line.startswith("import time:")}
    assert imported, proc.stderr  # the log was read
    forbidden = {"numpy", "subprocess", "tempfile", "shutil", "contextlib", "pathlib", "threading",
                 "array", "collections"}
    assert imported.isdisjoint(forbidden)


@pytest.mark.parametrize("size", [3, 8])
def test_formatter_child_rejects_a_truncated_slice(size):
    # a one-row slice is 48 bytes: 3 bytes are no float64, and 8 bytes are one
    # that must not be formatted as if it were the whole row
    packed = np.arange(6, dtype=np.float64).tobytes()[:size]
    proc = subprocess.run([sys.executable, "-I", "-S", wavefront_rows.__file__],
                          input=b"0.5 0 1\n" + packed, capture_output=True)
    assert proc.returncode != 0
    assert proc.stdout == b""
    assert b"EOFError" in proc.stderr
