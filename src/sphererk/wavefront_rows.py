"""The wavefront CSV: its rows, its slices and the processes that format them.

``write_wavefronts_csv`` formats its first run of slices in this process and
hands each other run to a child interpreter running this file as ``python -I
-S wavefront_rows.py``, so the file's top level imports only the standard
library.  Every process formats a packed slice: a float64 memoryview of its
six columns x, y, z, kx, ky, kz of n values each, one after another.  On a
child's stdin a slice is a ``t j0 n`` line (the front's t cell, the first ray
index and the row count) and then its packed values.  A child reads all of
stdin, raising EOFError on a short slice, before it writes any ASCII row.
"""

import os
import sys
from itertools import chain, repeat

COLUMNS = 6

# Rows per slice of the CSV writer.  A slice is packed and formatted at once,
# so the transient floats stay few however many rays a front has, and slices
# are the unit the writer hands to its formatter processes.
CSV_CHUNK_ROWS = 4096


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def format_slice(t: str, j0: int, values: memoryview) -> str:
    """Rows j0, j0 + 1, ... of a front whose t cell is ``t``.

    ``values`` is one packed slice: the six columns of its n rows, n float64
    values each.  A row is t, the ray index, the six cells and t again as the
    u cell; every float cell is its repr, the shortest round trip.  The rows
    are built with one join: the cell between two rows is the u cell, a
    newline and the next t.
    """
    n = len(values) // COLUMNS
    ends = chain(repeat(f"{t}\n{t}", n - 1), (t + "\n",))
    cols = (map(repr, values[c * n:(c + 1) * n]) for c in range(COLUMNS))
    cells = zip(map(str, range(j0, j0 + n)), *cols, ends)
    return t + "," + ",".join(chain.from_iterable(cells))


def _packed(run):
    """Each slice (t, j0, x, k) of a run as (t, j0, values), packed when it is reached."""
    for t, j0, x, k in run:
        yield t, j0, memoryview(x.T.tobytes() + k.T.tobytes()).cast("d")


def write_wavefronts_csv(path, fronts) -> None:
    """Write the rows of the ``eikonal.Wavefront``s in slices of CSV_CHUNK_ROWS rays.

    The slices are cut into one contiguous run per usable CPU.  This process
    formats the first run straight into the file while child interpreters
    (``sys.executable -I -S wavefront_rows.py``) format the others into
    temporary files in the output's directory; their files are then appended
    in order.  Every cell is the repr of a Python float, the shortest round
    trip, and the u cell is the front's t cell: the bytes do not depend on the
    number of processes.  A formatter that fails raises OSError.  No child
    outlives the call, and a write that fails leaves no file.
    """
    # imported here: the children run bare, and subprocess adds ~8 ms to importing eikonal
    import shutil
    import subprocess
    import tempfile
    from contextlib import ExitStack
    from pathlib import Path

    slices = [(repr(float(f.t)), j0, f.x[j0:j0 + CSV_CHUNK_ROWS], f.k[j0:j0 + CSV_CHUNK_ROWS])
              for f in fronts for j0 in range(0, len(f.x), CSV_CHUNK_ROWS)]
    workers = max(1, min(usable_cpus(), len(slices))) if sys.executable else 1
    runs = [slices[len(slices) * w // workers:len(slices) * (w + 1) // workers] for w in range(workers)]
    directory = os.path.dirname(os.path.abspath(path))
    out = open(path, "wb")
    try:
        with out, ExitStack() as stack:
            out.write(b"t,ray_index,x,y,z,kx,ky,kz,u\n")
            children = []
            for run in runs[1:]:
                tmp = stack.enter_context(tempfile.TemporaryFile(dir=directory))
                proc = subprocess.Popen([sys.executable, "-I", "-S", __file__],
                                        stdin=subprocess.PIPE, stdout=tmp)
                stack.callback(_stop, proc)
                _feed(proc, run)
                children.append((proc, tmp))
            for t, j0, values in _packed(runs[0]):
                out.write(format_slice(t, j0, values).encode("ascii"))
            for proc, tmp in children:
                if proc.wait():
                    raise OSError(f"wavefront CSV formatter exited with status {proc.returncode}")
                tmp.seek(0)
                shutil.copyfileobj(tmp, out)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _feed(proc, run) -> None:
    """Send a run of slices to a formatter child and close its input."""
    try:
        for t, j0, values in _packed(run):
            proc.stdin.write(f"{t} {j0} {len(values) // COLUMNS}\n".encode("ascii"))
            proc.stdin.write(values)
        proc.stdin.close()
    except BrokenPipeError:
        raise OSError("wavefront CSV formatter stopped reading its input") from None


def _stop(proc) -> None:
    """Kill a formatter child unless it has exited, and reap it."""
    proc.kill()
    proc.wait()
    try:
        proc.stdin.close()
    except OSError:
        pass  # input left unsent to a child that is gone


def main() -> None:
    inp, out = sys.stdin.buffer, sys.stdout.buffer
    slices = []
    for line in iter(inp.readline, b""):
        t, j0, n = line.decode("ascii").split()
        size = 8 * COLUMNS * int(n)
        packed = inp.read(size)
        if len(packed) < size:
            raise EOFError(f"slice at ray {j0} ends after {len(packed)} of its {size} bytes")
        slices.append((t, int(j0), memoryview(packed).cast("d")))
    for t, j0, values in slices:
        out.write(format_slice(t, j0, values).encode("ascii"))


if __name__ == "__main__":
    main()
