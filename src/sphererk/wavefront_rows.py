"""Rows of the wavefront CSV, formatted in this process or in a child.

``eikonal.write_wavefronts_csv`` formats its first run of slices with
``format_slice`` and hands each other run to a child interpreter running this
file as ``python -I -S wavefront_rows.py``, so the file imports only the
standard library.  A child reads all of stdin before it formats anything.
Each slice there is a ``t j0 n`` line (the front's t cell, the first ray index
and the row count) followed by the slice's six columns x, y, z, kx, ky, kz as
n native float64 values each.  The child writes the rows to stdout as ASCII
bytes.  Both sides format Python floats with the one function below, so a
slice's bytes do not depend on the process that formats it.
"""

import sys
from array import array
from itertools import chain, repeat

COLUMNS = 6


def format_slice(t: str, j0: int, cols) -> str:
    """Rows j0, j0 + 1, ... of a front whose t cell is ``t``.

    ``cols`` holds the six columns as sequences of Python floats.  A row is
    t, the ray index, the six cells and t again as the u cell; every float
    cell is its repr, the shortest round trip.  The rows are built with one
    join: the cell between two rows is the u cell, a newline and the next t.
    """
    n = len(cols[0])
    ends = chain(repeat(f"{t}\n{t}", n - 1), (t + "\n",))
    cells = zip(map(str, range(j0, j0 + n)), *(map(repr, c) for c in cols), ends)
    return t + "," + ",".join(chain.from_iterable(cells))


def main() -> None:
    inp, out = sys.stdin.buffer, sys.stdout.buffer
    slices = []
    for line in iter(inp.readline, b""):
        t, j0, n = line.decode("ascii").split()
        values = array("d")
        values.fromfile(inp, COLUMNS * int(n))
        slices.append((t, int(j0), int(n), values))
    for t, j0, n, values in slices:
        cols = [values[c * n:(c + 1) * n] for c in range(COLUMNS)]
        out.write(format_slice(t, j0, cols).encode("ascii"))


if __name__ == "__main__":
    main()
