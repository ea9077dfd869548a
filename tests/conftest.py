import math
import random

import numpy as np
from hypothesis import strategies as st

from sphererk.geometry import UnitVector3


def _normalize(triple):
    x, y, z = triple
    n = math.sqrt(x * x + y * y + z * z)
    return UnitVector3(x / n, y / n, z / n)


def unit_vectors():
    """Random points on the sphere, bounded away from the degenerate origin."""
    coords = st.floats(min_value=-1.0, max_value=1.0)
    return (
        st.tuples(coords, coords, coords)
        .filter(lambda v: 0.1 < math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2) <= 1.8)
        .map(_normalize)
    )


def seeded_unit_vectors(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = math.sqrt(sum(c * c for c in v))
        if n > 1e-3:
            out.append(UnitVector3(v[0] / n, v[1] / n, v[2] / n))
    return out


def read_csv_floats(path):
    """Data rows of a CSV file, every cell parsed with float() (raises on a non-number)."""
    lines = path.read_text().strip().split("\n")[1:]
    return np.array([[float(cell) for cell in line.split(",")] for line in lines])
