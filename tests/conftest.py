import math
import random

import numpy as np
from hypothesis import strategies as st

from sphererk import vec


def _normalize(triple):
    x, y, z = triple
    n = math.sqrt(x * x + y * y + z * z)
    return (x / n, y / n, z / n)


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
            out.append((v[0] / n, v[1] / n, v[2] / n))
    return out


def read_csv_floats(path):
    """Data rows of a CSV file, every cell parsed with float() (raises on a non-number)."""
    lines = path.read_text().strip().split("\n")[1:]
    return np.array([[float(cell) for cell in line.split(",")] for line in lines])


def rotate_about(omega, p, t):
    """Exact flow of the rigid rotation field omega x p: rotate p by angle |omega| t."""
    w = vec.norm(omega)
    if w == 0.0:
        return tuple(p)
    axis = vec.scale(omega, 1.0 / w)
    angle = w * t
    c, s = math.cos(angle), math.sin(angle)
    # Rodrigues rotation
    term1 = vec.scale(p, c)
    term2 = vec.scale(vec.cross(axis, p), s)
    term3 = vec.scale(axis, vec.dot(axis, p) * (1.0 - c))
    return tuple(vec.add(vec.add(term1, term2), term3))


def seam_indices(n_nodes):
    """Nodes of the discontinuous director curve whose forward gaps are its two branch junctions."""
    return n_nodes // 2 - 1, n_nodes - 1


def last_state(steps):
    """State of the last (t, state) pair of an ``integrate_steps`` iterator; no other is kept."""
    for _, x in steps:
        pass
    return x
