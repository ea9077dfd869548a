import math

import pytest
from hypothesis import given, strategies as st

from conftest import seeded_unit_vectors, unit_vectors
from sphererk import vec
from sphererk.errors import AntipodalPointsError, ZeroVectorError
from sphererk.geometry import ANTIPODAL_LIMIT, exp_raw, geodesic_distance, project, slerp

SQ2 = math.sqrt(0.5)


def test_project_scales_axis_vector():
    assert project((2.0, 0.0, 0.0)) == (1.0, 0.0, 0.0)


def test_project_diagonal():
    p = project((1.0, 1.0, 0.0))
    assert abs(p[0] - SQ2) < 1e-15 and abs(p[1] - SQ2) < 1e-15 and p[2] == 0.0


def test_project_zero_vector_rejected():
    with pytest.raises(ZeroVectorError):
        project((0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "p,q,expected",
    [
        ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0),
        ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), math.pi / 2),
        ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), math.pi),
    ],
)
def test_geodesic_distance_examples(p, q, expected):
    assert geodesic_distance(p, q) == pytest.approx(expected, abs=1e-15)


def test_exp_map_zero_velocity():
    p = (1.0, 0.0, 0.0)
    assert exp_raw(p, (0.0, 0.0, 0.0)) == p


def test_exp_map_quarter_circle():
    p = (1.0, 0.0, 0.0)
    q = exp_raw(p, (0.0, math.pi / 2, 0.0))
    assert abs(q[0]) < 1e-15 and q[1] == pytest.approx(1.0, abs=1e-15)


def test_exp_map_closed_form_geodesic():
    h = 0.1
    p = (0.0, 0.0, 1.0)
    q = exp_raw(p, (0.0, h, 0.0))
    assert q[1] == pytest.approx(math.sin(h), abs=1e-15)
    assert q[2] == pytest.approx(math.cos(h), abs=1e-15)


def test_slerp_endpoints_are_exact():
    p, q = (1.0, 0.0, 0.0), project((0.3, -0.5, 0.81))
    assert slerp(p, q, 0.0) == p
    assert slerp(p, q, 1.0) == q


def test_slerp_symmetry_midpoint():
    mid = slerp((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 0.5)
    assert mid[0] == pytest.approx(SQ2, abs=1e-15)
    assert mid[1] == pytest.approx(SQ2, abs=1e-15)


def test_slerp_antipodal_rejected():
    with pytest.raises(AntipodalPointsError):
        slerp((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), 0.5)


def test_slerp_small_angle_branch_matches_nlerp():
    p = (1.0, 0.0, 0.0)
    q = project((1.0, 1e-10, 0.0))
    r = slerp(p, q, 0.3)
    assert abs(vec.norm(r) - 1.0) < 1e-15
    assert r[1] == pytest.approx(0.3e-10, rel=1e-6)


def same_hemisphere(a, b, c, tol=1e-12):
    """(same, collinear) for three sphere points.

    The signed volume a . (b x c) is the common value of n . p for all three
    points, with n normal to their plane; it is nonzero exactly when the
    points are non-collinear, in which case all three sit on one side of the
    plane through the origin: inside one open hemisphere.  Collinear triples
    (a shared great circle) are not.
    """
    det = vec.dot(a, vec.cross(b, c))
    return (False, True) if abs(det) <= tol else (True, False)


def test_same_hemisphere_octant_triple():
    same, collinear = same_hemisphere((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    assert same and not collinear


@pytest.mark.parametrize(
    "c",
    [(-1.0, 0.0, 0.0), (SQ2, SQ2, 0.0)],
)
def test_same_hemisphere_collinear_triples(c):
    same, collinear = same_hemisphere((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), c)
    assert not same and collinear


def _tangent_of_length(p, direction, length):
    """Unit-scaled tangent at p; re-projected after scaling so the normal
    residual stays at rounding level even for nearly degenerate directions."""
    d = vec.axpy(-vec.dot(direction, p), p, direction)
    n = vec.norm(d)
    if n < 1e-6:
        return None
    s = vec.scale(d, length / n)
    return vec.axpy(-vec.dot(s, p), p, s)


@given(unit_vectors(), st.floats(min_value=1e-6, max_value=3.1), unit_vectors())
def test_exp_raw_output_norm(p, length, direction):
    s = _tangent_of_length(p, direction, length)
    if s is None:
        return
    assert abs(vec.norm(exp_raw(p, s)) - 1.0) <= 1e-14


@given(unit_vectors(), st.floats(min_value=1e-6, max_value=math.pi - 1e-6), unit_vectors())
def test_exp_raw_travels_the_requested_arc(p, length, direction):
    s = _tangent_of_length(p, direction, length)
    if s is None:
        return
    assert geodesic_distance(p, exp_raw(p, s)) == pytest.approx(vec.norm(s), abs=1e-12)


@given(
    unit_vectors(),
    unit_vectors(),
    # exp_raw lands within rounding of the requested arc, and slerp rejects
    # separations past ANTIPODAL_LIMIT
    st.floats(min_value=1e-4, max_value=ANTIPODAL_LIMIT - 1e-9),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_exp_slerp_consistency(p, direction, length, t):
    s = _tangent_of_length(p, direction, length)
    if s is None:
        return
    q = exp_raw(p, s)
    via_slerp = slerp(p, q, t)
    direct = exp_raw(p, vec.scale(s, t))
    assert vec.norm(vec.sub(via_slerp, direct)) <= 1e-12


@given(unit_vectors(), unit_vectors(), unit_vectors())
def test_geodesic_distance_symmetry_and_triangle(p, q, r):
    assert geodesic_distance(p, q) == geodesic_distance(q, p)
    assert geodesic_distance(p, r) <= geodesic_distance(p, q) + geodesic_distance(q, r) + 1e-12


def test_hemisphere_value_matches_triple_product_identity():
    # the common plane value of the three points is the signed volume
    for a, b, c in zip(
        seeded_unit_vectors(1, 50), seeded_unit_vectors(2, 50), seeded_unit_vectors(3, 50)
    ):
        n = vec.cross(vec.sub(a, b), vec.sub(a, c))
        vals = [vec.dot(n, x) for x in (a, b, c)]
        assert max(vals) - min(vals) < 1e-12
        det = vec.dot(a, vec.cross(b, c))
        assert vals[0] == pytest.approx(det, abs=1e-12)
