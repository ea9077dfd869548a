import math

import pytest
from hypothesis import given, strategies as st

from conftest import seeded_unit_vectors
from sphererk import vec
from sphererk.errors import (
    AntipodalPointsError,
    LogBranchUndefinedError,
    NonFiniteStateError,
    ZeroQuaternionError,
)
from sphererk.geometry import geodesic_distance, slerp
from sphererk.quaternion import (
    ONE,
    Quaternion,
    hamilton_product,
    inverse,
    q_exp,
    q_log,
    q_norm,
    q_pow,
    quat_slerp,
)

I = Quaternion(0.0, (1.0, 0.0, 0.0))
J = Quaternion(0.0, (0.0, 1.0, 0.0))
K = Quaternion(0.0, (0.0, 0.0, 1.0))

finite = st.floats(min_value=-2.0, max_value=2.0)
quats = st.builds(
    Quaternion, finite, st.tuples(finite, finite, finite)
).filter(lambda q: q_norm(q) > 1e-3)


def _close(q1, q2, tol=1e-13):
    return abs(q1.a - q2.a) <= tol and all(
        abs(x - y) <= tol for x, y in zip(q1.u, q2.u)
    )


def test_identity_product():
    q = Quaternion(0.3, (0.1, -0.7, 0.2))
    assert hamilton_product(ONE, q) == q


def test_i_squared_is_minus_one():
    assert _close(hamilton_product(I, I), Quaternion(-1.0, (0.0, 0.0, 0.0)))


def test_ij_equals_k():
    assert _close(hamilton_product(I, J), K)


@pytest.mark.parametrize(
    "q,expected",
    [
        (ONE, ONE),
        (I, Quaternion(0.0, (-1.0, 0.0, 0.0))),
        (Quaternion(2.0, (0.0, 0.0, 0.0)), Quaternion(0.5, (0.0, 0.0, 0.0))),
    ],
)
def test_inverse_examples(q, expected):
    assert _close(inverse(q), expected)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroQuaternionError):
        inverse(Quaternion(0.0, (0.0, 0.0, 0.0)))


@given(quats)
def test_product_with_inverse_is_identity(q):
    assert _close(hamilton_product(q, inverse(q)), ONE)


@given(quats, quats)
def test_norm_multiplicativity(q1, q2):
    lhs = q_norm(hamilton_product(q1, q2))
    rhs = q_norm(q1) * q_norm(q2)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, rhs)


def test_exp_of_zero():
    assert _close(q_exp(Quaternion(0.0, (0.0, 0.0, 0.0))), ONE)


def test_exp_quarter_turn():
    q = q_exp(Quaternion(0.0, (math.pi / 2, 0.0, 0.0)))
    assert abs(q.a) < 1e-15 and q.u[0] == pytest.approx(1.0, abs=1e-15)


def test_log_branch_undefined_on_negative_reals():
    with pytest.raises(LogBranchUndefinedError):
        q_log(Quaternion(-1.0, (0.0, 0.0, 0.0)))
    with pytest.raises(ZeroQuaternionError):
        q_log(Quaternion(0.0, (0.0, 0.0, 0.0)))


def test_log_near_real_positive():
    q = q_log(Quaternion(2.0, (0.0, 1e-12, 0.0)))
    assert q.a == pytest.approx(math.log(2.0), abs=1e-12)
    assert vec.norm(q.u) == 0.0


def test_exp_log_roundtrip_unit():
    for p in seeded_unit_vectors(7, 30):
        q = Quaternion(0.4, vec.scale(p, math.sqrt(1 - 0.4**2)))
        back = q_exp(q_log(q))
        assert _close(back, q, tol=1e-12)


def test_pow_identities():
    q = Quaternion(0.5, (0.5, -0.5, 0.5))
    assert _close(q_pow(q, 1.0), q, tol=1e-15)
    assert _close(q_pow(q, 0.0), ONE)


@given(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1.0, max_value=1.0))
def test_pow_additivity_positive_scalar(s, t):
    axis = (0.6, 0.64, 0.48)
    q = Quaternion(0.8, vec.scale(axis, 0.6))  # unit with positive scalar part
    lhs = q_pow(q, s + t)
    rhs = hamilton_product(q_pow(q, s), q_pow(q, t))
    assert _close(lhs, rhs, tol=1e-12)


def test_quat_slerp_endpoints():
    pa = (1.0, 0.0, 0.0)
    pb = (0.0, 1.0, 0.0)
    assert quat_slerp(pa, pb, 0.0) == pa
    end = quat_slerp(pa, pb, 1.0)
    assert vec.norm(vec.sub(end, pb)) <= 1e-13


def test_quat_slerp_midpoint():
    mid = quat_slerp((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 0.5)
    s = math.sqrt(0.5)
    assert mid[0] == pytest.approx(s, abs=1e-13)
    assert mid[1] == pytest.approx(s, abs=1e-13)
    assert abs(mid[2]) < 1e-13


def test_quat_slerp_antipodal_rejected():
    with pytest.raises(AntipodalPointsError):
        quat_slerp((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quat_slerp_non_finite_endpoint_rejected(bad):
    with pytest.raises(NonFiniteStateError):
        quat_slerp((bad, 0.0, 0.0), (0.0, 1.0, 0.0), 0.5)
    with pytest.raises(NonFiniteStateError):
        quat_slerp((0.0, 1.0, 0.0), (0.0, 0.0, bad), 0.5)


def test_quat_slerp_scalar_part_vanishes():
    # the interpolant of two pure quaternions must stay pure
    for pa, pb in zip(seeded_unit_vectors(11, 40), seeded_unit_vectors(12, 40)):
        if geodesic_distance(pa, pb) > math.pi - 1e-3:
            continue
        qa = Quaternion(0.0, tuple(pa))
        rel = hamilton_product(inverse(qa), Quaternion(0.0, tuple(pb)))
        out = hamilton_product(qa, q_pow(rel, 0.37))
        assert abs(out.a) <= 1e-12


def test_parity_with_geodesic_slerp():
    pairs = zip(seeded_unit_vectors(21, 200), seeded_unit_vectors(22, 200))
    for pa, pb in pairs:
        omega = geodesic_distance(pa, pb)
        if not (1e-6 < omega < math.pi - 1e-3):
            continue
        for t in (0.1, 0.5, 0.9):
            d = slerp(pa, pb, t)
            q = quat_slerp(pa, pb, t)
            assert max(abs(d[i] - q[i]) for i in range(3)) <= 1e-12
