import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import last_state
from sphererk import vec
from sphererk.baselines import (
    BASELINE_STEPPERS,
    ON_SPHERE,
    RK2_TABLEAU,
    RK3_TABLEAU,
    RK4_TABLEAU,
    RK6_A,
    RK6_B,
    RK6_TABLEAU,
    rk6_step,
)
from sphererk.fields import VelocityField, rigid_rotation_field, vortex4_field
from sphererk.geometry import geodesic_distance, project
from sphererk.harness import tvdrk2_planar_norm
from sphererk.integrators import integrate_steps

VORTEX = vortex4_field()
P0 = (1.0, 0.0, 0.0)
ZERO_FIELD = VelocityField(lambda p, t: (0.0, 0.0, 0.0), name="zero")


def test_registry_is_complete():
    # six unprojected tableaus, then eight projected ones; only those stay on the sphere
    assert list(BASELINE_STEPPERS) == ["fe", "rk2", "rk3", "rk4", "tvdrk2", "tvdrk3",
                                       "pfe", "prk2", "prk3", "prk4",
                                       "ptvdrk2", "ptvdrk2p", "ptvdrk3", "ptvdrk3p"]
    assert ON_SPHERE == set(list(BASELINE_STEPPERS)[6:])
    assert all(callable(step) for step in BASELINE_STEPPERS.values())


@pytest.mark.parametrize("scheme", list(BASELINE_STEPPERS))
def test_zero_field_fixes_every_scheme(scheme):
    x = (0.6, 0.0, 0.8)
    out = BASELINE_STEPPERS[scheme](ZERO_FIELD, x, 0.0, 0.1)
    assert vec.norm(vec.sub(out, x)) <= 1e-15


@pytest.mark.parametrize("scheme", sorted(ON_SPHERE))
def test_projected_schemes_end_on_sphere(scheme):
    out = BASELINE_STEPPERS[scheme](VORTEX, P0, 0.0, 0.1)
    assert abs(vec.norm(out) - 1.0) <= 1e-15


def test_unprojected_schemes_drift_off_sphere():
    out = BASELINE_STEPPERS["fe"](VORTEX, P0, 0.0, 0.1)
    assert abs(vec.norm(out) - 1.0) > 1e-4


def test_pfe_polar_angle_is_arctan():
    f = rigid_rotation_field((1.0, 0.0, 0.0))
    p = (0.0, 0.0, 1.0)
    for h in (0.1, 0.5, 1.0):
        out = BASELINE_STEPPERS["pfe"](f, p, 0.0, h)
        assert geodesic_distance(out, p) == pytest.approx(math.atan(h), abs=1e-14)


def test_velocity_extension_used_off_sphere():
    # evaluating at 2p must see the same field value as at p
    f = rigid_rotation_field((0.0, 0.0, 1.0))
    on = BASELINE_STEPPERS["fe"](f, (1.0, 0.0, 0.0), 0.0, 0.2)
    off = BASELINE_STEPPERS["fe"](f, (2.0, 0.0, 0.0), 0.0, 0.2)
    assert vec.norm(vec.sub(off, vec.add(on, (1.0, 0.0, 0.0)))) <= 1e-15


def test_ptvdrk2_equals_prk2_stepwise():
    x = P0
    for i in range(20):
        a = BASELINE_STEPPERS["ptvdrk2"](VORTEX, x, i * 0.1, 0.1)
        b = BASELINE_STEPPERS["prk2"](VORTEX, x, i * 0.1, 0.1)
        assert vec.norm(vec.sub(a, b)) <= 1e-13
        x = a


def test_ptvdrk2p_differs_from_ptvdrk2():
    a = BASELINE_STEPPERS["ptvdrk2"](VORTEX, P0, 0.0, 0.1)
    b = BASELINE_STEPPERS["ptvdrk2p"](VORTEX, P0, 0.0, 0.1)
    assert vec.norm(vec.sub(a, b)) > 1e-12


def test_tvdrk2_planar_norm_expansion():
    from sphererk.harness import appendix_a_coefficients

    a, b = 1.0, 1.1
    c2, c4, _ = appendix_a_coefficients(a, b)
    for h in (1e-2, 5e-3):
        n = tvdrk2_planar_norm(a, b, h)
        residual = n - 1.0 - c2 * h * h - c4 * h**4
        assert abs(residual) < 10.0 * h**6


def test_tvdrk2_planar_norm_equal_speeds_exceeds_one():
    # at a = b the h^2 term vanishes and the norm sits above 1 by a^4 h^4 / 8
    h = 1e-2
    n = tvdrk2_planar_norm(1.0, 1.0, h)
    assert n > 1.0
    assert n - 1.0 == pytest.approx(h**4 / 8.0, rel=1e-3)


def test_norm_error_orders_of_unprojected_schemes():
    expected = {
        "tvdrk2": 3,
        "tvdrk3": 3,
        "rk3": 3,
        "rk4": 4,
    }
    for scheme, order in expected.items():
        rows = []
        for k in range(4):
            h = 0.1 * 2.0**-k
            end = last_state(integrate_steps(BASELINE_STEPPERS[scheme], VORTEX, P0, 0.0, 2.0, h))
            rows.append((h, abs(vec.norm(end) - 1.0)))
        slope = np.polyfit(np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1)[0]
        assert abs(slope - order) <= 0.3, scheme


# Butcher's seven-stage sixth-order tableau in exact arithmetic.
EXACT_RK6_C = (F(0), F(1, 3), F(2, 3), F(1, 3), F(1, 2), F(1, 2), F(1))
EXACT_RK6_A = (
    (),
    (F(1, 3),),
    (F(0), F(2, 3)),
    (F(1, 12), F(1, 3), F(-1, 12)),
    (F(-1, 16), F(9, 8), F(-3, 16), F(-3, 8)),
    (F(0), F(9, 8), F(-3, 8), F(-3, 4), F(1, 2)),
    (F(9, 44), F(-9, 11), F(63, 44), F(18, 11), F(0), F(-16, 11)),
)
EXACT_RK6_B = (F(11, 120), F(0), F(27, 40), F(27, 40), F(-4, 15), F(-4, 15), F(11, 120))


def test_rk6_float_tableau_rounds_the_exact_one():
    assert RK6_TABLEAU[0] == tuple(float(c) for c in EXACT_RK6_C)
    assert RK6_A == tuple(tuple(float(a) for a in row) for row in EXACT_RK6_A)
    assert RK6_B == tuple(float(b) for b in EXACT_RK6_B)


def test_rk6_row_sums_equal_stage_times():
    for row, c in zip(EXACT_RK6_A, EXACT_RK6_C):
        assert sum(row, F(0)) == c


@pytest.mark.parametrize("k", range(6))
def test_rk6_quadrature_conditions(k):
    assert sum(b * c**k for b, c in zip(EXACT_RK6_B, EXACT_RK6_C)) == F(1, k + 1)


def _rooted_trees(n):
    """Rooted trees with n nodes, each a sorted tuple of its root's subtrees."""
    if n == 1:
        return [()]
    trees = set()
    for m in range(1, n):
        for child in _rooted_trees(m):
            for rest in _rooted_trees(n - m):
                trees.add(tuple(sorted(rest + (child,))))
    return sorted(trees)


def _density(tree):
    size, gamma = 1, 1
    for child in tree:
        child_size, child_gamma = _density(child)
        size += child_size
        gamma *= child_gamma
    return size, size * gamma


def _stage_weights(tree, rows=EXACT_RK6_A):
    """Phi_i(tree) = prod over subtrees u of sum_j a_ij Phi_j(u)."""
    phi = [F(1)] * len(rows)
    for child in tree:
        sub = _stage_weights(child, rows)
        phi = [p * sum((a * s for a, s in zip(row, sub)), F(0)) for p, row in zip(phi, rows)]
    return phi


def test_rk6_meets_all_37_order_conditions_up_to_six():
    trees = [t for n in range(1, 7) for t in _rooted_trees(n)]
    assert len(trees) == 37
    for tree in trees:
        _, gamma = _density(tree)
        weight = sum((b * p for b, p in zip(EXACT_RK6_B, _stage_weights(tree))), F(0))
        assert weight == F(1, gamma), tree


# The RK2-4 baseline tableaux (c, A, b) in exact arithmetic, with their orders.
EXACT_BASELINE_TABLEAUX = {
    "rk2": (RK2_TABLEAU, 2, ((F(0), F(1)), ((), (F(1),)), (F(1, 2), F(1, 2)))),
    "rk3": (RK3_TABLEAU, 3, ((F(0), F(1, 2), F(1)), ((), (F(1, 2),), (F(-1), F(2))),
                             (F(1, 6), F(2, 3), F(1, 6)))),
    "rk4": (RK4_TABLEAU, 4, ((F(0), F(1, 2), F(1, 2), F(1)),
                             ((), (F(1, 2),), (F(0), F(1, 2)), (F(0), F(0), F(1))),
                             (F(1, 6), F(1, 3), F(1, 3), F(1, 6)))),
}


@pytest.mark.parametrize("name", sorted(EXACT_BASELINE_TABLEAUX))
def test_baseline_tableaux_meet_their_order_conditions(name):
    tableau, order, (cs, rows, bs) = EXACT_BASELINE_TABLEAUX[name]
    assert tableau == (tuple(map(float, cs)), tuple(tuple(map(float, r)) for r in rows),
                       tuple(map(float, bs)))
    for row, c in zip(rows, cs):
        assert sum(row, F(0)) == c
    trees = [t for n in range(1, order + 1) for t in _rooted_trees(n)]
    assert len(trees) == (1, 2, 4, 8)[order - 1]
    for tree in trees:
        _, gamma = _density(tree)
        weight = sum((b * p for b, p in zip(bs, _stage_weights(tree, rows))), F(0))
        assert weight == F(1, gamma), tree
    # and no order beyond: some tree of the next order fails its condition
    assert any(
        sum((b * p for b, p in zip(bs, _stage_weights(tree, rows))), F(0)) != F(1, _density(tree)[1])
        for tree in _rooted_trees(order + 1)
    )


def test_rk6_uses_stage_times():
    # x' = t e3 is integrated exactly by any method with correct stage times
    f = VelocityField(lambda p, t: (0.0, 0.0, t), name="ramp")
    x = rk6_step(f, (1.0, 0.0, 0.0), 0.5, 0.25)
    assert x == pytest.approx((1.0, 0.0, 0.5 * (0.75**2 - 0.5**2)), abs=1e-15)


def test_rk6_is_no_baseline():
    assert rk6_step not in BASELINE_STEPPERS.values()
    assert "rk6" not in BASELINE_STEPPERS
