"""Every step stays on the sphere or fails loudly, whatever the field returns.

One step of every ``SchemeId`` and of every on-sphere baseline runs on a rigid
rotation with one component of one stage's velocity replaced by a signed
zero, a subnormal, a huge, an infinite or a NaN value.  The step must return
a plain tuple of three floats of unit norm to UNIT_NORM_TOL, or raise a
``SphereRKError``; any other exception or result fails.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import unit_vectors
from sphererk import vec
from sphererk.baselines import ON_SPHERE, baseline_stepper
from sphererk.errors import SphereRKError
from sphererk.fields import rigid_rotation_field
from sphererk.geometry import UNIT_NORM_TOL
from sphererk.integrators import SchemeId, stepper_for

STEPPERS = {s.value: stepper_for(s) for s in SchemeId}
STEPPERS.update({b.value: baseline_stepper(b) for b in ON_SPHERE})
BAD_VALUES = (0.0, -0.0, 1e-320, 1e308, math.inf, -math.inf, math.nan)


class CorruptedRotation:
    """Rigid rotation about ``omega`` whose ``stage``-th evaluation (from 0)
    has component ``component`` replaced by ``value``; counts evaluations."""

    def __init__(self, omega, stage=-1, component=0, value=0.0):
        self.good = rigid_rotation_field(omega).raw
        self.stage, self.component, self.value = stage, component, value
        self.calls = itertools.count()

    def raw(self, p, t):
        v = self.good(p, t)
        if next(self.calls) == self.stage:
            v = v[:self.component] + (self.value,) + v[self.component + 1:]
        return v


def _evaluations(step):
    f = CorruptedRotation((0.0, 0.0, 1.0))
    step(f, (1.0, 0.0, 0.0), 0.0, 0.1)
    return next(f.calls)


EVALUATIONS = {name: _evaluations(step) for name, step in STEPPERS.items()}
OMEGAS = st.tuples(*[st.floats(-10.0, 10.0)] * 3)


@pytest.mark.parametrize("name", sorted(STEPPERS))
@settings(derandomize=True, deadline=None, max_examples=30)
@given(p=unit_vectors(), omega=OMEGAS, h=st.floats(1e-6, 3.0), stage=st.integers(0, 9),
       component=st.integers(0, 2), value=st.sampled_from(BAD_VALUES))
def test_step_is_on_sphere_or_raises_typed_error(name, p, omega, h, stage, component, value):
    f = CorruptedRotation(omega, stage % EVALUATIONS[name], component, value)
    try:
        q = STEPPERS[name](f, p, 0.0, h)
    except SphereRKError:
        return
    assert type(q) is tuple and len(q) == 3 and all(type(c) is float for c in q)
    assert abs(vec.norm(q) - 1.0) <= UNIT_NORM_TOL
