"""Sphere-constrained explicit Runge-Kutta integrators and benchmark harness."""

from .baselines import BaselineId, angle_recurrence, baseline_stepper
from .errors import (
    AntipodalPointsError,
    DegenerateFrontError,
    LogBranchUndefinedError,
    NearPoleError,
    NonFiniteStateError,
    NonPositiveError,
    ReferenceUnavailableError,
    SphereRKError,
    StepTooLargeError,
    ZeroQuaternionError,
    ZeroVectorError,
)
from .fields import (
    VelocityField,
    VortexConfig,
    projected_linear_field,
    rigid_rotation_field,
    rotate_about,
    stability_interval,
    vortex4_field,
)
from .geometry import (
    UnitVector3,
    exp_raw,
    geodesic_distance,
    project,
    slerp,
    unit_vector,
)
from .integrators import (
    SchemeId,
    integrate_steps,
    sfe_step,
    ssprk54_step,
    ssprk104_step,
    stepper_for,
    stvdrk2_step,
    stvdrk3_step,
    stvdrk4_step,
    tvdrk_step,
)
from .quaternion import (
    Quaternion,
    hamilton_product,
    inverse,
    q_exp,
    q_log,
    q_pow,
    quat_slerp,
)

__version__ = "0.1.0"
