"""Closed-form (Abelian) Aharonov-Casher phase for planar motion in a uniform field.

The phase picked up by the |1> amplitude while the diamond moves along the
in-plane path gamma is (g*mu_B/(hbar*c^2)) * integral of (k x E) . dx over
gamma.  For a uniform in-plane field this is path independent, so segments
reduce to endpoint differences and closed loops give exactly zero; the pi-pulse
rectified total over n rotations is 4*g*mu_B*r*E*n/(hbar*c^2).
"""

from __future__ import annotations

import math

from .errors import NumericPreconditionError
from .geometry import STATION_A_ANGLE, DiskTrajectory, FieldConfig
from .geometry import position, velocity  # noqa: F401  (benchmark tracer sites)
from .physics import C_LIGHT, HBAR, MU_B, TWO_PI, NVParameters
from .physics import total_rectified_phase  # noqa: F401  (callers import it from here)


def coupling_constant(params: NVParameters) -> float:
    """g*mu_B/(hbar*c^2) in rad per (V/m * m): the A-C phase per unit of E.dy."""
    return params.g * MU_B / (HBAR * C_LIGHT**2)


def _require_planar(traj: DiskTrajectory) -> None:
    if traj.tilt != 0.0:
        raise NumericPreconditionError(
            "closed-form A-C phase requires an untilted (planar) trajectory"
        )


def segment_phase(
    t0: float,
    t1: float,
    traj: DiskTrajectory,
    cfg: FieldConfig,
    params: NVParameters,
) -> float:
    """A-C phase accumulated between t0 and t1.

    The uniform-field line integral depends only on the endpoints:
    (g*mu_B/(hbar*c^2)) * (k x E) . (r(t1) - r(t0)) = ... * E*(y(t1) - y(t0)),
    with y(t) = r*sin(theta(t)) of the planar :func:`position`.  A phase too
    large for a float is refused.
    """
    _require_planar(traj)
    omega = TWO_PI * traj.frequency
    y0 = traj.radius * math.sin(STATION_A_ANGLE + omega * t0)
    y1 = traj.radius * math.sin(STATION_A_ANGLE + omega * t1)
    phase = coupling_constant(params) * ((y1 - y0) * cfg.magnitude)
    if not abs(phase) < math.inf:  # Python floats overflow to inf, or to NaN at 0*inf
        raise NumericPreconditionError(
            f"segment phase of E = {cfg.magnitude!r} V/m over {y1 - y0!r} m "
            "is not finite"
        )
    return phase
