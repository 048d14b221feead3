"""Closed-form (Abelian) Aharonov-Casher phase for planar motion in a uniform field.

The phase picked up by the |1> amplitude while the diamond moves along the
in-plane path gamma is (g*mu_B/(hbar*c^2)) * integral of (k x E) . dx over
gamma.  For a uniform in-plane field this is path independent, so segments
reduce to endpoint differences and closed loops give exactly zero; the pi-pulse
rectified total over n rotations is 4*g*mu_B*r*E*n/(hbar*c^2).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericPreconditionError
from .geometry import DiskTrajectory, FieldConfig, position, velocity
from .physics import C_LIGHT, HBAR, MU_B, NVParameters


def coupling_constant(params: NVParameters) -> float:
    """g*mu_B/(hbar*c^2) in rad per (V/m * m): the A-C phase per unit of E.dy."""
    return params.g * MU_B / (HBAR * C_LIGHT**2)


def _require_planar(traj: DiskTrajectory) -> None:
    if traj.tilt != 0.0:
        raise NumericPreconditionError(
            "closed-form A-C phase requires an untilted (planar) trajectory"
        )


def phase_rate(
    t,
    traj: DiskTrajectory,
    cfg: FieldConfig,
    params: NVParameters,
):
    """Instantaneous A-C phase accumulation rate (rad/s) on the |1> amplitude.

    rate(t) = (g*mu_B/(hbar*c^2)) * (k x E) . v(t), which is E*v_y for the
    field along +x: positive while the diamond moves in +y.  Vectorised over t.
    """
    _require_planar(traj)
    return coupling_constant(params) * (velocity(traj, t)[..., 1] * cfg.magnitude)


def segment_phase(
    t0: float,
    t1: float,
    traj: DiskTrajectory,
    cfg: FieldConfig,
    params: NVParameters,
) -> float:
    """A-C phase accumulated between t0 and t1.

    The uniform-field line integral depends only on the endpoints:
    (g*mu_B/(hbar*c^2)) * (k x E) . (r(t1) - r(t0)) = ... * E*(y(t1) - y(t0)).
    """
    _require_planar(traj)
    dy = position(traj, t1)[..., 1] - position(traj, t0)[..., 1]
    return float(coupling_constant(params) * (dy * cfg.magnitude))


def total_rectified_phase(
    radius: float,
    e_field: float,
    n_rotations: float,
    g: float,
) -> float:
    """Total pi-pulse-rectified A-C phase 4*g*mu_B*r*E*n/(hbar*c^2).

    Fractional n is allowed for diagnostics; the closed form matches the echo
    simulation only at integer n (station-aligned readout).  Any argument may
    be a numpy array; scalar arguments give a float.  A phase too large for a
    float is refused.
    """
    if np.any(radius < 0.0):
        raise ValueError("radius must be non-negative")
    if np.any(e_field < 0.0):
        raise ValueError("field magnitude must be non-negative")
    if np.any(n_rotations < 0.0):
        raise ValueError("rotation count must be non-negative")
    phase = 4.0 * g * MU_B * radius * e_field * n_rotations / (HBAR * C_LIGHT**2)
    if not np.all(np.isfinite(phase)):
        raise NumericPreconditionError(
            "total rectified A-C phase is not finite: g*r*E*n too large"
        )
    return phase
