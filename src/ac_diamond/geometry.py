"""Disk trajectory, the pulse-station angle, and the plate field map.

The module imports no numpy: the closed-form engine reads only the records
and ``STATION_A_ANGLE``.  :func:`position` and :func:`velocity`, which the
stepper calls on arrays of times, import it when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericPreconditionError
from .physics import TWO_PI

# Station A sits at (0, -r), station B antipodal at (0, +r).  Stations on the
# y extremes maximize |Delta y| per half rotation, which is what makes the
# rectified phase reach 4*g*mu_B*r*E*n/(hbar*c^2).
STATION_A_ANGLE = -math.pi / 2


@dataclass(frozen=True)
class DiskTrajectory:
    """Uniform circular motion of the diamond on the disk edge, starting at
    station A (angle ``STATION_A_ANGLE``) at t = 0, so station crossings
    happen exactly at multiples of the half period.

    ``frequency`` is in rotations per second, counterclockwise positive.
    ``tilt`` rotates the whole disk plane rigidly about the y-axis.
    """

    radius: float
    frequency: float
    tilt: float = 0.0

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("disk radius must be positive")
        if self.frequency == 0.0:
            raise ValueError("rotation frequency must be nonzero")
        # Python floats: an overflow gives inf here, never a numpy error
        f, r = abs(float(self.frequency)), float(self.radius)
        if not math.isfinite(1.0 / f):
            raise NumericPreconditionError(
                f"rotation frequency {self.frequency!r} Hz is too small: "
                "the period 1/|f| is not finite"
            )
        if not math.isfinite(2.0 * r):
            raise NumericPreconditionError(
                f"disk radius {self.radius!r} m is too large: the diameter 2r is not finite"
            )
        if not math.isfinite(2.0 * math.pi * f * r):
            raise NumericPreconditionError(
                f"rim speed 2*pi*|f|*r of f = {self.frequency!r} Hz, "
                f"r = {self.radius!r} m is not finite"
            )
        if not math.isfinite(self.tilt):
            raise NumericPreconditionError(f"disk tilt {self.tilt!r} rad is not finite")


def _tilt_matrix(tilt: float) -> np.ndarray:
    import numpy as np

    # Transpose of R_y(tilt), for right-multiplication of row vectors:
    # v @ _tilt_matrix == R_y(tilt) @ v, so x-hat maps to -z-hat at tilt = pi/2.
    c, s = np.cos(tilt), np.sin(tilt)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def position(traj: DiskTrajectory, t) -> np.ndarray:
    """Lab-frame position in metres; vectorised over t (last axis is xyz)."""
    import numpy as np

    theta = STATION_A_ANGLE + TWO_PI * traj.frequency * np.asarray(t, dtype=float)
    flat = traj.radius * np.stack(
        [np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1
    )
    if traj.tilt == 0.0:
        return flat
    return flat @ _tilt_matrix(traj.tilt)


def velocity(traj: DiskTrajectory, t) -> np.ndarray:
    """Analytic time derivative of :func:`position`; |v| = 2*pi*f*r."""
    import numpy as np

    theta = STATION_A_ANGLE + TWO_PI * traj.frequency * np.asarray(t, dtype=float)
    speed = TWO_PI * traj.frequency * traj.radius
    flat = speed * np.stack(
        [-np.sin(theta), np.cos(theta), np.zeros_like(theta)], axis=-1
    )
    if traj.tilt == 0.0:
        return flat
    return flat @ _tilt_matrix(traj.tilt)


@dataclass(frozen=True)
class FieldConfig:
    """Uniform static electric field between idealized infinite plates, along
    +x in the disk plane: E = (magnitude, 0, 0).  Only the magnitude is
    stored; every consumer writes the fixed direction into its formula, e.g.
    the coupling axis k*E*(0, -v_z, v_y) and the field operator E*Sx."""

    magnitude: float

    def __post_init__(self):
        if self.magnitude < 0.0:
            raise ValueError("field magnitude must be non-negative")


# every trajectory starts at station A, so station-aligned motion needs no helper
station_trajectory = DiskTrajectory
