"""SI constants, NV ground-state parameters, and the closed-form figures.

Everything here is plain Python floats: the total rectified A-C phase, the
adiabatic Stark shift and the readout contrast and sensitivity.  The module
imports no numpy, so the ``phase``, ``stark`` and ``sensitivity`` subcommands,
which need nothing else, start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericPreconditionError

TWO_PI = 2.0 * math.pi

# SI constants; h is exact in the 2019 SI and hbar is derived from it.
H_PLANCK = 6.62607015e-34     # J*s
HBAR = H_PLANCK / TWO_PI      # J*s
MU_B = 9.2740100783e-24       # Bohr magneton, J/T
C_LIGHT = 299792458.0         # speed of light, m/s


@dataclass(frozen=True)
class NVParameters:
    """NV ground-state parameters.

    The Stark coefficient is an ordinary frequency per field; energies
    multiply it by h, not hbar.
    """

    g: float = 2.0           # gyromagnetic factor
    R2E: float = 20.0        # ground-state Stark coefficient, Hz/(V/cm)
    T2: float = 1.8e-3       # homogeneous dephasing time, s
    B_z: float = 0.0         # axial magnetic field, T

    def __post_init__(self):
        if not self.T2 > 0.0:  # also refuses NaN, as do the three checks below
            raise ValueError("dephasing time T2 must be positive")
        if not self.g > 0.0:
            raise ValueError("gyromagnetic factor g must be positive")
        if not self.B_z >= 0.0:
            raise ValueError("axial field B_z must be non-negative")
        if not self.R2E >= 0.0:
            raise ValueError("Stark coefficient R2E must be non-negative")


def total_rectified_phase(
    radius: float,
    e_field: float,
    n_rotations: float,
    g: float,
) -> float:
    """Total pi-pulse-rectified A-C phase 4*g*mu_B*r*E*n/(hbar*c^2).

    Fractional n is allowed for diagnostics; the closed form matches the echo
    simulation only at integer n (station-aligned readout).  A phase too large
    for a float is refused.
    """
    if radius < 0.0:
        raise ValueError("radius must be non-negative")
    if e_field < 0.0:
        raise ValueError("field magnitude must be non-negative")
    if n_rotations < 0.0:
        raise ValueError("rotation count must be non-negative")
    phase = 4.0 * g * MU_B * radius * e_field * n_rotations / (HBAR * C_LIGHT**2)
    if not abs(phase) < math.inf:  # False at NaN as well, like np.isfinite
        raise NumericPreconditionError(
            "total rectified A-C phase is not finite: g*r*E*n too large"
        )
    return phase


@dataclass(frozen=True)
class StarkReport:
    coupling_hz: float
    zeeman_splitting_hz: float
    shift_hz: float
    modulation_hz: float
    adiabatic: bool


def stark_shift(
    e_field_v_per_m: float,
    params: NVParameters,
    f_disk: float,
) -> StarkReport:
    """Adiabatic second-order level shift of the |+-1> pair, plus the check
    that the disk's Stark modulation (triple the rotation frequency) is slow
    against the Zeeman splitting.

    The coupling is an ordinary frequency R2E * E with E in V/cm; the shift is
    coupling^2 / (Zeeman splitting frequency) and is removed by the pi pulses.
    A shift too large for a float is refused.
    """
    zeeman = 2.0 * params.g * MU_B * params.B_z / H_PLANCK
    if not 0.0 < zeeman < math.inf:
        raise NumericPreconditionError(
            f"Zeeman splitting {zeeman!r} Hz must be positive and finite: "
            "degenerate |+-1> levels have no adiabatic shift"
        )
    coupling = params.R2E * (e_field_v_per_m / 100.0)
    shift = coupling * coupling / zeeman  # Python floats: inf, not an error, on overflow
    if not math.isfinite(shift):
        raise NumericPreconditionError(
            f"adiabatic level shift of R2E*E = {coupling!r} Hz over a Zeeman "
            f"splitting of {zeeman!r} Hz is not finite"
        )
    modulation = 3.0 * f_disk
    return StarkReport(
        coupling_hz=coupling,
        zeeman_splitting_hz=zeeman,
        shift_hz=shift,
        modulation_hz=modulation,
        adiabatic=modulation < zeeman / 100.0,
    )


@dataclass(frozen=True)
class ReadoutModel:
    """Mean detected photons per shot for the two fringe states."""

    alpha0: float  # mean counts when the spin is read out in |0>
    alpha1: float  # mean counts when the spin is read out in |1>

    def __post_init__(self):
        if self.alpha1 < 0.0 or not self.alpha0 > self.alpha1:
            raise ValueError("readout model needs alpha0 > alpha1 >= 0")


def contrast(model: ReadoutModel) -> float:
    """Combined shot- plus projection-noise contrast factor

        C = [1 + 2*(alpha0 + alpha1)/(alpha0 - alpha1)^2]^(-1/2),

    approaching 1 in the bright, well-separated limit and ~0.05 for typical
    single-NV collection efficiencies.
    """
    diff = model.alpha0 - model.alpha1  # > 0: ReadoutModel keeps alpha0 > alpha1
    square = diff * diff  # inf for huge counts (C -> 1), where diff**2 raises
    noise = 2.0 * (model.alpha0 + model.alpha1) / square if square else math.inf
    c_factor = (1.0 + noise) ** -0.5
    if not c_factor > 0.0:
        raise NumericPreconditionError(
            f"contrast of alpha0 = {model.alpha0!r}, alpha1 = {model.alpha1!r} "
            "underflows or is undefined"
        )
    return c_factor


@dataclass(frozen=True)
class SensitivityReport:
    """Single-center and ensemble sensitivity figures."""

    C: float
    T2: float
    eta: float
    N: float
    eta_ensemble: float
    T_to_1rad: float


def sensitivity_report(c_factor: float, t2: float, ensemble_size: float) -> SensitivityReport:
    """Sensitivity figures of a contrast C and coherence time T2.

    The phase sensitivity is eta = sqrt(2)/(C*sqrt(T2)) in rad/sqrt(Hz): the
    phase uncertainty after a total measurement time T is eta/sqrt(T), with
    each run lasting T2.  N centers gain sqrt(N), and pinning the phase to
    one radian takes T = eta^2.
    """
    eta = math.sqrt(2.0) / (c_factor * math.sqrt(t2))
    return SensitivityReport(
        C=c_factor,
        T2=t2,
        eta=eta,
        N=ensemble_size,
        eta_ensemble=eta / math.sqrt(ensemble_size),
        T_to_1rad=eta * eta,  # inf rather than the OverflowError of eta**2
    )
