"""SI constants, NV ground-state parameters, the spin-matrix stack and qubit rotations.

Basis convention used throughout the package: amplitude vectors and operator
matrices are indexed by ascending magnetic quantum number, i.e. (|-1>, |0>, |+1>)
for spin-1 and (|-1/2>, |+1/2>) for spin-1/2.  The NV qubit lives on the
{|0>, |1>} subspace (indices 1 and 2 of a spin-1 vector).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

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
        if self.T2 <= 0.0:
            raise ValueError("dephasing time T2 must be positive")
        if self.g <= 0.0:
            raise ValueError("gyromagnetic factor g must be positive")
        if self.B_z < 0.0:
            raise ValueError("axial field B_z must be non-negative")
        if self.R2E < 0.0:
            raise ValueError("Stark coefficient R2E must be non-negative")


def spin_operators(dimension: int) -> np.ndarray:
    """Spin matrices (Sx, Sy, Sz) in units of hbar as a (3, dim, dim) stack,
    for spin-1/2 (dimension=2) or spin-1 (dimension=3).

    Built from the ladder operators in the Sz eigenbasis ordered by ascending m,
    so Sz = diag(m) with m = -s..+s.
    """
    if dimension not in (2, 3):
        raise ValueError(f"unsupported spin dimension {dimension}; expected 2 or 3")
    s = (dimension - 1) / 2.0
    m = np.arange(dimension) - s
    sz = np.diag(m).astype(complex)
    # (S+)_{m+1,m} = sqrt(s(s+1) - m(m+1))
    raising = np.zeros((dimension, dimension), dtype=complex)
    for k in range(dimension - 1):
        raising[k + 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    sx = (raising + raising.conj().T) / 2.0
    sy = (raising - raising.conj().T) / 2j
    return np.stack([sx, sy, sz])


@dataclass(frozen=True)
class SpinState:
    """Normalized complex amplitudes over the ascending-m basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size not in (2, 3):
            raise ValueError("amplitudes must be a complex vector of length 2 or 3")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def ground(cls) -> "SpinState":
        """The optically pumped |0> state of the spin-1 ground triplet."""
        return cls(np.array([0.0, 1.0, 0.0], dtype=complex))

    def population(self, m: int) -> float:
        """Population of the Sz eigenstate with magnetic quantum number m."""
        idx = {-1: 0, 0: 1, 1: 2}[m]
        return float(np.abs(self.amplitudes[idx]) ** 2)


def rotation_matrix(theta: float, phi: float) -> np.ndarray:
    """2x2 unitary of the Rabi rotation by angle theta about the equatorial
    axis set by phase phi, on the (|0>, |1>) pair."""
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    return np.array(
        [
            [c, -1j * np.exp(-1j * phi) * s],
            [-1j * np.exp(1j * phi) * s, c],
        ]
    )


def apply_rotation(state: SpinState, theta: float, phi: float) -> SpinState:
    """Apply a qubit Rabi pulse; the |-1> amplitude is untouched."""
    amps = state.amplitudes.copy()
    if amps.size != 3:
        raise ValueError("qubit rotations act on spin-1 states")
    amps[1:] = rotation_matrix(theta, phi) @ amps[1:]
    return SpinState(amps)
