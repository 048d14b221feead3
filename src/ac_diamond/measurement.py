"""Readout statistics: contrast, analytic sensitivity, Monte Carlo photon counts.

Shot noise (finite photon collection) and spin projection noise both follow
Poisson statistics; the contrast factor folds them into a single per-shot
quality number.  At a quadrature bias point the per-shot phase variance is
exactly 1/(C^2 * exp(-2*t_r/T2)), which is what ties the analytic formulas to
the Monte Carlo experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericPreconditionError
from .geometry import DiskTrajectory, FieldConfig
from .physics import NVParameters
from .sequence import EchoSchedule, simulate_run


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
    diff = model.alpha0 - model.alpha1
    if diff == 0.0:
        raise ValueError("alpha0 = alpha1 gives zero contrast")
    square = diff * diff  # inf for huge counts (C -> 1), where diff**2 raises
    noise = 2.0 * (model.alpha0 + model.alpha1) / square if square else math.inf
    c_factor = (1.0 + noise) ** -0.5
    if not c_factor > 0.0:
        raise NumericPreconditionError(
            f"contrast of alpha0 = {model.alpha0!r}, alpha1 = {model.alpha1!r} "
            "underflows or is undefined"
        )
    return c_factor


def analytic_sensitivity(c_factor: float, t2: float) -> float:
    """Phase sensitivity sqrt(2)/(C*sqrt(T2)) in rad/sqrt(Hz).

    Operational meaning: the phase uncertainty after total measurement time T
    is eta/sqrt(T), with each run lasting t_r = T2.
    """
    if not 0.0 < c_factor <= 1.0:
        raise ValueError("contrast must lie in (0, 1]")
    if t2 <= 0.0:
        raise ValueError("T2 must be positive")
    return math.sqrt(2.0) / (c_factor * math.sqrt(t2))


def time_to_precision(eta: float, delta_phi: float) -> float:
    """Total measurement time (s) to reach phase uncertainty delta_phi."""
    if eta <= 0.0 or delta_phi <= 0.0:
        raise ValueError("eta and delta_phi must be positive")
    ratio = eta / delta_phi
    return ratio * ratio  # inf rather than the OverflowError of ratio**2


@dataclass(frozen=True)
class SensitivityReport:
    """Single-center and ensemble sensitivity figures."""

    C: float
    T2: float
    eta: float
    N: float
    eta_ensemble: float
    T_to_1rad: float

    def __post_init__(self):
        for name in ("C", "T2", "eta", "N", "eta_ensemble", "T_to_1rad"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if abs(self.eta_ensemble - self.eta / math.sqrt(self.N)) > 1e-12 * self.eta_ensemble:
            raise ValueError("eta_ensemble must equal eta/sqrt(N)")


def sensitivity_report(c_factor: float, t2: float, ensemble_size: float) -> SensitivityReport:
    """Assemble the sensitivity figures: eta, sqrt(N) ensemble gain, and the
    time to pin the phase to one radian."""
    eta = analytic_sensitivity(c_factor, t2)
    return SensitivityReport(
        C=c_factor,
        T2=t2,
        eta=eta,
        N=ensemble_size,
        eta_ensemble=eta / math.sqrt(ensemble_size),
        T_to_1rad=time_to_precision(eta, 1.0),
    )


@dataclass(frozen=True)
class PhaseEstimate:
    """Monte Carlo phase estimate from repeated single-shot readouts.

    ``std_error`` is the standard deviation of the mean (scales as
    1/sqrt(shots)); ``per_shot_std`` is the single-shot spread.
    """

    mean: float
    std_error: float
    per_shot_std: float
    shots: int
    true_phase: float


def monte_carlo_experiment(
    e_bias: float,
    schedule: EchoSchedule,
    traj: DiskTrajectory,
    params: NVParameters,
    model: ReadoutModel,
    shots: int,
    seed: int,
) -> PhaseEstimate:
    """Simulate ``shots`` projective readouts at the bias field and invert the
    local fringe slope to estimate the accumulated phase.

    Each shot draws the spin state from the fringe probability p1, then a
    Poisson photon count with the state's mean; the linear estimator
    phi_hat = phi_bias + (p1_hat - p1)/slope is exactly unbiased.  All draws
    come from one seeded generator, so results are a pure function of
    (inputs, seed).
    """
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    run = simulate_run(
        schedule, traj, FieldConfig(magnitude=e_bias), params, mode="closed_form"
    )
    phi_bias = run.ac_phase
    # dp1/dphi at the bias point; the envelope multiplies the fringe amplitude
    # and the fringe phase carries the final pulse of an even or odd pi count.
    slope = -0.5 * run.coherence * math.sin(run.fringe_phase)
    if abs(slope) < 1e-12:
        raise NumericPreconditionError(
            "bias point sits at zero fringe slope; phase is not invertible there"
        )
    rng = np.random.default_rng(seed)
    in_state_1 = rng.random(shots) < run.p1
    means = np.where(in_state_1, model.alpha1, model.alpha0)
    try:
        counts = rng.poisson(means)
    except ValueError as exc:  # a mean beyond the sampler's int64 counts
        raise NumericPreconditionError(f"photon count mean out of range: {exc}") from None
    p1_hat = (model.alpha0 - counts) / (model.alpha0 - model.alpha1)
    estimates = phi_bias + (p1_hat - run.p1) / slope
    per_shot_std = float(np.std(estimates, ddof=1)) if shots > 1 else 0.0
    return PhaseEstimate(
        mean=float(np.mean(estimates)),
        std_error=per_shot_std / math.sqrt(shots),
        per_shot_std=per_shot_std,
        shots=shots,
        true_phase=phi_bias,
    )
