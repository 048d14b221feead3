"""Readout statistics: the Monte Carlo photon-count experiment.

Shot noise (finite photon collection) and spin projection noise both follow
Poisson statistics; the contrast factor (:func:`ac_diamond.physics.contrast`)
folds them into a single per-shot quality number.  At a quadrature bias point
the per-shot phase variance is exactly 1/(C^2 * exp(-2*t_r/T2)), which is what
ties the analytic formulas to the Monte Carlo experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericPreconditionError
from .geometry import DiskTrajectory, FieldConfig
from .physics import NVParameters, ReadoutModel
from .physics import contrast  # noqa: F401  (callers import it from here)
from .sequence import EchoSchedule, simulate_run


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
