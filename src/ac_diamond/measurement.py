"""Readout statistics: the Monte Carlo photon-count experiment.

Shot noise (finite photon collection) and spin projection noise both follow
Poisson statistics; the contrast factor (:func:`ac_diamond.physics.contrast`)
folds them into a single per-shot quality number.  At a quadrature bias point
the per-shot phase variance is exactly 1/(C^2 * exp(-2*t_r/T2)), which is what
ties the analytic formulas to the Monte Carlo experiment.

The experiment computes in Python floats and imports no numpy.  Every draw is
a ``random.Random(seed).random()`` uniform, a sequence Python keeps the same
across versions, so the estimates are a pure function of (inputs, seed).  The
photon counts come from a Poisson sampler built on those uniforms alone.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass

from .errors import NumericPreconditionError
from .geometry import DiskTrajectory, FieldConfig
from .physics import NVParameters, ReadoutModel
from .physics import contrast  # noqa: F401  (callers import it from here)
from .sequence import EchoSchedule, simulate_run

# The largest Poisson mean numpy's generator accepts, so that every count fits
# an int64: the int64 maximum less ten of its square roots (about 9.22e18).
POISSON_LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10
# From this mean on, PTRS takes log(lam**k*exp(-lam)/k!) in a form free of
# cancellation; below it, in numpy's form.
STIRLING_LAM = 1e7


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
    come from one ``random.Random(seed)``, so results are a pure function of
    (inputs, seed).  A photon count mean above ``POISSON_LAM_MAX`` raises
    NumericPreconditionError.
    """
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    shots = int(shots)
    run = simulate_run(
        schedule, traj, FieldConfig(magnitude=e_bias), params, mode="closed_form"
    )
    phi_bias = run.ac_phase
    # dp1/dphi at the bias point; the envelope multiplies the fringe amplitude
    # and the fringe phase carries the lagging final pulse.
    slope = -0.5 * run.coherence * math.sin(run.fringe_phase)
    if abs(slope) < 1e-12:
        raise NumericPreconditionError(
            "bias point sits at zero fringe slope; phase is not invertible there"
        )
    uniform = random.Random(seed).random
    draw_count_1 = _poisson_sampler(model.alpha1, uniform)
    draw_count_0 = _poisson_sampler(model.alpha0, uniform)
    # numpy's draw order: every shot's spin state, then every shot's count
    in_state_1 = [uniform() < run.p1 for _ in range(shots)]
    counts = [draw_count_1() if state else draw_count_0() for state in in_state_1]
    # phi_hat is linear in the count, so its mean and spread are the counts'
    # mapped through it
    gap = model.alpha0 - model.alpha1
    mean_count = math.fsum(counts) / shots
    count_std = (
        math.sqrt(math.fsum((c - mean_count) ** 2 for c in counts) / (shots - 1))
        if shots > 1 else 0.0
    )
    per_shot_std = count_std / (gap * abs(slope))
    return PhaseEstimate(
        mean=phi_bias + ((model.alpha0 - mean_count) / gap - run.p1) / slope,
        std_error=per_shot_std / math.sqrt(shots),
        per_shot_std=per_shot_std,
        shots=shots,
        true_phase=phi_bias,
    )


def _poisson_sampler(lam: float, uniform):
    """A function that draws one Poisson(``lam``) count from the [0, 1)
    uniforms that ``uniform()`` returns, by numpy's two methods.

    Means below 10 use the multiplication method: the count is the number of
    uniforms whose running product stays above exp(-lam).  It costs lam + 1
    draws a count on average and breaks once exp(-lam) underflows, so larger
    means use Hörmann's transformed rejection with squeeze, PTRS (Insurance:
    Mathematics and Economics 12, 39 (1993)), at a cost that does not grow
    with the mean.  Its acceptance test compares against the log-probability
    -lam + k*log(lam) - lgamma(k + 1), whose terms cancel to nothing at large
    means (k*log(lam) is 3.5e16 at lam = 1e15, where a double's spacing is
    4).  From ``STIRLING_LAM`` on it uses Stirling's series in d = k - lam,
    d - k*log1p(d/lam) - log(2*pi*k)/2 - 1/(12k), instead.
    A mean above ``POISSON_LAM_MAX`` is refused.
    """
    if not 0.0 <= lam <= POISSON_LAM_MAX:
        raise NumericPreconditionError(
            f"photon count mean {lam!r} is outside the Poisson sampler's range "
            f"[0, {POISSON_LAM_MAX!r}]"
        )
    if lam < 10.0:
        threshold = math.exp(-lam)

        def multiplication() -> int:
            count, product = 0, uniform()
            while product > threshold:
                count += 1
                product *= uniform()
            return count

        return multiplication

    log_lam = math.log(lam)

    def log_probability(k: int) -> float:
        if lam < STIRLING_LAM or k == 0:  # Stirling's series needs k >= 1
            return -lam + k * log_lam - math.lgamma(k + 1)
        d = k - lam
        return d - k * math.log1p(d / lam) - 0.5 * math.log(math.tau * k) - 1.0 / (12.0 * k)

    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    log_inv_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2.0)

    def ptrs() -> int:
        while True:
            u = uniform() - 0.5
            v = uniform()
            us = 0.5 - abs(u)
            if us == 0.0:  # u = -0.5 gives k = -inf, which is rejected
                continue
            k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= v_r:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            # log(0) = -inf accepts
            if v == 0.0 or (
                math.log(v) + log_inv_alpha - math.log(a / (us * us) + b)
                <= log_probability(k)
            ):
                return k

    return ptrs
