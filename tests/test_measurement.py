"""Tests for contrast, sensitivity figures, and the Monte Carlo experiment."""

import math
import random

import pytest
from scipy import stats

from ac_diamond.errors import NumericPreconditionError
from ac_diamond.geometry import station_trajectory
from ac_diamond.measurement import (
    POISSON_LAM_MAX,
    PhaseEstimate,
    _poisson_sampler,
    monte_carlo_experiment,
)
from ac_diamond.physics import (
    NVParameters,
    ReadoutModel,
    contrast,
    sensitivity_report,
)
from ac_diamond.sequence import (
    build_echo_schedule,
    optimal_readout_lag,
)

FREQ = 4000.0
PARAMS = NVParameters()
TRAJ = station_trajectory(0.01, FREQ)
E0_PHI10 = 18249962.499985337
LAG = optimal_readout_lag(10.0)
SCHEDULE = build_echo_schedule(7, FREQ, LAG)
MODEL = ReadoutModel(alpha0=0.0499, alpha1=0.0299)


class TestContrast:
    def test_projection_noise_limit(self):
        # bright, well-separated readout: photon terms vanish
        assert contrast(ReadoutModel(alpha0=1e9, alpha1=5e8)) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_dim_photon_example(self):
        # oracle: [1 + 2*(0.05)/(0.01)^2]^(-1/2) = 1/sqrt(1001)
        value = contrast(ReadoutModel(alpha0=0.03, alpha1=0.02))
        assert value == pytest.approx(1.0 / math.sqrt(1001.0), rel=1e-12)

    def test_default_model_lands_on_reference_contrast(self):
        assert contrast(MODEL) == pytest.approx(0.05, rel=1e-12)

    def test_huge_counts_saturate_instead_of_overflowing(self):
        assert contrast(ReadoutModel(alpha0=1e300, alpha1=0.0)) == 1.0

    @pytest.mark.parametrize("alpha0, alpha1", [(5e-324, 0.0), (1.7e308, 1.6e308)])
    def test_unrepresentable_contrast_rejected(self, alpha0, alpha1):
        with pytest.raises(NumericPreconditionError):
            contrast(ReadoutModel(alpha0=alpha0, alpha1=alpha1))

    def test_equal_means_rejected(self):
        with pytest.raises(ValueError):
            ReadoutModel(alpha0=0.03, alpha1=0.03)

    def test_inverted_means_rejected(self):
        with pytest.raises(ValueError):
            ReadoutModel(alpha0=0.02, alpha1=0.03)


def eta(c_factor, t2=1.8e-3):
    return sensitivity_report(c_factor, t2, 1e11).eta


class TestAnalyticSensitivity:
    def test_reference_value(self):
        assert eta(0.05) == pytest.approx(math.sqrt(2.0) / (0.05 * math.sqrt(1.8e-3)),
                                          rel=1e-12)
        assert eta(0.05) == pytest.approx(666.6667, abs=1e-3)

    def test_ensemble_value(self):
        report = sensitivity_report(0.05, 1.8e-3, 1e11)
        assert report.eta_ensemble == pytest.approx(2.108e-3, abs=1e-5)

    def test_doubling_contrast_halves_eta(self):
        assert eta(0.1) == pytest.approx(eta(0.05) / 2.0, rel=1e-12)

    def test_monotone_in_both_arguments(self):
        assert eta(0.06) < eta(0.05)
        assert eta(0.05, 2.4e-3) < eta(0.05)


class TestTimeToPrecision:
    def test_one_radian(self):
        t = sensitivity_report(0.05, 1.8e-3, 1e11).T_to_1rad
        assert t == pytest.approx(4.444444e5, rel=1e-6)
        assert 100.0 <= t / 3600.0 <= 140.0

    def test_inverse_square(self):
        # T = eta^2, so doubling the contrast quarters it
        def time(c_factor):
            return sensitivity_report(c_factor, 1.8e-3, 1e11).T_to_1rad

        assert time(0.1) == pytest.approx(time(0.05) / 4.0, rel=1e-12)

    def test_millirad_ensemble(self):
        # (eta_ensemble/1 mrad)^2: the ensemble pins a milliradian in seconds
        report = sensitivity_report(0.05, 1.8e-3, 1e11)
        t_mrad = report.T_to_1rad / report.N / 1e-6
        assert t_mrad == pytest.approx((report.eta_ensemble / 1e-3) ** 2, rel=1e-12)
        assert t_mrad == pytest.approx(4.444, rel=1e-3)


class TestSensitivityReport:
    def test_ensemble_scaling_invariant(self):
        report = sensitivity_report(0.05, 1.8e-3, 1e11)
        assert report.eta_ensemble == pytest.approx(
            report.eta / math.sqrt(report.N), rel=1e-12
        )
        assert report.T_to_1rad == pytest.approx(report.eta**2, rel=1e-12)


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        a = monte_carlo_experiment(E0_PHI10, SCHEDULE, TRAJ, PARAMS, MODEL, 2000, 11)
        b = monte_carlo_experiment(E0_PHI10, SCHEDULE, TRAJ, PARAMS, MODEL, 2000, 11)
        assert a == b

    def test_std_scales_with_inverse_sqrt_shots(self):
        small = monte_carlo_experiment(E0_PHI10, SCHEDULE, TRAJ, PARAMS, MODEL,
                                       10000, 101)
        large = monte_carlo_experiment(E0_PHI10, SCHEDULE, TRAJ, PARAMS, MODEL,
                                       40000, 102)
        assert small.std_error / large.std_error == pytest.approx(2.0, rel=0.05)

    def test_std_scales_inversely_with_contrast(self):
        # halve alpha0 - alpha1 at fixed sum: contrast halves, spread doubles
        narrow = ReadoutModel(alpha0=0.0449, alpha1=0.0349)
        wide = monte_carlo_experiment(E0_PHI10, SCHEDULE, TRAJ, PARAMS, MODEL,
                                      40000, 5)
        tight = monte_carlo_experiment(E0_PHI10, SCHEDULE, TRAJ, PARAMS, narrow,
                                       40000, 6)
        ratio = tight.per_shot_std / wide.per_shot_std
        assert ratio == pytest.approx(contrast(MODEL) / contrast(narrow), rel=0.1)

    def test_unbiased_at_quadrature(self):
        est = monte_carlo_experiment(E0_PHI10, SCHEDULE, TRAJ, PARAMS, MODEL,
                                     10000, 21)
        assert abs(est.mean - est.true_phase) < 3.0 * est.std_error

    def test_per_shot_variance_matches_contrast_link(self):
        # per-shot phase variance at quadrature is 1/(C^2 * exp(-2 t_r/T2))
        est = monte_carlo_experiment(E0_PHI10, SCHEDULE, TRAJ, PARAMS, MODEL,
                                     40000, 31)
        envelope = math.exp(-SCHEDULE.duration / PARAMS.T2)
        predicted = 1.0 / (contrast(MODEL) * envelope)
        assert est.per_shot_std == pytest.approx(predicted, rel=0.1)

    def test_zero_slope_bias_rejected(self):
        flat_schedule = build_echo_schedule(7, FREQ, 0.0)
        with pytest.raises(NumericPreconditionError):
            monte_carlo_experiment(0.0, flat_schedule, TRAJ, PARAMS, MODEL, 100, 1)

    def test_requires_positive_shots(self):
        with pytest.raises(ValueError):
            monte_carlo_experiment(E0_PHI10, SCHEDULE, TRAJ, PARAMS, MODEL, 0, 1)

    @pytest.mark.parametrize("shots", [2.5, 10.0, math.nan, True, False, -3, "5"])
    def test_non_integer_shots_refused_by_name(self, shots):
        with pytest.raises(ValueError, match="shots must be a positive integer"):
            monte_carlo_experiment(E0_PHI10, SCHEDULE, TRAJ, PARAMS, MODEL, shots, 1)

    def test_estimate_record_fields(self):
        est = monte_carlo_experiment(E0_PHI10, SCHEDULE, TRAJ, PARAMS, MODEL,
                                     500, 3)
        assert isinstance(est, PhaseEstimate)
        assert est.shots == 500
        assert est.std_error == pytest.approx(
            est.per_shot_std / math.sqrt(500.0), rel=1e-12
        )
        assert est.true_phase == pytest.approx(10.0, rel=1e-9)


def _poisson_counts(lam, size, seed):
    draw = _poisson_sampler(lam, random.Random(seed).random)
    return [draw() for _ in range(size)]


class TestPoissonSampler:
    @pytest.mark.parametrize("lam", [0.0, 0.03, 0.5, 9.99, 10.0, 37.5, 1e4, 1e12, 1e15, 1e18])
    def test_mean_and_variance_within_5_sigma(self, lam):
        # both sides of the method switch at 10, far into PTRS, and past
        # STIRLING_LAM, where lgamma's log-probability would cancel to noise
        size = 20000
        counts = _poisson_counts(lam, size, 17)
        mean = math.fsum(counts) / size
        var = math.fsum((c - mean) ** 2 for c in counts) / (size - 1)
        # Poisson moments: variance lam, fourth central moment lam*(1 + 3*lam)
        var_of_var = (lam * (1.0 + 3.0 * lam) - (size - 3) / (size - 1) * lam**2) / size
        assert abs(mean - lam) <= 5.0 * math.sqrt(lam / size)
        assert abs(var - lam) <= 5.0 * math.sqrt(var_of_var)

    @pytest.mark.parametrize("lam", [0.05, 3.0, 37.5])
    def test_count_frequencies_pass_chi_square(self, lam):
        size = 20000
        counts = _poisson_counts(lam, size, 23)
        assert min(counts) >= 0 and all(isinstance(c, int) for c in counts)
        # bins of at least 5 expected counts: an open lower tail up to lo, one
        # bin per count, and an open upper tail from hi
        dist = stats.poisson(lam)
        lo, hi = int(dist.ppf(0.001)), int(dist.ppf(0.999))
        observed = [sum(c <= lo for c in counts)]
        observed += [counts.count(k) for k in range(lo + 1, hi)]
        observed.append(sum(c >= hi for c in counts))
        expected = [dist.cdf(lo)]
        expected += [dist.pmf(k) for k in range(lo + 1, hi)]
        expected.append(dist.sf(hi - 1))
        expected = [size * q for q in expected]
        assert min(expected) >= 5.0
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    def test_mean_range_is_numpys(self):
        for lam in (math.nextafter(POISSON_LAM_MAX, math.inf), math.inf, -0.5):
            with pytest.raises(NumericPreconditionError, match="Poisson"):
                _poisson_sampler(lam, random.Random(0).random)
        counts = _poisson_counts(POISSON_LAM_MAX, 100, 5)
        assert all(abs(c - POISSON_LAM_MAX) <= 6.0 * math.sqrt(POISSON_LAM_MAX)
                   for c in counts)
        assert POISSON_LAM_MAX == pytest.approx(9.223372006484771e18, rel=1e-15)

    def test_huge_mean_count_refused_by_the_experiment(self):
        huge = ReadoutModel(alpha0=1e30, alpha1=0.0299)
        with pytest.raises(NumericPreconditionError, match="photon count mean"):
            monte_carlo_experiment(E0_PHI10, SCHEDULE, TRAJ, PARAMS, huge, 100, 1)
