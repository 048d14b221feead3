"""Simulator and analysis toolkit for a spinning-disk NV-center
Aharonov-Casher experiment."""

from .config import ExperimentConfig, load_config
from .errors import ConfigError, NumericPreconditionError
from .geometry import (
    DiskTrajectory,
    FieldConfig,
    position,
    station_trajectory,
    velocity,
)
from .holonomy import (
    PathSampling,
    Propagator,
    dyson_second_order,
    effective_hamiltonian_evolve,
    path_ordered_propagator,
)
from .measurement import (
    PhaseEstimate,
    ReadoutModel,
    SensitivityReport,
    analytic_sensitivity,
    contrast,
    monte_carlo_experiment,
    sensitivity_report,
    time_to_precision,
)
from .phase import (
    coupling_constant,
    phase_rate,
    segment_phase,
    total_rectified_phase,
)
from .physics import (
    NVParameters,
    SpinState,
    apply_rotation,
    spin_operators,
)
from .sequence import (
    EchoSchedule,
    RunResult,
    StarkReport,
    SweepResult,
    build_echo_schedule,
    fringe_zero_crossings,
    odd_pulse_schedule,
    optimal_readout_lag,
    signal_probability,
    simulate_run,
    stark_shift,
    strip_pi_pulses,
    sweep_signal,
)

__version__ = "0.1.0"
