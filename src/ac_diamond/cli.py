"""Command-line harness: batch runs, CSV emission, headline-number recipes.

Every subcommand is deterministic given (config, seed): identical invocations
produce byte-identical CSV.  Exit codes: 0 success, 2 configuration error,
3 numeric precondition violation (including a floating-point overflow or
invalid operation), 1 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import math
import numbers
import sys
from pathlib import Path

from .config import AUTO_LAG, ExperimentConfig, load_config
from .errors import ConfigError, NumericPreconditionError
from .physics import (
    TWO_PI, NVParameters, ReadoutModel, contrast, sensitivity_report, stark_shift,
    total_rectified_phase,
)

# The names the subcommands use from the engine modules, by defining module.
# Handlers read them as ``lazy.<name>``: a name set on this module, e.g. by a
# tracer or a test double, else the defining module's object, imported on
# first access (``__getattr__``).
_LAZY = {
    "FieldConfig": ".geometry",
    "station_trajectory": ".geometry",
    "PathSampling": ".holonomy",
    "path_ordered_propagator": ".holonomy",
    # unused here since each Propagator carries its defect, but the benchmark
    # tracer patches it at this module (tests/test_tracer_sites.py)
    "unitarity_defect": ".holonomy",
    "monte_carlo_experiment": ".measurement",
    "segment_phase": ".phase",
    "build_echo_schedule": ".sequence",
    "fringe_zero_crossings": ".sequence",
    "linear_grid": ".sequence",
    "optimal_readout_lag": ".sequence",
    "simulate_run": ".sequence",
    "sweep_signal": ".sequence",
}

CSV_VERSION = "# ac-diamond csv v1"
MC_SHOT_LADDER = (2500, 10000, 40000)
ECHO_DETUNINGS = (0.0, 1.0e4, 1.0e5, 1.0e6, 1.0e7)


def __getattr__(name):
    """Import one of the lazy names on first access (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(_LAZY[name], __package__)
    value = globals()[name] = getattr(module, name)
    return value


class _Lazy:
    """``lazy.<name>`` looks ``name`` up on this module at each call, so a
    fresh copy of the module finds its own names and patches."""

    def __getattr__(self, name):
        # the module-level __getattr__ above, not this method
        return globals()[name] if name in globals() else __getattr__(name)


lazy = _Lazy()


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return f"{float(value):.17g}"


def _emit_csv(out_path, header, rows) -> None:
    lines = [CSV_VERSION, ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _nv_params(cfg: ExperimentConfig) -> NVParameters:
    return NVParameters(g=cfg.g, R2E=cfg.R2E, T2=cfg.T2, B_z=cfg.B_z)


def _resolved_lag(cfg: ExperimentConfig) -> float:
    if cfg.lag != AUTO_LAG:
        return float(cfg.lag)
    return lazy.optimal_readout_lag(total_rectified_phase(cfg.r, cfg.E0, cfg.n, cfg.g))


def _echo_setup(args):
    """Config, standard echo schedule and station-aligned trajectory shared by
    the schedule-based subcommands."""
    cfg = _load(args)
    n_int = cfg.integer_rotations()
    # before the lag, so an unrepresentable r or f is refused by name
    traj = lazy.station_trajectory(cfg.r, cfg.f, tilt=cfg.tilt)
    schedule = lazy.build_echo_schedule(n_int, cfg.f, _resolved_lag(cfg))
    return cfg, schedule, traj


def _cmd_phase(args) -> int:
    cfg = _load(args)
    phi = total_rectified_phase(cfg.r, cfg.E0, cfg.n, cfg.g)
    print(
        f"total rectified A-C phase: {phi:.6f} rad "
        f"(r={cfg.r:g} m, E={cfg.E0:g} V/m, n={cfg.n:g}, g={cfg.g:g})"
    )
    if args.out:
        _emit_csv(
            args.out,
            ("r_m", "E0_V_per_m", "n_rotations", "g", "phase_rad"),
            [(cfg.r, cfg.E0, cfg.n, cfg.g, phi)],
        )
    return 0


def _cmd_sweep(args) -> int:
    cfg, schedule, traj = _echo_setup(args)
    grid = lazy.linear_grid(cfg.E0, args.grid)
    sweep = lazy.sweep_signal(grid, schedule, traj, _nv_params(cfg))
    crossings = lazy.fringe_zero_crossings(sweep.p1)
    idx = sweep.max_slope_index
    print(f"readout lag: {schedule.readout_lag:.6f} rad")
    print(
        f"max |dp1/dE| at grid point {idx}/{len(grid) - 1} "
        f"(E = {grid[idx]:.6g} V/m)"
    )
    print(f"fringe zero crossings (T2 -> inf): {crossings}")
    _emit_csv(
        args.out,
        ("E_V_per_m", "phase_rad", "p1", "p1_with_decoherence"),
        list(zip(sweep.e_values, sweep.phases, sweep.p1, sweep.p1_decohered)),
    )
    return 0


def _holonomy_ladder(max_steps: int) -> list[int]:
    ladder = [max(max_steps // 2**k, 1) for k in range(4, -1, -1)]
    return sorted(set(ladder))


def _cmd_holonomy(args) -> int:
    cfg = _load(args)
    guard = contextlib.nullcontext()
    if cfg.tilt:  # a planar disk's propagator is computed without numpy
        import numpy as np

        # a float overflow, 0/0 or x/0 is a numeric precondition violation
        # (exit 3), not a warning printed before inf/NaN output
        guard = np.errstate(over="raise", divide="raise", invalid="raise")
    with guard:
        params = _nv_params(cfg)
        field = lazy.FieldConfig(magnitude=cfg.E0)
        planar = lazy.station_trajectory(cfg.r, cfg.f, tilt=0.0)
        if cfg.tilt:
            tilted = lazy.station_trajectory(cfg.r, cfg.f, tilt=cfg.tilt)
        half = 1.0 / (2.0 * cfg.f)
        exact = lazy.segment_phase(0.0, half, planar, field, params)
        rows = []
        worst_unitarity = 0.0
        for steps in _holonomy_ladder(args.steps):
            prop = lazy.path_ordered_propagator(
                lazy.PathSampling(0.0, half, steps, planar, field), params
            )
            worst_unitarity = max(worst_unitarity, prop.defect)
            path_dep = 0.0  # planar steps commute
            if cfg.tilt:
                loop = lazy.PathSampling(0.0, 2.0 * half, steps, tilted, field)
                fwd = lazy.path_ordered_propagator(loop, params)
                rev = lazy.path_ordered_propagator(loop, params, reverse=True)
                worst_unitarity = max(worst_unitarity, fwd.defect, rev.defect)
                path_dep = float(np.linalg.norm(fwd.U - rev.U, 2))
            # abelian_phase is wrapped into (-pi, pi]; exact is not
            error = abs(math.remainder(prop.abelian_phase() - exact, TWO_PI))
            rows.append((steps, error, prop.offdiagonal_norm(), path_dep))
        print(f"planar segment phase (analytic): {exact:.9f} rad")
        print(f"worst unitarity defect: {worst_unitarity:.3e}")
        print(f"tilt used for path-dependence column: {cfg.tilt:g} rad")
        _emit_csv(
            args.out,
            ("steps", "planar_phase_error", "offdiag_norm", "path_dep_norm"),
            rows,
        )
        return 0


def _cmd_sensitivity(args) -> int:
    cfg = _load(args)
    c_factor = contrast(ReadoutModel(alpha0=cfg.alpha0, alpha1=cfg.alpha1))
    report = sensitivity_report(c_factor, cfg.T2, cfg.N)
    print(f"contrast C = {report.C:.6f}")
    print(f"single-center eta = {report.eta:.4f} rad/sqrt(Hz)")
    print(
        f"ensemble (N = {report.N:.3g}) eta = {report.eta_ensemble * 1e3:.4f} "
        "mrad/sqrt(Hz)"
    )
    print(
        f"time to 1 rad precision: {report.T_to_1rad:.6g} s "
        f"({report.T_to_1rad / 3600.0:.2f} h)"
    )
    _emit_csv(
        args.out,
        (
            "C", "T2_s", "eta_rad_per_sqrt_hz", "N",
            "eta_ensemble_rad_per_sqrt_hz", "T_to_1rad_s",
        ),
        [(report.C, report.T2, report.eta, report.N, report.eta_ensemble,
          report.T_to_1rad)],
    )
    return 0


def _cmd_montecarlo(args) -> int:
    cfg, schedule, traj = _echo_setup(args)
    model = ReadoutModel(alpha0=cfg.alpha0, alpha1=cfg.alpha1)
    params = _nv_params(cfg)
    rows = []
    for offset, shots in enumerate(MC_SHOT_LADDER):
        estimate = lazy.monte_carlo_experiment(
            cfg.E0, schedule, traj, params, model, shots, cfg.seed + offset
        )
        rows.append((shots, estimate.mean, estimate.std_error))
    print(f"bias phase (true): {estimate.true_phase:.6f} rad")
    print(f"per-shot std at {estimate.shots} shots: {estimate.per_shot_std:.4f} rad")
    _emit_csv(args.out, ("shots", "phase_mean_rad", "phase_std_rad"), rows)
    return 0


def _cmd_stark(args) -> int:
    cfg = _load(args)
    report = stark_shift(cfg.E0, _nv_params(cfg), f_disk=cfg.f)
    print(f"Stark coupling R2E*E = {report.coupling_hz / 1e6:.4f} MHz")
    print(f"Zeeman splitting = {report.zeeman_splitting_hz / 1e6:.4f} MHz")
    print(f"adiabatic level shift = {report.shift_hz / 1e6:.4f} MHz")
    print(
        f"Stark modulation 3f = {report.modulation_hz / 1e3:.4f} kHz; "
        f"adiabatic: {'yes' if report.adiabatic else 'no'}"
    )
    if args.out:
        _emit_csv(
            args.out,
            ("coupling_hz", "zeeman_splitting_hz", "shift_hz", "modulation_hz",
             "adiabatic"),
            [(report.coupling_hz, report.zeeman_splitting_hz, report.shift_hz,
              report.modulation_hz, report.adiabatic)],
        )
    return 0


def _cmd_echo_check(args) -> int:
    cfg, schedule, traj = _echo_setup(args)
    field = lazy.FieldConfig(magnitude=cfg.E0)
    params = _nv_params(cfg)
    runs = [lazy.simulate_run(schedule, traj, field, params, mode="closed_form",
                              detuning_hz=detuning) for detuning in ECHO_DETUNINGS]
    baseline = runs[0]  # ECHO_DETUNINGS[0] is 0 Hz
    rows = [(detuning, run.static_phase, abs(run.p1 - baseline.p1))
            for detuning, run in zip(ECHO_DETUNINGS, runs)]
    worst = max(abs(row[1]) for row in rows)
    print(f"echoed A-C phase: {baseline.ac_phase:.6f} rad; p1 = {baseline.p1:.6f}")
    print(f"max residual non-A-C phase over detunings: {worst:.3e} rad")
    _emit_csv(
        args.out,
        ("detuning_hz", "residual_phase_rad", "abs_p1_change"),
        rows,
    )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


# name -> (handler, help, its count flag as (flag, default, help) or None)
SUBCOMMANDS = {
    "phase": (_cmd_phase, "closed-form total rectified A-C phase", None),
    "sweep": (_cmd_sweep, "fluorescence signal vs field strength",
              ("--grid", 201, "number of sweep grid points")),
    "holonomy": (_cmd_holonomy, "path-ordered propagator diagnostics",
                 ("--steps", 100000, "finest path-integration step count")),
    "sensitivity": (_cmd_sensitivity, "contrast and phase sensitivity report", None),
    "montecarlo": (_cmd_montecarlo, "photon-count Monte Carlo phase estimate", None),
    "stark": (_cmd_stark, "ground-state Stark shift and adiabaticity", None),
    "echo-check": (_cmd_echo_check, "residual phase vs constant detuning", None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ac-diamond",
        description=(
            "Spinning-disk NV-center Aharonov-Casher experiment: closed-form "
            "phases, echo simulation, holonomy diagnostics, and readout "
            "statistics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, count) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config file (key = value lines)")
        p.add_argument("--out", help="CSV output path (default: stdout)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if count:
            flag, default, flag_help = count
            p.add_argument(flag, type=_positive_int, default=default, help=flag_help)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # ArithmeticError: numpy's FloatingPointError, and Python's
    # ZeroDivisionError and OverflowError
    except (NumericPreconditionError, ArithmeticError) as exc:
        print(f"numeric precondition violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
