"""Command-line harness: batch runs, CSV emission, headline-number recipes.

Every subcommand is deterministic given (config, seed): identical invocations
produce byte-identical CSV.  Exit codes: 0 success, 2 configuration error,
3 numeric precondition violation (including a floating-point overflow or
invalid operation), 1 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import numbers
import sys
from pathlib import Path

from .config import AUTO_LAG, ExperimentConfig, load_config
from .errors import ConfigError, NumericPreconditionError
from .physics import (
    NVParameters, ReadoutModel, contrast, sensitivity_report, stark_shift,
    total_rectified_phase,
)

# These subcommands compute Python floats only, and never import numpy.  The
# scalar ones need nothing beyond ``physics`` and ``config``; the closed-form
# ones run on the engine in ``geometry``, ``phase`` and ``sequence``.
SCALAR_COMMANDS = ("phase", "sensitivity", "stark")
CLOSED_FORM_COMMANDS = ("sweep", "echo-check")
CLOSED_FORM_MODULES = (".geometry", ".phase", ".sequence")
# The other subcommands' names, by defining module.  A name is imported on
# first attribute access (``__getattr__``), or by ``main`` before such a
# subcommand runs; a name already set on this module, e.g. by a tracer or a
# test double, is kept.
_LAZY = {
    "np": "numpy",
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
    value = globals()[name] = module if name == "np" else getattr(module, name)
    return value


def _bind_lazy(modules=None) -> None:
    """Bind every lazy name not yet set, or only those defined in
    ``modules``, so that global lookups find them."""
    for name, module in _LAZY.items():
        if name not in globals() and (modules is None or module in modules):
            __getattr__(name)


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
    phi_max = total_rectified_phase(cfg.r, cfg.E0, cfg.n, cfg.g)
    if cfg.lag == AUTO_LAG:
        return optimal_readout_lag(phi_max)
    return float(cfg.lag)


def _echo_setup(args):
    """Config, standard echo schedule and station-aligned trajectory shared by
    the schedule-based subcommands."""
    cfg = _load(args)
    n_int = cfg.integer_rotations()
    # before the lag, so an unrepresentable r or f is refused by name
    traj = station_trajectory(cfg.r, cfg.f, tilt=cfg.tilt)
    schedule = build_echo_schedule(n_int, cfg.f, _resolved_lag(cfg))
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
    grid = linear_grid(cfg.E0, args.grid)
    sweep = sweep_signal(grid, schedule, traj, _nv_params(cfg))
    crossings = fringe_zero_crossings(sweep.p1)
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
    params = _nv_params(cfg)
    field = FieldConfig(magnitude=cfg.E0)
    planar = station_trajectory(cfg.r, cfg.f, tilt=0.0)
    tilted = station_trajectory(cfg.r, cfg.f, tilt=cfg.tilt) if cfg.tilt else planar
    half = 1.0 / (2.0 * cfg.f)
    exact = segment_phase(0.0, half, planar, field, params)
    rows = []
    worst_unitarity = 0.0
    for steps in _holonomy_ladder(args.steps):
        prop = path_ordered_propagator(
            PathSampling(0.0, half, steps, planar, field), params
        )
        fwd = path_ordered_propagator(
            PathSampling(0.0, 2.0 * half, steps, tilted, field), params
        )
        # planar steps commute, so the reverse-ordered product is fwd bit for bit
        rev = fwd if tilted is planar else path_ordered_propagator(
            PathSampling(0.0, 2.0 * half, steps, tilted, field), params, reverse=True
        )
        worst_unitarity = max(worst_unitarity, prop.defect, fwd.defect)
        rows.append(
            (
                steps,
                abs(prop.abelian_phase() - exact),
                prop.offdiagonal_norm(),
                float(np.linalg.norm(fwd.U - rev.U, 2)),
            )
        )
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
        estimate = monte_carlo_experiment(
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
    field = FieldConfig(magnitude=cfg.E0)
    params = _nv_params(cfg)
    baseline = simulate_run(schedule, traj, field, params, mode="closed_form")
    rows = []
    for detuning in ECHO_DETUNINGS:
        run = simulate_run(
            schedule, traj, field, params, mode="closed_form",
            detuning_hz=detuning,
        )
        rows.append((detuning, run.static_phase, abs(run.p1 - baseline.p1)))
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

    def common(p, steps=False, grid=False):
        p.add_argument("--config", help="experiment config file (key = value lines)")
        p.add_argument("--out", help="CSV output path (default: stdout)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if steps:
            p.add_argument("--steps", type=_positive_int, default=100000,
                           help="finest path-integration step count")
        if grid:
            p.add_argument("--grid", type=_positive_int, default=201,
                           help="number of sweep grid points")

    p = sub.add_parser("phase", help="closed-form total rectified A-C phase")
    common(p)
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("sweep", help="fluorescence signal vs field strength")
    common(p, grid=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("holonomy", help="path-ordered propagator diagnostics")
    common(p, steps=True)
    p.set_defaults(func=_cmd_holonomy)

    p = sub.add_parser("sensitivity", help="contrast and phase sensitivity report")
    common(p)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("montecarlo", help="photon-count Monte Carlo phase estimate")
    common(p)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("stark", help="ground-state Stark shift and adiabaticity")
    common(p)
    p.set_defaults(func=_cmd_stark)

    p = sub.add_parser("echo-check", help="residual phase vs constant detuning")
    common(p)
    p.set_defaults(func=_cmd_echo_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Python floats, which the code checks for overflow: no numpy needed
        if args.command in SCALAR_COMMANDS:
            return args.func(args)
        if args.command in CLOSED_FORM_COMMANDS:
            _bind_lazy(CLOSED_FORM_MODULES)
            return args.func(args)
        _bind_lazy()
        # a float overflow, 0/0 or x/0 is a numeric precondition violation
        # (exit 3), not a warning printed before inf/NaN output
        with np.errstate(over="raise", divide="raise", invalid="raise"):
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
