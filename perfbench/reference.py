"""Independent references for every output the benchmark checks.

Nothing here imports ``ac_diamond``: the closed forms are the paper's formulas
written out in plain numpy, the tilted propagators are integrated with scipy's
DOP853, and config files are parsed by a small parser of the same
``key = value`` format.  Each ``check_*`` function returns a list
of problems; an empty list means the output matched.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

H = 6.62607015e-34  # J s, exact in the 2019 SI
HBAR = H / (2.0 * math.pi)
MU_B = 9.2740100783e-24  # J/T
C_LIGHT = 299792458.0  # m/s

CSV_SCHEMA = "# ac-diamond csv v1"
ECHO_DETUNINGS = (0.0, 1.0e4, 1.0e5, 1.0e6, 1.0e7)
MC_SHOTS = (2500, 10000, 40000)

REL_TOL = 1e-12  # formulas evaluated in a different operation order
P1_ABS_TOL = 1e-9  # event-walking closed form sums 2n segment phases
MC_SIGMAS = 5.0
# Midpoint-rule error ratio per halving of the step (acceptance criterion 5).
CONVERGENCE_RATIO = (3.5, 4.5)
IVP_RTOL = 1e-12
IVP_ATOL = 1e-13

_SQRT2 = math.sqrt(2.0)
# Spin-1 operators in the ascending-m basis; Sy = (S+ - S-)/(2i).
SY = np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]], dtype=complex) / (_SQRT2 * 1j)
SZ = np.diag([-1.0, 0.0, 1.0]).astype(complex)


# --------------------------------------------------------------------------
# Configs


def parse_config(text: str) -> dict:
    """``key = value`` lines with ``#`` comments; numbers as floats."""
    values = {}
    for line in text.splitlines():
        content = line.split("#", 1)[0].strip()
        if not content:
            continue
        key, raw = (part.strip() for part in content.split("=", 1))
        values[key] = raw if raw == "auto" else float(raw)
    return values


def resolve_config(path: Path, defaults_path: Path) -> dict:
    """Config values with missing keys taken from the shipped defaults."""
    values = parse_config(defaults_path.read_text())
    values.update(parse_config(path.read_text()))
    return values


def format_config(values: dict) -> str:
    """Config text whose floats round-trip exactly."""
    return "".join(
        f"{key} = {value if isinstance(value, str) else repr(float(value))}\n"
        for key, value in values.items()
    )


# --------------------------------------------------------------------------
# Closed forms


def coupling(g: float) -> float:
    """g*mu_B/(hbar*c^2): A-C phase per volt of E.dy."""
    return g * MU_B / (HBAR * C_LIGHT**2)


def rectified_phase(r, e_field, n, g):
    return 4.0 * coupling(g) * r * e_field * n


def auto_lag(cfg: dict) -> float:
    phi_max = rectified_phase(cfg["r"], cfg["E0"], cfg["n"], cfg["g"])
    return (phi_max - math.pi / 2.0) % math.pi


def readout_lag(cfg: dict) -> float:
    return auto_lag(cfg) if cfg["lag"] == "auto" else float(cfg["lag"])


def p1_closed_form(phi, lag, t_r, t2):
    return 0.5 * (1.0 + math.exp(-t_r / t2) * np.cos(phi - lag))


# --------------------------------------------------------------------------
# Path dependence by ODE integration


def generator(t: float, cfg: dict) -> np.ndarray:
    """G(t) = kappa * S.(E x v) in rad/s for the field along x."""
    omega = 2.0 * math.pi * cfg["f"]
    theta = -math.pi / 2.0 + omega * t
    speed = omega * cfg["r"]
    vx, vy = -speed * math.sin(theta), speed * math.cos(theta)
    vz = -math.sin(cfg["tilt"]) * vx  # disk plane rotated about y
    k = coupling(cfg["g"]) * cfg["E0"]
    return k * (-vz * SY + vy * SZ)


def _evolve(y0, t0, t1, rhs):
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=IVP_RTOL, atol=IVP_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def path_dependence(cfg: dict) -> float:
    """||U_fwd - U_rev||_2 over one rotation, where U_rev integrates G(T - t)."""
    if cfg["tilt"] == 0.0:
        return 0.0  # planar generators commute
    period = 1.0 / cfg["f"]

    def fwd(t, y):
        return (-1j * generator(t, cfg) @ y.reshape(3, 3)).ravel()

    def rev(t, y):
        return (-1j * generator(period - t, cfg) @ y.reshape(3, 3)).ravel()

    eye = np.eye(3, dtype=complex).ravel()
    u_fwd = _evolve(eye, 0.0, period, fwd).reshape(3, 3)
    u_rev = _evolve(eye, 0.0, period, rev).reshape(3, 3)
    return float(np.linalg.norm(u_fwd - u_rev, 2))


# --------------------------------------------------------------------------
# Output checks


def read_csv(path: Path, header: tuple[str, ...]) -> list[list[float]]:
    lines = path.read_text().splitlines()
    if lines[:2] != [CSV_SCHEMA, ",".join(header)]:
        raise ValueError(f"unexpected CSV preamble in {path.name}: {lines[:2]}")
    values = {"true": 1.0, "false": 0.0}
    return [[values[v] if v in values else float(v) for v in line.split(",")]
            for line in lines[2:]]


def _close(name, got, want, rel=REL_TOL, abs_tol=0.0):
    if abs(got - want) <= rel * abs(want) + abs_tol:
        return []
    return [f"{name}: got {got!r}, reference {want!r}"]


def check_phase(path: Path, cfg: dict) -> list[str]:
    (row,) = read_csv(path, ("r_m", "E0_V_per_m", "n_rotations", "g", "phase_rad"))
    want = rectified_phase(cfg["r"], cfg["E0"], cfg["n"], cfg["g"])
    return _close("phase_rad", row[4], want) + _close("E0", row[1], cfg["E0"])


def check_sensitivity(path: Path, cfg: dict) -> list[str]:
    header = ("C", "T2_s", "eta_rad_per_sqrt_hz", "N",
              "eta_ensemble_rad_per_sqrt_hz", "T_to_1rad_s")
    (row,) = read_csv(path, header)
    a0, a1 = cfg["alpha0"], cfg["alpha1"]
    c = (1.0 + 2.0 * (a0 + a1) / (a0 - a1) ** 2) ** -0.5
    eta = math.sqrt(2.0) / (c * math.sqrt(cfg["T2"]))
    want = (c, cfg["T2"], eta, cfg["N"], eta / math.sqrt(cfg["N"]), eta**2)
    return [p for name, got, ref in zip(header, row, want) for p in _close(name, got, ref)]


def check_stark(path: Path, cfg: dict) -> list[str]:
    header = ("coupling_hz", "zeeman_splitting_hz", "shift_hz", "modulation_hz",
              "adiabatic")
    (row,) = read_csv(path, header)
    coupling_hz = cfg["R2E"] * cfg["E0"] / 100.0
    zeeman = 2.0 * cfg["g"] * MU_B * cfg["B_z"] / H
    modulation = 3.0 * cfg["f"]
    want = (coupling_hz, zeeman, coupling_hz**2 / zeeman, modulation,
            float(modulation < zeeman / 100.0))
    return [p for name, got, ref in zip(header, row, want) for p in _close(name, got, ref)]


def check_sweep(path: Path, cfg: dict, grid: int) -> list[str]:
    rows = np.array(read_csv(path, ("E_V_per_m", "phase_rad", "p1", "p1_with_decoherence")))
    if rows.shape != (grid, 4):
        return [f"sweep: expected {grid} rows, got {rows.shape[0]}"]
    e = rows[:, 0]
    problems = []
    if np.max(np.abs(e - np.linspace(0.0, cfg["E0"], grid))) > REL_TOL * cfg["E0"]:
        problems.append("sweep: field grid differs from linspace(0, E0, grid)")
    n = int(cfg["n"])
    phi = rectified_phase(cfg["r"], e, n, cfg["g"])
    p1 = p1_closed_form(phi, readout_lag(cfg), 0.0, math.inf)
    p1_dec = p1_closed_form(phi, readout_lag(cfg), n / cfg["f"], cfg["T2"])
    for name, got, want, tol in (
        ("phase_rad", rows[:, 1], phi, REL_TOL * np.abs(phi)),
        ("p1", rows[:, 2], p1, P1_ABS_TOL),
        ("p1_with_decoherence", rows[:, 3], p1_dec, P1_ABS_TOL),
    ):
        excess = np.abs(got - want) - tol
        worst = int(np.argmax(excess))
        if excess[worst] > 0.0:
            problems.append(
                f"sweep {name} at E={e[worst]!r}: got {got[worst]!r}, "
                f"reference {want[worst]!r}"
            )
    return problems


def check_echo(path: Path) -> list[str]:
    rows = read_csv(path, ("detuning_hz", "residual_phase_rad", "abs_p1_change"))
    problems = []
    if tuple(row[0] for row in rows) != ECHO_DETUNINGS:
        problems.append(f"echo-check: detunings {[row[0] for row in rows]}")
    problems += [f"echo-check: nonzero residual at {row[0]:g} Hz: {row[1:]}"
                 for row in rows if row[1] != 0.0 or row[2] != 0.0]
    return problems


def check_montecarlo(path: Path, cfg: dict) -> list[str]:
    rows = read_csv(path, ("shots", "phase_mean_rad", "phase_std_rad"))
    if tuple(int(row[0]) for row in rows) != MC_SHOTS:
        return [f"montecarlo: shot ladder {[row[0] for row in rows]}"]
    true_phase = rectified_phase(cfg["r"], cfg["E0"], int(cfg["n"]), cfg["g"])
    return [
        f"montecarlo: mean {mean!r} is more than {MC_SIGMAS:g} std ({std!r}) "
        f"from {true_phase!r} at {int(shots)} shots"
        for shots, mean, std in rows
        if not abs(mean - true_phase) <= MC_SIGMAS * std
    ]


def holonomy_ladder(max_steps: int) -> list[int]:
    return sorted({max(max_steps // 2**k, 1) for k in range(5)})


def path_dependence_tol(steps: int, reference: float) -> float:
    """Allowed |path_dep_norm - reference|: the midpoint product converges as
    steps^-2 (2e-8 relative at 12,500 steps at tilt 0.3), plus the reference's
    own integration error."""
    return (1e-6 * (12500.0 / steps) ** 2) * reference + 1e-11


def check_holonomy(path: Path, steps: int, path_dep_ref: float) -> list[str]:
    rows = read_csv(path, ("steps", "planar_phase_error", "offdiag_norm", "path_dep_norm"))
    ladder = holonomy_ladder(steps)
    if [int(row[0]) for row in rows] != ladder:
        return [f"holonomy: step ladder {[row[0] for row in rows]}, expected {ladder}"]
    problems = []
    for coarse, fine in zip(rows, rows[1:]):
        ratio = coarse[1] / fine[1] if fine[1] else math.inf
        if not CONVERGENCE_RATIO[0] <= ratio <= CONVERGENCE_RATIO[1]:
            problems.append(
                f"holonomy: error ratio {ratio:.4f} from {int(coarse[0])} to "
                f"{int(fine[0])} steps is not second order"
            )
    for row in rows:
        if row[2] != 0.0:
            problems.append(f"holonomy: offdiag_norm {row[2]!r} at {int(row[0])} steps")
        tol = path_dependence_tol(int(row[0]), path_dep_ref)
        if not abs(row[3] - path_dep_ref) <= tol:
            problems.append(
                f"holonomy: path_dep_norm {row[3]!r} at {int(row[0])} steps, "
                f"reference {path_dep_ref!r}"
            )
    return problems

