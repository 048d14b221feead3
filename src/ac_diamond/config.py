"""Line-based experiment configuration: ``key = value``, ``#`` comments.

Missing keys take the documented defaults (the proposal's realistic parameter
set); unknown and duplicate keys are errors so typos cannot silently change an
experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

AUTO_LAG = "auto"
MAX_ROTATIONS = 10_000  # a schedule fires 2n pi pulses and the walk 2n segments


def integer_rotations(n) -> int:
    """The rotation count n as an int; schedules need a positive integer of at
    most ``MAX_ROTATIONS``."""
    if float(n) > MAX_ROTATIONS:
        raise ValueError(f"rotation count {n!r} exceeds the cap of {MAX_ROTATIONS}")
    n_int = int(round(float(n)))
    if abs(float(n) - n_int) > 1e-12 or n_int < 1:
        raise ValueError(
            f"echo schedules need a positive integer rotation count, got {n!r}"
        )
    return n_int


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameter set for the CLI.  SI units per key:

    r [m]; f [Hz]; E0 [V/m]; n [rotations, at most MAX_ROTATIONS = 10000,
    fractional allowed for the closed-form phase]; T2 [s]; g [-];
    B_z [T]; R2E [Hz/(V/cm)]; tilt [rad]; lag [rad, or "auto" for the
    quadrature lag at E0]; alpha0, alpha1 [mean photons/shot]; N [ensemble
    centers]; seed [non-negative int].
    """

    r: float = 0.01
    f: float = 4000.0
    E0: float = 3.0e7
    n: float = 7.2
    T2: float = 1.8e-3
    g: float = 2.0
    B_z: float = 1.0e-3
    R2E: float = 20.0
    tilt: float = 0.0
    lag: float | str = AUTO_LAG
    alpha0: float = 0.0499
    alpha1: float = 0.0299
    N: float = 1.0e11
    seed: int = 20260810

    def __post_init__(self):
        positive = ("r", "f", "E0", "T2", "g", "N")
        for key in positive:
            if not getattr(self, key) > 0.0:
                raise ConfigError(f"config key {key!r} must be positive")
        non_negative = ("n", "B_z", "R2E", "alpha0", "alpha1", "seed")
        for key in non_negative:
            if getattr(self, key) < 0.0:
                raise ConfigError(f"config key {key!r} must be non-negative")
        if self.n > MAX_ROTATIONS:
            raise ConfigError(
                f"config key 'n' must be at most {MAX_ROTATIONS} rotations, got {self.n!r}"
            )
        if not self.alpha0 > self.alpha1:
            raise ConfigError("config requires alpha0 > alpha1")
        if isinstance(self.lag, str) and self.lag != AUTO_LAG:
            raise ConfigError("config key 'lag' must be a number or 'auto'")

    def integer_rotations(self) -> int:
        """Rotation count for schedule-based subcommands; must be integral."""
        try:
            return integer_rotations(self.n)
        except ValueError:
            raise ConfigError(
                f"config key 'n' must be a positive integer for this subcommand, got {self.n!r}"
            ) from None


_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def _parse_value(key: str, raw: str, line_no: int):
    if key == "lag" and raw == AUTO_LAG:
        return AUTO_LAG
    try:
        if key == "seed":
            return int(raw)
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"line {line_no}: cannot parse value {raw!r} for key {key!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line_no}: non-finite value for key {key!r}")
    return value


def load_config(path) -> ExperimentConfig:
    """Parse a config file; every missing key falls back to the default."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not UTF-8: byte {exc.object[exc.start]:#04x} "
            f"at offset {exc.start}"
        ) from None
    seen: dict[str, object] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        content = line.split("#", 1)[0].strip()
        if not content:
            continue
        if "=" not in content:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in content.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {line_no}: duplicate config key {key!r}")
        seen[key] = _parse_value(key, raw, line_no)
    return ExperimentConfig(**seen)
