"""Seeded inputs for the workloads.

A workload is a list of invocations that make up one pass; the benchmark
repeats passes until its time is up.  Every draw comes from the workload seed,
and the program receives only the generated config files and flags.  The
rotation count n sets the amount of work, so the sweeps keep n = 7: every seed
gives passes of the same size, and the latency percentiles of runs with
different seeds stay comparable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

DEFAULT_CFG = "configs/default.cfg"
PHI10_CFG = "configs/phi10.cfg"
CLI_DEFAULT_STEPS = 100000  # `holonomy` without --steps

SWEEP_GRID = 2000
SWEEP_N = 7
SWEEP_CONFIGS = 3


@dataclass
class Invocation:
    """One program invocation and how to judge its output."""

    label: str  # CLI subcommand
    argv: list[str]  # arguments after the program name
    out: Path  # CSV written via --out
    work: float  # work units it completes
    check: Callable[[Path], list[str]]


@dataclass
class Workload:
    work_unit: str
    inputs: dict  # recorded in the run record
    invocations: Callable[[int, Path], list[Invocation]]  # (pass index, out dir)


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _draw_disk(rng: np.random.Generator) -> dict:
    return {
        "r": float(rng.uniform(0.005, 0.02)),
        "f": float(rng.uniform(2.0e3, 5.0e3)),
        "E0": float(rng.uniform(1.0e7, 3.0e7)),  # up to the paper's 30 kV/mm
        "T2": float(rng.uniform(1.0e-3, 3.0e-3)),
    }


def _write_config(path: Path, values: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(ref.format_config(values))


def headline(seed: int, root: Path, inputs_dir: Path) -> Workload:
    """The seven README recipes on the shipped configs, byte for byte."""
    mc_seed = int(_rng("headline", seed).integers(0, 2**31 - 1))
    default = ref.resolve_config(root / DEFAULT_CFG, root / DEFAULT_CFG)
    phi10 = ref.resolve_config(root / PHI10_CFG, root / DEFAULT_CFG)
    recipes = [
        ("phase", DEFAULT_CFG, [], lambda p: ref.check_phase(p, default)),
        ("sensitivity", DEFAULT_CFG, [], lambda p: ref.check_sensitivity(p, default)),
        ("sweep", PHI10_CFG, [], lambda p: ref.check_sweep(p, phi10, 201)),
        ("stark", DEFAULT_CFG, [], lambda p: ref.check_stark(p, default)),
        ("echo-check", PHI10_CFG, [], ref.check_echo),
        ("montecarlo", PHI10_CFG, ["--seed", str(mc_seed)],
         lambda p: ref.check_montecarlo(p, phi10)),
        ("holonomy", PHI10_CFG, [],
         lambda p: ref.check_holonomy(p, CLI_DEFAULT_STEPS, ref.path_dependence(phi10))),
    ]

    def invocations(k: int, out_dir: Path) -> list[Invocation]:
        return [
            Invocation(cmd, [cmd, "--config", cfg, *flags, "--out",
                             str(out_dir / f"p{k}-{cmd}.csv")],
                       out_dir / f"p{k}-{cmd}.csv", 1.0, check)
            for cmd, cfg, flags, check in recipes
        ]

    return Workload("commands", {"montecarlo_seed": mc_seed}, invocations)


def sweep_fine(seed: int, root: Path, inputs_dir: Path) -> Workload:
    """A fine `sweep` grid on planar configs with integer n and auto lag; one
    invocation a pass, the configs in turn."""
    rng = _rng("sweep-fine", seed)
    configs = []
    for i in range(SWEEP_CONFIGS):
        values = {**_draw_disk(rng), "n": float(SWEEP_N), "tilt": 0.0, "lag": "auto"}
        path = inputs_dir / f"sweep-{i}.cfg"
        _write_config(path, values)
        configs.append((path, ref.resolve_config(path, root / DEFAULT_CFG)))

    def invocations(k: int, out_dir: Path) -> list[Invocation]:
        path, cfg = configs[k % len(configs)]
        out = out_dir / f"p{k}-sweep.csv"
        return [Invocation("sweep", ["sweep", "--config", str(path), "--grid", str(SWEEP_GRID),
                                     "--out", str(out)],
                           out, float(SWEEP_GRID),
                           lambda p: ref.check_sweep(p, cfg, SWEEP_GRID))]

    record = {"grid": SWEEP_GRID, "configs": [ref.parse_config(p.read_text())
                                              for p, _ in configs]}
    return Workload("grid points", record, invocations)


WORKLOADS = {
    "headline": headline,
    "sweep-fine": sweep_fine,
}
