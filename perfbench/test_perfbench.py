"""Tests of the benchmark itself: references, failure counting, tracing, inputs.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ac_diamond.cli import main as cli_main  # noqa: E402
from ac_diamond.config import load_config  # noqa: E402

DEFAULT = ROOT / "configs" / "default.cfg"
PHI10 = ROOT / "configs" / "phi10.cfg"


def _result(tmp_path, inv, exit_code=0, stderr=""):
    (tmp_path / "err").write_text(stderr)
    (tmp_path / "out").write_text("")
    return run.Result(inv, tmp_path / "out", tmp_path / "err", exit_code, 0.1)


def _invocation(out, check):
    return workloads.Invocation("test", [], out, 1.0, check)


def test_phase_matches_reference_and_corruption_is_a_counted_failure(tmp_path):
    out = tmp_path / "phase.csv"
    assert cli_main(["phase", "--config", str(DEFAULT), "--out", str(out)]) == 0
    cfg = ref.resolve_config(DEFAULT, DEFAULT)
    good = _result(tmp_path, _invocation(out, lambda p: ref.check_phase(p, cfg)))
    run.check(good)
    assert (good.failed, good.problems) == (0, [])

    corrupted = dict(cfg, r=cfg["r"] * (1.0 + 1e-9))
    bad = _result(tmp_path, _invocation(out, lambda p: ref.check_phase(p, corrupted)))
    run.check(bad)
    assert bad.failed and "phase_rad" in bad.problems[0]


@pytest.mark.parametrize("cmd, checker", [
    ("sensitivity", ref.check_sensitivity),
    ("stark", ref.check_stark),
])
def test_single_row_subcommands_match_their_closed_forms(tmp_path, cmd, checker):
    out = tmp_path / f"{cmd}.csv"
    assert cli_main([cmd, "--config", str(DEFAULT), "--out", str(out)]) == 0
    cfg = ref.resolve_config(DEFAULT, DEFAULT)
    assert checker(out, cfg) == []
    assert checker(out, dict(cfg, T2=cfg["T2"] * 1.01, R2E=cfg["R2E"] * 1.01)) != []


def test_sweep_echo_and_montecarlo_on_phi10(tmp_path):
    cfg = ref.resolve_config(PHI10, DEFAULT)
    sweep, echo, mc = tmp_path / "sweep.csv", tmp_path / "echo.csv", tmp_path / "mc.csv"
    assert cli_main(["sweep", "--config", str(PHI10), "--grid", "41", "--out", str(sweep)]) == 0
    assert cli_main(["echo-check", "--config", str(PHI10), "--out", str(echo)]) == 0
    assert cli_main(["montecarlo", "--config", str(PHI10), "--out", str(mc)]) == 0
    assert ref.check_sweep(sweep, cfg, 41) == []
    assert ref.check_sweep(sweep, dict(cfg, lag=2.2), 41) != []
    assert ref.check_sweep(sweep, cfg, 40) != []
    assert ref.check_echo(echo) == []
    assert ref.check_montecarlo(mc, cfg) == []
    assert ref.check_montecarlo(mc, dict(cfg, E0=cfg["E0"] * 1.2)) != []


def test_tilted_holonomy_matches_the_ode_reference(tmp_path):
    config = tmp_path / "tilted.cfg"
    config.write_text("r = 0.01\nf = 4000\nE0 = 2e7\ntilt = 0.3\n")
    out = tmp_path / "holonomy.csv"
    assert cli_main(["holonomy", "--config", str(config), "--steps", "20000",
                     "--out", str(out)]) == 0
    reference = ref.path_dependence(ref.resolve_config(config, DEFAULT))
    assert reference > 0.1
    assert ref.check_holonomy(out, 20000, reference) == []
    assert ref.check_holonomy(out, 20000, reference * (1.0 + 1e-4)) != []


def test_exit_code_traceback_and_unreadable_output_fail(tmp_path):
    inv = _invocation(tmp_path / "missing.csv", lambda p: [])
    crashed = _result(tmp_path, inv, exit_code=1)
    run.check(crashed)
    assert crashed.failed
    traced = _result(tmp_path, inv, stderr="Traceback (most recent call last):\nValueError: x\n")
    run.check(traced)
    assert traced.failed and "ValueError" in traced.problems[0]
    unreadable = _result(tmp_path, _invocation(tmp_path / "missing.csv",
                                               lambda p: ref.check_echo(p)))
    run.check(unreadable)
    assert unreadable.failed


def test_self_time_subtracts_direct_children():
    spans = [
        (0, ("cli.main", 0.0, 10.0, -1, 1, "sweep")),
        (1, ("sequence.sweep_signal", 1.0, 9.0, 0, 1, 2)),
        (2, ("sequence.simulate_run", 2.0, 4.0, 1, 1, "closed_form")),
        (3, ("sequence.simulate_run", 5.0, 8.0, 1, 1, "closed_form")),
        (4, ("phase.segment_phase", 2.5, 3.0, 2, 1, None)),
    ]
    m = tracing.layer_metrics(spans, Counter({"geometry.position": 4}))
    assert m["cli.main.self_s"] == 2.0
    assert m["sequence.sweep_signal.self_s"] == 3.0
    assert m["sequence.simulate_run.self_s"] == 4.5
    assert m["sequence.simulate_run.closed_form_s"] == 5.0
    assert m["sequence.runs_per_point"] == 1.0
    assert m["geometry.position.calls"] == 4
    assert m["cli.main_s.sweep"] == 10.0


def test_traced_sweep_counts_layers(tmp_path):
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", cli_main)
    tracer.install()
    try:
        code = traced_main(["sweep", "--config", str(PHI10), "--grid", "11",
                            "--out", str(tmp_path / "s.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    m = tracing.layer_metrics(list(enumerate(tracer.spans)), tracer.counts)
    assert m["sequence.runs_per_point"] == 1.0
    assert m["sequence.simulate_run.calls"] == 11
    assert m["phase.segment_phase.calls"] == 11 * 14
    assert m["geometry.position.calls"] == 2 * 11 * 14
    assert m["holonomy.path_ordered_propagator.calls"] == 0
    # Uninstalling restores every import site.
    import ac_diamond.sequence

    assert ac_diamond.sequence.simulate_run.__module__ == "ac_diamond.sequence"
    assert not hasattr(ac_diamond.sequence.simulate_run, "__wrapped__")


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        a = build(7, ROOT, tmp_path / "a" / name).inputs
        b = build(7, ROOT, tmp_path / "b" / name).inputs
        c = build(8, ROOT, tmp_path / "c" / name).inputs
        assert a == b and a != c, name


def test_generated_configs_load_and_stay_in_range(tmp_path):
    workloads.sweep_fine(11, ROOT, tmp_path)
    sweeps = [load_config(p) for p in sorted(tmp_path.glob("sweep-*.cfg"))]
    assert [c.integer_rotations() for c in sweeps] == [workloads.SWEEP_N] * 3
    assert all(c.tilt == 0.0 and c.lag == "auto" for c in sweeps)


def test_refuses_to_run_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "headline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
