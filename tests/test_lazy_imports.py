"""The closed-form subcommands start without numpy, and the other
subcommands' names in ``ac_diamond.cli`` are imported lazily yet stay
patchable."""

import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ac_diamond import holonomy, measurement, sequence

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CFG = str(ROOT / "configs" / "default.cfg")
PHI10_CFG = str(ROOT / "configs" / "phi10.cfg")

# Runs the CLI as ``python -m ac_diamond.cli`` does, then reports its exit code,
# whether numpy was loaded and which of the closed-form engine's modules and
# the stepper were.
RUN_CLI = """
import runpy, sys
sys.argv = ["ac-diamond", *sys.argv[1:]]
try:
    runpy.run_module("ac_diamond.cli", run_name="__main__")
except SystemExit as exc:
    engine = [m for m in ("geometry", "phase", "sequence", "holonomy")
              if "ac_diamond." + m in sys.modules]
    print(exc.code, "numpy" in sys.modules, ",".join(engine) or "-")
"""
ENGINE = "geometry,phase,sequence"


def _fresh_interpreter(code, *args) -> list[str]:
    """Last stdout line of ``python -c code args`` with the package on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return done.stdout.splitlines()[-1].split()


@pytest.mark.parametrize(
    "argv, config_text, code, engine",
    [
        (["phase"], None, "0", "-"),
        (["sensitivity"], None, "0", "-"),
        (["stark"], None, "0", "-"),
        (["phase"], "r = 1e200\nE0 = 1e200\n", "3", "-"),
        (["sweep"], "n = 7\n", "0", ENGINE),
        (["sweep", "--grid", "2000"], "n = 7\n", "0", ENGINE),
        (["echo-check"], "n = 7\n", "0", ENGINE),
        # refused: E0 too small to resolve the grid, 2r*E0 overflows
        (["sweep"], "E0 = 5e-324\nn = 7\n", "3", ENGINE),
        (["echo-check"], "r = 1e300\nE0 = 1e10\nn = 1\n", "3", ENGINE),
    ],
    ids=["phase", "sensitivity", "stark", "phase-overflow", "sweep", "sweep-2000",
         "echo-check", "sweep-unresolvable-grid", "echo-check-overflow"],
)
def test_closed_form_subcommands_never_load_numpy(argv, config_text, code, engine,
                                                  tmp_path):
    # the scalar subcommands do not load the closed-form engine either
    cfg = DEFAULT_CFG
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
    argv = [*argv, "--config", str(cfg)]
    out = str(tmp_path / "out.csv")
    assert _fresh_interpreter(RUN_CLI, *argv, "--out", out) == [code, "False", engine]


@pytest.mark.parametrize(
    "command, engine",
    [("montecarlo", ENGINE), ("holonomy", "geometry,phase,holonomy")],
    ids=["montecarlo", "holonomy"],
)
def test_numpy_subcommand_is_seen_loading_numpy(command, engine, tmp_path):
    # the probe above can tell: montecarlo and holonomy do load numpy, and
    # each loads only the modules its handler runs on (montecarlo no
    # holonomy, holonomy no sequence)
    argv = [command, "--config", PHI10_CFG, "--out", str(tmp_path / "out.csv")]
    assert _fresh_interpreter(RUN_CLI, *argv) == ["0", "True", engine]


def test_bare_package_import_loads_no_numpy():
    code = "import sys, ac_diamond; print('numpy' in sys.modules)"
    assert _fresh_interpreter(code) == ["False"]


def _fresh_cli():
    """A new ``ac_diamond.cli`` module object, with no lazy name bound yet."""
    spec = importlib.util.find_spec("ac_diamond.cli")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_numpy_subcommands_call_through_the_module_attributes(tmp_path):
    cli = _fresh_cli()
    assert "monte_carlo_experiment" not in vars(cli) and "np" not in vars(cli)
    calls = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    # set as a tracer or monkeypatch would, before any subcommand has run
    cli.monte_carlo_experiment = counting(measurement.monte_carlo_experiment)
    cli.path_ordered_propagator = counting(holonomy.path_ordered_propagator)
    patched = cli.monte_carlo_experiment, cli.path_ordered_propagator
    out = str(tmp_path / "out.csv")
    weak = tmp_path / "weak.cfg"
    weak.write_text("E0 = 1e6\n")  # so that the 1-step rung resolves the rotation
    assert cli.main(["montecarlo", "--config", PHI10_CFG, "--out", out]) == 0
    assert cli.main(["holonomy", "--config", str(weak), "--steps", "16", "--out", out]) == 0
    # one estimate a rung of the shot ladder; the planar segment and the
    # forward loop on each of 5 rungs
    assert calls == {"monte_carlo_experiment": 3, "path_ordered_propagator": 10}
    assert (cli.monte_carlo_experiment, cli.path_ordered_propagator) == patched
    assert vars(cli)["simulate_run"] is sequence.simulate_run  # bound by main


@pytest.mark.parametrize("command", ["sweep", "echo-check"])
def test_closed_form_subcommands_bind_no_numpy_names(command, tmp_path):
    cli = _fresh_cli()
    calls = []

    def sweep(*args):
        calls.append(args)
        return sequence.sweep_signal(*args)

    cli.sweep_signal = sweep  # kept, as a tracer's wrapper is
    out = str(tmp_path / "out.csv")
    assert cli.main([command, "--config", PHI10_CFG, "--out", out]) == 0
    assert len(calls) == (command == "sweep")
    _, _, modules, _ = cli.SUBCOMMANDS[command]
    bound = {name for name in cli._LAZY if name in vars(cli)}
    assert bound == {name for name, module in cli._LAZY.items() if module in modules}
    assert "np" not in bound
    assert cli.sweep_signal is sweep
    assert vars(cli)["simulate_run"] is sequence.simulate_run


def test_lazy_names_resolve_on_attribute_access():
    cli = _fresh_cli()
    assert cli.simulate_run is sequence.simulate_run
    assert vars(cli)["simulate_run"] is sequence.simulate_run  # kept after first use
    assert cli.np is sys.modules["numpy"]
    with pytest.raises(AttributeError, match="bogus"):
        getattr(cli, "bogus")
