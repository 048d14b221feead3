"""Only ``holonomy`` on a tilted disk loads numpy, and the subcommands'
names in ``ac_diamond.cli`` are imported lazily yet stay patchable."""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ac_diamond import cli, holonomy, measurement, sequence

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CFG = str(ROOT / "configs" / "default.cfg")
PHI10_CFG = str(ROOT / "configs" / "phi10.cfg")
TILTED_CFG = ROOT / "tests" / "golden" / "tilted.cfg"

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


PHI10_TEXT = Path(PHI10_CFG).read_text()
# id -> (argv, config text or None for default.cfg, exit code, loads numpy,
# engine modules)
PROBES = {
    "phase": (["phase"], None, "0", False, "-"),
    "sensitivity": (["sensitivity"], None, "0", False, "-"),
    "stark": (["stark"], None, "0", False, "-"),
    "phase-overflow": (["phase"], "r = 1e200\nE0 = 1e200\n", "3", False, "-"),
    "sweep": (["sweep"], "n = 7\n", "0", False, ENGINE),
    "sweep-2000": (["sweep", "--grid", "2000"], "n = 7\n", "0", False, ENGINE),
    "echo-check": (["echo-check"], "n = 7\n", "0", False, ENGINE),
    # refused: E0 too small to resolve the grid, 2r*E0 overflows
    "sweep-unresolvable-grid": (["sweep"], "E0 = 5e-324\nn = 7\n", "3", False, ENGINE),
    "echo-check-overflow": (["echo-check"], "r = 1e300\nE0 = 1e10\nn = 1\n", "3", False,
                            ENGINE),
    # no holonomy; a mean count beyond the Poisson sampler's range is refused
    "montecarlo": (["montecarlo"], PHI10_TEXT, "0", False, ENGINE),
    "montecarlo-huge-counts": (["montecarlo"], "alpha0 = 1e30\nn = 2\n", "3", False, ENGINE),
    # no sequence; a planar disk's propagator is diagonal, in Python floats
    "holonomy": (["holonomy"], PHI10_TEXT, "0", False, "geometry,phase,holonomy"),
    # refused: E*v_y overflows
    "holonomy-huge-radius": (["holonomy", "--steps", "16"], "r = 1e300\nn = 1\n", "3", False,
                             "geometry,phase,holonomy"),
    # a tilted disk's steps are numpy matrices
    "holonomy-tilted": (["holonomy", "--steps", "2000"], TILTED_CFG.read_text(), "0", True,
                        "geometry,phase,holonomy"),
}
NUMPY_SUBCOMMANDS = {argv[0] for argv, _, _, numpy, _ in PROBES.values() if numpy}


def _probes(numpy: bool):
    """The probes of the subcommands that do, or do not, load numpy."""
    chosen = {key: (argv, config_text, code, engine)
              for key, (argv, config_text, code, loads, engine) in PROBES.items()
              if loads == numpy}
    return pytest.mark.parametrize("argv, config_text, code, engine",
                                   list(chosen.values()), ids=list(chosen))


def _probe(argv, config_text, tmp_path) -> list[str]:
    # each subcommand loads only the engine modules its handler runs on
    cfg = DEFAULT_CFG
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
    return _fresh_interpreter(RUN_CLI, *argv, "--config", str(cfg),
                              "--out", str(tmp_path / "out.csv"))


@_probes(numpy=False)
def test_closed_form_subcommands_never_load_numpy(argv, config_text, code, engine,
                                                  tmp_path):
    # the scalar subcommands do not load the closed-form engine either
    assert _probe(argv, config_text, tmp_path) == [code, "False", engine]


@_probes(numpy=True)
def test_numpy_subcommand_is_seen_loading_numpy(argv, config_text, code, engine,
                                                tmp_path):
    # the probe above can tell
    assert _probe(argv, config_text, tmp_path) == [code, "True", engine]


def test_every_subcommand_is_probed():
    assert {argv[0] for argv, *_ in PROBES.values()} == set(cli.SUBCOMMANDS)
    # and each of the two probe tests has a case
    assert NUMPY_SUBCOMMANDS == {"holonomy"}


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
    # one estimate a rung of the shot ladder; one planar half turn on each
    # of 5 rungs
    assert calls == {"monte_carlo_experiment": 3, "path_ordered_propagator": 5}
    assert (cli.monte_carlo_experiment, cli.path_ordered_propagator) == patched


@pytest.mark.parametrize("command", ["sweep", "echo-check", "montecarlo"])
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
    assert cli.sweep_signal is sweep


def test_lazy_names_resolve_on_attribute_access():
    cli = _fresh_cli()
    assert cli.simulate_run is sequence.simulate_run
    assert vars(cli)["simulate_run"] is sequence.simulate_run  # kept after first use
    with pytest.raises(AttributeError, match="bogus"):
        getattr(cli, "bogus")


def test_every_lazy_attribute_is_a_lazy_name():
    # so a typo fails even on a handler path no test runs
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "lazy"}
    assert used <= set(cli._LAZY)
    # and each name is used, but the one the benchmark tracer patches
    assert set(cli._LAZY) - used == {"unitarity_defect"}


@pytest.mark.parametrize("name", sorted(cli._LAZY))
def test_lazy_name_is_the_defining_modules_object(name):
    want = getattr(importlib.import_module(cli._LAZY[name], "ac_diamond"), name)
    assert getattr(_fresh_cli(), name) is want
    assert getattr(_fresh_cli().lazy, name) is want


def test_lazy_handle_reads_its_own_module(monkeypatch):
    # a fresh copy of the module, as tests/test_golden.py runs each case on,
    # must not see a name set on the shared one
    monkeypatch.setattr(cli, "sweep_signal", object())
    fresh = _fresh_cli()
    assert fresh.lazy.sweep_signal is sequence.sweep_signal
    fresh.sweep_signal = patched = object()
    assert fresh.lazy.sweep_signal is patched
