"""The closed-form subcommands start without numpy, and the numpy subcommands'
names in ``ac_diamond.cli`` are imported lazily yet stay patchable."""

import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ac_diamond import holonomy, sequence

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CFG = str(ROOT / "configs" / "default.cfg")
PHI10_CFG = str(ROOT / "configs" / "phi10.cfg")

# Runs the CLI as ``python -m ac_diamond.cli`` does, then reports its exit code
# and whether numpy was loaded.
RUN_CLI = """
import runpy, sys
sys.argv = ["ac-diamond", *sys.argv[1:]]
try:
    runpy.run_module("ac_diamond.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, "numpy" in sys.modules)
"""


def _fresh_interpreter(code, *args) -> list[str]:
    """Last stdout line of ``python -c code args`` with the package on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return done.stdout.splitlines()[-1].split()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["phase", "--config", DEFAULT_CFG], "0"),
        (["sensitivity", "--config", DEFAULT_CFG], "0"),
        (["stark", "--config", DEFAULT_CFG], "0"),
        (["phase", "--config", "{overflow}"], "3"),
    ],
    ids=["phase", "sensitivity", "stark", "phase-overflow"],
)
def test_closed_form_subcommands_never_load_numpy(argv, code, tmp_path):
    overflow = tmp_path / "overflow.cfg"
    overflow.write_text("r = 1e200\nE0 = 1e200\n")
    argv = [arg.format(overflow=overflow) for arg in argv]
    out = str(tmp_path / "out.csv")
    assert _fresh_interpreter(RUN_CLI, *argv, "--out", out) == [code, "False"]


def test_numpy_subcommand_is_seen_loading_numpy(tmp_path):
    # the probe above can tell: a sweep does load numpy
    argv = ["sweep", "--config", PHI10_CFG, "--out", str(tmp_path / "out.csv")]
    assert _fresh_interpreter(RUN_CLI, *argv) == ["0", "True"]


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
    assert "sweep_signal" not in vars(cli) and "np" not in vars(cli)
    calls = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    # set as a tracer or monkeypatch would, before any subcommand has run
    cli.sweep_signal = counting(sequence.sweep_signal)
    cli.path_ordered_propagator = counting(holonomy.path_ordered_propagator)
    patched = cli.sweep_signal, cli.path_ordered_propagator
    out = str(tmp_path / "out.csv")
    weak = tmp_path / "weak.cfg"
    weak.write_text("E0 = 1e6\n")  # so that the 1-step rung resolves the rotation
    assert cli.main(["sweep", "--config", PHI10_CFG, "--out", out]) == 0
    assert cli.main(["holonomy", "--config", str(weak), "--steps", "16", "--out", out]) == 0
    # one sweep; the planar segment and the forward loop on each of 5 rungs
    assert calls == {"sweep_signal": 1, "path_ordered_propagator": 10}
    assert (cli.sweep_signal, cli.path_ordered_propagator) == patched
    assert vars(cli)["simulate_run"] is sequence.simulate_run  # bound by main


def test_lazy_names_resolve_on_attribute_access():
    cli = _fresh_cli()
    assert cli.simulate_run is sequence.simulate_run
    assert vars(cli)["simulate_run"] is sequence.simulate_run  # kept after first use
    assert cli.np is sys.modules["numpy"]
    with pytest.raises(AttributeError, match="bogus"):
        getattr(cli, "bogus")
