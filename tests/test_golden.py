"""Golden outputs of the CLI: the exit code, stdout, stderr and CSV of the
README recipes, a tilted ``holonomy`` run, every ``--help`` text, the
argparse refusals, and the configs of ``tests/test_cli.py::EXTREME_VALUES``
and ``BAD_FLAGS_AND_SEEDS``, run in-process through ``ac_diamond.cli.main``
and compared with the files under ``tests/golden/``.  A case from those two
tables writes its config text, which its golden file records, to a fresh
config path.

The subcommands that compute in Python floats and ``math`` (``montecarlo``
draws from ``random.Random``; ``holonomy`` sums a planar disk's midpoint
rates with ``math.fsum``), the help texts and the refusals must match byte
for byte.  A tilted disk's ``holonomy`` run rests on numpy's vectorised
functions and matrix products, which may round differently on another CPU or
numpy version: its text must match and its numbers agree to
``ABS_TOL + REL_TOL*|value|``; its golden file records the numpy version it
was written with.  The help texts and refusals are argparse's own
formatting, written under Python 3.11; another Python minor version may wrap
or word them differently.

After an intended output change, regenerate the files from the repository
root with

    PYTHONPATH=src python tests/test_golden.py

and list every changed file, and why it changed, in CHANGES.md.
"""

import importlib.util
import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from ac_diamond import cli
from test_cli import BAD_FLAGS_AND_SEEDS, EXTREME_VALUES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
HEADER = "# ac-diamond golden v1; regenerate: PYTHONPATH=src python tests/test_golden.py"
COLUMNS = "80"  # the terminal width argparse wraps the help texts to
CSV = "{csv}"  # stands for a fresh CSV path in an argv
CFG = "{cfg}"  # stands for a fresh config path holding CONFIGS[name]
ABS_TOL, REL_TOL = 1e-12, 1e-9
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

CASES = {
    # the README recipes, as written, and the CSV of the two that print none
    "phase": ["phase", "--config", "configs/default.cfg"],
    "sensitivity": ["sensitivity", "--config", "configs/default.cfg"],
    "sweep": ["sweep", "--config", "configs/phi10.cfg"],
    "stark": ["stark", "--config", "configs/default.cfg"],
    "echo-check": ["echo-check", "--config", "configs/phi10.cfg"],
    "montecarlo": ["montecarlo", "--config", "configs/phi10.cfg"],
    "holonomy": ["holonomy", "--config", "configs/phi10.cfg"],
    "phase-csv": ["phase", "--config", "configs/default.cfg", "--out", CSV],
    "stark-csv": ["stark", "--config", "configs/default.cfg", "--out", CSV],
    "holonomy-tilted": ["holonomy", "--config", "tests/golden/tilted.cfg",
                        "--steps", "20000", "--out", CSV],
    "help": ["--help"],
    **{f"help-{name}": [name, "--help"] for name in cli.SUBCOMMANDS},
    "refused-no-subcommand": [],
    "refused-unknown-subcommand": ["bogus"],
    "refused-grid-0": ["sweep", "--grid", "0"],
    "refused-steps-negative": ["holonomy", "--steps", "-3"],
    "refused-grid-not-integer": ["sweep", "--grid", "2.5"],
    "refused-seed-not-integer": ["phase", "--seed", "x"],
    "refused-phase-grid": ["phase", "--grid", "5"],
    "refused-sweep-steps": ["sweep", "--steps", "5"],
    "refused-holonomy-grid": ["holonomy", "--grid", "5"],
    "refused-montecarlo-steps": ["montecarlo", "--steps", "5"],
    # a config saved with a byte-order mark, and one with a fixed lag
    "config-bom": ["phase", "--config", CFG],
    "sweep-fixed-lag": ["sweep", "--config", CFG, "--grid", "5"],
    **{f"extreme-{name}": [*argv, "--config", CFG, "--out", CSV]
       for name, (argv, _, _) in EXTREME_VALUES.items()},
    # run with a config file; "bad-" keeps them apart from refused-grid-0 above
    **{f"refused-bad-{name}": [*argv, "--config", CFG]
       for name, (argv, _) in BAD_FLAGS_AND_SEEDS.items()},
}
CONFIGS = {
    "config-bom": "\ufeffr = 0.02\n",
    "sweep-fixed-lag": "n = 7\nlag = 1.0\n",
    **{f"extreme-{name}": text for name, (_, text, _) in EXTREME_VALUES.items()},
    **{f"refused-bad-{name}": text for name, (_, text) in BAD_FLAGS_AND_SEEDS.items()},
}
# the cases that run numpy past argument parsing: the one tilted disk
NUMERIC = {"holonomy-tilted"}


def run_case(name, workdir: Path):
    """Exit code and output streams of ``main`` on the case's argv, run from
    the repository root with the help width fixed.

    Each case runs on a fresh ``ac_diamond.cli`` module, so that no name a
    test or an earlier case set on the shared module reaches it.
    """
    spec = importlib.util.find_spec("ac_diamond.cli")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    csv, cfg = workdir / "out.csv", workdir / "run.cfg"
    if name in CONFIGS:
        cfg.write_text(CONFIGS[name], encoding="utf-8")
    argv = [{CSV: str(csv), CFG: str(cfg)}.get(arg, arg) for arg in CASES[name]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = fresh.main(argv)
        except SystemExit as exc:  # --help and argparse refusals
            code = exc.code
    streams = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    if csv.exists():
        streams["csv"] = csv.read_text()
    return code, streams


def render(name, code, streams) -> str:
    lines = [HEADER, f"argv: {' '.join(CASES[name])}", f"exit: {code}"]
    if name in CONFIGS:
        lines.append(f"config: {CONFIGS[name]!r}")
    if name in NUMERIC:
        lines.append(f"numpy: {np.__version__}; numbers compared to "
                     f"{ABS_TOL:g} + {REL_TOL:g}*|value|")
    return "\n".join(lines) + "\n" + "".join(
        f"==> {name} <==\n{text}" for name, text in streams.items())


def read_golden(name):
    """The exit code and output streams a golden file records."""
    head, *body = re.split(r"==> (stdout|stderr|csv) <==\n", (GOLDEN / f"{name}.txt").read_text())
    fields = dict(line.split(": ", 1) for line in head.splitlines()[1:])
    return int(fields["exit"]), dict(zip(body[::2], body[1::2]))


def _agree(got: str, want: str) -> bool:
    """Same text between the numbers, and numbers within the tolerance."""
    if NUMBER.split(got) != NUMBER.split(want):
        return False
    pairs = zip(map(float, NUMBER.findall(got)), map(float, NUMBER.findall(want)))
    return all(abs(g - w) <= ABS_TOL + REL_TOL * abs(w) for g, w in pairs)


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", COLUMNS)


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, at_root, tmp_path):
    code, streams = run_case(name, tmp_path)
    want_code, want_streams = read_golden(name)
    assert code == want_code
    assert streams.keys() == want_streams.keys()
    for stream, text in streams.items():
        if name in NUMERIC:
            assert _agree(text, want_streams[stream]), stream
        else:
            assert text == want_streams[stream], stream


def test_every_golden_file_is_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


def test_numbers_are_compared_to_the_tolerance():
    assert _agree("defect: 3.447e-13\n1,0.5\n", "defect: 3.5e-13\n1,0.5000000001\n")
    assert not _agree("defect: 3.447e-13\n1,0.5\n", "defect: 3.447e-13\n1,0.5001\n")
    assert not _agree("exit 0", "exit 3")
    assert not _agree("1,2\n", "1,2,3\n")


if __name__ == "__main__":
    import os
    import tempfile

    os.chdir(ROOT)
    os.environ["COLUMNS"] = COLUMNS
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    for name in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            code, streams = run_case(name, Path(workdir))
        (GOLDEN / f"{name}.txt").write_text(render(name, code, streams))
    print(f"wrote {len(CASES)} golden files to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
