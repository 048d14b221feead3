"""The benchmark tracer's view of the package still matches the package.

``perfbench/tracing.py`` replaces functions at the modules that imported them
and reads some of their arguments by position.  A rename, a moved import or a
reordered parameter would silently leave a layer untraced or mislabelled, so
these tests load the tracer from its file (unchanged) and check both.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _function(home, attr):
    return getattr(importlib.import_module(f"ac_diamond.{home}"), attr)


@pytest.mark.parametrize(
    "name, home, attr, site",
    [
        (name, home, attr, site)
        for table in (tracing.SPANS, tracing.COUNTED)
        for name, (home, attr, sites) in table.items()
        for site in sites
    ],
)
def test_import_site_holds_the_defining_function(name, home, attr, site):
    assert _function(site, attr) is _function(home, attr), (name, site)


class _Read(Exception):
    """Carries the (index, name) an attribute reader asked for."""


def _refuse(args, kwargs, index, name, default=None):
    raise _Read(index, name)


@pytest.mark.parametrize("span", sorted(tracing._ATTRS))
def test_positional_attribute_reads_match_the_signature(span, monkeypatch):
    # e.g. simulate_run's argument 4 must be mode, monte_carlo_experiment's 5 shots
    monkeypatch.setattr(tracing, "_arg", _refuse)
    with pytest.raises(_Read) as read:
        tracing._ATTRS[span]((), {})
    index, name = read.value.args
    home, attr = span.split(".")
    parameters = list(inspect.signature(_function(home, attr)).parameters)
    assert parameters[index] == name

