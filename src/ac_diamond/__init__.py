"""Simulator and analysis toolkit for a spinning-disk NV-center
Aharonov-Casher experiment.

Import the submodules directly.  ``physics`` and ``config`` hold everything the
closed-form figures need and import no numpy; the simulation modules do.
"""

__version__ = "0.1.0"
