"""Simulator and analysis toolkit for a spinning-disk NV-center
Aharonov-Casher experiment.

Import the submodules directly.  ``physics`` and ``config`` hold everything the
closed-form figures need.  No module imports numpy when it is imported; the
functions that build arrays import it when they are called.
"""

__version__ = "0.1.0"
