"""Experiment harnesses: one module per paper table/figure.

Every module exposes ``run(trials=None, seed=0, quiet=False) -> dict``
that regenerates the corresponding table/figure rows (printing them
unless ``quiet``) and returns the underlying numbers.  Campaigns are
cached on disk (see :mod:`repro.fi.cache`), so harnesses that share
deployments — e.g. the serial samples used by Figs. 5, 6, 7 and 8 —
only pay for them once.

Run from the command line::

    python -m repro.experiments table1
    python -m repro.experiments all --trials 400
"""

from repro.experiments import common

__all__ = ["common"]

EXPERIMENTS = [
    "motivation",
    "table1",
    "figure12",
    "table2",
    "figure3",
    "figure56",
    "figure7",
    "figure8",
    "sensitivity",
    "multibit",
    "ablations",
    "report",
]
