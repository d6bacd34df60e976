"""Experiment harnesses: one module per paper table/figure.

Every experiment exposes a ``run_*`` function returning plain data
(dataclasses / dicts) and a ``format_*`` function rendering the same
rows/series the paper reports; the ``benchmarks/`` suite calls both.

Scaling: the paper's runs are hours of wall-clock on real hardware; the
defaults here are simulation-sized. Each experiment takes explicit size
parameters with defaults chosen so the full suite runs on a laptop, and
the module docstrings state the paper-scale values.
"""

from repro.experiments.harness import ExperimentResult, speedup_table
from repro.experiments.reporting import format_table, format_series

__all__ = [
    "ExperimentResult",
    "speedup_table",
    "format_table",
    "format_series",
]
