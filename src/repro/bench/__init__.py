"""Experiment harness regenerating the paper's tables and figures.

Each ``figNN_*`` / ``tableN_*`` function in :mod:`repro.bench.experiments`
runs one experiment of the paper's Section 8 at a configurable scale and
returns structured rows; :mod:`repro.bench.report` renders them the way the
paper reports them (runtime series per method).  The ratio gates under
``benchmarks/`` time their own workloads; they reuse the query texts of
:mod:`repro.bench.queries`, the Table 1 runner and the report helpers.
"""

from repro.bench.harness import Measurement, measure
from repro.bench.report import format_series, format_table

__all__ = ["measure", "Measurement", "format_table", "format_series"]
