"""Measurement utilities: time-series sampling and report formatting."""

from repro.metrics.series import PeriodicSampler, TimeSeries
from repro.metrics.report import format_table, format_series

__all__ = [
    "PeriodicSampler",
    "TimeSeries",
    "format_table",
    "format_series",
]
