"""Percentiles and metric records shared by the benchmark's modules."""

from __future__ import annotations

import statistics
from typing import Iterable


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def metric(value: float, unit: str, samples: int | None = None) -> dict:
    """One printed metric: value, unit and (for timings) sample count."""
    record = {"value": value, "unit": unit}
    if samples is not None:
        record["samples"] = samples
    return record


def timing(prefix: str, values: list[float], unit: str = "ms") -> dict:
    """``<prefix>_p50_<unit>`` and ``<prefix>_p95_<unit>`` records.

    The p95 record says whether at least ten samples lie beyond it
    (``tail_supported``); below 200 samples it is close to the maximum
    and should be read as such.
    """
    if not values:
        return {}
    n = len(values)
    tail = metric(percentile(values, 95.0), unit, n)
    tail["tail_supported"] = n * 0.05 >= 10
    return {
        f"{prefix}_p50_{unit}": metric(median(values), unit, n),
        f"{prefix}_p95_{unit}": tail,
    }
