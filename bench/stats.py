"""Latency statistics that repeat on a host whose speed drifts.

On a shared host, the same operation can run twice as slow for several
seconds at a time when other tenants are busy. Percentiles of raw samples
from a 30 s run then move by a third between runs. So every input runs many
times, spread across the run, and its latency is its fastest repetition: its
cost when nothing else interferes (the method `timeit` recommends).
Percentiles are then taken over the inputs.
"""

from __future__ import annotations

import statistics
from collections.abc import Iterable, Sequence


def summarize(per_input: Iterable[Sequence[float]], elapsed_s: float) -> dict:
    """Percentiles over per-input fastest times, in ms, plus raw wall-clock figures.

    `ops_per_s` is inputs served per second at those fastest times, one
    caller at a time. `above_p90` counts timed executions slower than the p90.
    """
    runs = [list(times) for times in per_input if times]
    fastest = [min(times) for times in runs]
    every = sorted(t for times in runs for t in times)
    if len(fastest) > 1:
        deciles = statistics.quantiles(fastest, n=10, method="inclusive")
        p50, p90 = deciles[4], deciles[8]
    else:
        p50 = p90 = fastest[0]
    return {
        "inputs": len(fastest),
        "executions": len(every),
        "p50_ms": p50 * 1e3,
        "p90_ms": p90 * 1e3,
        "ops_per_s": len(fastest) / sum(fastest),
        "above_p90": sum(1 for t in every if t > p90),
        "raw_p50_ms": statistics.median(every) * 1e3,
        "raw_p90_ms": every[min(len(every) - 1, int(0.9 * len(every)))] * 1e3,
        "raw_ops_per_s": len(every) / elapsed_s,
    }
