"""Percentile rules shared by the end-to-end and per-layer metrics."""

from __future__ import annotations

from typing import Iterable

from repro.telemetry.stats import percentile as sorted_percentile

#: Candidate tail percentiles, lowest first.
TAIL_LADDER: tuple[float, ...] = (0.50, 0.75, 0.90, 0.95, 0.99, 0.999)

#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Iterable[float], q: float) -> float:
    """The repository's nearest-rank percentile of an unsorted sample.

    The rank rule is ``repro.telemetry.stats.percentile``'s, so a p99 here
    means what the service's own latency snapshot means by it.  An empty
    sample gives ``0.0``.
    """
    return sorted_percentile(sorted(values), q)


def tail_quantile(n: int) -> float | None:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median lacks that many samples beyond it.
    """
    best = None
    for q in TAIL_LADDER:
        if n and n - 1 - round(q * (n - 1)) >= MIN_BEYOND:
            best = q
    return best


def cycle_median(samples: Iterable[tuple[int, float]], cycle: int) -> float:
    """Median over whole cycles of ``cycle`` request indices of each cycle's mean.

    ``samples`` are ``(request index, value)`` pairs.  With one request
    class (``cycle == 1``) this is the plain median.  With several classes
    of different cost, a plain median falls in the gap between them and
    jumps from run to run; the mean over one request of each class does not.
    Cycles missing a request (a failure) are left out.
    """
    groups: dict[int, list[float]] = {}
    for index, value in samples:
        groups.setdefault(index // cycle, []).append(value)
    return percentile([sum(v) / cycle for v in groups.values() if len(v) == cycle], 0.5)


def ratio(num: float, den: float) -> float:
    """``num / den``, or ``0.0`` when nothing was counted."""
    return num / den if den else 0.0
