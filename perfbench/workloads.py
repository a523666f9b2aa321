"""The benchmark's workloads and their seeded inputs.

Every payload is a pure function of ``(seed, stream, index)``, and the open
loop's arrival schedule a pure function of ``seed``.  The service only ever
sees the generated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import numpy as np

#: Payload streams: the measured requests and the uncounted warm-up.
MEASURED, WARMUP = 0, 1
_ARRIVALS = 2

#: The service defaults every workload pins (one tile = u * E = 160 keys).
E, U, W = 5, 32, 8
LARGE_KEYS = 8 * U * E


@dataclass(frozen=True)
class Workload:
    """One traffic shape the benchmark drives through ``SortService``."""

    name: str
    why: str
    #: ``"closed"``: ``outstanding`` requests in flight; ``"open"``: Poisson arrivals.
    loop: str
    outstanding: int
    rate_rps: float
    #: ``(backend, input kind)`` pairs, cycled by request index.
    classes: tuple[tuple[str, str], ...]
    min_keys: int
    max_keys: int
    warmup_requests: int
    #: ``peak_rss_mb`` is read once this many measured requests completed,
    #: so a faster service is not charged for the results it retains.
    rss_requests: int
    #: Tail percentile, taken within each request class: ``latency_tail_ms``
    #: is the largest class's.  Fixed per workload, so run-to-run sample
    #: counts cannot switch it while each class holds enough responses.
    tail_q: float
    #: Longest wait for one response before it counts as failed.
    result_timeout_s: float

    def request_class(self, index: int) -> tuple[str, str]:
        """``(backend, input kind)`` of request ``index``."""
        return self.classes[index % len(self.classes)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="small_closed",
            why="16 small cf-batched requests in flight: batches fill by size, "
            "so job encoding, the engine lane and unpacking dominate",
            loop="closed",
            outstanding=16,
            rate_rps=0.0,
            classes=(("cf-batched", "random"),),
            min_keys=8,
            max_keys=U * E,
            warmup_requests=300,
            rss_requests=2000,
            tail_q=0.90,
            result_timeout_s=10.0,
        ),
        Workload(
            name="small_open",
            why="Poisson arrivals at 100 req/s of the same small requests: "
            "batches flush on max_wait_s, so scheduler wait dominates latency",
            loop="open",
            outstanding=16,
            rate_rps=100.0,
            classes=(("cf-batched", "random"),),
            min_keys=8,
            max_keys=U * E,
            warmup_requests=300,
            rss_requests=2000,
            tail_q=0.99,
            result_timeout_s=10.0,
        ),
        Workload(
            name="large_cf",
            why="one 8-tile request at a time on cf and cf-cluster, random and "
            "the section 4 adversary: the lockstep simulator dominates",
            loop="closed",
            outstanding=1,
            rate_rps=0.0,
            classes=(
                ("cf", "random"),
                ("cf", "adversary"),
                ("cf-cluster", "random"),
                ("cf-cluster", "adversary"),
            ),
            min_keys=LARGE_KEYS,
            max_keys=LARGE_KEYS,
            warmup_requests=4,
            rss_requests=40,
            tail_q=0.50,
            result_timeout_s=30.0,
        ),
    )
}


@lru_cache(maxsize=None)
def _adversary(n_keys: int) -> np.ndarray:
    """The Section 4 worst-case input of ``n_keys`` keys (whole tiles)."""
    from repro.workloads import adversarial

    tiles = n_keys // (U * E)
    base = np.asarray(adversarial(tiles, E, U, W), dtype=np.int64)
    base.setflags(write=False)
    return base


def payload(workload: Workload, seed: int, stream: int, index: int) -> np.ndarray:
    """The keys of request ``index`` in ``stream`` for ``seed``.

    Random payloads draw their length and keys from the seed.  Adversary
    payloads relabel the Section 4 input with seeded keys of the same rank
    order, so every comparison — and so every simulated count — matches
    the unrelabelled adversary.
    """
    rng = np.random.default_rng([seed, stream, index])
    _, kind = workload.request_class(index)
    if kind == "random":
        n = int(rng.integers(workload.min_keys, workload.max_keys + 1))
        return rng.integers(0, 2**31, n, dtype=np.int64)
    base = _adversary(workload.max_keys)
    distinct, ranks = np.unique(base, return_inverse=True)
    labels = np.sort(rng.choice(2**31, size=len(distinct), replace=False))
    return labels[ranks].astype(np.int64)


def arrivals(rate_rps: float, seconds: float, seed: int) -> np.ndarray:
    """Seeded Poisson arrival offsets, in seconds, over a phase of ``seconds``.

    A Poisson process holding exactly ``round(rate_rps * seconds)`` arrivals
    in the phase: that many uniform times, sorted.  Fixing the count keeps
    the offered load, and so the throughput, the same for every seed.
    """
    rng = np.random.default_rng([seed, _ARRIVALS])
    return np.sort(rng.uniform(0.0, seconds, round(rate_rps * seconds)))
