"""Per-layer metrics of a traced phase, and the layer-coverage check.

The metrics come from span self times (:mod:`perfbench.tracing`), the
responses' own ``wait_s``/``service_s`` split, and deltas of the public
stats functions across the traced phase.  A stats function that is
missing is reported by name; its metrics are left out, never guessed.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

from perfbench.loadgen import Outcome
from perfbench.stats import percentile, ratio
from perfbench.tracing import Span, SpanRecorder, self_time

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("loadgen.lateness_p99_ms", "ms"),
    ("service.submit_p99_us", "us"),
    ("service.scheduler.wait_p50_ms", "ms"),
    ("service.scheduler.wait_p99_ms", "ms"),
    ("service.scheduler.flushes", "count"),
    ("service.scheduler.plan_ms_per_flush", "ms"),
    ("service.batching.requests_per_batch", "count"),
    ("service.batching.fill_ratio", "ratio"),
    ("service.pool.queue_p50_ms", "ms"),
    ("service.pool.queue_p99_ms", "ms"),
    ("runner.self_ms_per_batch", "ms"),
    ("runner.encode_ms_per_batch", "ms"),
    ("engine.backend_ms_per_batch", "ms"),
    ("engine.lane_us_per_tile", "us"),
    ("engine.plan_hit_rate", "ratio"),
    ("engine.arena_reuse_rate", "ratio"),
    ("engine.fused_share", "ratio"),
    ("mergesort.calls", "count"),
    ("mergesort.ms_per_kkey", "ms"),
    ("sim.shared_rounds_per_request", "count"),
    ("sim.shared_replays_per_request", "count"),
    ("cluster.backend_ms_per_batch", "ms"),
    ("cluster.pool_run_ms_per_batch", "ms"),
    ("cluster.tasks", "count"),
    ("process.cpu_util", "ratio"),
    ("trace.throughput_overhead", "ratio"),
    ("trace.latency_p50_overhead", "ratio"),
)

Stats = dict[str, Any]

#: ``name -> (module, function)`` of the public stats the metrics difference.
STATS_SOURCES: dict[str, tuple[str, str]] = {
    "plan_cache": ("repro.engine.plans", "plan_cache_stats"),
    "arena": ("repro.engine.arena", "arena_stats"),
    "fusion": ("repro.engine.batch", "fusion_stats"),
    "cluster": ("repro.cluster.stats", "cluster_stats"),
}


def read_stats(service: Any) -> dict[str, Stats | None]:
    """Current values of every stats source; ``None`` where one is missing."""
    out: dict[str, Stats | None] = {}
    for name, (module, function) in STATS_SOURCES.items():
        try:
            fn: Callable[[], Stats] = getattr(importlib.import_module(module), function)
        except (ImportError, AttributeError):
            out[name] = None
            continue
        out[name] = dict(fn())
    snapshot = getattr(service.metrics, "snapshot", None)
    out["service"] = dict(snapshot()) if snapshot is not None else None
    return out


def _delta(before: Stats, after: Stats, key: str) -> float:
    return float(after[key]) - float(before[key])


def _requests_per_batch(b: Stats, a: Stats) -> float:
    return ratio(
        _delta(b["requests"], a["requests"], "completed"),
        _delta(b["batches"], a["batches"], "count"),
    )


def _fill_ratio(b: Stats, a: Stats) -> float:
    return ratio(
        _delta(b["batches"], a["batches"], "elements"),
        _delta(b["batches"], a["batches"], "padded_elements"),
    )


def _plan_hit_rate(b: Stats, a: Stats) -> float:
    hits = _delta(b, a, "hits")
    return ratio(hits, hits + _delta(b, a, "misses"))


def _fused_share(b: Stats, a: Stats) -> float:
    fused = sum(_delta(b, a, k) for k in a if k.startswith("fused_"))
    fallback = sum(_delta(b, a, k) for k in a if k.startswith("fallback_"))
    return ratio(fused, fused + fallback)


#: Metrics differenced from a stats source: ``name -> (source, fn(before, after))``.
#: Source ``"service"`` is ``ServiceMetrics.snapshot()``.
STAT_METRICS: dict[str, tuple[str, Callable[[Stats, Stats], float]]] = {
    "service.batching.requests_per_batch": ("service", _requests_per_batch),
    "service.batching.fill_ratio": ("service", _fill_ratio),
    "engine.plan_hit_rate": ("plan_cache", _plan_hit_rate),
    "engine.arena_reuse_rate": (
        "arena", lambda b, a: ratio(_delta(b, a, "reuse_hits"), _delta(b, a, "checkouts"))
    ),
    "engine.fused_share": ("fusion", _fused_share),
    "cluster.tasks": ("cluster", lambda b, a: _delta(b, a, "tasks_executed")),
}


def _stat_metrics(
    before: dict[str, Stats | None], after: dict[str, Stats | None]
) -> tuple[dict[str, float], list[str]]:
    """The stats-delta metrics, and the names of those that cannot be computed."""
    out: dict[str, float] = {}
    missing: list[str] = []
    for name, (source, fn) in STAT_METRICS.items():
        b, a = before.get(source), after.get(source)
        try:
            if b is None or a is None:
                raise KeyError(source)
            out[name] = fn(b, a)
        except (KeyError, TypeError, ValueError):
            missing.append(name)
    return out, missing


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _per_call_ms(spans: list[Span]) -> float:
    return _ms(ratio(sum(s.duration for s in spans), len(spans)))


def root_batch(span: Span, by_id: dict[int, Span]) -> Span | None:
    """The ``runner.run_batch`` span ``span`` runs under, if any."""
    node: Span | None = span
    while node is not None:
        if node.name == "runner.run_batch":
            return node
        node = by_id.get(node.parent) if node.parent is not None else None
    return None


def sim_counts(
    recorder: SpanRecorder, outcome: Outcome, indices: range
) -> dict[int, tuple[int, int]]:
    """Per request index in ``indices``: simulated ``(shared rounds, replays)``.

    Sums the lockstep simulator's counters over every ``gpu_mergesort``
    call made for the batch that carried the request.
    """
    by_id = recorder.by_id()
    index_of = {s.request_id: s.index for s in outcome.samples}
    out = {i: (0, 0) for i in indices}
    for span in recorder.named("mergesort.gpu_mergesort"):
        batch = root_batch(span, by_id)
        if batch is None:
            continue
        for request_id in batch.args["request_ids"]:
            index = index_of.get(request_id)
            if index in out:
                rounds, replays = out[index]
                out[index] = (
                    rounds + span.args["shared_rounds"],
                    replays + span.args["shared_replays"],
                )
    return out


def layer_metrics(
    recorder: SpanRecorder,
    outcome: Outcome,
    stats_before: dict[str, Stats | None],
    stats_after: dict[str, Stats | None],
    sim: dict[int, tuple[int, int]],
) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric of one traced phase, and the missing ones' names."""
    children = recorder.children()
    samples = outcome.samples
    out: dict[str, float] = {}

    out["loadgen.lateness_p99_ms"] = _ms(percentile(outcome.lateness_s, 0.99))
    out["service.submit_p99_us"] = 1e6 * percentile(
        [s.duration for s in recorder.named("service.submit")], 0.99
    )
    waits = [s.wait_s for s in samples]
    out["service.scheduler.wait_p50_ms"] = _ms(percentile(waits, 0.50))
    out["service.scheduler.wait_p99_ms"] = _ms(percentile(waits, 0.99))
    plans = recorder.named("scheduler.plan_batches")
    out["service.scheduler.flushes"] = float(len(plans))
    out["service.scheduler.plan_ms_per_flush"] = _per_call_ms(plans)
    queued = [s.latency_s - s.wait_s - s.service_s for s in samples]
    out["service.pool.queue_p50_ms"] = _ms(percentile(queued, 0.50))
    out["service.pool.queue_p99_ms"] = _ms(percentile(queued, 0.99))

    batches = recorder.named("runner.run_batch")
    runner_self = [
        self_time(b, [c for c in children.get(b.sid, []) if c.name == "runner.backend"])
        for b in batches
    ]
    out["runner.self_ms_per_batch"] = _ms(ratio(sum(runner_self), len(batches)))
    out["runner.encode_ms_per_batch"] = _per_call_ms(recorder.named("runner.batch_job"))

    out["engine.backend_ms_per_batch"] = _per_call_ms(
        recorder.named("engine.cf_batched_backend")
    )
    lanes = recorder.named("engine.lane")
    out["engine.lane_us_per_tile"] = 1e6 * ratio(
        sum(s.duration for s in lanes), sum(s.args["tiles"] for s in lanes)
    )

    sorts = recorder.named("mergesort.gpu_mergesort")
    out["mergesort.calls"] = float(len(sorts))
    out["mergesort.ms_per_kkey"] = _ms(
        ratio(sum(s.duration for s in sorts), sum(s.args["n"] for s in sorts) / 1e3)
    )
    counts = list(sim.values())
    out["sim.shared_rounds_per_request"] = ratio(sum(c[0] for c in counts), len(counts))
    out["sim.shared_replays_per_request"] = ratio(sum(c[1] for c in counts), len(counts))

    out["cluster.backend_ms_per_batch"] = _per_call_ms(
        recorder.named("cluster.cf_cluster_backend")
    )
    out["cluster.pool_run_ms_per_batch"] = _per_call_ms(recorder.named("cluster.pool_run"))
    out["process.cpu_util"] = ratio(outcome.cpu_s, outcome.wall_s)

    stat_metrics, missing = _stat_metrics(stats_before, stats_after)
    out.update(stat_metrics)
    return out, missing


def coverage_problems(
    workload: str,
    recorder: SpanRecorder,
    metrics: dict[str, float],
    sim_first: dict[int, tuple[int, int]],
    sim_repeat: dict[int, tuple[int, int]],
) -> list[str]:
    """Ways the traced phase did not exercise what ``workload`` was chosen for."""
    problems: list[str] = []
    if workload in ("small_closed", "small_open"):
        if metrics["mergesort.calls"] != 0:
            problems.append(
                f"{workload}: {metrics['mergesort.calls']:.0f} gpu_mergesort calls, expected 0"
            )
        if not recorder.named("engine.lane"):
            problems.append(f"{workload}: the engine lane was never called")
    if workload == "large_cf":
        by_id = recorder.by_id()
        for span in recorder.spans:
            if not span.name.startswith("engine."):
                continue
            batch = root_batch(span, by_id)
            if batch is not None and batch.args["backend"] == "cf":
                problems.append(f"large_cf: {span.name} span under a cf request")
                break
        if metrics["mergesort.calls"] == 0:
            problems.append("large_cf: the lockstep simulator was never called")
        if not recorder.named("cluster.pool_run"):
            problems.append("large_cf: the cluster pool was never called")
        if sim_first != sim_repeat:
            problems.append(
                f"large_cf: sim counts changed between two runs of one seed: "
                f"{sim_first} != {sim_repeat}"
            )
        if not any(sim_first.values()):
            problems.append("large_cf: no simulated counts recorded")
    return problems
