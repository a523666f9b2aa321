"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, loadgen, tracing  # noqa: E402
from perfbench.loadgen import Completions, LoadGenerator, timed_tickets  # noqa: E402
from perfbench.run import (  # noqa: E402
    _child_pids,
    become_subreaper,
    build_service,
    close_service,
    end_to_end,
    is_correct,
    stop_children,
)
from perfbench.stats import (  # noqa: E402
    MIN_BEYOND,
    TAIL_LADDER,
    cycle_median,
    percentile,
    tail_quantile,
)
from perfbench.tracing import Span, SpanRecorder, self_time, traced  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    MEASURED,
    WARMUP,
    WORKLOADS,
    Workload,
    _adversary,
    arrivals,
    payload,
)


# ------------------------------------------------------------- workloads


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_payloads_repeat_for_a_seed(name: str) -> None:
    workload = WORKLOADS[name]
    for index in range(6):
        a = payload(workload, 7, MEASURED, index)
        b = payload(workload, 7, MEASURED, index)
        assert a.dtype == np.int64 and np.array_equal(a, b)
        assert workload.min_keys <= len(a) <= workload.max_keys
        assert not np.array_equal(a, payload(workload, 8, MEASURED, index))
        assert not np.array_equal(a, payload(workload, 7, WARMUP, index))


def test_adversary_payload_keeps_the_rank_order() -> None:
    workload = WORKLOADS["large_cf"]
    base = _adversary(workload.max_keys)
    index = next(i for i in range(4) if workload.request_class(i)[1] == "adversary")
    relabelled = payload(workload, 3, MEASURED, index)
    assert np.array_equal(
        np.argsort(base, kind="stable"), np.argsort(relabelled, kind="stable")
    )
    assert np.array_equal(np.sign(np.diff(base)), np.sign(np.diff(relabelled)))


def test_arrivals_repeat_for_a_seed_and_hold_the_rate() -> None:
    a = arrivals(100.0, 3.0, 5)
    assert np.array_equal(a, arrivals(100.0, 3.0, 5))
    assert not np.array_equal(a, arrivals(100.0, 3.0, 6))
    assert len(a) == 300 and np.all(np.diff(a) >= 0)
    assert 0.0 <= a[0] and a[-1] < 3.0


# ----------------------------------------------------------------- stats


@pytest.mark.parametrize(
    "n, q",
    [(0, None), (20, None), (21, 0.5), (38, 0.5), (39, 0.75), (96, 0.75),
     (97, 0.9), (190, 0.9), (191, 0.95), (950, 0.95), (951, 0.99),
     (9500, 0.99), (9501, 0.999)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n: int, q: float | None) -> None:
    assert tail_quantile(n) == q


def test_tail_rule_counts_samples_beyond_the_percentile_itself() -> None:
    for n in range(1, 2500):
        values = list(range(n))
        q = tail_quantile(n)
        higher = [p for p in TAIL_LADDER if q is None or p > q]
        if q is not None:
            assert n - 1 - percentile(values, q) >= MIN_BEYOND
        if higher:
            assert n - 1 - percentile(values, higher[0]) < MIN_BEYOND


def test_percentile_is_the_repository_rule() -> None:
    from repro.telemetry.stats import percentile as repository_percentile

    values = list(range(1, 101))
    for q in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
        assert percentile(values[::-1], q) == repository_percentile(values, q)
    assert percentile(values, 0.99) == 99
    assert percentile([], 0.5) == 0.0


def test_cycle_median_averages_each_cycle_of_request_classes() -> None:
    # Two classes, fast (1) and slow (3): a plain median sits on one class.
    samples = [(i, 1.0 if i % 2 == 0 else 3.0) for i in range(8)]
    assert percentile([v for _, v in samples], 0.5) == 3.0
    assert cycle_median(samples, 2) == 2.0
    assert cycle_median(samples[:-1], 2) == 2.0  # the incomplete cycle is left out
    assert cycle_median([(i, float(i)) for i in range(5)], 1) == 2.0


# --------------------------------------------------------------- tracing


def _span(sid: int, start: float, end: float, parent: int | None = None) -> Span:
    return Span(sid, f"s{sid}", start, end, parent, 0)


def test_self_time_subtracts_the_union_of_children() -> None:
    parent = _span(1, 0.0, 10.0)
    children = [
        _span(2, 1.0, 3.0, 1),
        _span(3, 2.0, 5.0, 1),   # overlaps the first child
        _span(4, 2.5, 4.0, 1),   # inside both
        _span(5, 8.0, 12.0, 1),  # runs past the parent's end
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time(parent, []) == pytest.approx(10.0)
    assert self_time(parent, [_span(6, -5.0, 20.0, 1)]) == pytest.approx(0.0)


def test_recorder_links_nested_calls_on_one_thread() -> None:
    recorder = SpanRecorder()
    inner = recorder.wrap(lambda x: x + 1, "inner", lambda x: {"x": x}, lambda r: {"r": r})
    outer = recorder.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(3) == 8
    spans = {s.name: s for s in recorder.spans}
    assert spans["inner"].parent == spans["outer"].sid
    assert spans["outer"].parent is None
    assert spans["inner"].args == {"x": 3, "r": 4}
    assert spans["outer"].start <= spans["inner"].start <= spans["inner"].end <= spans["outer"].end


def test_traced_restores_originals_and_reports_missing_points(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    import repro.service.jobs as jobs
    import repro.service.service as service_module

    points = tracing.WRAP_POINTS + (
        ("repro.service.jobs", "no_such_function", "x", None, None),
        ("repro.no_such_module", "f", "y", None, None),
    )
    monkeypatch.setattr(tracing, "WRAP_POINTS", points)
    original_run_batch = service_module.run_batch
    original_submit = service_module.SortService.submit
    with traced(SpanRecorder()) as missing:
        assert service_module.run_batch is not original_run_batch
        assert service_module.SortService.submit is not original_submit
    assert missing == ["repro.service.jobs.no_such_function", "repro.no_such_module.f"]
    assert service_module.run_batch is original_run_batch
    assert service_module.SortService.submit is original_submit
    assert jobs.get_backend.__module__ == "repro.service.backends"


# ---------------------------------------------------------- load generator


class _InstantService:
    """A stand-in service: each ``submit`` takes ``delay`` seconds, then completes."""

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self._next = 0

    def submit(self, data, backend, block, timeout):  # noqa: ANN001, ANN201
        from repro.service import service as service_module
        from repro.service.request import SortResult

        time.sleep(self.delay)
        ticket = service_module.ResultTicket(self._next)
        self._next += 1
        ticket._complete(
            SortResult(request_id=ticket.request_id, backend=backend, data=np.sort(data))
        )
        return ticket


def _tiny(loop: str, **overrides: object) -> Workload:
    fields = dict(
        name="tiny", why="test", loop=loop, outstanding=1, rate_rps=100.0,
        classes=(("numpy", "random"),), min_keys=4, max_keys=8,
        warmup_requests=0, rss_requests=10, tail_q=0.99, result_timeout_s=2.0,
    )
    fields.update(overrides)
    return Workload(**fields)  # type: ignore[arg-type]


def test_open_loop_latency_runs_from_the_due_time(monkeypatch: pytest.MonkeyPatch) -> None:
    # Three requests due 10 ms apart; each submit stalls 50 ms, so the
    # later requests are submitted late and their latency must show it.
    monkeypatch.setattr(loadgen, "arrivals", lambda rate, seconds, seed: np.array([0.0, 0.01, 0.02]))
    completions = Completions()
    with timed_tickets(completions):
        outcome = LoadGenerator(_InstantService(0.05), _tiny("open"), 1, completions).run(1.0)
    assert outcome.attempted == 3 and outcome.failed == 0
    samples = sorted(outcome.samples, key=lambda s: s.index)
    for sample in samples:
        assert sample.latency_s == pytest.approx(sample.completed - sample.due)
        assert sample.latency_s >= sample.submitted - sample.due + 0.04
    assert samples[2].submitted - samples[2].due >= 0.07
    assert samples[2].latency_s >= 0.12
    assert len(outcome.lateness_s) == 3 and max(outcome.lateness_s) >= 0.07


def test_closed_loop_latency_runs_from_submission() -> None:
    completions = Completions()
    with timed_tickets(completions):
        outcome = LoadGenerator(
            _InstantService(0.01), _tiny("closed"), 1, completions
        ).run(0.1)
    assert outcome.samples and outcome.failed == 0
    for sample in outcome.samples:
        assert sample.due <= sample.submitted
        assert sample.latency_s == pytest.approx(sample.completed - sample.submitted)
    # Each request is due when the previous one freed its slot.
    assert len(outcome.lateness_s) == outcome.attempted
    samples = sorted(outcome.samples, key=lambda s: s.index)
    for prev, sample in zip(samples, samples[1:]):
        assert sample.due == prev.completed


def test_a_submit_that_raises_counts_as_a_failure() -> None:
    class _Raising(_InstantService):
        def submit(self, data, backend, block, timeout):  # noqa: ANN001, ANN201
            raise ValueError("rejected")

    completions = Completions()
    with timed_tickets(completions):
        outcome = LoadGenerator(_Raising(0.0), _tiny("closed"), 1, completions).run(0.05)
    assert outcome.attempted >= 1 and not outcome.samples
    assert outcome.failures == {"submit:ValueError": outcome.attempted}


def test_a_dead_shard_counts_as_failures_not_a_hang() -> None:
    from repro.service.backends import register_backend


    def boom(data, offsets, params, w):  # noqa: ANN001, ANN202
        raise RuntimeError("backend failure")

    register_backend("perfbench-boom", boom)
    workload = _tiny("closed", outstanding=4, classes=(("perfbench-boom", "random"),),
                     result_timeout_s=0.5)
    completions = Completions()
    previous_hook = threading.excepthook
    threading.excepthook = lambda args: None  # the shard thread's traceback
    try:
        with timed_tickets(completions):
            service = build_service()
            started = time.perf_counter()
            outcome = LoadGenerator(service, workload, 1, completions).run(0.2)
            elapsed = time.perf_counter() - started
            close_service(service)
    finally:
        threading.excepthook = previous_hook
    assert outcome.attempted >= 1
    assert outcome.failed == outcome.attempted
    assert outcome.failures["timeout"] >= 1
    assert elapsed < 5.0
    assert not is_correct([outcome], loadgen.Outcome(), [])


def test_any_failed_request_makes_the_run_incorrect() -> None:
    good = loadgen.Outcome(attempted=3)
    failed = loadgen.Outcome(attempted=3)
    failed.failures["shed"] += 1
    assert is_correct([good, good], good, [])
    assert not is_correct([failed], good, [])
    assert not is_correct([good, failed], good, [])  # a traced phase
    assert not is_correct([good], failed, [])  # the warm-up
    assert not is_correct([good], good, ["coverage"])
    assert not is_correct([loadgen.Outcome()], good, [])  # nothing attempted


def test_latency_tail_is_the_slowest_request_class() -> None:
    workload = _tiny("closed", classes=(("cf", "random"), ("cf", "adversary")), tail_q=0.5)

    def outcome(random_s: float, adversary_s: float) -> loadgen.Outcome:
        out = loadgen.Outcome(attempted=40, wall_s=1.0)
        for i in range(40):
            kind = workload.request_class(i)[1]
            latency = random_s if kind == "random" else adversary_s
            out.samples.append(loadgen.Sample(i, i, "cf", kind, 0.0, 0.0, latency,
                                              latency, 0.0, 0.0))
        return out

    base, _ = end_to_end(outcome(0.30, 0.28), [1.0], workload)
    # Faster on random keys, slower on the adversary by the same amount:
    # the mean-based figures stay put, the tail does not.
    moved, _ = end_to_end(outcome(0.26, 0.32), [1.0], workload)
    assert moved["latency_p50_ms"] == pytest.approx(base["latency_p50_ms"])
    assert base["latency_tail_ms"] == pytest.approx(300.0)
    assert moved["latency_tail_ms"] == pytest.approx(320.0)


# ------------------------------------------------------------- coverage


def test_coverage_flags_rerouted_work() -> None:
    recorder = SpanRecorder()
    recorder.spans = [
        Span(1, "runner.run_batch", 0.0, 1.0, None, 0,
             {"batch_id": 0, "backend": "cf", "request_ids": [0], "elements": 1280}),
        Span(2, "engine.lane", 0.1, 0.2, 1, 0, {"tiles": 8}),
        Span(3, "mergesort.gpu_mergesort", 0.2, 0.9, 1, 0,
             {"n": 1280, "shared_rounds": 5, "shared_replays": 1}),
    ]
    metrics = {"mergesort.calls": 1.0}
    small = layers.coverage_problems("small_closed", recorder, metrics, {}, {})
    assert any("gpu_mergesort" in p for p in small)
    large = layers.coverage_problems(
        "large_cf", recorder, metrics, {0: (5, 1)}, {0: (5, 2)}
    )
    assert any("under a cf request" in p for p in large)
    assert any("sim counts changed" in p for p in large)
    assert any("cluster pool" in p for p in large)


def test_stop_children_ends_the_resource_tracker_and_orphans() -> None:
    from multiprocessing import shared_memory

    become_subreaper()
    # A child that starts a sleeper and exits: the sleeper is orphaned to us.
    subprocess.run(
        [sys.executable, "-c", "import subprocess; subprocess.Popen(['sleep', '300'])"],
        check=True,
    )
    block = shared_memory.SharedMemory(create=True, size=8)  # Starts the tracker.
    block.close()
    block.unlink()
    deadline = time.monotonic() + 5
    while len(_child_pids()) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(_child_pids()) >= 2
    stop_children()
    assert _child_pids() == []
