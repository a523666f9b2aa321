"""In-memory wall-clock spans around the public functions of each layer.

:func:`traced` swaps each wrapper onto the module or class attribute its
caller looks up at call time, records one :class:`Span` per call, and puts
the originals back on exit.  Spans stay in memory until the run writes
them out.  Parents are tracked per thread, so a span's parent is the
innermost wrapped call still open on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator, Sequence

Args = dict[str, Any]


@dataclass
class Span:
    """One timed call of a wrapped function."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    args: Args = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds from entry to exit."""
        return self.end - self.start

    def as_dict(self) -> Args:
        """Plain-JSON form for the span file."""
        return asdict(self)


def covered(start: float, end: float, intervals: Sequence[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """``span``'s duration minus the part of it its children cover.

    Overlapping children are counted once, and a child reaching outside
    its parent counts only inside it.
    """
    return span.duration - covered(
        span.start, span.end, [(c.start, c.end) for c in children]
    )


class SpanRecorder:
    """Collects spans from any thread; appends are atomic under the GIL."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack: list[int] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        before: Callable[..., Args] | None = None,
        after: Callable[[Any], Args] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a ``name`` span per call.

        ``before(*args, **kwargs)`` and ``after(result)`` return span args.
        """

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            span_args = before(*args, **kwargs) if before else {}
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), span_args)
                )
            if after:
                span_args.update(after(result))
            return result

        return spanned

    def children(self) -> dict[int, list[Span]]:
        """Parent span id -> its direct child spans."""
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def by_id(self) -> dict[int, Span]:
        """Span id -> span."""
        return {span.sid: span for span in self.spans}

    def named(self, name: str) -> list[Span]:
        """Every span called ``name``, in completion order."""
        return [span for span in self.spans if span.name == name]


def _batch_args(batch: Any, *_: Any, **__: Any) -> Args:
    return {
        "batch_id": batch.batch_id,
        "backend": batch.backend,
        "request_ids": [r.request_id for r in batch.requests],
        "elements": batch.elements,
    }


def _mergesort_after(result: Any) -> Args:
    counters = result.total_counters
    return {
        "n": int(result.n),
        "shared_rounds": int(counters.shared_rounds),
        "shared_replays": int(counters.shared_replays),
    }


#: ``(module, attribute path, span name, before, after)`` for every wrapped
#: public function, on the attribute its caller resolves at call time.
WRAP_POINTS: tuple[
    tuple[str, str, str, Callable[..., Args] | None, Callable[[Any], Args] | None],
    ...,
] = (
    ("repro.service.service", "SortService.submit", "service.submit", None,
     lambda ticket: {"request_id": ticket.request_id}),
    ("repro.service.scheduler", "plan_batches", "scheduler.plan_batches",
     lambda requests, *a, **k: {"requests": len(requests)},
     lambda batches: {"batches": len(batches)}),
    ("repro.service.service", "run_batch", "runner.run_batch", _batch_args, None),
    ("repro.service.jobs", "batch_job", "runner.batch_job", None, None),
    ("repro.engine.backend", "cf_batched_backend", "engine.cf_batched_backend",
     None, None),
    ("repro.engine.backend", "batched_blocksort_profile", "engine.lane",
     lambda tiles, *a, **k: {"tiles": int(tiles.shape[0])}, None),
    ("repro.mergesort.pipeline", "gpu_mergesort", "mergesort.gpu_mergesort",
     None, _mergesort_after),
    ("repro.mergesort.segmented", "gpu_mergesort", "mergesort.gpu_mergesort",
     None, _mergesort_after),
    ("repro.cluster.service", "cf_cluster_backend", "cluster.cf_cluster_backend",
     None, None),
    ("repro.cluster.pool", "ClusterPool.run", "cluster.pool_run",
     lambda pool, tasks, *a, **k: {"tasks": len(tasks)}, None),
)


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[list[str]]:
    """Install every wrapper for the ``with`` body; yields the missing points.

    A wrap point whose module or attribute no longer exists is skipped and
    named in the yielded list instead of failing the run.  The backend a
    batch runs on is spanned too (``runner.backend``), through the
    registry lookup ``repro.service.jobs.get_backend``.
    """
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []

    def install(owner: object, attr: str, replacement: object) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for module_name, path, name, before, after in WRAP_POINTS:
            try:
                owner: object = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{path}")
                continue
            install(owner, attr, recorder.wrap(original, name, before, after))
        try:
            jobs = importlib.import_module("repro.service.jobs")
            lookup = jobs.get_backend
        except (ImportError, AttributeError):
            missing.append("repro.service.jobs.get_backend")
        else:

            def get_backend(backend_name: str) -> Callable[..., Any]:
                return recorder.wrap(
                    lookup(backend_name),
                    "runner.backend",
                    lambda *a, **k: {"backend": backend_name},
                )

            install(jobs, "get_backend", get_backend)
        yield missing
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
