"""The single-threaded load generator: closed and open loops, every wait bounded.

The generator submits through the public ``SortService.submit`` and learns
of completions from :class:`TimedTicket`, a ``ResultTicket`` that stamps
the moment the service completes it and wakes the generator.  Latency runs
from submission (closed loop) or from the due time (open loop) to that
stamp, so it never includes the generator's own delay in collecting a
result.  Every response is checked against ``np.sort``.

A request fails when it is shed, expires, comes back wrong, raises, or
gives no result within the workload's timeout.  A failure is counted and
the run goes on; nothing here waits without a timeout.
"""

from __future__ import annotations

import collections
import resource
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from perfbench.workloads import MEASURED, Workload, arrivals, payload

#: Longest a blocking ``submit`` may wait for an admission slot.
SUBMIT_TIMEOUT_S = 5.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Sample:
    """One correct response."""

    index: int
    request_id: int
    backend: str
    kind: str
    #: ``perf_counter`` seconds: when the request was due and when submitted.
    due: float
    submitted: float
    completed: float
    #: Seconds from submission (closed) or due time (open) to completion.
    latency_s: float
    wait_s: float
    service_s: float


@dataclass
class Outcome:
    """What one measured phase produced."""

    attempted: int = 0
    samples: list[Sample] = field(default_factory=list)
    failures: collections.Counter[str] = field(default_factory=collections.Counter)
    #: Seconds from each request's due time to its submission.  A request is
    #: due at its arrival time (open loop) or when its slot freed (closed loop).
    lateness_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Peak resident memory once ``rss_requests`` responses were in (or at the end).
    peak_rss_mb: float = 0.0

    @property
    def failed(self) -> int:
        """Attempted requests without a correct response."""
        return sum(self.failures.values())

    @property
    def wrong(self) -> int:
        """Responses whose data differed from ``np.sort``."""
        return self.failures["wrong"]


class Completions:
    """Tickets the service completed, in completion order."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._done: collections.deque[Any] = collections.deque()

    def push(self, ticket: Any) -> None:
        """Called by the completing service thread."""
        with self._cond:
            self._done.append(ticket)
            self._cond.notify()

    def take(self, timeout: float) -> list[Any]:
        """Every ticket completed so far, waiting up to ``timeout`` for one."""
        with self._cond:
            if not self._done and timeout > 0:
                self._cond.wait(timeout)
            items = list(self._done)
            self._done.clear()
        return items


@contextmanager
def timed_tickets(completions: Completions) -> Iterator[None]:
    """Make ``SortService`` issue completion-stamping tickets for the body."""
    from repro.service import service as service_module

    base = service_module.ResultTicket

    class TimedTicket(base):  # type: ignore[misc, valid-type]
        """A ``ResultTicket`` that records when it completed."""

        completed_at = 0.0

        def _complete(self, result: Any) -> None:
            self.completed_at = time.perf_counter()
            super()._complete(result)
            completions.push(self)

    service_module.ResultTicket = TimedTicket
    try:
        yield
    finally:
        service_module.ResultTicket = base


@dataclass
class _Pending:
    index: int
    data: np.ndarray
    backend: str
    kind: str
    due: float
    submitted: float


class LoadGenerator:
    """Drives one workload through one service and checks every response."""

    def __init__(
        self, service: Any, workload: Workload, seed: int, completions: Completions
    ) -> None:
        self.service = service
        self.workload = workload
        self.seed = seed
        self.completions = completions

    def run(
        self,
        seconds: float,
        stream: int = MEASURED,
        max_requests: int | None = None,
        closed: bool | None = None,
    ) -> Outcome:
        """One phase: requests ``0, 1, ...`` of ``stream`` for ``seconds``.

        A closed loop keeps ``outstanding`` requests in flight and stops
        submitting at the end of a whole cycle of request classes; an open
        loop submits on the seeded arrival schedule.  ``max_requests``
        caps the count (warm-up and repeat phases).  The phase returns
        once every submitted request has completed or timed out.
        """
        if closed is None:
            closed = self.workload.loop == "closed"
        outcome = Outcome()
        outstanding: dict[int, _Pending] = {}
        cycle = len(self.workload.classes)
        timeout = self.workload.result_timeout_s
        dues = [] if closed else arrivals(self.workload.rate_rps, seconds, self.seed)
        start = time.perf_counter()
        cpu_start = time.process_time()
        end = start + seconds
        #: Closed loop: when each slot freed, oldest first.
        freed: collections.deque[float] = collections.deque()
        index = 0
        while True:
            now = time.perf_counter()
            if closed:
                # Finish the cycle of request classes in progress.
                in_window = now < end or index % cycle != 0
            else:
                in_window = index < len(dues)
                next_due = start + dues[index] if in_window else end
            more = in_window and (max_requests is None or index < max_requests)
            if closed:
                ready = more and len(outstanding) < self.workload.outstanding
            else:
                ready = more and next_due <= now
            if ready:
                if closed:
                    due = freed.popleft() if freed else start
                else:
                    due = next_due
                outcome.lateness_s.append(time.perf_counter() - due)
                if not self._submit(index, stream, due, outstanding, outcome) and closed:
                    freed.appendleft(time.perf_counter())  # The slot stayed free.
                index += 1
                continue
            if not more and not outstanding:
                break
            wait = timeout if closed or not more else max(0.0, next_due - now)
            for ticket in self.completions.take(wait):
                if ticket.request_id in outstanding:
                    freed.append(ticket.completed_at)
                self._collect(ticket, outstanding, outcome, closed)
            expired = self._expire(outstanding, outcome, timeout)
            freed.extend([time.perf_counter()] * expired)
        outcome.wall_s = time.perf_counter() - start
        outcome.cpu_s = time.process_time() - cpu_start
        if not outcome.peak_rss_mb:
            outcome.peak_rss_mb = peak_rss_mb()
        return outcome

    def _submit(
        self,
        index: int,
        stream: int,
        due: float,
        outstanding: dict[int, _Pending],
        outcome: Outcome,
    ) -> bool:
        """Submit request ``index``; ``False`` if the service did not take it."""
        from repro.errors import QueueFullError

        backend, kind = self.workload.request_class(index)
        data = payload(self.workload, self.seed, stream, index)
        outcome.attempted += 1
        submitted = time.perf_counter()
        try:
            ticket = self.service.submit(
                data, backend=backend, block=True, timeout=SUBMIT_TIMEOUT_S
            )
        except QueueFullError:
            outcome.failures["shed"] += 1
            return False
        except Exception as exc:  # The generator must keep going; count it.
            outcome.failures[f"submit:{type(exc).__name__}"] += 1
            return False
        outstanding[ticket.request_id] = _Pending(
            index, data, backend, kind, due, submitted
        )
        return True

    def _collect(
        self,
        ticket: Any,
        outstanding: dict[int, _Pending],
        outcome: Outcome,
        closed: bool,
    ) -> None:
        pending = outstanding.pop(ticket.request_id, None)
        if pending is None:  # Already counted as timed out.
            return
        result = ticket.result(timeout=0)
        if result.error is not None:
            outcome.failures[result.error] += 1
            return
        if not np.array_equal(result.data, np.sort(pending.data)):
            outcome.failures["wrong"] += 1
            return
        origin = pending.submitted if closed else pending.due
        outcome.samples.append(
            Sample(
                index=pending.index,
                request_id=ticket.request_id,
                backend=pending.backend,
                kind=pending.kind,
                due=pending.due,
                submitted=pending.submitted,
                completed=ticket.completed_at,
                latency_s=ticket.completed_at - origin,
                wait_s=result.wait_s,
                service_s=result.service_s,
            )
        )
        if len(outcome.samples) == self.workload.rss_requests:
            outcome.peak_rss_mb = peak_rss_mb()

    @staticmethod
    def _expire(outstanding: dict[int, _Pending], outcome: Outcome, timeout: float) -> int:
        """Count requests older than ``timeout`` as failed; return how many."""
        cutoff = time.perf_counter() - timeout
        late = [r for r, p in outstanding.items() if p.submitted < cutoff]
        for request_id in late:
            del outstanding[request_id]
            outcome.failures["timeout"] += 1
        return len(late)
