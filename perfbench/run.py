"""Run one benchmark workload against ``repro.service.SortService``.

Usage, from the repository root::

    python3 perfbench/run.py --workload small_closed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` repeats the measured phase with every layer wrapped in
spans and reports the per-layer metrics, the tracing overhead, and the
layer-coverage check.  Every response is checked against ``np.sort``.
The last line of standard output is one JSON object; a full record of
the run, with its configuration, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

#: Fresh processes timed from start to ready; ``setup_s`` is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60.0
CLOSE_TIMEOUT_S = 30.0
REAP_TIMEOUT_S = 10.0
#: ``prctl`` option that makes orphaned descendants this process's children.
_PR_SET_CHILD_SUBREAPER = 36

#: ``(name, unit)`` of every end-to-end metric.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _bootstrap() -> None:
    """Put the checkout's own ``src`` first on the path; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: the program to measure is missing ({SRC / 'repro'})")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def pin_to_one_cpu() -> int:
    """Run this process, and the probes it starts, on one CPU; return which.

    The service is bound by the interpreter lock: one thread runs at a time.
    Spread over two CPUs of a shared machine, every hand-off of the lock
    wakes a thread on the other CPU, and how long that takes depends on
    what else runs there.  That made closed-loop throughput swing by a
    third from run to run; on one CPU it stays within a few percent.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def become_subreaper() -> None:
    """Adopt this process's orphaned descendants, so :func:`stop_children` reaps them.

    The ``cf-cluster`` backend allocates shared memory, which starts a
    ``multiprocessing`` resource-tracker process meant to outlive its
    parent.  A set-up probe killed on timeout would orphan its own.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> list[int]:
    """Processes whose parent is this one."""
    me, found = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # ``pid (comm) state ppid ...``; comm may hold spaces and parentheses.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry.name))
    return found


def stop_children() -> None:
    """Stop every process this one started or adopted, and wait until each has ended."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()  # Closes its pipe, then waits for it.
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while time.monotonic() < deadline:
        for pid in _child_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if not pid:
            time.sleep(0.01)


def build_service() -> Any:
    """A ``SortService`` on the pinned defaults, with the cluster pool inline."""
    from repro.cluster.pool import set_default_procs
    from repro.config import SortParams
    from repro.service import BatchPolicy, SortService

    from perfbench.workloads import E, U, W

    set_default_procs(0)
    return SortService(SortParams(E=E, u=U), w=W, policy=BatchPolicy(), cache=None)


def close_service(service: Any) -> bool:
    """Drain and stop ``service``; ``False`` if that did not finish in time."""
    closer = threading.Thread(target=service.close, daemon=True)
    closer.start()
    closer.join(CLOSE_TIMEOUT_S)
    return not closer.is_alive()


def warm_up(generator: Any) -> Any:
    """Uncounted warm-up requests from the warm-up stream."""
    from perfbench.workloads import WARMUP

    return generator.run(
        float("inf"),
        stream=WARMUP,
        max_requests=generator.workload.warmup_requests,
        closed=True,
    )


def setup_probe(workload_name: str, seed: int) -> int:
    """Child process: set up as a run does, say ``ready``, and leave."""
    from perfbench.loadgen import Completions, LoadGenerator, timed_tickets
    from perfbench.workloads import WORKLOADS

    completions = Completions()
    with timed_tickets(completions):
        service = build_service()
        warm_up(LoadGenerator(service, WORKLOADS[workload_name], seed, completions))
        print("ready", flush=True)
        close_service(service)
    return 0


def time_setup(workload_name: str, seed: int) -> float:
    """Seconds from starting a fresh process until it is ready to measure."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload_name, "--seed", str(seed),
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout is not None
        readable, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if readable else ""
        elapsed = time.perf_counter() - started
        proc.wait(PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return elapsed


def _commit() -> str | None:
    """The checkout's git commit, or ``None`` when it is not a git work tree."""
    # Stop git's search for a repository at the checkout's own root.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(service: Any, workload: Any, args: argparse.Namespace) -> dict[str, Any]:
    """The pinned configuration and the machine, for the result file."""
    import numpy as np
    from repro.cluster.pool import default_procs
    from repro.runner.cache import code_version

    return {
        "workload": dataclasses.asdict(workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": {"E": service.params.E, "u": service.params.u},
        "w": service.w,
        "policy": dataclasses.asdict(service.policy),
        "cache": None,
        "cluster_procs": default_procs(),
        "setup_probes": SETUP_PROBES,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "os": " ".join(os.uname()[i] for i in (0, 2, 4)),
        },
        "commit": _commit(),
        "code_version": code_version(),
    }


def end_to_end(
    outcome: Any, setup_samples: list[float], workload: Any
) -> tuple[dict[str, float], dict[str, Any]]:
    """End-to-end metrics of an untraced phase, plus the figures printed beside them."""
    from perfbench.stats import cycle_median, percentile, ratio, tail_quantile

    latencies = [s.latency_s for s in outcome.samples]
    n = len(latencies)
    classes: dict[str, list[float]] = {}
    for s in outcome.samples:
        classes.setdefault(f"{s.backend}/{s.kind}", []).append(s.latency_s)
    fewest = min((len(values) for values in classes.values()), default=0)
    q = min(workload.tail_q, tail_quantile(fewest) or 0.5)
    cycle = len(workload.classes)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "throughput_rps": ratio(n, outcome.wall_s),
        "latency_p50_ms": 1e3 * cycle_median(
            ((s.index, s.latency_s) for s in outcome.samples), cycle
        ),
        "latency_tail_ms": 1e3 * max(
            (percentile(values, q) for values in classes.values()), default=0.0
        ),
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    extra: dict[str, Any] = {
        "samples": n,
        "tail_quantile": q,
        "error_rate": ratio(outcome.failed, outcome.attempted),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": dict(outcome.failures),
        "setup_samples_s": setup_samples,
        "latency_p50_ms_by_class": {
            name: 1e3 * percentile(values, 0.5) for name, values in classes.items()
        },
        "samples_by_class": {name: len(values) for name, values in classes.items()},
    }
    if n >= 1000:
        extra["latency_p99_ms"] = 1e3 * percentile(latencies, 0.99)
    return metrics, extra


def is_correct(phases: list[Any], warm: Any, problems: list[str]) -> bool:
    """Whether a run passes: every request answered correctly, coverage held.

    ``phases`` are the measured phases, the untraced one first.  A request
    that was shed, expired, raised, timed out or came back wrong in any of
    them, or in the warm-up ``warm``, fails the run.
    """
    return (
        phases[0].attempted > 0
        and warm.failed == 0
        and all(phase.failed == 0 for phase in phases)
        and not problems
    )


def traced_phase(service: Any, generator: Any, seconds: float) -> dict[str, Any]:
    """Measure again with every layer wrapped; per-layer metrics and coverage."""
    from perfbench.layers import coverage_problems, layer_metrics, read_stats, sim_counts
    from perfbench.tracing import SpanRecorder, traced

    cycle = range(len(generator.workload.classes))
    recorder = SpanRecorder()
    before = read_stats(service)
    with traced(recorder) as missing_points:
        outcome = generator.run(seconds)
    after = read_stats(service)
    sim_first = sim_counts(recorder, outcome, cycle)
    metrics, missing = layer_metrics(recorder, outcome, before, after, sim_first)
    # Run the first cycle of requests again: simulated counts must repeat.
    repeat_recorder = SpanRecorder()
    with traced(repeat_recorder):
        repeat = generator.run(float("inf"), max_requests=len(cycle), closed=True)
    sim_repeat = sim_counts(repeat_recorder, repeat, cycle)
    problems = coverage_problems(
        generator.workload.name, recorder, metrics, sim_first, sim_repeat
    )
    return {
        "outcome": outcome,
        "repeat": repeat,
        "metrics": metrics,
        "missing": missing + missing_points,
        "problems": problems,
        "sim_counts": {str(k): list(v) for k, v in sim_first.items()},
        "spans": [s.as_dict() for s in recorder.spans],
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Command-line arguments."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one workload and print its metrics; the last line is JSON.

    Every process the run starts has ended when this returns or raises.
    """
    args = parse_args(argv)
    become_subreaper()
    try:
        return run(args)
    finally:
        stop_children()


def run(args: argparse.Namespace) -> int:
    """The body of :func:`main`."""
    cpu_count = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    _bootstrap()
    from perfbench.layers import PER_LAYER
    from perfbench.loadgen import Completions, LoadGenerator, timed_tickets
    from perfbench.stats import ratio
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})"
        )
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload.name, args.seed)

    setup_samples = [time_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]
    completions = Completions()
    with timed_tickets(completions):
        service = build_service()
        generator = LoadGenerator(service, workload, args.seed, completions)
        warm = warm_up(generator)
        ready_s = time.perf_counter() - _STARTED
        outcome = generator.run(args.seconds)
        trace = traced_phase(service, generator, args.seconds) if args.trace else None
        closed_cleanly = close_service(service)

    e2e, extra = end_to_end(outcome, setup_samples, workload)
    extra["warmup_failures"] = dict(warm.failures)
    extra["process_ready_s"] = ready_s
    extra["service_closed"] = closed_cleanly
    phases = [outcome]
    report: dict[str, Any] = {
        "config": environment(service, workload, args),
        "end_to_end": e2e,
        "details": extra,
    }
    report["config"]["machine"].update(cpus_available=cpu_count, pinned_cpu=cpu)
    if trace is None:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}
    else:
        traced_outcome, repeat = trace["outcome"], trace["repeat"]
        traced_e2e, _ = end_to_end(traced_outcome, setup_samples, workload)
        layer = trace["metrics"]
        layer["trace.throughput_overhead"] = 1.0 - ratio(
            traced_e2e["throughput_rps"], e2e["throughput_rps"]
        )
        layer["trace.latency_p50_overhead"] = (
            ratio(traced_e2e["latency_p50_ms"], e2e["latency_p50_ms"]) - 1.0
        )
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER if name in layer}
        phases += [traced_outcome, repeat]
        report.update(
            traced_end_to_end=traced_e2e,
            per_layer=layer,
            missing=trace["missing"],
            coverage_problems=trace["problems"],
            sim_counts=trace["sim_counts"],
        )
    correct = is_correct(phases, warm, report.get("coverage_problems", []))

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    if trace is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(trace["spans"]))

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, unit in END_TO_END:
        print(f"  {name:<28} {e2e[name]:>12.4f} {unit}")
    print(f"  {'latency_tail_quantile':<28} {extra['tail_quantile']:>12.3f}")
    if "latency_p99_ms" in extra:
        print(f"  {'latency_p99_ms':<28} {extra['latency_p99_ms']:>12.4f} ms")
    print(f"  {'error_rate':<28} {extra['error_rate']:>12.4f} "
          f"({extra['failed']} of {extra['attempted']} failed: {extra['failures']})")
    print(f"  {'samples':<28} {extra['samples']:>12d}")
    if warm.failures:
        print(f"  {'warm-up failures':<28} {dict(warm.failures)}")
    if trace is not None:
        for name, unit in PER_LAYER:
            if name in trace["metrics"]:
                print(f"  {name:<40} {trace['metrics'][name]:>12.4f} {unit}")
        for name in trace["missing"]:
            print(f"  missing: {name}")
        for problem in trace["problems"]:
            print(f"  coverage: {problem}")
        print(f"  coverage check: {'ok' if not trace['problems'] else 'FAILED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
