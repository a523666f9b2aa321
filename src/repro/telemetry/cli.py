"""The ``repro trace`` and ``repro profile`` CLI verbs.

``repro profile <target>`` runs one instrumented kernel execution
(:data:`~repro.telemetry.profiler.PROFILE_TARGETS`: the Section 4
adversarial input on the baseline, a seeded random input, or CF-Merge on
the adversarial input), prints the conflict attribution tables, and
writes three artifacts under ``--out``: the Chrome trace JSON (warp-round
slices + conflict counter tracks, loadable at https://ui.perfetto.dev),
the attribution profile JSON, and the per-bank heat map.  Everything is
keyed to logical clocks, so re-running the same target yields
byte-identical artifacts.

``repro trace <target>`` captures a control-plane span trace instead:
the runner executing a sweep (``theorem8``/``defenses``/``fig5``) or the
service digesting a small synthetic workload (``service``), exported as
Chrome trace JSON.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

from repro.engine.plans import plan_cache_stats
from repro.errors import ParameterError
from repro.telemetry.chrome import (
    access_trace_events,
    span_trace_events,
    write_chrome_trace,
)
from repro.telemetry.profiler import PROFILE_TARGETS, ProfiledRun
from repro.telemetry.spans import Tracer

__all__ = [
    "PROFILE_DEFAULT_W",
    "PROFILE_DEFAULT_E",
    "TRACE_TARGETS",
    "run_profile",
    "run_trace",
]

#: Default geometry for ``repro profile`` (the paper's E=15 parameter set).
PROFILE_DEFAULT_W = 32
PROFILE_DEFAULT_E = 15

#: Valid ``repro trace`` targets.
TRACE_TARGETS = ("theorem8", "defenses", "fig5", "service", "engine", "kway")


def _profile_payload(run: ProfiledRun) -> dict[str, Any]:
    """The profile JSON artifact: attribution + independent counters."""
    payload: dict[str, Any] = {
        "target": run.name,
        "w": run.w,
        "E": run.E,
        "profile": run.profile.as_dict(),
        "counters": run.counters.as_dict(),
        "merge_excess": run.merge_excess,
    }
    if run.name in ("worstcase", "cf"):
        from repro.worstcase import theorem8_combined

        payload["theorem8_formula"] = int(theorem8_combined(run.w, run.E))
    return payload


def _profile_engine(args: argparse.Namespace) -> str:
    """``repro profile engine``: fusion + arena accounting, cold vs warm.

    Runs the same deterministic blocksort sweep twice through the batched
    lane — the first (cold) pass pays the plan builds and arena
    allocations, the second (warm) pass shows the reuse — and reports the
    fused-pass counters and arena reuse rate.  Then it sorts the sweep's
    keys once with ``gpu_mergesort`` and reports which driver path ran
    (``pipeline_batched`` / ``pipeline_lockstep``).  Everything printed is
    a call count or byte total (no wall clock), so the artifact is
    byte-stable across runs.
    """
    import numpy as np

    from repro.engine.arena import ENGINE_ARENA, arena_stats
    from repro.engine.batch import fusion_stats, reset_fusion_stats
    from repro.engine.lane import EngineStats, profile_blocksorts
    from repro.mergesort.pipeline import gpu_mergesort

    w = args.w if args.w else PROFILE_DEFAULT_W
    E = args.E if args.E else PROFILE_DEFAULT_E
    u, n_tiles = 4 * w, 16
    rng = np.random.default_rng(0)
    tiles = [rng.integers(0, 1 << 40, u * E) for _ in range(n_tiles)]

    ENGINE_ARENA.clear()
    reset_fusion_stats()
    cold, warm = EngineStats(), EngineStats()
    profile_blocksorts(tiles, E, w, "thrust", stats=cold)
    profile_blocksorts(tiles, E, w, "thrust", stats=warm)
    arena = arena_stats()
    cache = plan_cache_stats()
    gpu_mergesort(np.concatenate(tiles), E, u, w, "thrust")
    fusion = fusion_stats()

    payload: dict[str, Any] = {
        "target": "engine",
        "w": w,
        "E": E,
        "u": u,
        "tiles": n_tiles,
        "cold": cold.as_dict(),
        "warm": warm.as_dict(),
        "fusion": {k: int(v) for k, v in fusion.items()},
        "arena": {
            k: (v if k == "reuse_rate" else int(v)) for k, v in arena.items()
        },
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile_path = out_dir / "profile-engine.json"
    profile_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    folded = int(fusion["rounds_folded"] + fusion["stage_rounds_folded"])
    lines = [
        f"Engine fusion/arena profile — w={w}, E={E}, u={u}, "
        f"tiles={n_tiles} (cold + warm pass)",
        "",
        f"passes fused: {int(fusion['fused_blocksorts'])} fused blocksort "
        f"passes; {int(fusion['round_many_calls'])} round_many calls folded "
        f"{folded} rounds ({int(fusion['round_calls'])} single rounds left)",
        f"mergesort driver: {int(fusion['pipeline_batched'])} gpu_mergesort "
        f"calls on the batched path, {int(fusion['pipeline_lockstep'])} on "
        f"the lockstep simulator",
        f"arena reuse: {int(arena['reuse_hits'])}/{int(arena['checkouts'])} "
        f"checkouts served from the pool "
        f"(reuse rate {arena['reuse_rate']:.1%}; "
        f"warm-pass reuse {warm.arena_reuse_hits}/{warm.arena_checkouts})",
        f"peak resident scratch: {int(arena['peak_bytes'])} bytes "
        f"({int(arena['resident_bytes'])} resident after release)",
        f"plan cache: {int(cache['hits'])} hits / {int(cache['misses'])} "
        f"misses ({int(cache['bytes'])} plan bytes)",
        "",
        "wrote:",
        f"  {profile_path}",
    ]
    return "\n".join(lines)


def run_profile(args: argparse.Namespace) -> str:
    """Execute ``repro profile``: run, attribute, print, write artifacts."""
    target = args.target or "worstcase"
    if target == "engine":
        # The engine target profiles the batched lane itself (fusion and
        # arena accounting), not a kernel execution.
        return _profile_engine(args)
    if target not in PROFILE_TARGETS:
        raise ParameterError(
            f"unknown profile target {target!r} "
            f"(choose from {', '.join(sorted(PROFILE_TARGETS))})"
        )
    w = args.w if args.w else PROFILE_DEFAULT_W
    E = args.E if args.E else PROFILE_DEFAULT_E
    run = PROFILE_TARGETS[target](w=w, E=E)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = write_chrome_trace(
        out_dir / f"trace-{target}.json",
        access_trace_events(run.trace, w),
        metadata={"target": target, "w": w, "E": E},
    )
    profile_path = out_dir / f"profile-{target}.json"
    profile_path.write_text(
        json.dumps(_profile_payload(run), indent=2, sort_keys=True) + "\n"
    )
    heatmap_path = out_dir / f"heatmap-{target}.txt"
    heatmap_path.write_text(run.profile.heatmap() + "\n")

    depth = run.profile.depth_summary()
    cache = plan_cache_stats()
    lines = [
        f"Conflict profile — target={target}, w={w}, E={E}",
        "",
        "per-phase attribution:",
        run.profile.phase_table(),
        "",
        "per-bank attribution:",
        run.profile.attribution_table(),
        "",
        f"round depth: p50 {depth['p50']:.0f}, p95 {depth['p95']:.0f}, "
        f"max {depth['max']:.0f}",
        f"counters cross-check: trace excess {run.profile.total.excess} "
        f"== Counters.shared_excess {run.counters.shared_excess}",
        f"plan cache: {int(cache['hits'])} hits / {int(cache['misses'])} misses "
        f"(hit rate {cache['hit_rate']:.1%}, "
        f"{int(cache['size'])}/{int(cache['capacity'])} plans)",
    ]
    if target == "worstcase":
        from repro.worstcase import theorem8_combined

        bound = int(theorem8_combined(w, E))
        # Same verdict as the `theorem8` experiment: the measured excess
        # meets the closed form, modulo <= 2w boundary effects.
        verdict = "ok" if run.merge_excess >= bound - 2 * w else "LOW"
        lines.append(
            f"Theorem 8: merge-phase excess {run.merge_excess} vs closed form "
            f"{bound} (slack 2w = {2 * w}) -> {verdict}"
        )
    elif target == "cf":
        verdict = "ok" if run.merge_excess == 0 else "FAIL"
        lines.append(
            f"zero-conflict claim: CF merge-phase excess {run.merge_excess} "
            f"-> {verdict}"
        )
    elif target == "kway":
        from repro.numtheory import gcd

        if gcd(w, E) == 1:
            verdict = "ok" if run.merge_excess == 0 else "FAIL"
            lines.append(
                f"staged k-way zero-conflict claim (GCD(E, w) = 1): "
                f"merge-phase excess {run.merge_excess} -> {verdict}"
            )
        else:
            lines.append(
                f"staged k-way, non-coprime GCD(E, w) = {gcd(w, E)}: "
                f"merge-phase excess {run.merge_excess} (measured, no claim)"
            )
    elif target == "kway-fused":
        lines.append(
            f"fused k-way schedule: merge-phase excess {run.merge_excess} "
            "(CRS generalizes only to k = 2; measured, no claim for k > 2)"
        )
    elif target == "columns":
        from repro.columns.profiler import operator_merge_excess
        from repro.numtheory import gcd

        per_op = operator_merge_excess(run)
        lines.append("per-operator merge-phase excess:")
        for operator, excess in per_op.items():
            lines.append(f"  {operator:<12} {excess}")
        if gcd(w, E) == 1:
            worst = max(per_op.values())
            verdict = "ok" if worst == 0 else "FAIL"
            lines.append(
                f"columns zero-conflict claim (GCD(E, w) = 1): worst "
                f"operator merge-phase excess {worst} -> {verdict}"
            )
        else:
            lines.append(
                f"columns, non-coprime GCD(E, w) = {gcd(w, E)}: "
                "measured per-operator excess, no claim"
            )
    lines += [
        "",
        "wrote:",
        f"  {trace_path}",
        f"  {profile_path}",
        f"  {heatmap_path}",
    ]
    return "\n".join(lines)


def _trace_runner(args: argparse.Namespace, target: str, tracer: Tracer) -> str:
    """Run one sweep through the runner with span tracing on."""
    from repro.runner import defenses_spec, fig5_spec, theorem8_spec

    specs = {
        "theorem8": lambda: theorem8_spec(),
        "defenses": lambda: defenses_spec(),
        "fig5": lambda: fig5_spec("quick"),
    }
    session = args.session
    session.tracer = tracer
    session.run(specs[target]())
    return session.last_stats.summary()


def _trace_service(tracer: Tracer) -> str:
    """Drive the sort service on a tiny workload with span tracing on."""
    from repro.service.service import Client, SortService
    from repro.workloads import uniform_random

    with Client(SortService(tracer=tracer)) as client:
        arrays = [
            uniform_random(n, seed=7 + n, high=1000) for n in (40, 80, 120, 160)
        ]
        results = client.submit_many(arrays)
    completed = sum(1 for r in results if r.ok)
    return f"service: {completed}/{len(results)} requests completed"


def _trace_engine(tracer: Tracer) -> str:
    """Run a batched engine sample set with span tracing on."""
    import numpy as np

    from repro.engine.lane import EngineStats, profile_blocksorts, profile_searches

    E, u, w = 5, 32, 8
    rng = np.random.default_rng(11)
    stats = EngineStats()
    tiles = [rng.integers(0, 1 << 20, u * E) for _ in range(8)]
    profile_blocksorts(tiles, E, w, "cf", tracer=tracer, stats=stats)
    pairs = []
    for _ in range(8):
        vals = np.arange(u * E, dtype=np.int64)
        mask = rng.random(u * E) < 0.5
        pairs.append((vals[mask], vals[~mask]))
    profile_searches(pairs, E, w, mapped=True, tracer=tracer, stats=stats)
    return (
        f"engine: {stats.items} items collapsed into "
        f"{stats.passes} vectorized passes"
    )


def _trace_kway(tracer: Tracer) -> str:
    """Run a batched k-way merge sample set with span tracing on."""
    import numpy as np

    from repro.engine.lane import EngineStats, profile_kway_merges

    E, u, w = 5, 32, 8
    rng = np.random.default_rng(13)
    stats = EngineStats()
    groups = []
    for k in (2, 4, 4, 3):
        vals = np.sort(rng.integers(0, 1 << 20, u * E))
        groups.append([vals[r::k] for r in range(k)])
    results = profile_kway_merges(groups, E, w, tracer=tracer, stats=stats)
    replays = sum(c.shared_replays for c in results)
    return (
        f"kway: {stats.items} merges in {stats.passes} vectorized passes, "
        f"{replays} merge replays"
    )


def run_trace(args: argparse.Namespace) -> str:
    """Execute ``repro trace``: capture spans, write the Chrome trace."""
    target = args.target or "theorem8"
    if target not in TRACE_TARGETS:
        raise ParameterError(
            f"unknown trace target {target!r} "
            f"(choose from {', '.join(TRACE_TARGETS)})"
        )
    tracer = Tracer()
    if target == "service":
        summary = _trace_service(tracer)
    elif target == "engine":
        summary = _trace_engine(tracer)
    elif target == "kway":
        summary = _trace_kway(tracer)
    else:
        summary = _trace_runner(args, target, tracer)

    out_dir = Path(args.out)
    spans = tracer.spans()
    path = write_chrome_trace(
        out_dir / f"spans-{target}.json",
        span_trace_events(tracer.roots),
        metadata={"target": target},
    )
    return "\n".join(
        [
            f"Span trace — target={target}",
            summary,
            f"captured {len(spans)} spans over {tracer.ticks} logical ticks",
            "wrote:",
            f"  {path}",
        ]
    )
