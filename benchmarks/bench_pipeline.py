"""The multi-level driver benchmark: batched engine passes vs lockstep.

Sorts 2^14 keys with :func:`repro.mergesort.pipeline.gpu_mergesort` at
two geometries — (E, u, w) = (15, 64, 32) and (5, 32, 8) — for both
variants, on the batched driver (:mod:`repro.engine.pipeline`) and on
:func:`repro.mergesort.pipeline.lockstep_mergesort`.  Every run asserts a
field-for-field identical :class:`~repro.mergesort.pipeline.MergesortResult`
and a wall-clock ratio of at least ``PIPELINE_MIN_SPEEDUP`` (default 10)
of the driver over the lockstep loop.  The driver is timed best of three.

When ``PIPELINE_REPORT`` names a path, a deterministic JSON report
(counters, digests, path counts — no timings) is written, which CI
generates twice and compares byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import attach

from repro.engine.batch import fusion_stats
from repro.mergesort.pipeline import MergesortResult, gpu_mergesort, lockstep_mergesort

N_KEYS = 1 << 14
GEOMETRIES = [(15, 64, 32), (5, 32, 8)]
VARIANTS = ["cf", "thrust"]

#: Identity-checked results per (E, u, w, variant), for the report.
_RESULTS: dict[str, MergesortResult] = {}
_PATHS: dict[str, float] = {}


def _keys() -> np.ndarray:
    return np.random.default_rng(0).integers(0, 1 << 40, N_KEYS, dtype=np.int64)


def _digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _result_record(res: MergesortResult) -> dict:
    """The deterministic, timing-free record of one sort."""
    bs = res.blocksort_stats
    return {
        "data_sha256": hashlib.sha256(res.data.tobytes()).hexdigest(),
        "merge_level_count": res.merge_level_count,
        "blocksort": {
            "stage": bs.stage.as_dict(),
            "search": bs.search.as_dict(),
            "merge": bs.merge.as_dict(),
        },
        "merge_stats": {
            "search": res.merge_stats.search.as_dict(),
            "merge": res.merge_stats.merge.as_dict(),
        },
        "per_level_sha256": _digest(
            [[lvl.search.as_dict(), lvl.merge.as_dict()] for lvl in res.per_level]
        ),
        "global": res.global_stats.as_dict(),
        "merge_replays": res.merge_replays,
    }


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: "E{}-u{}-w{}".format(*g))
def test_pipeline_driver_speedup(benchmark, geometry, variant):
    """Batched driver >= PIPELINE_MIN_SPEEDUP x lockstep, identical result."""
    E, u, w = geometry
    data = _keys()
    f0 = fusion_stats()
    batched = gpu_mergesort(data, E, u, w, variant)
    f1 = fusion_stats()
    assert f1["pipeline_batched"] - f0["pipeline_batched"] == 1, "took the lockstep path"

    t_batched = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        gpu_mergesort(data, E, u, w, variant)
        t_batched = min(t_batched, time.perf_counter() - t0)

    t0 = time.perf_counter()
    lockstep = lockstep_mergesort(data, E, u, w, variant)
    t_lockstep = time.perf_counter() - t0

    assert batched.differences(lockstep) == []
    assert np.array_equal(batched.data, np.sort(data))
    key = f"E{E}-u{u}-w{w}-{variant}"
    _RESULTS[key] = batched
    _PATHS[key] = f1["pipeline_batched"] - f0["pipeline_batched"]

    speedup = t_lockstep / t_batched
    floor = float(os.environ.get("PIPELINE_MIN_SPEEDUP", "10"))
    attach(
        benchmark,
        speedup=round(speedup, 1),
        lockstep_s=round(t_lockstep, 3),
        batched_s=round(t_batched, 4),
        n_keys=N_KEYS,
    )
    assert speedup >= floor, (
        f"batched driver only {speedup:.1f}x faster than lockstep at {key} "
        f"(floor {floor}x): lockstep {t_lockstep:.3f}s vs batched {t_batched:.4f}s"
    )
    # Keep pytest-benchmark's timing series populated (one extra pass).
    benchmark.pedantic(
        lambda: gpu_mergesort(data, E, u, w, variant), rounds=1, iterations=1
    )


def test_pipeline_report():
    """Write the deterministic report once every configuration has run."""
    expected = {
        f"E{E}-u{u}-w{w}-{variant}" for E, u, w in GEOMETRIES for variant in VARIANTS
    }
    assert set(_RESULTS) == expected, "run the whole module"
    report_path = os.environ.get("PIPELINE_REPORT")
    if not report_path:
        return
    payload = {
        "n_keys": N_KEYS,
        "configs": {
            key: {
                **_result_record(res),
                "identical_to_lockstep": True,
                "batched_calls": int(_PATHS[key]),
            }
            for key, res in sorted(_RESULTS.items())
        },
    }
    Path(report_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
