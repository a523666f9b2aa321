"""The multi-level mergesort driver on batched engine passes.

:func:`batched_mergesort` computes exactly the
:class:`~repro.mergesort.pipeline.MergesortResult` of
:func:`~repro.mergesort.pipeline.lockstep_mergesort`, field for field,
without stepping the lockstep simulator:

* **blocksort** — one :func:`~repro.engine.batch.batched_blocksort_phases`
  pass over every tile, split into its staging, search and merge phases;
* **merge levels** — merge path makes every output block of a level
  independent once its ``(A, B)`` cut is known, so one level is one
  batched pass over all of its blocks:
  :func:`~repro.engine.batch.batched_search_profile` (``mapped`` for CF)
  plus :func:`~repro.engine.batch.batched_cf_merge_profile` or
  :func:`~repro.engine.batch.batched_serial_merge_profile`.

The data advances with NumPy sorts.  Global-memory traffic is charged by
the same helpers the lockstep loop uses.  Compute ops follow from the
replayed probe counts: every search probe is two shared reads plus a
``Compute(3)`` (blocksort pair search), ``Compute(4)`` (CF mapped search)
or ``Compute(2)`` (serial-merge search); every stage, gather, scatter or
serial-merge step is one op; every odd-even network ``ops_per_row * u``.

The driver's engine passes run with the fusion counters muted, so
:func:`~repro.engine.batch.fusion_stats` keeps describing the engine lane;
its calls are counted under ``pipeline_batched`` instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import numpy.typing as npt

from repro.engine.batch import (
    _FUSION,
    batched_blocksort_phases,
    batched_cf_merge_profile,
    batched_search_profile,
    batched_serial_merge_profile,
)
from repro.engine.plans import get_plan
from repro.errors import ParameterError
from repro.mergesort.pipeline import (
    MergesortResult,
    account_tile_io,
    merge_blocks,
    prepare_mergesort,
    record_level,
)
from repro.mergesort.stats import MergePhaseStats
from repro.numtheory import coprime
from repro.sim.counters import Counters

__all__ = ["batched_mergesort", "supports_batched"]

IntArray = npt.NDArray[np.int64]
Block = tuple[IntArray, IntArray]

#: Compute ops per merge-path probe, by search kind.
_PAIR_PROBE_OPS = 3
_MAPPED_PROBE_OPS = 4
_PLAIN_PROBE_OPS = 2


def supports_batched(E: int, u: int, w: int, variant: str, read_policy: str) -> bool:
    """Whether the batched profiles accept this geometry and options.

    ``u`` must be a power-of-two multiple of ``w``; ``cf`` also needs
    coprime ``w, E`` (its analytic gather/scatter profile is conflict free
    only there).
    """
    if E < 1 or w < 1 or u < w or u % w or u & (u - 1):
        return False
    if variant not in ("thrust", "cf") or read_policy not in ("bounded", "always"):
        return False
    return variant == "thrust" or coprime(w, E)


def _network_ops(E: int) -> int:
    """Compare-exchanges of the odd-even transposition network on ``E`` keys."""
    return int(np.asarray(get_plan("oddeven", E, 0, 1)["lo"]).shape[0])


def _summed(per_tile: Sequence[Counters]) -> Counters:
    total = Counters()
    for c in per_tile:
        total.merge(c)
    return total


def _level_stats(
    blocks: list[Block],
    E: int,
    u: int,
    w: int,
    variant: str,
    read_policy: str,
    simulate_search: bool,
) -> MergePhaseStats:
    """One merge level's counters: every output block in one batched pass."""
    stats = MergePhaseStats()
    n_blocks = len(blocks)
    cf = variant == "cf"
    if simulate_search:
        stats.search = _summed(batched_search_profile(blocks, E, w, mapped=cf))
        probe_ops = _MAPPED_PROBE_OPS if cf else _PLAIN_PROBE_OPS
        stats.search.compute_ops = probe_ops * stats.search.shared_requests // 2
    if cf:
        stats.merge = _summed(batched_cf_merge_profile(n_blocks, u * E, E, w))
        # Gather and scatter steps, plus the register network.
        stats.merge.compute_ops = n_blocks * u * (2 * E + _network_ops(E))
    else:
        stats.merge = _summed(
            batched_serial_merge_profile(blocks, E, w, read_policy=read_policy)
        )
        stats.merge.compute_ops = n_blocks * u * E
    return stats


def batched_mergesort(
    data: npt.ArrayLike,
    E: int,
    u: int,
    w: int = 32,
    variant: str = "thrust",
    *,
    read_policy: str = "bounded",
    simulate_search: bool = True,
) -> MergesortResult:
    """:func:`~repro.mergesort.pipeline.gpu_mergesort` on batched engine passes.

    Same parameters and result as
    :func:`~repro.mergesort.pipeline.lockstep_mergesort`; raises
    :class:`~repro.errors.ParameterError` for geometries
    :func:`supports_batched` rejects.
    """
    if not supports_batched(E, u, w, variant, read_policy):
        raise ParameterError(
            f"batched mergesort needs u={u} a power-of-two multiple of w={w}"
            + (" and coprime w, E" if variant == "cf" else "")
        )
    result, tiles = prepare_mergesort(data, E, u, w, variant)
    if result.n == 0:
        return result
    T, tile = tiles.shape
    levels = u.bit_length() - 1
    network = _network_ops(E)

    with _FUSION.muted():
        stage, search, merge = batched_blocksort_phases(
            tiles, E, w, variant, read_policy=read_policy
        )
        # Load, per-level staging and final staging passes: E steps each.
        stage.compute_ops = T * (levels + 2) * u * E
        search.compute_ops = _PAIR_PROBE_OPS * search.shared_requests // 2
        # The register sort, then per level E merge (or gather) steps and,
        # for CF, the register network.
        merge.compute_ops = T * u * (
            network + levels * (E + (network if variant == "cf" else 0))
        )
        blocksort = result.blocksort_stats
        blocksort.stage, blocksort.search, blocksort.merge = stage, search, merge
        account_tile_io(result.global_stats, T, tile)

        runs = list(np.sort(tiles, axis=1))
        while len(runs) > 1:
            blocks: list[Block] = []
            next_runs: list[IntArray] = []
            for a_run, b_run in zip(runs[0::2], runs[1::2]):
                blocks.extend(merge_blocks(a_run, b_run, tile, result.global_stats))
                next_runs.append(np.sort(np.concatenate([a_run, b_run]), kind="stable"))
            if len(runs) % 2:
                next_runs.append(runs[-1])
            runs = next_runs
            record_level(
                result,
                _level_stats(blocks, E, u, w, variant, read_policy, simulate_search),
            )

    result.data = runs[0][: result.n]
    return result
