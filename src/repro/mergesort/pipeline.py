"""The full multi-level GPU mergesort (both variants).

Blocksort over tiles of ``u*E`` elements is followed by pairwise merge
levels, each output tile produced by one thread block.  Global-memory
traffic (coalesced tile loads/stores and the per-block merge-path
partition searches in global memory) is accounted analytically — exactly,
from the actual offsets.  The shared-memory rounds are counted by one of
two interchangeable drivers:

* :func:`repro.engine.pipeline.batched_mergesort` — blocksort as one
  batched engine pass over all tiles, then one batched pass per merge
  level over every output block (the default whenever the geometry
  allows it);
* :func:`lockstep_mergesort` — every shared-memory round through the
  lockstep simulator, one thread block at a time (every other geometry,
  and the test oracle the batched driver must match field for field).

Inputs of arbitrary length are padded to a whole number of tiles with
``+inf`` sentinels (Thrust pads likewise); sentinels are stripped from the
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import numpy.typing as npt

from repro.errors import ParameterError
from repro.mergesort.blocksort import BlocksortStats, blocksort_tile
from repro.mergesort.cf import cf_merge_block
from repro.mergesort.merge_path import merge_path_search, merge_path_search_steps
from repro.mergesort.serial_merge import SENTINEL, serial_merge_block
from repro.mergesort.stats import MergePhaseStats
from repro.sim.counters import Counters

__all__ = ["gpu_mergesort", "lockstep_mergesort", "MergesortResult"]

IntArray = npt.NDArray[np.int64]


def _segments(lo: int, hi: int, seg: int = 32) -> int:
    """Coalesced segments touched by the word range ``[lo, hi)``."""
    if hi <= lo:
        return 0
    return (hi - 1) // seg - lo // seg + 1


@dataclass
class MergesortResult:
    """Everything measured while sorting one input."""

    #: The sorted output (same length as the input).
    data: IntArray
    #: Input length (before padding).
    n: int
    #: ``"thrust"`` or ``"cf"``.
    variant: str
    E: int
    u: int
    w: int
    #: Number of pairwise merge levels executed after blocksort.
    merge_level_count: int = 0
    #: Aggregated blocksort phase counters.
    blocksort_stats: BlocksortStats = field(default_factory=BlocksortStats)
    #: Aggregated merge-kernel phase counters (all levels).
    merge_stats: MergePhaseStats = field(default_factory=MergePhaseStats)
    #: Per-level merge counters, in level order.
    per_level: list[MergePhaseStats] = field(default_factory=list)
    #: Analytically accounted global-memory traffic.
    global_stats: Counters = field(default_factory=Counters)

    @property
    def total_counters(self) -> Counters:
        """All statistics rolled into one object."""
        return (
            self.blocksort_stats.total + self.merge_stats.total + self.global_stats
        )

    @property
    def merge_replays(self) -> int:
        """Bank-conflict replays during merge phases only (the paper's claim)."""
        return self.blocksort_stats.merge.shared_replays + self.merge_stats.merge.shared_replays

    def differences(self, other: "MergesortResult") -> list[str]:
        """Names of the fields on which ``other`` differs from this result.

        Compares the output, the geometry, the level count, every phase
        and per-level :class:`~repro.sim.counters.Counters` (all fields)
        and the global counters; an empty list means identical.
        """
        pairs: list[tuple[str, object, object]] = [
            ("n", self.n, other.n),
            ("variant", self.variant, other.variant),
            ("geometry", (self.E, self.u, self.w), (other.E, other.u, other.w)),
            ("merge_level_count", self.merge_level_count, other.merge_level_count),
            ("per_level.count", len(self.per_level), len(other.per_level)),
            ("global_stats", self.global_stats, other.global_stats),
        ]
        for phase in ("stage", "search", "merge"):
            pairs.append((
                f"blocksort_stats.{phase}",
                getattr(self.blocksort_stats, phase),
                getattr(other.blocksort_stats, phase),
            ))
        levels = [("merge_stats", self.merge_stats, other.merge_stats)] + [
            (f"per_level[{i}]", mine, theirs)
            for i, (mine, theirs) in enumerate(zip(self.per_level, other.per_level))
        ]
        for name, mine, theirs in levels:
            pairs.append((f"{name}.search", mine.search, theirs.search))
            pairs.append((f"{name}.merge", mine.merge, theirs.merge))
        out: list[str] = [] if np.array_equal(self.data, other.data) else ["data"]
        return out + [name for name, mine, theirs in pairs if mine != theirs]


def prepare_mergesort(
    data: npt.ArrayLike, E: int, u: int, w: int, variant: str
) -> tuple[MergesortResult, IntArray]:
    """Validate the input; return the empty result and the padded tiles.

    The tiles come back as an ``(n_tiles, u*E)`` matrix, with no rows for
    an empty input (the result is then already complete).
    """
    if variant not in ("thrust", "cf"):
        raise ParameterError(f"unknown variant {variant!r}")
    keys = np.asarray(data, dtype=np.int64)
    if keys.ndim != 1:
        raise ParameterError("input must be one-dimensional")
    n = len(keys)
    result = MergesortResult(
        data=np.array([], dtype=np.int64), n=n, variant=variant, E=E, u=u, w=w
    )
    tile = u * E
    if n == 0:
        return result, np.empty((0, tile), dtype=np.int64)
    if np.any(keys >= SENTINEL):
        raise ParameterError("input values must be < 2^63 - 1 (padding sentinel)")
    n_tiles = (n + tile - 1) // tile
    padded = np.full(n_tiles * tile, SENTINEL, dtype=np.int64)
    padded[:n] = keys
    return result, padded.reshape(n_tiles, tile)


def account_tile_io(global_stats: Counters, tiles: int, tile: int) -> None:
    """Blocksort's global traffic: each tile loaded and stored, coalesced."""
    global_stats.global_read_transactions += tiles * (tile // 32 + 1)
    global_stats.global_write_transactions += tiles * (tile // 32 + 1)


def merge_blocks(
    a_run: IntArray, b_run: IntArray, tile: int, global_stats: Counters
) -> Iterator[tuple[IntArray, IntArray]]:
    """Each output block's ``(A, B)`` slices for merging two sorted runs.

    Block ``k`` produces merged outputs ``[(k-1)*tile, k*tile)``; its cut
    comes from a merge-path search in global memory.  The search steps
    and the coalesced loads and stores are charged to ``global_stats``.
    """
    n_blocks = (len(a_run) + len(b_run)) // tile
    prev = (0, 0)
    for k in range(1, n_blocks + 1):
        diag = k * tile
        if k < n_blocks:
            cut = merge_path_search(a_run, b_run, diag)
            steps = merge_path_search_steps(len(a_run), len(b_run), diag)
            # Each global search step reads one word of A and one of B.
            global_stats.global_read_transactions += 2 * steps
            global_stats.global_read_requests += 2 * steps
        else:
            cut = (len(a_run), len(b_run))
        global_stats.global_read_transactions += _segments(
            prev[0], cut[0]
        ) + _segments(prev[1], cut[1])
        global_stats.global_write_transactions += tile // 32
        yield a_run[prev[0] : cut[0]], b_run[prev[1] : cut[1]]
        prev = cut


def record_level(result: MergesortResult, level_stats: MergePhaseStats) -> None:
    """Append one finished merge level to ``result``."""
    result.per_level.append(level_stats)
    result.merge_stats.merge_into(level_stats)
    result.merge_level_count += 1


def gpu_mergesort(
    data: npt.ArrayLike,
    E: int,
    u: int,
    w: int = 32,
    variant: str = "thrust",
    *,
    read_policy: str = "bounded",
    simulate_search: bool = True,
) -> MergesortResult:
    """Sort ``data`` with the simulated GPU mergesort.

    Geometries the batched engine profiles accept (``u`` a power-of-two
    multiple of ``w``; for ``cf`` also coprime ``w, E``) run on
    :func:`repro.engine.pipeline.batched_mergesort`; all others on
    :func:`lockstep_mergesort`.  Both return the same
    :class:`MergesortResult`, field for field, and each call is counted
    per path in :func:`repro.engine.batch.fusion_stats`
    (``pipeline_batched`` / ``pipeline_lockstep``).

    Parameters
    ----------
    data:
        One-dimensional integer array.  Values must be below the padding
        sentinel (``2^63 - 1``).
    E, u, w:
        Elements per thread, threads per block, warp width.
    variant:
        ``"thrust"`` (baseline serial merge) or ``"cf"`` (CF-Merge).
    read_policy:
        Baseline replacement-read policy (see
        :mod:`repro.mergesort.serial_merge`).
    simulate_search:
        Whether to count the shared-memory traffic of the per-thread
        merge-path searches of the merge levels (identical for both
        variants).

    Returns
    -------
    MergesortResult
        Sorted data plus the full measurement record.
    """
    from repro.engine.batch import note_pipeline_call
    from repro.engine.pipeline import batched_mergesort, supports_batched

    batched = supports_batched(E, u, w, variant, read_policy)
    note_pipeline_call(batched)
    sort = batched_mergesort if batched else lockstep_mergesort
    return sort(
        data, E, u, w, variant, read_policy=read_policy, simulate_search=simulate_search
    )


def lockstep_mergesort(
    data: npt.ArrayLike,
    E: int,
    u: int,
    w: int = 32,
    variant: str = "thrust",
    *,
    read_policy: str = "bounded",
    simulate_search: bool = True,
) -> MergesortResult:
    """:func:`gpu_mergesort` with every shared round on the lockstep simulator.

    One simulated thread block per blocksort tile and per merge-level
    output block.  Same parameters and result as :func:`gpu_mergesort`;
    this is the path for geometries the batched driver does not accept,
    and the oracle it is tested against.
    """
    result, tiles = prepare_mergesort(data, E, u, w, variant)
    if result.n == 0:
        return result
    tile = u * E

    # ------------------------------------------------------------ blocksort
    runs: list[IntArray] = []
    for chunk in tiles:
        sorted_tile, stats = blocksort_tile(
            chunk, E, w, variant, read_policy=read_policy
        )
        result.blocksort_stats.search.merge(stats.search)
        result.blocksort_stats.merge.merge(stats.merge)
        result.blocksort_stats.stage.merge(stats.stage)
        runs.append(sorted_tile)
    account_tile_io(result.global_stats, len(tiles), tile)

    # ----------------------------------------------------- pairwise merging
    while len(runs) > 1:
        level_stats = MergePhaseStats()
        next_runs: list[IntArray] = []
        for a_run, b_run in zip(runs[0::2], runs[1::2]):
            merged_blocks: list[IntArray] = []
            for a_blk, b_blk in merge_blocks(a_run, b_run, tile, result.global_stats):
                if variant == "thrust":
                    merged_blk, stats = serial_merge_block(
                        a_blk, b_blk, E, w,
                        simulate_search=simulate_search,
                        read_policy=read_policy,
                    )
                else:
                    merged_blk, stats = cf_merge_block(
                        a_blk, b_blk, E, w, simulate_search=simulate_search
                    )
                level_stats.merge_into(stats)
                merged_blocks.append(merged_blk)
            next_runs.append(np.concatenate(merged_blocks))
        if len(runs) % 2:
            next_runs.append(runs[-1])
        runs = next_runs
        record_level(result, level_stats)

    result.data = runs[0][: result.n]
    return result
