"""The level-stacked blocksort lane against the per-tile profile.

:func:`~repro.engine.batch.batched_blocksort_profile` and
:func:`~repro.engine.batch.batched_blocksort_phases` run every merge
level of a stack at once: one packed sort, one bisection replay and one
accounting call per accumulator.  These tests pin that the per-tile
counters equal :func:`repro.mergesort.fast.blocksort_profile` on every
stack size the service and the driver produce, at the int64 edges, on
heavy ties and on the §4 adversary, and that the fused-pass ledger
(``rounds_folded``, ``stage_passes``) still counts exactly the rounds a
level-by-level pass folds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import batch
from repro.engine.batch import (
    batched_blocksort_phases,
    batched_blocksort_profile,
    fusion_stats,
)
from repro.mergesort.fast import blocksort_profile
from repro.sim.counters import Counters
from repro.worstcase.generator import worstcase_full_input

STACK_SIZES = [1, 2, 3, 4, 5, 8]
INT64 = np.iinfo(np.int64)

#: (E, u, w, variant): the coprime geometries for both variants, plus
#: thrust at non-coprime gcd(w, E) = 4 and 16.
GEOMETRIES = [
    (E, u, w, variant)
    for E, u, w in [(5, 32, 8), (7, 32, 32), (15, 64, 32)]
    for variant in ("cf", "thrust")
] + [(4, 16, 8, "thrust"), (16, 256, 32, "thrust")]

INPUTS = ["random", "heavy_ties", "all_equal", "int64_edges", "adversary"]


def _rows(E: int, u: int, w: int, name: str) -> np.ndarray:
    """``max(STACK_SIZES)`` tiles of one input family."""
    T, L = max(STACK_SIZES), u * E
    rng = np.random.default_rng(E * 1000 + u + w)
    if name == "random":
        return rng.integers(0, 1 << 40, (T, L))
    if name == "heavy_ties":
        return rng.integers(0, 4, (T, L))
    if name == "all_equal":
        return np.full((T, L), 7, dtype=np.int64)
    if name == "int64_edges":
        rows = rng.integers(INT64.min, INT64.max, (T, L), dtype=np.int64, endpoint=True)
        rows[:, ::3] = INT64.min
        rows[:, 1::5] = INT64.max
        return rows
    if name == "adversary":
        return worstcase_full_input(T, E, u, w).reshape(T, L)
    raise AssertionError(name)


def _reference(E: int, u: int, w: int, variant: str, name: str, read_policy: str):
    """The rows and their per-tile ``fast.blocksort_profile`` counters."""
    rows = _rows(E, u, w, name)
    singles = [
        blocksort_profile(row.copy(), E, w, variant, read_policy=read_policy).as_dict()
        for row in rows
    ]
    return rows, singles


def _sum(counters) -> dict[str, int]:
    total = Counters()
    for c in counters:
        total.merge(c)
    return total.as_dict()


#: Every geometry x input, minus the §4 adversary where u/w is odd (its
#: construction needs warps to alternate A-heavy/B-heavy).
CASES = [
    pytest.param(*g, name, id=f"{g[:3]}-{g[3]}-{name}")
    for g in GEOMETRIES
    for name in INPUTS
    if name != "adversary" or (g[1] // g[2]) % 2 == 0
]


@pytest.mark.parametrize("read_policy", ["bounded", "always"])
@pytest.mark.parametrize("E, u, w, variant, name", CASES)
def test_stacked_lane_matches_per_tile_profile(E, u, w, variant, name, read_policy):
    rows, singles = _reference(E, u, w, variant, name, read_policy)
    for T in STACK_SIZES:
        got = batched_blocksort_profile(rows[:T], E, w, variant, read_policy=read_policy)
        assert [c.as_dict() for c in got] == singles[:T], f"T={T}"
        phases = batched_blocksort_phases(
            rows[:T], E, w, variant, read_policy=read_policy
        )
        assert _sum(phases) == _sum(got), f"T={T}: phase split != profile"


def _bisection_iterations(tiles: np.ndarray, E: int, level: int) -> int:
    """Iterations a level-by-level replay runs: max over tiles and threads."""
    g = 1 << level
    region, half = 2 * g * E, g * E
    most = 0
    for tile in tiles:
        for base in range(0, tile.size, region):
            a = np.sort(tile[base : base + half])
            b = np.sort(tile[base + half : base + region])
            for tau in range(region // E):
                diag = tau * E
                lo, hi, it = max(0, diag - half), min(diag, half), 0
                while lo < hi:
                    mid = (lo + hi) // 2
                    if a[mid] <= b[diag - 1 - mid]:
                        lo = mid + 1
                    else:
                        hi = mid
                    it += 1
                most = max(most, it)
    return most


@pytest.mark.parametrize("variant", ["cf", "thrust"])
@pytest.mark.parametrize("name", ["random", "heavy_ties", "all_equal"])
def test_fused_ledger_counts_every_level(variant, name):
    """``rounds_folded``/``stage_passes`` equal a level-by-level count."""
    E, u, w = 5, 32, 8
    rows = _rows(E, u, w, name)[:4]
    levels = u.bit_length() - 1
    expected_rounds = sum(
        2 * _bisection_iterations(rows, E, lv) for lv in range(levels)
    )
    if variant == "thrust":
        expected_rounds += levels * (E + 2)  # key loads + E advance rounds
    before = fusion_stats()
    batched_blocksort_profile(rows, E, w, variant)
    after = fusion_stats()
    delta = {k: after[k] - before[k] for k in after}
    assert delta["rounds_folded"] == expected_rounds
    assert delta["stage_passes"] == levels + 2  # loads, one per level, final
    assert delta["stage_rounds_folded"] == (levels + 2) * E
    assert delta["fused_blocksorts"] == 1


@pytest.mark.parametrize("variant, calls", [("cf", 1), ("thrust", 2)])
def test_one_accounting_call_per_accumulator(variant, calls):
    """A small stack folds all probe rounds (and thrust's merges) once."""
    E, u, w = 5, 32, 8
    rows = _rows(E, u, w, "random")[:4]
    for run in (batched_blocksort_profile, batched_blocksort_phases):
        before = fusion_stats()
        run(rows, E, w, variant)
        after = fusion_stats()
        assert after["round_many_calls"] - before["round_many_calls"] == calls
        assert after["round_calls"] == before["round_calls"]


def test_large_stacks_run_one_level_per_pass():
    """The stacked working set is bounded by the stack's own shape."""
    levels = 5
    assert batch._level_passes(levels, 640) == [(0, levels)]
    single = batch._STACK_WORDS
    assert batch._level_passes(levels, single) == [(lv, lv + 1) for lv in range(levels)]
    passes = batch._level_passes(levels, single // 2)
    assert passes == [(0, 2), (2, 4), (4, 5)]


def test_multi_pass_stack_matches_per_tile_profile():
    """A stack split into several level passes keys later passes correctly."""
    E, u, w = 15, 512, 32  # 7,680 words per tile and level
    rng = np.random.default_rng(11)
    T = max(1, batch._STACK_WORDS // (4 * u * E))  # about 4 levels per pass
    rows = rng.integers(-(1 << 61), 1 << 61, (T, u * E))
    passes = batch._level_passes(u.bit_length() - 1, T * u * E)
    assert len(passes) > 1 and passes[0][1] - passes[0][0] > 1
    got = batched_blocksort_profile(rows, E, w, "thrust")
    for k in range(T):
        assert got[k].as_dict() == blocksort_profile(rows[k].copy(), E, w, "thrust").as_dict()


@settings(max_examples=40, deadline=None)
@given(
    T=st.integers(1, 6),
    variant=st.sampled_from(["cf", "thrust"]),
    bits=st.sampled_from([2, 8, 40, 63]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_lane_property(T, variant, bits, seed):
    E, u, w = 5, 32, 8
    rng = np.random.default_rng(seed)
    rows = rng.integers(-(1 << bits), 1 << bits, (T, u * E), dtype=np.int64)
    got = batched_blocksort_profile(rows, E, w, variant)
    for k in range(T):
        assert got[k].as_dict() == blocksort_profile(rows[k].copy(), E, w, variant).as_dict()
