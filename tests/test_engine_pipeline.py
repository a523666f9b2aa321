"""The batched multi-level mergesort driver vs the lockstep simulator.

:func:`repro.engine.pipeline.batched_mergesort` must reproduce
:func:`repro.mergesort.pipeline.lockstep_mergesort`'s whole
:class:`~repro.mergesort.pipeline.MergesortResult` — output, blocksort
phase counters, every merge level's counters, global traffic — for every
input, and :func:`~repro.mergesort.pipeline.gpu_mergesort` must take it
without ever stepping the simulator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import (
    batched_blocksort_phases,
    batched_blocksort_profile,
    fusion_stats,
)
from repro.engine.pipeline import batched_mergesort, supports_batched
from repro.errors import ParameterError, WorstCaseConstructionError
from repro.mergesort.pipeline import gpu_mergesort, lockstep_mergesort
from repro.sim.block import ThreadBlock
from repro.sim.counters import Counters
from repro.worstcase.generator import worstcase_full_input

#: (E, u, w) geometries the batched driver runs for both variants.
GEOMETRIES = [(5, 32, 8), (7, 32, 32), (15, 64, 32)]
#: gcd(w, E) = 4: cf falls back to the lockstep loop.
NONCOPRIME = (4, 16, 8)
VARIANTS = ["cf", "thrust"]


def _inputs(E: int, u: int, w: int) -> dict[str, np.ndarray]:
    tile = u * E
    rng = np.random.default_rng(E * 1000 + u)
    cases = {
        "random": rng.integers(0, 1 << 40, 3 * tile + 5),
        "all_equal": np.full(2 * tile + 3, 7, dtype=np.int64),
        "heavy_ties": rng.integers(0, 3, 3 * tile),
        "one_key": np.array([42], dtype=np.int64),
        "one_tile": rng.integers(-(1 << 20), 1 << 20, tile),
        "five_tiles_plus_7": rng.integers(0, 1000, 5 * tile + 7),
    }
    try:
        cases["adversary"] = worstcase_full_input(4, E, u, w)
    except WorstCaseConstructionError:
        pass  # the §4 construction needs an even u/w
    return cases


CASES = [
    pytest.param(geometry, variant, name, id=f"{geometry}-{variant}-{name}")
    for geometry in GEOMETRIES
    for variant in VARIANTS
    for name in _inputs(*geometry)
]


def _assert_same(batched, lockstep) -> None:
    assert batched.differences(lockstep) == []
    assert batched.total_counters == lockstep.total_counters


@pytest.mark.parametrize("geometry, variant, name", CASES)
def test_driver_matches_lockstep(geometry, variant, name):
    E, u, w = geometry
    data = _inputs(E, u, w)[name]
    batched = batched_mergesort(data, E, u, w, variant)
    _assert_same(batched, lockstep_mergesort(data, E, u, w, variant))
    assert np.array_equal(batched.data, np.sort(data))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "options", [{"simulate_search": False}, {"read_policy": "always"}],
    ids=["no-search", "always-read"],
)
@pytest.mark.parametrize("name", ["random", "adversary"])
def test_driver_matches_lockstep_with_options(variant, options, name):
    E, u, w = GEOMETRIES[0]
    data = _inputs(E, u, w)[name]
    batched = batched_mergesort(data, E, u, w, variant, **options)
    _assert_same(batched, lockstep_mergesort(data, E, u, w, variant, **options))


def test_search_off_leaves_merge_level_search_empty():
    E, u, w = GEOMETRIES[0]
    data = _inputs(E, u, w)["random"]
    res = batched_mergesort(data, E, u, w, "cf", simulate_search=False)
    assert res.merge_level_count == 2
    assert res.merge_stats.search == Counters()
    assert res.blocksort_stats.search.shared_requests > 0


def test_differences_names_every_diverging_field():
    E, u, w = GEOMETRIES[0]
    data = _inputs(E, u, w)["random"]
    res = batched_mergesort(data, E, u, w, "cf")
    other = batched_mergesort(data, E, u, w, "cf")
    other.per_level[1].search.compute_ops += 1
    other.blocksort_stats.stage.shared_cycles += 1
    other.data = other.data[::-1]
    assert res.differences(other) == [
        "data", "blocksort_stats.stage", "per_level[1].search"
    ]


@pytest.mark.parametrize("variant", VARIANTS)
def test_empty_input(variant):
    res = batched_mergesort(np.array([], dtype=np.int64), 5, 32, 8, variant)
    assert res.differences(lockstep_mergesort([], 5, 32, 8, variant)) == []
    assert len(res.data) == 0


@settings(max_examples=12, deadline=None)
@given(
    values=st.lists(st.integers(-(2**62), 2**62), min_size=0, max_size=700),
    variant=st.sampled_from(VARIANTS),
)
def test_property_driver_matches_lockstep(values, variant):
    data = np.array(values, dtype=np.int64)
    E, u, w = GEOMETRIES[0]
    batched = batched_mergesort(data, E, u, w, variant)
    assert batched.differences(lockstep_mergesort(data, E, u, w, variant)) == []


def test_supported_geometry_never_steps_the_simulator(monkeypatch):
    def boom(self, *args, **kwargs):
        raise AssertionError("the lockstep simulator was stepped")

    monkeypatch.setattr(ThreadBlock, "run", boom)
    for E, u, w in GEOMETRIES:
        data = _inputs(E, u, w)["five_tiles_plus_7"]
        for variant in VARIANTS:
            res = gpu_mergesort(data, E, u, w, variant)
            assert np.array_equal(res.data, np.sort(data))
    # The patch is live: the non-coprime fallback does step it.
    E, u, w = NONCOPRIME
    with pytest.raises(AssertionError, match="stepped"):
        gpu_mergesort(np.arange(3 * u * E)[::-1], E, u, w, "cf")


def test_noncoprime_cf_takes_and_counts_the_lockstep_path():
    E, u, w = NONCOPRIME
    data = np.random.default_rng(3).integers(0, 1 << 30, 2 * u * E + 9)
    assert not supports_batched(E, u, w, "cf", "bounded")
    assert supports_batched(E, u, w, "thrust", "bounded")
    before = fusion_stats()
    res = gpu_mergesort(data, E, u, w, "cf")
    after = fusion_stats()
    assert after["pipeline_lockstep"] - before["pipeline_lockstep"] == 1
    assert after["pipeline_batched"] == before["pipeline_batched"]
    assert res.differences(lockstep_mergesort(data, E, u, w, "cf")) == []
    with pytest.raises(ParameterError, match="coprime"):
        batched_mergesort(data, E, u, w, "cf")


def test_batched_path_is_counted_and_leaves_lane_counters_alone():
    E, u, w = GEOMETRIES[0]
    data = _inputs(E, u, w)["random"]
    before = fusion_stats()
    gpu_mergesort(data, E, u, w, "thrust")
    after = fusion_stats()
    assert after["pipeline_batched"] - before["pipeline_batched"] == 1
    assert after["pipeline_lockstep"] == before["pipeline_lockstep"]
    lane = [k for k in after if not k.startswith("pipeline_")]
    assert {k: after[k] for k in lane} == {k: before[k] for k in lane}


@pytest.mark.parametrize(
    "E, u, w, variant, read_policy",
    [
        (5, 24, 8, "thrust", "bounded"),  # u not a power of two
        (5, 4, 8, "thrust", "bounded"),  # u < w
        (4, 16, 8, "cf", "bounded"),  # gcd(w, E) = 4
        (5, 32, 8, "cf", "never"),  # unknown read policy
        (5, 32, 8, "bitonic", "bounded"),  # unknown variant
    ],
)
def test_unsupported_geometries(E, u, w, variant, read_policy):
    assert not supports_batched(E, u, w, variant, read_policy)


@pytest.mark.parametrize("variant", VARIANTS)
def test_blocksort_phases_sum_to_the_profile(variant):
    E, u, w = GEOMETRIES[0]
    rows = np.random.default_rng(5).integers(0, 1 << 40, (4, u * E))
    stage, search, merge = batched_blocksort_phases(rows, E, w, variant)
    total = Counters()
    for c in batched_blocksort_profile(rows, E, w, variant):
        total.merge(c)
    assert stage + search + merge == total
    assert stage.shared_write_rounds > 0 and stage.broadcast_reads == 0
    assert search.shared_write_rounds == 0 and merge.shared_write_rounds == 0
