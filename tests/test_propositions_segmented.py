"""Tests for the executable propositions and the segmented sort."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.mergesort.segmented import segmented_sort
from repro.numtheory.propositions import PROPOSITIONS, check_all


class TestPropositions:
    @pytest.mark.parametrize(
        "w,E",
        [(12, 5), (9, 6), (32, 15), (32, 17), (32, 16), (8, 8), (24, 18), (7, 3)],
    )
    def test_all_applicable_propositions_hold(self, w, E):
        results = check_all(w, E)
        assert results, "no proposition applied at all"
        for prop, holds, detail in results:
            assert holds, f"{prop.name} failed at (w={w}, E={E}): {detail}"

    def test_domain_filtering(self):
        # Lemma 1 only applies to coprime pairs; Lemma 4 only to d > 1.
        names_coprime = [p.name for p, _, _ in check_all(12, 5)]
        names_noncop = [p.name for p, _, _ in check_all(9, 6)]
        assert "Lemma 1" in names_coprime and "Lemma 4" not in names_coprime
        assert "Lemma 4" in names_noncop and "Lemma 1" not in names_noncop

    def test_every_proposition_applies_somewhere(self):
        covered = set()
        for w, E in [(12, 5), (9, 6), (32, 15), (32, 16), (24, 18)]:
            covered |= {p.name for p, _, _ in check_all(w, E)}
        assert covered == {p.name for p in PROPOSITIONS}

    def test_details_are_informative(self):
        for _, _, detail in check_all(9, 6):
            assert len(detail) > 5

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            check_all(0, 5)


class TestSegmentedSort:
    @pytest.mark.parametrize("variant", ["thrust", "cf"])
    def test_sorts_each_segment_independently(self, variant):
        rng = np.random.default_rng(0)
        data = rng.integers(-1000, 1000, 300)
        offsets = [0, 37, 37, 120, 260]  # includes an empty segment
        out, counters = segmented_sort(data, offsets, E=5, u=8, w=8, variant=variant)
        bounds = offsets + [len(data)]
        for lo, hi in zip(bounds, bounds[1:]):
            assert np.array_equal(out[lo:hi], np.sort(data[lo:hi]))
        assert counters.shared_rounds > 0

    def test_long_segments_take_pipeline_path(self):
        rng = np.random.default_rng(1)
        tile = 8 * 5
        data = rng.integers(0, 10**6, 4 * tile + 17)
        offsets = [0, 4 * tile]  # first segment is 4 tiles (long), second short
        out, _ = segmented_sort(data, offsets, E=5, u=8, w=8)
        assert np.array_equal(out[: 4 * tile], np.sort(data[: 4 * tile]))
        assert np.array_equal(out[4 * tile :], np.sort(data[4 * tile :]))

    def test_cf_variant_conflict_free(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 10**6, 200)
        out, counters = segmented_sort(data, [0, 50, 120], E=5, u=8, w=8, variant="cf")
        # All replays (if any) would come from searches, which are
        # data-dependent in both variants; the batched pass keeps the CF
        # merge guarantee, checked end-to-end in the pipeline tests.  Here
        # we check the functional contract plus round accounting.
        assert counters.shared_rounds > 0
        for lo, hi in [(0, 50), (50, 120), (120, 200)]:
            assert np.array_equal(out[lo:hi], np.sort(data[lo:hi]))

    def test_no_segments(self):
        data = np.arange(5)[::-1].copy()
        out, counters = segmented_sort(data, [], E=5, u=8, w=8)
        assert np.array_equal(out, data)  # untouched
        assert counters.shared_rounds == 0

    def test_single_segment_matches_plain_sort(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 100, 90)
        out, _ = segmented_sort(data, [0], E=5, u=8, w=8)
        assert np.array_equal(out, np.sort(data))

    def test_accepts_the_full_int64_range(self):
        info = np.iinfo(np.int64)
        data = np.array([2**50, info.max, info.min, 0, info.min], dtype=np.int64)
        out, _ = segmented_sort(data, [0, 2], E=5, u=8, w=8)
        assert out.tolist() == [2**50, info.max, info.min, info.min, 0]

    def test_validation(self):
        with pytest.raises(ParameterError):
            segmented_sort(np.arange(10), [3], E=5, u=8, w=8)  # first not 0
        with pytest.raises(ParameterError):
            segmented_sort(np.arange(10), [0, 8, 4], E=5, u=8, w=8)  # decreasing
        with pytest.raises(ParameterError):
            segmented_sort(np.arange(10), [0, 99], E=5, u=8, w=8)  # past end
        with pytest.raises(ParameterError):
            segmented_sort(np.zeros((2, 2)), [0], E=5, u=8, w=8)
