"""Segmented sort: many independent segments in one launch-style batch.

Real GPU workloads often sort batches of small independent arrays
(adjacency lists, strings' suffixes, per-query candidate sets); Thrust
users express this as a segmented sort.  This module provides the same
API on the simulated pipeline:

* short segments (at most one tile) are grouped into shared tiles using
  packed (segment, key) words — one blocksort pass orders every
  segment at once;
* long segments fall back to individual pipeline sorts.

The CF variant's zero-conflict guarantee is preserved in both paths, and
the packing keeps the sort stable per segment.

This module also owns the batch key codec every segmented backend
shares (:func:`encode_segments` / :func:`decode_words`).  A comparison
sort's memory access pattern depends only on comparison outcomes, so
sorting dense, tie-preserving key ranks touches exactly the addresses
sorting the raw keys does — every counter is unchanged, and any int64
key is accepted.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from repro.errors import ParameterError
from repro.mergesort.pipeline import gpu_mergesort
from repro.sim.counters import Counters

__all__ = ["SegmentWords", "decode_words", "encode_segments", "segmented_sort"]

IntArray = npt.NDArray[np.int64]


class SegmentWords(NamedTuple):
    """A batch encoded by :func:`encode_segments`."""

    #: One word per element: ``segment_rank * m + key_rank``.
    words: IntArray
    #: The batch's distinct keys, ascending (``m = len(uniq)``).
    uniq: IntArray
    #: The non-empty ``(lo, hi)`` segment spans, in submission order.
    segments: list[tuple[int, int]]
    #: ``n_segments * m``: sorts after every word of the batch.
    pad: int


def encode_segments(data: npt.ArrayLike, offsets: Sequence[int]) -> SegmentWords:
    """Validate ``offsets`` and encode ``data`` as packed (segment, key) words.

    Segment ``i`` spans ``[offsets[i], offsets[i+1])`` and the last runs
    to ``len(data)``; the first offset must be 0.  Keys are dense-ranked
    over the whole batch with one ``np.unique``, so words order by
    segment, then by key, with ties kept — and stay far inside int64
    whatever the keys are.
    """
    keys = np.asarray(data, dtype=np.int64)
    if keys.ndim != 1:
        raise ParameterError("data must be one-dimensional")
    bounds = [int(o) for o in offsets]
    if bounds and bounds[0] != 0:
        raise ParameterError("the first segment offset must be 0")
    for prev, nxt in zip(bounds, bounds[1:]):
        if nxt < prev:
            raise ParameterError("segment offsets must be non-decreasing")
    if bounds and bounds[-1] > len(keys):
        raise ParameterError("segment offsets exceed the data length")
    if not bounds:
        return SegmentWords(np.zeros(0, dtype=np.int64), keys[:0], [], 0)
    bounds.append(len(keys))
    uniq, key_rank = np.unique(keys, return_inverse=True)
    m = len(uniq)
    words = np.repeat(np.arange(len(offsets), dtype=np.int64), np.diff(bounds))
    words *= m
    words += key_rank.reshape(-1)
    segments = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    return SegmentWords(words, uniq, segments, len(offsets) * m)


def decode_words(words: npt.ArrayLike, uniq: IntArray) -> IntArray:
    """The keys behind codec ``words`` (any shape; pad words excluded)."""
    keys: IntArray = uniq[np.asarray(words, dtype=np.int64) % len(uniq)]
    return keys


def segmented_sort(
    data: npt.ArrayLike,
    segment_offsets: Sequence[int],
    E: int,
    u: int,
    w: int = 32,
    variant: str = "thrust",
) -> tuple[IntArray, Counters]:
    """Sort each segment of ``data`` independently.

    ``segment_offsets`` lists the start of each segment (the first must be
    0); segment ``i`` spans ``[offsets[i], offsets[i+1])`` and the last
    runs to ``len(data)``.  Returns the segment-wise sorted array and the
    aggregated simulation counters.  Any int64 keys are accepted: the
    simulator sorts their codec words.
    """
    enc = encode_segments(data, segment_offsets)
    out = np.array(data, dtype=np.int64)
    total = Counters()
    tile = u * E

    # Short segments share one batched pass; long ones run individually.
    short: list[tuple[int, int]] = []
    for lo, hi in enc.segments:
        if hi - lo <= tile:
            short.append((lo, hi))
        else:
            result = gpu_mergesort(enc.words[lo:hi], E=E, u=u, w=w, variant=variant)
            out[lo:hi] = decode_words(result.data, enc.uniq)
            total.merge(result.total_counters)

    if short:
        packed = np.concatenate([enc.words[lo:hi] for lo, hi in short])
        result = gpu_mergesort(packed, E=E, u=u, w=w, variant=variant)
        total.merge(result.total_counters)
        keys = decode_words(result.data, enc.uniq)
        pos = 0
        for lo, hi in short:
            out[lo:hi] = keys[pos : pos + (hi - lo)]
            pos += hi - lo
    return out, total
