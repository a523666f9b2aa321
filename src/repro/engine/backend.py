"""The ``cf-batched`` service backend: whole micro-batches, one lane pass.

The stock ``cf`` backend sorts a micro-batch by concatenating every
short segment into one packed array and running the full simulated
mergesort pipeline over it.  This backend instead packs segments into
independent blocksort tiles (first-fit in submission order — a segment
never straddles tiles) and profiles/sorts **all** tiles in one batched
vectorized pass through :mod:`repro.engine.batch`:

* output contract — identical to every other backend: the segment-wise
  sorted concatenation (each tile is one ``np.sort`` over the packed
  ``(segment, key)`` words of
  :func:`repro.mergesort.segmented.encode_segments`, so segments come
  out sorted and in place);
* counter contract — per tile, bit-identical to
  :func:`repro.mergesort.fast.blocksort_profile` (variant ``"cf"``) on
  the same packed tile, summed over tiles (cross-validated in
  ``tests/test_engine_backend.py``);
* padding rule — tile tails are padded with the codec's pad word, which
  sorts after every packed word; padding is per tile, never per segment.

Segments longer than one tile go through
:func:`~repro.mergesort.pipeline.gpu_mergesort`, like
:func:`repro.mergesort.segmented.segmented_sort`'s long path; at the
geometries this backend accepts that is the batched multi-level driver
(:mod:`repro.engine.pipeline`).  The CF fast profile requires coprime
``(w, E)`` and a power-of-two ``u`` — geometry violations raise, they
are never silently approximated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np
import numpy.typing as npt

from repro.config import SortParams
from repro.engine.batch import batched_blocksort_profile, pad_and_stack
from repro.errors import ParameterError
from repro.mergesort.segmented import SegmentWords, decode_words, encode_segments
from repro.numtheory import coprime
from repro.sim.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> engine)
    from repro.service.backends import BatchOutcome

__all__ = [
    "cf_batched_backend",
    "check_cf_geometry",
    "pack_tiles",
    "split_segments",
    "unpack_tiles",
]

Segment = tuple[int, int]


def check_cf_geometry(backend: str, params: SortParams, w: int) -> None:
    """Reject geometries the CF fast profile cannot run for ``backend``."""
    if not coprime(w, params.E):
        raise ParameterError(f"{backend} requires coprime w, E")
    u = params.u
    if u % w or u & (u - 1):
        raise ParameterError(f"{backend} requires u={u} a power-of-two multiple of w={w}")


def split_segments(
    enc: SegmentWords, tile: int
) -> tuple[list[Segment], list[Segment]]:
    """The encoded batch's segments as ``(short, long)``: fits a tile or not."""
    short = [(lo, hi) for lo, hi in enc.segments if hi - lo <= tile]
    long = [(lo, hi) for lo, hi in enc.segments if hi - lo > tile]
    return short, long


def pack_tiles(
    enc: SegmentWords,
    segments: Sequence[Segment],
    tile: int,
) -> tuple[list[list[Segment]], npt.NDArray[np.int64]]:
    """First-fit pack ``(lo, hi)`` segments of ``enc`` into whole tiles.

    Returns ``(tiles, packed)``: per tile, the segments it holds (in
    order), and the stacked ``(n_tiles, tile)`` matrix of codec words.
    Words order by segment, then key, so sorting a tile orders its
    segments internally *and* keeps them grouped; tails hold the pad
    word, which sorts after every real word.
    """
    tiles: list[list[Segment]] = []
    fill = 0
    for lo, hi in segments:
        size = hi - lo
        if size > tile:
            raise ParameterError(f"segment of {size} elements exceeds the tile ({tile})")
        if not tiles or fill + size > tile:
            tiles.append([])
            fill = 0
        tiles[-1].append((lo, hi))
        fill += size
    rows = [np.concatenate([enc.words[lo:hi] for lo, hi in members]) for members in tiles]
    return tiles, pad_and_stack(rows, tile, enc.pad)


def unpack_tiles(
    enc: SegmentWords,
    tiles: Sequence[Sequence[Segment]],
    sorted_tiles: npt.NDArray[np.int64],
    out: npt.NDArray[np.int64],
) -> None:
    """Decode sorted ``pack_tiles`` rows and write each segment into ``out``."""
    keys = decode_words(sorted_tiles, enc.uniq)
    for row, members in zip(keys, tiles):
        pos = 0
        for lo, hi in members:
            out[lo:hi] = row[pos : pos + (hi - lo)]
            pos += hi - lo


def cf_batched_backend(
    data: npt.NDArray[np.int64],
    offsets: Sequence[int],
    params: SortParams,
    w: int,
) -> "BatchOutcome":
    """Sort a micro-batch through the batched CF engine lane."""
    from repro.mergesort.pipeline import gpu_mergesort
    from repro.service.backends import BatchOutcome

    check_cf_geometry("cf-batched", params, w)
    E, u = params.E, params.u
    tile = u * E
    enc = encode_segments(data, offsets)
    out = np.array(data, dtype=np.int64)
    total = Counters()
    launches = 0
    short, long = split_segments(enc, tile)
    for lo, hi in long:
        result = gpu_mergesort(enc.words[lo:hi], E=E, u=u, w=w, variant="cf")
        out[lo:hi] = decode_words(result.data, enc.uniq)
        total.merge(result.total_counters)
        launches += 1

    if short:
        tiles, packed = pack_tiles(enc, short, tile)
        for c in batched_blocksort_profile(packed, E, w, "cf"):
            total.merge(c)
        launches += len(tiles)
        unpack_tiles(enc, tiles, np.sort(packed, axis=1), out)
    return BatchOutcome(data=out, counters=total, launches=launches)
