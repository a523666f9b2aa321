"""The full int64 key domain, end to end.

Every segmented backend sorts codec words — dense, tie-preserving key
ranks (:func:`repro.mergesort.segmented.encode_segments`) — so the
service admits any int64 payload, and a comparison sort's counters
depend only on comparison outcomes: a payload and its dense ranks must
report identical counters on every simulated backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service import Client, SortService
from repro.service.backends import DEFAULT_BACKENDS, get_backend
from repro.service.batching import BatchPolicy
from repro.service.service import DEFAULT_PARAMS, DEFAULT_W
from repro.worstcase.generator import worstcase_full_input

INFO = np.iinfo(np.int64)


def _relabel_to_extremes(data: np.ndarray) -> np.ndarray:
    """Map ``data``'s distinct values, in order, onto a spread from
    INT64_MIN to INT64_MAX (ties kept)."""
    uniq, ranks = np.unique(data, return_inverse=True)
    span = max(len(uniq) - 1, 1)
    targets = [INFO.min + (r * ((1 << 64) - 1)) // span for r in range(len(uniq))]
    return np.array(targets, dtype=np.int64)[ranks.reshape(-1)]


def _adversary() -> np.ndarray:
    """The Section 4 adversary for the service geometry, relabelled."""
    adv = worstcase_full_input(1, DEFAULT_PARAMS.E, DEFAULT_PARAMS.u, DEFAULT_W)
    return _relabel_to_extremes(adv)


def _payloads() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    return {
        "int64_min": np.array([5, INFO.min, -1, INFO.min, 0], dtype=np.int64),
        "int64_max": np.array([INFO.max, 3, INFO.max, -7, 0], dtype=np.int64),
        "all_equal": np.full(40, INFO.max, dtype=np.int64),
        "heavy_ties": rng.choice(
            np.array([INFO.min, -1, 0, 1, INFO.max], dtype=np.int64), 150
        ),
        "full_range": rng.integers(INFO.min, INFO.max, 120, dtype=np.int64, endpoint=True),
        "adversary_extremes": _adversary(),
    }


PAYLOADS = _payloads()


@pytest.fixture(scope="module")
def client():
    with Client(SortService(policy=BatchPolicy(max_wait_s=0.01))) as c:
        yield c


@pytest.mark.parametrize("name", sorted(PAYLOADS))
@pytest.mark.parametrize("backend", DEFAULT_BACKENDS)
def test_service_sorts_the_full_int64_domain(client, backend, name):
    payload = PAYLOADS[name]
    (result,) = client.submit_many([payload], backend=backend, timeout=120.0)
    result.raise_if_failed()
    assert result.data.dtype == np.int64
    assert np.array_equal(result.data, np.sort(payload))


SIMULATED = [b for b in DEFAULT_BACKENDS if b != "numpy"]


@pytest.mark.parametrize("backend", SIMULATED)
def test_counters_equal_on_a_payload_and_its_dense_ranks(backend):
    rng = np.random.default_rng(5)
    # Short segments plus one longer than a tile (the pipeline path).
    lengths = [30, 0, 90, 7, 2 * DEFAULT_PARAMS.tile_elements + 3]
    data = rng.integers(INFO.min, INFO.max, sum(lengths), dtype=np.int64)
    data[::9] = INFO.max
    data[1::11] = INFO.min
    offsets = list(np.cumsum([0] + lengths[:-1]))
    _, ranks = np.unique(data, return_inverse=True)
    ranks = ranks.reshape(-1).astype(np.int64)

    fn = get_backend(backend)
    raw = fn(data, offsets, DEFAULT_PARAMS, DEFAULT_W)
    ranked = fn(ranks, offsets, DEFAULT_PARAMS, DEFAULT_W)
    assert raw.counters.as_dict() == ranked.counters.as_dict()
    assert raw.launches == ranked.launches
    uniq = np.unique(data)
    assert np.array_equal(raw.data, uniq[ranked.data])
    bounds = offsets + [len(data)]
    for lo, hi in zip(bounds, bounds[1:]):
        assert np.array_equal(raw.data[lo:hi], np.sort(data[lo:hi]))

