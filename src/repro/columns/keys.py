"""Composite sort keys: rank compression, radix packing, permutations.

The sort kernels in this repo consume bounded non-negative integer keys
(:func:`repro.mergesort.by_key.sort_by_key` budgets 31 bits), while table
keys are arbitrary multi-column typed data with nulls.  The bridge is a
two-step *radix composition*:

1. **Rank compression** — each key column's values go through the
   order-preserving :func:`~repro.columns.dtypes.order_bits` transform
   and are compressed to dense ranks ``0..m-1`` via ``np.unique``.  A
   validity mask adds one extra *null slot* at rank 0 (null-first) or
   rank ``m`` (null-last); a descending key reverses the value ranks
   *before* null placement, so null placement is absolute, not
   direction-relative.
2. **Uniform-width packing** — with ``k`` columns of slot counts
   ``m_i``, every column gets the same field width ``b = max_i
   bits(m_i)``; if ``k*b`` fits the 31-bit budget the per-column ranks
   pack into one word through the cached ``key_pack`` plan
   (:mod:`repro.engine.plans`) and a *single* ``sort_by_key`` pass
   orders the table.  Otherwise :func:`sort_permutation` falls back to a
   multi-pass LSD radix sort — one stable ``sort_by_key`` pass per key
   column, minor to major — whose correctness needs exactly the
   stability the index-packing trick guarantees.

Either way the key sort runs on the simulated CF pipeline (or any
registered service backend), so composite-key sorting inherits the
paper's zero merge-phase bank-conflict guarantee on coprime geometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.columns.dtypes import NULL_ORDERS, order_bits
from repro.columns.table import Table
from repro.config import SortParams
from repro.engine.plans import get_plan
from repro.errors import ParameterError
from repro.mergesort.by_key import KEY_LIMIT, sort_by_key
from repro.service.backends import get_backend
from repro.sim.counters import Counters

__all__ = [
    "PACK_BITS",
    "WORD_BITS",
    "KeySpec",
    "EncodedKey",
    "KeySortOutcome",
    "encode_keys",
    "combined_codes",
    "sort_permutation",
]

#: Packed-word budget of the simulated ``sort_by_key`` path (31 bits).
PACK_BITS = KEY_LIMIT.bit_length() - 1

#: Packed-word budget of the service-backend path: a non-negative int64.
WORD_BITS = 63


@dataclass(frozen=True)
class KeySpec:
    """One sort-key column: name, direction, and null placement."""

    name: str
    ascending: bool = True
    #: ``"first"`` or ``"last"`` — where nulls sort, absolutely.
    nulls: str = "last"

    def __post_init__(self) -> None:
        """Validate the null placement."""
        if self.nulls not in NULL_ORDERS:
            raise ParameterError(
                f"nulls must be one of {', '.join(NULL_ORDERS)}, got {self.nulls!r}"
            )


#: What callers may pass as one key: a bare name or a full spec.
KeyLike = Union[str, KeySpec]


@dataclass(frozen=True)
class EncodedKey:
    """The rank-compressed (and possibly packed) composite key."""

    #: Per-column dense rank codes (direction applied, null slot included).
    codes: tuple[npt.NDArray[np.int64], ...]
    #: Per-column slot counts (distinct values + null slot if masked).
    slots: tuple[int, ...]
    #: The uniform per-field bit width ``b``.
    width: int
    #: Row count.
    n: int
    #: Single packed word per row, when ``k * width`` fits ``PACK_BITS``.
    packed: npt.NDArray[np.int64] | None = None

    @property
    def k(self) -> int:
        """Number of key columns."""
        return len(self.codes)


@dataclass
class KeySortOutcome:
    """What one composite-key sort measured."""

    #: The stable sort permutation (input row -> output position ``i``).
    perm: npt.NDArray[np.int64]
    #: Aggregated simulator counters across every pass.
    counters: Counters = field(default_factory=Counters)
    #: Merge-phase bank-conflict replays (the paper's zero-claim metric);
    #: ``None`` when the backend reports only aggregate counters.
    merge_replays: int | None = 0
    #: ``sort_by_key`` / backend passes executed (LSD runs one per column).
    passes: int = 0
    #: Which sort path ran (``"cf"`` or a service backend name).
    backend: str = "cf"


def _as_specs(keys: Sequence[KeyLike]) -> tuple[KeySpec, ...]:
    if not keys:
        raise ParameterError("at least one sort key is required")
    return tuple(k if isinstance(k, KeySpec) else KeySpec(k) for k in keys)


def _column_codes(
    table: Table, spec: KeySpec
) -> tuple[npt.NDArray[np.int64], int]:
    """Dense rank codes + slot count for one key column."""
    col = table.column(spec.name)
    bits = order_bits(col.values, col.dtype)
    if col.valid is None:
        _, inverse = np.unique(bits, return_inverse=True)
        codes = inverse.astype(np.int64)
        m = int(codes.max()) + 1 if len(codes) else 0
        if not spec.ascending and m:
            codes = (m - 1) - codes
        return codes, max(m, 1)
    uniq = np.unique(bits[col.valid])
    m = int(len(uniq))
    codes = np.searchsorted(uniq, bits).astype(np.int64)
    if not spec.ascending and m:
        codes = (m - 1) - codes
    if spec.nulls == "first":
        codes = codes + 1
        codes[~col.valid] = 0
    else:
        codes[~col.valid] = m
    return codes, m + 1


def encode_keys(table: Table, keys: Sequence[KeyLike], w: int = 8) -> EncodedKey:
    """Rank-compress ``keys`` and pack them into one word when they fit.

    ``w`` keys the ``key_pack`` plan-cache entry (the warp width the
    packed sort would be scheduled for).
    """
    specs = _as_specs(keys)
    n = table.num_rows
    codes: list[npt.NDArray[np.int64]] = []
    slots: list[int] = []
    for spec in specs:
        c, m = _column_codes(table, spec)
        codes.append(c)
        slots.append(m)
    width = max(max(1, (m - 1).bit_length()) for m in slots)
    k = len(specs)
    packed: npt.NDArray[np.int64] | None = None
    if k * width <= PACK_BITS:
        plan = get_plan("key_pack", k * width, width, w, k=k)
        shift = np.asarray(plan["shift"], dtype=np.int64)
        packed = np.zeros(n, dtype=np.int64)
        for i, c in enumerate(codes):
            packed |= c << shift[i]
    return EncodedKey(
        codes=tuple(codes), slots=tuple(slots), width=width, n=n, packed=packed
    )


def combined_codes(enc: EncodedKey) -> tuple[npt.NDArray[np.int64], int]:
    """One lexicographic rank per row, re-compressed to dodge overflow.

    Folds the per-column codes major-to-minor (``comb = comb * m_i +
    c_i``); whenever the running slot product threatens the signed-64
    range, the partial combination is re-rank-compressed through
    ``np.unique`` — sound because only the *order* of the combined
    codes matters, never their magnitudes.
    """
    comb = enc.codes[0].copy()
    slots = enc.slots[0]
    for c, m in zip(enc.codes[1:], enc.slots[1:]):
        if slots * m >= 1 << 62:
            _, inverse = np.unique(comb, return_inverse=True)
            comb = inverse.astype(np.int64)
            slots = int(comb.max()) + 1 if len(comb) else 1
        comb = comb * m + c
        slots = slots * m
    return comb, slots


def _cf_pass(
    keys: npt.NDArray[np.int64],
    values: npt.NDArray[np.int64],
    params: SortParams,
    w: int,
    outcome: KeySortOutcome,
) -> npt.NDArray[np.int64]:
    """One stable ``sort_by_key`` pass on the simulated CF pipeline."""
    _, reordered, result = sort_by_key(
        keys, values, E=params.E, u=params.u, w=w, variant="cf"
    )
    outcome.counters.merge(result.total_counters)
    if outcome.merge_replays is not None:
        outcome.merge_replays += int(result.merge_replays)
    outcome.passes += 1
    return np.asarray(reordered, dtype=np.int64)


def _backend_pass(
    keys: npt.NDArray[np.int64],
    values: npt.NDArray[np.int64],
    params: SortParams,
    w: int,
    backend: str,
    outcome: KeySortOutcome,
) -> npt.NDArray[np.int64]:
    """One stable pass through a registered service backend.

    Packs ``(key << index_bits) | position`` — the same stability trick
    ``sort_by_key`` uses — into one :data:`WORD_BITS` word.
    """
    n = len(keys)
    index_bits = max(1, (n - 1).bit_length()) if n else 1
    key_bits = max(1, int(keys.max()).bit_length()) if n else 1
    if key_bits + index_bits > WORD_BITS:
        raise ParameterError(
            f"packed backend key needs {key_bits}+{index_bits} bits "
            f"> {WORD_BITS} (service word limit)"
        )
    words = (keys << index_bits) | np.arange(n, dtype=np.int64)
    result = get_backend(backend)(words, [0], params, w)
    outcome.counters.merge(result.counters)
    outcome.merge_replays = None
    outcome.passes += 1
    order = np.asarray(result.data, dtype=np.int64) & ((1 << index_bits) - 1)
    return values[order]


def sort_permutation(
    enc: EncodedKey,
    params: SortParams,
    w: int = 8,
    backend: str | None = None,
) -> KeySortOutcome:
    """The stable permutation ordering rows by the encoded composite key.

    ``backend=None`` runs the simulated CF ``sort_by_key`` path (merge
    replays tracked exactly); a backend name routes every pass through
    :func:`repro.service.backends.get_backend` instead.  Packed keys
    sort in one pass; unpacked keys run the stable LSD loop, one pass
    per key column from minor to major.
    """
    outcome = KeySortOutcome(perm=np.arange(enc.n, dtype=np.int64))
    if backend is not None:
        outcome.backend = backend
    if enc.n <= 1:
        return outcome

    def one_pass(
        keys: npt.NDArray[np.int64], values: npt.NDArray[np.int64]
    ) -> npt.NDArray[np.int64]:
        if backend is None:
            return _cf_pass(keys, values, params, w, outcome)
        return _backend_pass(keys, values, params, w, backend, outcome)

    if enc.packed is not None:
        outcome.perm = one_pass(enc.packed, outcome.perm)
        return outcome
    for codes in reversed(enc.codes):
        outcome.perm = one_pass(codes[outcome.perm], outcome.perm)
    return outcome
