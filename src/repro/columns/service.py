"""Submitting columnar sorts through the batch service (``kind="columns"``).

The micro-batching service (:class:`repro.service.service.SortService`)
admits flat ``int64`` arrays.  This module turns a composite-key table
sort into exactly that: the rank-compressed key codes fold into one
lexicographic code per row (:func:`repro.columns.keys.combined_codes`),
each code packs with its row index as ``(code << index_bits) | row`` —
the stability trick of ``sort_by_key``, in one non-negative int64 word
(:data:`~repro.columns.keys.WORD_BITS`) — and the packed words ship as
one request tagged ``kind="columns"``.  The sorted words come back from
whatever backend the service routes to (cf-batched, kway, samplesort,
...), the row indices are masked out as the permutation, and the table
is gathered through the fused :meth:`repro.columns.table.Table.take`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.typing as npt

from repro.columns.keys import WORD_BITS, KeyLike, combined_codes, encode_keys
from repro.columns.table import Table
from repro.errors import ParameterError
from repro.service.request import SortResult
from repro.service.service import SortService

__all__ = ["TableSortSubmission", "pack_for_service", "sort_table"]


@dataclass
class TableSortSubmission:
    """What one service-routed table sort produced."""

    #: The sorted table.
    table: Table
    #: The stable sort permutation recovered from the sorted words.
    perm: npt.NDArray[np.int64]
    #: The raw service result (latency split, batch id, backend, ...).
    result: SortResult


def pack_for_service(
    table: Table, keys: Sequence[KeyLike], w: int = 8
) -> tuple[npt.NDArray[np.int64], int]:
    """Pack a composite table key into service words; returns ``(words, index_bits)``.

    Each word is ``(combined_code << index_bits) | row``; the total width
    must fit :data:`~repro.columns.keys.WORD_BITS`, else a
    :class:`~repro.errors.ParameterError` explains the overflow.  Codes
    are re-rank-compressed first when that rescues the budget (only their
    order matters).
    """
    n = table.num_rows
    enc = encode_keys(table, keys, w)
    comb, slots = combined_codes(enc)
    width = max(1, (max(slots, 1) - 1).bit_length())
    index_bits = max(1, (n - 1).bit_length()) if n else 1
    if width + index_bits > WORD_BITS:
        _, inverse = np.unique(comb, return_inverse=True)
        comb = inverse.astype(np.int64)
        width = max(1, int(comb.max()).bit_length()) if len(comb) else 1
    if width + index_bits > WORD_BITS:
        raise ParameterError(
            f"packed columns key needs {width}+{index_bits} bits "
            f"> {WORD_BITS} (service word limit)"
        )
    words = (comb << index_bits) | np.arange(n, dtype=np.int64)
    return words, index_bits


def sort_table(
    service: SortService,
    table: Table,
    keys: Sequence[KeyLike],
    backend: str = "cf",
    deadline_s: float | None = None,
    timeout: float | None = None,
    w: int = 8,
) -> TableSortSubmission:
    """Sort ``table`` by ``keys`` through a running service.

    Submits one ``kind="columns"`` request and blocks up to ``timeout``
    seconds for its result; a failed result re-raises its typed service
    error.  The returned submission carries the sorted table, the
    permutation, and the service's latency accounting.
    """
    words, index_bits = pack_for_service(table, keys, w)
    ticket = service.submit(
        words, backend=backend, deadline_s=deadline_s, kind="columns"
    )
    result = ticket.result(timeout)
    result.raise_if_failed()
    perm = np.asarray(result.data, dtype=np.int64) & ((1 << index_bits) - 1)
    return TableSortSubmission(table=table.take(perm, w), perm=perm, result=result)
