"""Unit tests for the columns service route, CLI verbs, and profiler."""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from repro.columns.cli import (
    EXIT_MISMATCH,
    dispatch,
    parse_keys,
    render_table,
)
from repro.columns.keys import KeySpec
from repro.columns.profiler import (
    OPERATOR_TILES,
    demo_table,
    operator_merge_excess,
    profile_columns,
)
from repro.columns.reference import sort_by_reference
from repro.columns.keys import WORD_BITS
from repro.columns.service import pack_for_service, sort_table
from repro.columns.table import Table
from repro.errors import ParameterError
from repro.service.request import REQUEST_KINDS, SortRequest
from repro.service.service import Client, SortService
from repro.telemetry.profiler import PROFILE_TARGETS


class TestRequestKind:
    def test_columns_is_an_admitted_kind(self):
        assert REQUEST_KINDS == ("flat", "columns")
        req = SortRequest(
            request_id=1, data=np.array([3, 1], dtype=np.int64), kind="columns"
        )
        assert req.kind == "columns"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="unknown request kind"):
            SortRequest(
                request_id=1, data=np.array([1], dtype=np.int64), kind="rows"
            )


class TestServiceRoute:
    def test_pack_respects_the_word_budget(self):
        table = demo_table(32, seed=0)
        words, index_bits = pack_for_service(table, ["id", "score"])
        assert index_bits == 5
        assert WORD_BITS == 63
        assert int(words.min()) >= 0
        assert int(words.max()).bit_length() <= WORD_BITS
        # Low index_bits bits recover each row exactly once.
        rows = words & ((1 << index_bits) - 1)
        assert sorted(rows.tolist()) == list(range(32))

    def test_pack_overflow_is_a_typed_error(self, monkeypatch):
        # A 63-bit word holds any table that fits in memory, so the
        # overflow path is driven through a narrower budget: 2^19 + 1
        # all-distinct keys need 20 key bits and 20 index bits, one past
        # 39 bits even after the re-rank rescue.
        import repro.columns.service as columns_service

        monkeypatch.setattr(columns_service, "WORD_BITS", 39)
        n = (1 << 19) + 1
        table = Table.from_arrays({"k": np.arange(n, dtype=np.int64)})
        with pytest.raises(ParameterError, match="service word limit"):
            pack_for_service(table, ["k"])

    def test_sort_table_through_a_live_service(self):
        table = demo_table(48, seed=3)
        keys = [KeySpec("id"), KeySpec("score", ascending=False, nulls="first")]
        with Client(SortService()) as client:
            sub = sort_table(client.service, table, keys, timeout=60.0)
        assert sub.table.equals(sort_by_reference(table, keys))
        assert sub.result.backend == "cf"
        assert sub.result.latency_s >= 0.0
        assert sorted(sub.perm.tolist()) == list(range(48))


class TestCli:
    def test_parse_keys_full_grammar(self):
        keys = parse_keys("id, score:desc:first,flag:asc")
        assert keys == [
            KeySpec("id"),
            KeySpec("score", ascending=False, nulls="first"),
            KeySpec("flag"),
        ]

    def test_parse_keys_rejects_garbage(self):
        with pytest.raises(ParameterError, match="bad key modifier"):
            parse_keys("id:upward")
        with pytest.raises(ParameterError, match="no keys"):
            parse_keys(" , ")

    def test_render_table_shows_nulls_and_truncation(self):
        table = Table.from_arrays(
            {"x": np.array([1.5, 2.5, 3.5])}, valid={"x": [True, False, True]}
        )
        text = render_table(table, limit=2)
        assert "null" in text
        assert "1.500" in text
        assert "(1 more rows)" in text

    def _args(self, experiment: str, **overrides) -> argparse.Namespace:
        base = dict(
            experiment=experiment,
            rows=48,
            seed=0,
            keys="id,score:desc:first",
            how="inner",
            table_backend=None,
            via_service=False,
            head=4,
            timeout=60.0,
        )
        base.update(overrides)
        return argparse.Namespace(**base)

    def test_sort_table_verb_inline(self, capsys):
        assert dispatch(self._args("sort-table")) == 0
        out = capsys.readouterr().out
        assert "reference check: ok" in out
        assert "merge replays 0" in out

    def test_sort_table_verb_via_service(self, capsys):
        assert dispatch(self._args("sort-table", via_service=True)) == 0
        out = capsys.readouterr().out
        assert "kind=columns" in out
        assert "reference check: ok" in out

    def test_sort_table_verb_on_a_backend(self, capsys):
        rc = dispatch(self._args("sort-table", table_backend="cf-batched"))
        assert rc == 0
        assert "n/a (backend aggregates)" in capsys.readouterr().out

    def test_join_verb_both_kinds(self, capsys):
        for how in ("inner", "left"):
            assert dispatch(self._args("join", how=how)) == 0
            assert "reference check: ok" in capsys.readouterr().out

    def test_parameter_errors_map_to_exit_2(self, capsys):
        assert dispatch(self._args("sort-table", keys="id:sideways")) == 2
        assert "bad key modifier" in capsys.readouterr().err

    def test_mismatch_exit_code_is_distinct(self):
        assert EXIT_MISMATCH == 1


class TestProfiler:
    def test_demo_table_is_deterministic_and_multi_dtype(self):
        a, b = demo_table(64, seed=9), demo_table(64, seed=9)
        assert a.equals(b)
        dtypes = {a.column(name).dtype for name in a.names}
        assert dtypes == {"int64", "float64", "uint64", "bool"}
        assert a.column("score").null_count > 0

    def test_profile_columns_attributes_phases_per_operator(self):
        run = profile_columns(w=32, E=15)
        assert run.name == "columns"
        phases = set(run.profile.per_phase)
        for operator in OPERATOR_TILES:
            assert any(p.startswith(f"{operator}/") for p in phases), operator

    def test_coprime_geometry_has_zero_merge_excess_per_operator(self):
        run = profile_columns(w=32, E=15)  # gcd(15, 32) = 1
        excess = operator_merge_excess(run)
        assert set(excess) == set(OPERATOR_TILES)
        assert all(v == 0 for v in excess.values()), excess

    def test_noncoprime_geometry_is_measured_not_claimed(self):
        # gcd(16, 32) = 16: the zero-conflict theorem does not apply, so
        # the profile is reported as a measurement — still well-formed,
        # one non-negative excess per operator.
        run = profile_columns(w=32, E=16)
        excess = operator_merge_excess(run)
        assert set(excess) == set(OPERATOR_TILES)
        assert all(v >= 0 for v in excess.values())

    def test_registered_as_a_profile_target(self):
        assert "columns" in PROFILE_TARGETS
        run = PROFILE_TARGETS["columns"](w=8, E=5)
        assert run.name == "columns"
