"""Tests for the columnar batch representation (`repro.core.columns`).

Property tests pin the row <-> column boundary down hard: any batch of
schema-conforming records must decode to the same values whether it goes
through `RecordCodec.decode_batch` (rows) or
`RecordCodec.decode_batch_columns` (typed columns).  The rest of the file
covers the `ColumnBatch` invariants (arity / length / dtype, surfaced as
structured `ColumnBatchError`s), the columnar transforms, chunk regrouping,
the lazy page column view, and the buffer pool's byte accounting for cached
column payloads.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffer_pool import BufferPool
from repro.core.columns import (
    ColumnBatch,
    column_container,
    column_payload_bytes,
    debug_validation,
    regroup_column_batches,
    set_debug_validation,
)
from repro.core.page import PAGE_HEADER, Page, PageId
from repro.core.record import Record, RecordCodec
from repro.core.schema import Column, ColumnType, Schema
from repro.errors import ColumnBatchError

MIXED_SCHEMA = Schema(
    (
        Column("id", ColumnType.INT),
        Column("count", ColumnType.INT32),
        Column("name", ColumnType.STRING, width=16),
    ),
    primary_key="id",
)

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
INT32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
# Codec strings are NUL-padded to the column width on disk, so values must
# encode to at most `width` bytes and cannot themselves end in NUL.
NAME = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=127), max_size=16
).filter(lambda s: not s.endswith("\x00"))

ROWS = st.lists(st.tuples(INT64, INT32, NAME), max_size=40)


def encode_rows(codec: RecordCodec, rows: list[tuple]) -> bytes:
    return b"".join(codec.encode(Record(values)) for values in rows)


class TestDecodeBatchColumns:
    """decode_batch and decode_batch_columns agree on every input."""

    @given(rows=ROWS)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_matches_row_decode(self, rows):
        codec = RecordCodec(MIXED_SCHEMA)
        data = encode_rows(codec, rows)
        records = codec.decode_batch(data, 0, len(rows))
        columns = codec.decode_batch_columns(data, 0, len(rows))
        batch = ColumnBatch(MIXED_SCHEMA, columns, len(rows))
        batch.validate()
        assert batch.rows() == [record.values for record in records]
        assert batch.rows() == rows

    @given(rows=ROWS)
    @settings(max_examples=30, deadline=None)
    def test_columns_are_typed(self, rows):
        codec = RecordCodec(MIXED_SCHEMA)
        columns = codec.decode_batch_columns(
            encode_rows(codec, rows), 0, len(rows)
        )
        id_col, count_col, name_col = columns
        assert isinstance(id_col, array) and id_col.typecode == "q"
        assert isinstance(count_col, array) and count_col.typecode == "i"
        assert isinstance(name_col, list)
        assert all(isinstance(name, str) for name in name_col)

    def test_offset_and_count_window(self):
        codec = RecordCodec(MIXED_SCHEMA)
        rows = [(i, i * 2, f"r{i}") for i in range(10)]
        data = b"\xff" * 3 + encode_rows(codec, rows)
        columns = codec.decode_batch_columns(
            data, 3 + 2 * codec.record_size, 5
        )
        assert list(columns[0]) == [2, 3, 4, 5, 6]

    def test_empty_decode_returns_typed_empties(self):
        codec = RecordCodec(MIXED_SCHEMA)
        columns = codec.decode_batch_columns(b"", 0, 0)
        assert len(columns) == len(MIXED_SCHEMA.columns)
        assert [len(values) for values in columns] == [0, 0, 0]
        ColumnBatch(MIXED_SCHEMA, columns, 0).validate()


class TestColumnBatchInvariants:
    def test_arity_mismatch(self):
        with pytest.raises(ColumnBatchError) as exc:
            ColumnBatch(MIXED_SCHEMA, (array("q", [1]), array("i", [1])), 1)
        assert exc.value.reason == "arity"

    def test_length_mismatch(self):
        with pytest.raises(ColumnBatchError) as exc:
            ColumnBatch(
                MIXED_SCHEMA, (array("q", [1, 2]), array("i", [1]), ["a"]), 2
            )
        assert exc.value.reason == "length"
        assert exc.value.column == "count"

    def test_dtype_mismatch(self):
        with pytest.raises(ColumnBatchError) as exc:
            ColumnBatch(
                MIXED_SCHEMA, (array("d", [1.0]), array("i", [1]), ["a"]), 1
            )
        assert exc.value.reason == "dtype"
        assert exc.value.column == "id"

    def test_string_column_must_be_list(self):
        with pytest.raises(ColumnBatchError) as exc:
            ColumnBatch(
                MIXED_SCHEMA,
                (array("q", [1]), array("i", [1]), array("q", [0])),
                1,
            )
        assert exc.value.reason == "dtype"
        assert exc.value.column == "name"

    def test_lists_are_always_legal(self):
        # Derived values (NULLs, floats in INT slots) ride in plain lists.
        ColumnBatch(MIXED_SCHEMA, ([None], [1.5], ["x"]), 1).validate()

    def test_debug_validation_toggle(self):
        # conftest turns validation on globally; off, a malformed batch is
        # only caught by an explicit validate() call.
        assert debug_validation() is True
        set_debug_validation(False)
        try:
            bad = ColumnBatch(MIXED_SCHEMA, (array("q", [1]),), 1)
            with pytest.raises(ColumnBatchError):
                bad.validate()
        finally:
            set_debug_validation(True)


class TestColumnBatchTransforms:
    @given(rows=ROWS, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_take_matches_row_gather(self, rows, data):
        batch = ColumnBatch.from_rows(MIXED_SCHEMA, rows)
        indexes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=max(len(rows) - 1, 0)),
                max_size=20,
            )
            if rows
            else st.just([])
        )
        taken = batch.take(indexes)
        assert taken.rows() == [rows[i] for i in indexes]

    @given(
        rows=ROWS,
        start=st.integers(min_value=0, max_value=50),
        stop=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_slice_matches_row_slice(self, rows, start, stop):
        batch = ColumnBatch.from_rows(MIXED_SCHEMA, rows)
        clamped_stop = min(stop, len(rows))
        assert batch.slice(start, stop).rows() == rows[
            min(start, clamped_stop) : clamped_stop
        ]

    def test_head_passes_through_whole_batch(self):
        batch = ColumnBatch.from_rows(MIXED_SCHEMA, [(1, 2, "a"), (3, 4, "b")])
        assert batch.head(5) is batch
        assert batch.head(1).rows() == [(1, 2, "a")]

    def test_from_records_round_trip(self):
        records = [Record((i, i * 2, f"r{i}")) for i in range(7)]
        batch = ColumnBatch.from_records(MIXED_SCHEMA, records)
        assert batch.to_records() == records

    def test_select_columns_shares_containers(self):
        batch = ColumnBatch.from_rows(MIXED_SCHEMA, [(1, 2, "a")])
        narrow = batch.select_columns(
            (2, 0),
            Schema(
                (
                    Column("name", ColumnType.STRING, width=16),
                    Column("id", ColumnType.INT),
                ),
                primary_key="id",
            ),
        )
        assert narrow.rows() == [("a", 1)]
        assert narrow.columns[0] is batch.columns[2]


class TestRegroupColumnBatches:
    def _chunk(self, rows):
        return ColumnBatch.from_rows(MIXED_SCHEMA, rows)

    def test_large_chunk_passes_through_unchanged(self):
        big = self._chunk([(i, i, "x") for i in range(8)])
        out = list(regroup_column_batches(iter([big]), 4, MIXED_SCHEMA))
        assert out == [big]  # identity: zero-copy pass-through

    def test_small_chunks_accumulate(self):
        chunks = [self._chunk([(i, i, f"s{i}")]) for i in range(7)]
        out = list(regroup_column_batches(iter(chunks), 3, MIXED_SCHEMA))
        assert [batch.num_rows for batch in out] == [3, 3, 1]
        flattened = [row for batch in out for row in batch.rows()]
        assert flattened == [(i, i, f"s{i}") for i in range(7)]

    def test_empty_chunks_skipped(self):
        chunks = [self._chunk([]), self._chunk([(1, 1, "a")]), self._chunk([])]
        out = list(regroup_column_batches(iter(chunks), 10, MIXED_SCHEMA))
        assert [batch.num_rows for batch in out] == [1]

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=9), max_size=12),
        batch_size=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_rows_preserved_in_order(self, sizes, batch_size):
        key = 0
        chunks = []
        expected = []
        for size in sizes:
            rows = [(key + i, key + i, f"k{key + i}") for i in range(size)]
            key += size
            expected.extend(rows)
            chunks.append(self._chunk(rows))
        out = list(
            regroup_column_batches(iter(chunks), batch_size, MIXED_SCHEMA)
        )
        assert [
            row for batch in out for row in batch.rows()
        ] == expected
        assert all(batch.num_rows > 0 for batch in out)


class TestPageColumnView:
    def _disk_page(self, rows):
        codec = RecordCodec(MIXED_SCHEMA)
        staging = Page(PageId("f", 0), codec, page_size=1024)
        for values in rows:
            staging.append(Record(values))
        return Page(
            PageId("f", 0), codec, page_size=1024, data=staging.to_bytes()
        )

    def test_disk_page_decodes_columns_without_rows(self, monkeypatch):
        rows = [(i, i * 3, f"p{i}") for i in range(5)]
        page = self._disk_page(rows)

        def no_rows(*args, **kwargs):
            raise AssertionError("a column view decoded rows")

        # Columnar decode must not materialize any record.
        monkeypatch.setattr(RecordCodec, "decode", no_rows)
        monkeypatch.setattr(RecordCodec, "decode_batch", no_rows)
        columns = page.columns_view()
        assert list(zip(*columns)) == rows
        assert isinstance(columns[0], array)

    def test_column_view_is_cached(self):
        page = self._disk_page([(1, 2, "a")])
        assert page.columns_view() is page.columns_view()

    def test_append_invalidates_column_view(self):
        page = self._disk_page([(1, 2, "a")])
        page.columns_view()
        page.append(Record((2, 3, "b")))
        assert list(zip(*page.columns_view())) == [(1, 2, "a"), (2, 3, "b")]

    def test_memory_footprint_counts_column_payload(self):
        page = self._disk_page([(i, i, "x") for i in range(6)])
        base = page.memory_footprint()
        assert base == len(page.raw_data()) == page.page_size
        columns = page.columns_view()
        grown = page.memory_footprint()
        assert grown == base + column_payload_bytes(MIXED_SCHEMA, columns)
        # An append drops the view and compacts the image to its records.
        page.append(Record((99, 99, "y")))
        record_size = RecordCodec(MIXED_SCHEMA).record_size
        assert page.memory_footprint() == PAGE_HEADER.size + 7 * record_size

    @given(rows=ROWS)
    @settings(max_examples=30, deadline=None)
    def test_row_and_column_views_agree(self, rows):
        codec = RecordCodec(MIXED_SCHEMA)
        record_size = codec.record_size
        page_size = max(1024, PAGE_HEADER.size + record_size * (len(rows) + 1))
        staging = Page(PageId("f", 0), codec, page_size=page_size)
        for values in rows:
            staging.append(Record(values))
        page = Page(
            PageId("f", 0), codec, page_size=page_size, data=staging.to_bytes()
        )
        assert list(zip(*page.columns_view())) == [
            record.values for record in page.records()
        ]


class TestBufferPoolColumnAccounting:
    def _disk_page(self, number=0):
        codec = RecordCodec(MIXED_SCHEMA)
        staging = Page(PageId("f", number), codec, page_size=1024)
        for i in range(10):
            staging.append(Record((i, i, f"b{i}")))
        return Page(
            PageId("f", number),
            codec,
            page_size=1024,
            data=staging.to_bytes(),
        )

    def test_admission_charges_footprint(self):
        pool = BufferPool(capacity_bytes=1 << 20)
        page = self._disk_page()
        pool.get_page(page.page_id, lambda: page)
        assert pool.resident_bytes == page.memory_footprint()

    def test_hit_recharges_grown_column_payload(self):
        pool = BufferPool(capacity_bytes=1 << 20)
        page = self._disk_page()
        pool.get_page(page.page_id, lambda: page)
        before = pool.resident_bytes
        page.columns_view()  # footprint grows after admission
        pool.get_page(page.page_id, lambda: page)
        assert pool.resident_bytes == page.memory_footprint()
        assert pool.resident_bytes > before

    def test_invalidate_refunds_charged_bytes(self):
        pool = BufferPool(capacity_bytes=1 << 20)
        page = self._disk_page()
        pool.get_page(page.page_id, lambda: page)
        page.columns_view()
        pool.get_page(page.page_id, lambda: page)
        pool.invalidate_file("f")
        assert pool.resident_bytes == 0
