"""Tests for append-only heap files.

Covers the on-disk format (full pages, then a compact tail of a count and
its records), flushes that write only new records, torn-tail repair on
open, and the older padded tail.  The page size is 512 bytes throughout, so
the 4-column test records (33 bytes) fill a page at 15.
"""

import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.buffer_pool import BufferPool
from repro.core.durable import drain_recovery_notes
from repro.core.heapfile import HeapFile, RecordId
from repro.core.page import Page, PageId
from repro.core.record import Record
from repro.errors import CorruptionError, StorageError

from tests.conftest import make_records

PAGE_SIZE = 512


@pytest.fixture(autouse=True)
def _clean_notes():
    """Keep the module-level recovery-note log isolated per test."""
    drain_recovery_notes()
    yield
    drain_recovery_notes()


def expected_length(heap, count):
    """The file length the format gives a heap of ``count`` records."""
    full_pages, tail = divmod(count, heap.records_per_page)
    return full_pages * PAGE_SIZE + (4 + tail * heap.codec.record_size if tail else 0)


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def write_bytes(path, data):
    with open(path, "r+b") as handle:
        handle.truncate(0)
        handle.write(data)


@pytest.fixture
def heap(schema, buffer_pool, tmp_path):
    return HeapFile(str(tmp_path / "data.heap"), schema, buffer_pool, page_size=512)


class TestHeapFile:
    def test_append_assigns_sequential_ids(self, heap):
        records = make_records(5 + heap.records_per_page + 2)
        assert [heap.append(record) for record in records[:5]] == [0, 1, 2, 3, 4]
        assert heap.append_many(records[5:]) == list(range(5, len(records)))
        assert heap.append(Record((999, 0, 0, 0))) == len(records)
        assert heap.append_many([]) == []

    def test_num_records_counts_appends(self, heap):
        heap.append_many(make_records(7))
        assert heap.num_records == 7

    def test_record_at_roundtrip(self, heap):
        records = make_records(10)
        ordinals = heap.append_many(records)
        for ordinal, record in zip(ordinals, records):
            assert heap.record_by_ordinal(ordinal) == record
        for rid, record in heap.scan():
            assert heap.record_at(rid) == record

    def test_record_by_ordinal(self, heap):
        records = make_records(30)
        heap.append_many(records)
        assert heap.record_by_ordinal(17) == records[17]

    def test_scan_preserves_order(self, heap):
        records = make_records(25)
        heap.append_many(records)
        assert list(heap.scan_records()) == records

    def test_spans_multiple_pages(self, heap):
        count = heap.records_per_page * 3 + 2
        heap.append_many(make_records(count))
        assert heap.num_pages == 4
        assert heap.num_records == count

    def test_persistence_across_reopen(self, schema, buffer_pool, tmp_path):
        path = str(tmp_path / "data.heap")
        heap = HeapFile(path, schema, buffer_pool, page_size=512)
        records = make_records(heap.records_per_page * 2 + 3)
        heap.append_many(records)
        heap.flush()
        reopened = HeapFile(path, schema, BufferPool(), page_size=512)
        assert list(reopened.scan_records()) == records
        assert reopened.num_records == len(records)

    def test_append_after_reopen(self, schema, tmp_path):
        path = str(tmp_path / "data.heap")
        heap = HeapFile(path, schema, BufferPool(), page_size=512)
        heap.append_many(make_records(5))
        heap.flush()
        reopened = HeapFile(path, schema, BufferPool(), page_size=512)
        reopened.append(Record((100, 0, 0, 0)))
        assert reopened.num_records == 6
        assert reopened.record_by_ordinal(5).values[0] == 100

    def test_size_bytes_after_flush(self, heap):
        heap.append_many(make_records(3))
        heap.flush()
        assert heap.size_bytes() == 4 + 3 * heap.codec.record_size

    def test_empty_file_size(self, heap):
        assert heap.size_bytes() == 0
        assert list(heap.scan()) == []

    def test_out_of_range_page_rejected(self, heap):
        heap.append_many(make_records(2))
        with pytest.raises(StorageError):
            heap.record_at(RecordId(5, 0))

    def test_close_flushes(self, schema, tmp_path):
        path = str(tmp_path / "data.heap")
        heap = HeapFile(path, schema, BufferPool(), page_size=512)
        heap.append_many(make_records(3))
        heap.close()
        reopened = HeapFile(path, schema, BufferPool(), page_size=512)
        assert reopened.num_records == 3

    def test_corrupt_size_detected(self, schema, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", "1")
        path = str(tmp_path / "data.heap")
        with open(path, "wb") as handle:
            # A tail whose count exceeds what a page can hold.
            handle.write(struct.pack("<I", 16) + b"\x00" * 96)
        with pytest.raises(CorruptionError):
            HeapFile(path, schema, BufferPool(), page_size=512)

    def test_corrupt_count_is_quarantined_in_degraded_mode(
        self, schema, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", "0")
        path = str(tmp_path / "data.heap")
        heap = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
        heap.append_many(make_records(20))
        heap.flush()
        with open(path, "r+b") as handle:
            handle.seek(PAGE_SIZE)
            handle.write(struct.pack("<I", 99))
        reopened = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
        assert list(reopened.scan_records()) == make_records(15)
        assert os.path.getsize(path) == PAGE_SIZE
        assert any("corrupt heap tail" in n for n in drain_recovery_notes())


class TestCompactTail:
    def test_file_length_follows_the_format_after_each_flush(self, heap):
        appended = 0
        for batch in (1, 2, 5, 7, 1, 14, 15, 3):
            heap.append_many(make_records(batch, start=appended))
            appended += batch
            heap.flush()
            assert os.path.getsize(heap.path) == expected_length(heap, appended)
            assert heap.size_bytes() == expected_length(heap, appended)

    def test_flush_writes_only_the_new_records_and_the_count(
        self, heap, monkeypatch
    ):
        writes = []
        real_pwrite = os.pwrite

        def recording_pwrite(fd, data, offset):
            writes.append((offset, len(data)))
            return real_pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", recording_pwrite)
        record_size = heap.codec.record_size
        per_page = heap.records_per_page
        appended = 0
        for batch in (3, 1, 6, 4, 2, 20):
            writes.clear()
            flushed_end = os.path.getsize(heap.path)
            heap.append_many(make_records(batch, start=appended))
            heap.flush()
            pages_filled = (appended + batch) // per_page - appended // per_page
            padding = pages_filled * (PAGE_SIZE - 4 - per_page * record_size)
            written = sum(length for _, length in writes)
            assert written <= pages_filled * 4 + 4 + batch * record_size + padding
            # Record bytes go past everything already on disk, except the
            # 4-byte counts at the start of a page.
            for offset, length in writes:
                is_count = length == 4 and offset % PAGE_SIZE == 0
                assert is_count or offset >= flushed_end
            appended += batch
        assert list(heap.scan_records()) == make_records(appended)

    def test_flush_with_nothing_new_writes_nothing(self, heap, monkeypatch):
        heap.append_many(make_records(4))
        heap.flush()
        calls = []
        monkeypatch.setattr(os, "pwrite", lambda *args: calls.append(args))
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        heap.flush()
        assert calls == []

    @pytest.mark.parametrize("count_on_disk", ["old", "new"])
    @pytest.mark.parametrize(("before", "after"), [(3, 7), (10, 15)])
    def test_torn_tails_truncate_to_whole_records(
        self, schema, tmp_path, count_on_disk, before, after
    ):
        """A flush onto a tail of ``before`` records, up to ``after``, is
        cut at every length (15 fills the page, padding included).  The
        file opens with its whole records, up to the count on disk."""
        path = str(tmp_path / "data.heap")
        heap = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
        heap.append_many(make_records(before))
        heap.flush()
        heap.append_many(make_records(after - before, start=before))
        heap.flush()
        full = read_bytes(path)
        record_size = heap.codec.record_size
        count = before if count_on_disk == "old" else after
        intact = expected_length(heap, count)
        header = struct.pack("<I", count)
        for cut in range(1, len(full) + 1):
            data = (header + full[4:])[:cut]
            write_bytes(path, data)
            drain_recovery_notes()
            reopened = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
            whole = min(count, max(cut - 4, 0) // record_size)
            assert list(reopened.scan_records()) == make_records(whole), cut
            assert os.path.getsize(path) == expected_length(reopened, whole)
            notes = drain_recovery_notes()
            if cut == intact:
                assert notes == []
            else:
                assert len(notes) == 1 and "torn heap tail" in notes[0], cut
            # The repair is durable and complete: a second open is clean,
            # and appends continue at the next ordinal.
            again = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
            assert drain_recovery_notes() == []
            again.append(Record((999, 0, 0, 0)))
            again.flush()
            final = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
            assert list(final.scan_records()) == make_records(whole) + [
                Record((999, 0, 0, 0))
            ]

    @pytest.mark.parametrize("full_pages", [0, 2])
    def test_padded_tail_of_the_older_format_opens_and_accepts_appends(
        self, schema, tmp_path, full_pages
    ):
        path = str(tmp_path / "data.heap")
        heap = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
        per_page = heap.records_per_page
        records = make_records(full_pages * per_page + 5)
        heap.append_many(records[: full_pages * per_page])
        heap.flush()
        padded = Page(PageId("old", full_pages), heap.codec, PAGE_SIZE)
        for record in records[full_pages * per_page :]:
            padded.append(record)
        with open(path, "r+b") as handle:
            handle.seek(full_pages * PAGE_SIZE)
            handle.write(padded.to_bytes())
        assert os.path.getsize(path) == (full_pages + 1) * PAGE_SIZE
        reopened = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
        assert drain_recovery_notes() == []
        assert list(reopened.scan_records()) == records
        reopened.append(Record((999, 0, 0, 0)))
        reopened.flush()
        assert os.path.getsize(path) == expected_length(reopened, len(records) + 1)
        final = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
        assert list(final.scan_records()) == records + [Record((999, 0, 0, 0))]

    def test_truncate_records_into_the_unflushed_tail(self, schema, tmp_path):
        path = str(tmp_path / "data.heap")
        heap = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
        heap.append_many(make_records(3))
        heap.flush()
        heap.append_many(make_records(6, start=3))
        heap.truncate_records(5)
        assert os.path.getsize(path) == expected_length(heap, 5)
        reopened = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
        assert list(reopened.scan_records()) == make_records(5)

    def test_a_page_fills_between_flushes(self, schema, tmp_path):
        """The fill writes the page's pending records and its padding; the
        records after it wait, encoded, for the next flush."""
        path = str(tmp_path / "data.heap")
        heap = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
        per_page = heap.records_per_page
        heap.append_many(make_records(10))
        heap.flush()
        heap.append_many(make_records(per_page - 2, start=10))
        page = Page(PageId("expected", 0), heap.codec, PAGE_SIZE)
        for record in make_records(per_page):
            page.append(record)
        assert read_bytes(path) == page.to_bytes()
        heap.flush()
        assert os.path.getsize(path) == expected_length(heap, per_page + 8)
        reopened = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
        assert list(reopened.scan_records()) == make_records(per_page + 8)

    def test_truncate_records_keeps_the_format(self, heap):
        heap.append_many(make_records(40))
        heap.flush()
        for count in (33, 30, 16, 15, 4, 0):
            heap.truncate_records(count)
            assert os.path.getsize(heap.path) == expected_length(heap, count)
            assert list(heap.scan_records()) == make_records(count)


#: One step of the heap model test: (operation, argument).
heap_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["append", "append", "flush", "reopen", "truncate", "truncate-unflushed"]
        ),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=1,
    max_size=25,
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=heap_steps)
def test_heap_matches_a_list_model(schema, tmp_path_factory, steps):
    """Appends, flushes, reopens and truncations against a list of records.
    A reopen without a flush keeps what reached the disk: the pages that
    filled, and the tail as of the last flush.  ``truncate-unflushed`` cuts
    into the tail's records that are not on disk yet, whose encoded bytes
    the heap keeps in memory."""
    path = str(tmp_path_factory.mktemp("heap") / "data.heap")
    heap = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
    per_page = heap.records_per_page
    model: list[Record] = []
    durable = 0
    for operation, argument in steps:
        if operation == "append":
            records = make_records(argument, start=len(model), payload=argument)
            heap.append_many(records)
            model.extend(records)
            durable = max(durable, len(model) // per_page * per_page)
        elif operation == "flush":
            heap.flush()
            durable = len(model)
        elif operation == "reopen":
            model = model[:durable]
            heap = HeapFile(path, schema, BufferPool(), page_size=PAGE_SIZE)
            assert os.path.getsize(path) == expected_length(heap, durable)
        elif operation == "truncate":
            # Truncating to a shorter length makes the result durable;
            # truncating to the current length or beyond does nothing.
            heap.truncate_records(argument)
            if argument < len(model):
                model = model[:argument]
                durable = len(model)
        elif durable < len(model):
            count = durable + argument % (len(model) - durable)
            heap.truncate_records(count)
            model = model[:count]
            durable = count
        assert heap.num_records == len(model)
        assert list(heap.scan_records()) == model
    assert drain_recovery_notes() == []


class TestRecordId:
    def test_ordering(self):
        assert RecordId(0, 5) < RecordId(1, 0)
        assert RecordId(1, 0) < RecordId(1, 3)

    def test_ordinal(self):
        assert RecordId(2, 3).ordinal(10) == 23
