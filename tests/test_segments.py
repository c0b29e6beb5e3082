"""Tests for segment files and the segment set."""

import pytest

from repro.core.buffer_pool import BufferPool
from repro.core.record import Record
from repro.errors import StorageError
from repro.storage.segments import ParentPointer, SegmentSet

from tests.conftest import make_records


@pytest.fixture
def segments(schema, tmp_path):
    return SegmentSet(str(tmp_path / "segs"), schema, BufferPool(), page_size=512)


class TestSegment:
    def test_append_returns_ordinals(self, segments):
        segment = segments.create("master")
        assert [segment.append(r) for r in make_records(4)] == [0, 1, 2, 3]
        assert segment.record_count == 4

    def test_record_at(self, segments):
        segment = segments.create("master")
        segment.append(Record((9, 1, 2, 3)))
        assert segment.record_at(0).values == (9, 1, 2, 3)

    def test_records_with_limit(self, segments):
        segment = segments.create("master")
        for record in make_records(6):
            segment.append(record)
        limited = list(segment.records(limit=3))
        assert [ordinal for ordinal, _ in limited] == [0, 1, 2]

    def test_freeze_blocks_writes(self, segments):
        segment = segments.create("master")
        segment.append(Record((1, 0, 0, 0)))
        segment.freeze()
        assert segment.frozen
        with pytest.raises(StorageError):
            segment.append(Record((2, 0, 0, 0)))

    def test_size_bytes_after_flush(self, segments):
        segment = segments.create("master")
        for record in make_records(3):
            segment.append(record)
        segment.heap.flush()
        assert segment.size_bytes() == 4 + 3 * segment.heap.codec.record_size


class TestSegmentSet:
    def test_ids_are_unique_and_ordered(self, segments):
        first = segments.create("a")
        second = segments.create("b")
        assert first.segment_id != second.segment_id
        assert first.segment_id < second.segment_id
        assert len(segments) == 2

    def test_get_unknown_rejected(self, segments):
        with pytest.raises(StorageError):
            segments.get("seg99999")

    def test_contains(self, segments):
        segment = segments.create("a")
        assert segment.segment_id in segments

    def test_total_size(self, segments):
        segment = segments.create("a")
        for record in make_records(3):
            segment.append(record)
        segments.flush()
        assert segments.total_size_bytes() == 4 + 3 * segment.heap.codec.record_size

    def test_a_new_segment_over_a_leftover_file_starts_empty(
        self, schema, tmp_path
    ):
        directory = str(tmp_path / "segs")
        old = SegmentSet(directory, schema, BufferPool(), page_size=512)
        leftover = old.create("master")
        for record in make_records(5):
            leftover.append(record)
        old.flush()
        fresh = SegmentSet(directory, schema, BufferPool(), page_size=512)
        segment = fresh.create("master")
        assert segment.segment_id == leftover.segment_id
        assert segment.record_count == 0
        assert list(segment.records()) == []
        assert segment.size_bytes() == 0

    def test_metadata_roundtrip(self, schema, tmp_path):
        directory = str(tmp_path / "segs")
        segments = SegmentSet(directory, schema, BufferPool(), page_size=512)
        parent = segments.create("master")
        for record in make_records(5):
            parent.append(record)
        child = segments.create(
            "dev", parents=(ParentPointer(parent.segment_id, 5),)
        )
        parent.freeze()
        segments.flush()
        segments.save_metadata()

        reloaded = SegmentSet(directory, schema, BufferPool(), page_size=512)
        reloaded.load_metadata()
        assert len(reloaded) == 2
        restored_child = reloaded.get(child.segment_id)
        assert restored_child.parents[0].segment_id == parent.segment_id
        assert restored_child.parents[0].limit == 5
        assert reloaded.get(parent.segment_id).frozen
        assert reloaded.get(parent.segment_id).record_count == 5
        # Id allocation continues after the highest existing id.
        newer = reloaded.create("other")
        assert newer.segment_id > child.segment_id
