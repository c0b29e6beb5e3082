"""Tests for segment files, the segment set, and the segment topology a
reopen replays from the version-graph log."""

import os
from pathlib import Path

import pytest

import repro.core.durable
import repro.core.wal
import repro.storage.segments
from repro.core.buffer_pool import BufferPool
from repro.core.record import Record
from repro.core.schema import Schema
from repro.db.database import Decibel
from repro.errors import CorruptionError, StorageError
from repro.storage.segments import SegmentSet

from tests.conftest import ENGINE_CLASSES, SMALL_PAGE_SIZE, make_records


@pytest.fixture
def segments(schema, tmp_path):
    return SegmentSet(str(tmp_path / "segs"), schema, BufferPool(), page_size=512)


class TestSegment:
    def test_append_returns_ordinals(self, segments):
        segment = segments.create("master")
        assert [segment.append(r) for r in make_records(4)] == [0, 1, 2, 3]
        assert segment.record_count == 4

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

    def test_directory_fsync_waits_for_a_new_segments_records(
        self, segments, monkeypatch
    ):
        """An empty new segment costs no directory fsync; the first flush
        that writes records into a segment created since the last one
        does, once, and a segment a reopen recreates counts as new."""
        synced = []
        monkeypatch.setattr(
            repro.storage.segments, "fsync_dir", lambda path: synced.append(path)
        )
        first = segments.create("master")
        second = segments.create("dev")
        segments.flush()
        assert synced == []
        second.append(Record((1, 0, 0, 0)))
        segments.flush([first.segment_id])
        assert synced == []
        segments.flush([second.segment_id])
        assert synced == [segments.directory]
        first.append(Record((2, 0, 0, 0)))
        segments.flush()
        assert synced == [segments.directory]
        replayed = segments.create("other", reopen=True)
        replayed.append(Record((3, 0, 0, 0)))
        segments.flush()
        assert synced == [segments.directory] * 2

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
        assert segment.size_bytes() == 0


def topology(engine):
    """``(id, owner, frozen, parents)`` of every segment, in id order."""
    return [
        (segment.segment_id, segment.owner_branch, segment.frozen, segment.parents)
        for segment in engine.segments.all()
    ]


def branch_rows(engine):
    return {
        name: sorted(record.values for record in engine.scan_branch(name))
        for name in engine.graph.branch_names()
    }


class TestTopologyReplay:
    """No file records segment topology: a reopen replays the graph's
    branch events and allocates the same segments in the same order."""

    @pytest.mark.parametrize("kind", ["hybrid", "version-first"])
    def test_topology_round_trips_through_a_reopen(self, schema, tmp_path, kind):
        directory = str(tmp_path / "engine")
        engine = ENGINE_CLASSES[kind](directory, schema, page_size=SMALL_PAGE_SIZE)
        engine.init(make_records(20))
        key = 100
        for i in range(20):
            names = engine.graph.branch_names()
            parent = names[i * 7 % len(names)]
            name = f"b{i:02d}"
            if i % 3 == 2:
                history = engine.graph.lineage(engine.graph.head(parent))
                engine.create_branch(
                    name, from_commit=history[len(history) // 2].commit_id
                )
            else:
                engine.create_branch(name, from_branch=parent)
            for branch in (name, parent):
                engine.insert(branch, Record((key, i, 0, 0)))
                engine.commit(branch)
                key += 1
        branches = engine.graph.branches()
        assert any(b.at_head for b in branches[1:])
        assert any(not b.at_head for b in branches)
        before, rows = topology(engine), branch_rows(engine)
        engine.close()

        reopened = ENGINE_CLASSES[kind](
            directory, schema, page_size=SMALL_PAGE_SIZE
        )
        reopened.load_persistent_state()
        assert topology(reopened) == before
        assert branch_rows(reopened) == rows
        # Id allocation continues past the highest replayed id.
        reopened.create_branch("after", from_branch="master")
        new_ids = set(reopened._head_segment.values()) - {seg[0] for seg in before}
        assert new_ids and min(new_ids) > max(seg[0] for seg in before)

    @pytest.mark.parametrize("kind", sorted(ENGINE_CLASSES))
    def test_branches_and_commits_rewrite_no_file_whole(
        self, tmp_path, kind, monkeypatch
    ):
        calls = []

        def counting_atomic_write(path, data, label=None):
            calls.append(path)

        db = Decibel(str(tmp_path), engine=kind)
        rel = db.create_relation("t", Schema.of_ints(2))
        monkeypatch.setattr(repro.core.durable, "atomic_write", counting_atomic_write)
        monkeypatch.setattr(repro.core.wal, "atomic_write", counting_atomic_write)
        rel.init([Record((i, i)) for i in range(10)])
        manager = db.transactions("t")
        for i in range(6):
            rel.branch(f"b{i}", from_branch="b0" if i % 2 else "master")
            txn = manager.begin()
            txn.insert(f"b{i}", Record((100 + i, i)))
            txn.insert("master", Record((200 + i, i)))
            txn.commit()
        history = rel.graph.lineage(rel.graph.head("master"))
        rel.branch("old", from_commit=history[2].commit_id)
        db.close()
        assert calls == []
        segment_dir = tmp_path / "t" / "segments"
        if segment_dir.exists():
            assert all(name.endswith(".seg") for name in os.listdir(segment_dir))

    @pytest.mark.parametrize("kind", ["hybrid", "version-first"])
    def test_a_directory_with_a_topology_file_fails_to_open(self, tmp_path, kind):
        """A directory from the layout that kept its topology in a file
        beside the segment heaps is refused with the file named, never
        replayed against branch events that do not describe it."""
        db = Decibel(str(tmp_path), engine=kind)
        rel = db.create_relation("t", Schema.of_ints(2))
        rel.init([Record((i, i)) for i in range(10)])
        rel.branch("dev", from_branch="master")
        db.close()
        legacy = Path(tmp_path, "t", "segments", "segments").with_suffix(".json")
        legacy.write_text('{"crc32":0,"data":{"next_id":3,"segments":[]}}')
        with pytest.raises(CorruptionError) as raised:
            Decibel.open(str(tmp_path), engine=kind)
        assert raised.value.file == str(legacy)
