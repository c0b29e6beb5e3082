"""Tests specific to the tuple-first engine."""

import os

import pytest

from repro.bitmap import BitmapOrientation
from repro.core.durable import read_framed
from repro.core.record import Record
from repro.db.database import Decibel
from repro.errors import CommitNotFoundError
from repro.storage.tuple_first import TupleFirstEngine
from repro.versioning.version_graph import decode_events

from tests.conftest import SMALL_PAGE_SIZE, make_records


@pytest.fixture(params=["branch", "tuple"])
def tf_engine(request, schema, tmp_path):
    """A tuple-first engine in each bitmap orientation."""
    return TupleFirstEngine(
        str(tmp_path / f"tf_{request.param}"),
        schema,
        page_size=SMALL_PAGE_SIZE,
        bitmap_orientation=request.param,
    )


class TestTupleFirstLayout:
    def test_single_shared_heap_file(self, tf_engine, records):
        tf_engine.init(records)
        tf_engine.create_branch("dev", from_branch="master")
        tf_engine.insert("dev", Record((100, 0, 0, 0)))
        tf_engine.insert("master", Record((101, 0, 0, 0)))
        # All records, from every branch, live in the one heap file.
        assert tf_engine.heap.num_records == 22

    def test_update_appends_rather_than_overwrites(self, tf_engine, records):
        tf_engine.init(records)
        before = tf_engine.heap.num_records
        tf_engine.update("master", Record((0, 9, 9, 9)))
        assert tf_engine.heap.num_records == before + 1

    def test_delete_only_clears_bit(self, tf_engine, records):
        tf_engine.init(records)
        before = tf_engine.heap.num_records
        tf_engine.delete("master", 0)
        assert tf_engine.heap.num_records == before
        assert not tf_engine.bitmap_index.is_set(0, "master")

    def test_branch_clones_bitmap(self, tf_engine, records):
        tf_engine.init(records)
        tf_engine.create_branch("dev", from_branch="master")
        assert (
            tf_engine.bitmap_index.branch_bitmap("dev").to_indices()
            == tf_engine.bitmap_index.branch_bitmap("master").to_indices()
        )

    def test_bitmap_orientation_respected(self, schema, tmp_path):
        engine = TupleFirstEngine(
            str(tmp_path / "oriented"),
            schema,
            bitmap_orientation=BitmapOrientation.TUPLE,
        )
        assert engine.bitmap_index.orientation is BitmapOrientation.TUPLE

    def test_bitmap_index_bytes_positive(self, tf_engine, records):
        tf_engine.init(records)
        assert tf_engine.bitmap_index_bytes() > 0


class TestTupleFirstCommitHistory:
    def test_commit_history_grows_per_branch(self, tf_engine, records):
        tf_engine.init(records)
        tf_engine.create_branch("dev", from_branch="master")
        tf_engine.insert("dev", Record((300, 0, 0, 0)))
        tf_engine.commit("dev")
        assert len(tf_engine.commit_history("dev")) == 1
        assert len(tf_engine.commit_history("master")) == 1  # the init commit

    def test_checkout_commit_bitmap_matches_scan(self, tf_engine, records, schema):
        tf_engine.init(records)
        tf_engine.insert("master", Record((400, 0, 0, 0)))
        commit_id = tf_engine.commit("master")
        tf_engine.delete("master", 400)
        snapshot = tf_engine.checkout_commit_bitmap(commit_id)
        scanned_keys = {r.key(schema) for r in tf_engine.scan_commit(commit_id)}
        assert snapshot.count() == len(scanned_keys)
        assert 400 in scanned_keys

    def test_checkout_unknown_commit_rejected(self, tf_engine, records):
        tf_engine.init(records)
        with pytest.raises(CommitNotFoundError):
            list(tf_engine.scan_commit("v099999"))

    def test_unchanged_bitmap_commit_carries_no_delta(self, tf_engine, records):
        """A commit that leaves the bitmap as it was records nothing: its
        graph event carries no delta, and it checks out through the latest
        delta before it."""
        tf_engine.init(records)
        tf_engine.insert("master", Record((400, 0, 0, 0)))
        changed = tf_engine.commit("master")
        unchanged = tf_engine.commit("master")
        (event,) = decode_events(read_framed(tf_engine._graph_path())[-1])
        sequence = tf_engine.graph.get_commit(unchanged).sequence
        assert event["sequence"] == sequence and "state" not in event
        assert tf_engine.graph.commit_state(changed) is not None
        assert len(tf_engine.commit_history("master")) == 2
        assert tf_engine.checkout_commit_bitmap(
            unchanged
        ) == tf_engine.checkout_commit_bitmap(changed)

    def test_transaction_commit_fsyncs_wal_heap_and_graph_frame(
        self, tmp_path, schema, monkeypatch
    ):
        """A transaction commit fsyncs the WAL COMMIT, the heap and the
        graph frame: no per-branch history file is appended."""
        db = Decibel(str(tmp_path), engine="tuple-first", page_size=SMALL_PAGE_SIZE)
        rel = db.create_relation("t", schema)
        rel.init(make_records(20))
        for i in range(4):
            rel.branch(f"b{i}", from_branch="master")
        # A first transaction creates the WAL file (and fsyncs its directory).
        db.transactions("t").begin().commit()
        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        txn = db.transactions("t").begin()
        txn.insert("master", Record((200, 0, 0, 0)))
        txn.commit()
        assert len(fsyncs) == 3
        files = os.listdir(tmp_path / "t")
        assert not [name for name in files if name.endswith(".hist")]

    def test_commit_metadata_bytes_grow_with_commits(self, tf_engine, records):
        tf_engine.init(records)
        first = tf_engine.commit_metadata_bytes()
        for i in range(5):
            tf_engine.insert("master", Record((500 + i, 0, 0, 0)))
            tf_engine.commit("master")
        assert tf_engine.commit_metadata_bytes() > first

    def test_historical_branch_point(self, tf_engine, records, schema):
        tf_engine.init(records)
        commit_id = tf_engine.commit("master", "snapshot")
        for i in range(3):
            tf_engine.insert("master", Record((600 + i, 0, 0, 0)))
        tf_engine.commit("master")
        tf_engine.create_branch("past", from_commit=commit_id)
        past_keys = {r.key(schema) for r in tf_engine.scan_branch("past")}
        assert past_keys == set(range(20))
        # The new branch can evolve independently.
        tf_engine.insert("past", Record((700, 0, 0, 0)))
        assert tf_engine.branch_contains_key("past", 700)


class TestTupleFirstMergeSharing:
    def test_merge_shares_source_tuples(self, tf_engine, records):
        tf_engine.init(records)
        tf_engine.create_branch("dev", from_branch="master")
        tf_engine.insert("dev", Record((800, 1, 2, 3)))
        tf_engine.commit("dev")
        tf_engine.commit("master")
        heap_before = tf_engine.heap.num_records
        tf_engine.merge("master", "dev")
        # The merged-in record is shared via the bitmap, not copied.
        assert tf_engine.heap.num_records == heap_before
        assert tf_engine.key_location("master", 800) == tf_engine.key_location(
            "dev", 800
        )

    def test_merge_with_field_conflict_appends_resolved_copy(self, tf_engine, records):
        tf_engine.init(records)
        tf_engine.create_branch("dev", from_branch="master")
        tf_engine.update("dev", Record((1, 10, 999, 7)))
        tf_engine.commit("dev")
        tf_engine.update("master", Record((1, 10, 100, 888)))
        tf_engine.commit("master")
        heap_before = tf_engine.heap.num_records
        tf_engine.merge("master", "dev")
        # The field-level merged record matches neither side, so it is new.
        assert tf_engine.heap.num_records == heap_before + 1
        values = {
            r.values[0]: r.values for r in tf_engine.scan_branch("master")
        }
        assert values[1] == (1, 10, 999, 888)
