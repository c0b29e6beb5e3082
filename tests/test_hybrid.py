"""Tests specific to the hybrid engine."""

import json
import os

import pytest

from repro.core.durable import read_framed
from repro.core.record import Record
from repro.db.database import Decibel
from repro.errors import CommitNotFoundError
from repro.storage.hybrid import HybridEngine

from tests.conftest import SMALL_PAGE_SIZE, make_records


@pytest.fixture
def hy_engine(schema, tmp_path):
    return HybridEngine(str(tmp_path / "hy"), schema, page_size=SMALL_PAGE_SIZE)


@pytest.fixture
def hy_loaded(hy_engine, records):
    hy_engine.init(records)
    return hy_engine


class TestHybridSegments:
    def test_branch_freezes_parent_head_and_creates_two_heads(self, hy_loaded):
        old_head = hy_loaded._head_segment["master"]
        before = hy_loaded.segment_count()
        hy_loaded.create_branch("dev", from_branch="master")
        assert hy_loaded.segments.get(old_head).frozen
        assert hy_loaded.segment_count() == before + 2
        assert hy_loaded._head_segment["master"] != old_head
        assert hy_loaded._head_segment["dev"] != old_head

    def test_branch_segment_index_tracks_membership(self, hy_loaded):
        old_head = hy_loaded._head_segment["master"]
        hy_loaded.create_branch("dev", from_branch="master")
        assert old_head in hy_loaded._branch_segments["master"]
        assert old_head in hy_loaded._branch_segments["dev"]
        hy_loaded.insert("dev", Record((100, 0, 0, 0)))
        dev_head = hy_loaded._head_segment["dev"]
        assert dev_head in hy_loaded._branch_segments["dev"]
        assert dev_head not in hy_loaded._branch_segments["master"]

    def test_local_bitmaps_fork_per_segment(self, hy_loaded):
        old_head = hy_loaded._head_segment["master"]
        hy_loaded.create_branch("dev", from_branch="master")
        local = hy_loaded._local_bitmaps[old_head]
        assert local.branch_bitmap("dev").count() == 20
        hy_loaded.delete("dev", 0)
        assert local.branch_bitmap("dev").count() == 19
        assert local.branch_bitmap("master").count() == 20

    def test_scan_skips_unrelated_segments(self, hy_loaded):
        hy_loaded.create_branch("dev", from_branch="master")
        hy_loaded.insert("dev", Record((200, 0, 0, 0)))
        hy_loaded.insert("master", Record((201, 0, 0, 0)))
        relevant = set(hy_loaded._branch_state("dev"))
        assert hy_loaded._head_segment["master"] not in relevant

    def test_update_clears_bit_in_old_segment(self, hy_loaded):
        old_head = hy_loaded._head_segment["master"]
        hy_loaded.create_branch("dev", from_branch="master")
        hy_loaded.update("dev", Record((3, 9, 9, 9)))
        assert not hy_loaded._local_bitmaps[old_head].is_set(3, "dev")
        values = {r.values[0]: r.values for r in hy_loaded.scan_branch("dev")}
        assert values[3] == (3, 9, 9, 9)


class TestHybridCommits:
    def test_commit_histories_are_per_branch_segment(self, hy_loaded):
        hy_loaded.create_branch("dev", from_branch="master")
        hy_loaded.insert("dev", Record((300, 0, 0, 0)))
        hy_loaded.commit("dev")
        hy_loaded.insert("master", Record((301, 0, 0, 0)))
        hy_loaded.commit("master")
        # Hybrid splits commit metadata across many small per-(branch, segment)
        # histories, unlike tuple-first's one per branch (paper Section 5.3).
        assert hy_loaded.commit_history_count() >= 3

    def test_checkout_commit_bitmaps(self, hy_loaded, schema):
        hy_loaded.insert("master", Record((400, 0, 0, 0)))
        commit_id = hy_loaded.commit("master")
        hy_loaded.delete("master", 400)
        snapshots = hy_loaded.checkout_commit_bitmaps(commit_id)
        total = sum(bitmap.count() for bitmap in snapshots.values())
        assert total == 21
        keys = {r.key(schema) for r in hy_loaded.scan_commit(commit_id)}
        assert 400 in keys

    def test_unknown_commit_rejected(self, hy_loaded):
        with pytest.raises(CommitNotFoundError):
            list(hy_loaded.scan_commit("v054321"))
        with pytest.raises(CommitNotFoundError):
            hy_loaded.checkout_commit_bitmaps("v054321")

    def test_historical_branch_restores_bitmaps(self, hy_loaded, schema):
        commit_id = hy_loaded.commit("master", "snapshot")
        hy_loaded.insert("master", Record((500, 0, 0, 0)))
        hy_loaded.commit("master")
        hy_loaded.create_branch("past", from_commit=commit_id)
        keys = {r.key(schema) for r in hy_loaded.scan_branch("past")}
        assert keys == set(range(20))
        hy_loaded.insert("past", Record((501, 0, 0, 0)))
        assert hy_loaded.branch_contains_key("past", 501)

    def test_no_history_file_is_written_and_reopen_restores_every_branch(
        self, hy_loaded, schema
    ):
        """Commit histories live in memory and their deltas ride in the
        graph frames: no ``.hist`` file is written, and a reopen rebuilds
        every branch's bitmaps, at its head and at each of its commits."""
        commits = {}
        for i in range(8):
            hy_loaded.create_branch(f"b{i}", from_branch="master")
            hy_loaded.insert(f"b{i}", Record((700 + i, 0, 0, 0)))
            commits[f"b{i}"] = hy_loaded.commit(f"b{i}")
            hy_loaded.delete(f"b{i}", i)
            hy_loaded.commit(f"b{i}")
        before = {
            commit.commit_id: sorted(
                r.values for r in hy_loaded.scan_commit(commit.commit_id)
            )
            for commit in hy_loaded.graph.commits()
        }
        hy_loaded.close()
        assert not [
            name for name in os.listdir(hy_loaded.directory) if name.endswith(".hist")
        ]
        reopened = HybridEngine(hy_loaded.directory, schema, page_size=SMALL_PAGE_SIZE)
        reopened.load_persistent_state()
        for i in range(8):
            keys = {r.key(schema) for r in reopened.scan_branch(f"b{i}")}
            assert keys == (set(range(20)) | {700 + i}) - {i}
            keys = {r.key(schema) for r in reopened.scan_commit(commits[f"b{i}"])}
            assert keys == set(range(20)) | {700 + i}
        assert {
            commit_id: sorted(r.values for r in reopened.scan_commit(commit_id))
            for commit_id in before
        } == before

    def test_commit_changing_one_segment_writes_one_delta_and_three_fsyncs(
        self, tmp_path, schema, monkeypatch
    ):
        """A transaction commit on a branch spanning many segments that
        changes one of them fsyncs the WAL COMMIT, the head segment and the
        graph frame, and the frame carries exactly that segment's delta."""
        db = Decibel(str(tmp_path), engine="hybrid", page_size=SMALL_PAGE_SIZE)
        rel = db.create_relation("t", schema)
        rel.init(make_records(20))
        for i in range(8):
            rel.insert("master", Record((100 + i, 0, 0, 0)))
            rel.commit("master")
            rel.branch(f"b{i}", from_branch="master")
        engine = rel.engine
        assert len(engine._branch_segments["master"]) >= 8
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
        (commit_id,) = txn.commit().values()
        assert len(fsyncs) <= 3
        (event,) = json.loads(read_framed(engine._graph_path())[-1])
        assert event["id"] == commit_id
        assert list(event["state"]) == [engine._head_segment["master"]]

    def test_unchanged_commit_carries_no_state(self, hy_loaded, schema):
        """A commit that changes no segment's bitmap records no delta, and
        it checks out through the histories' earlier entries."""
        hy_loaded.create_branch("dev", from_branch="master")
        hy_loaded.insert("dev", Record((300, 0, 0, 0)))
        changed = hy_loaded.commit("dev")
        unchanged = hy_loaded.commit("dev")
        assert set(hy_loaded.graph.commit_state(changed)) == {
            hy_loaded._head_segment["dev"]
        } | hy_loaded._branch_segments["master"]
        assert hy_loaded.graph.commit_state(unchanged) is None
        keys = {r.key(schema) for r in hy_loaded.scan_commit(unchanged)}
        assert keys == set(range(20)) | {300}

    def test_emptied_segment_checks_out_at_each_commit(self, hy_loaded, schema):
        """A commit that deletes every row a branch holds in a segment
        records that segment's delta to empty: earlier commits still check
        out its rows, later ones none, live and after a reopen."""
        old_head = hy_loaded._head_segment["master"]
        hy_loaded.create_branch("dev", from_branch="master")
        hy_loaded.insert("dev", Record((300, 0, 0, 0)))
        full = hy_loaded.commit("dev")
        for key in range(20):
            hy_loaded.delete("dev", key)
        emptied = hy_loaded.commit("dev")
        assert old_head in hy_loaded.graph.commit_state(emptied)
        hy_loaded.close()
        reopened = HybridEngine(hy_loaded.directory, schema, page_size=SMALL_PAGE_SIZE)
        reopened.load_persistent_state()
        for engine in (hy_loaded, reopened):
            assert {r.key(schema) for r in engine.scan_commit(full)} == set(
                range(20)
            ) | {300}
            assert {r.key(schema) for r in engine.scan_commit(emptied)} == {300}
            assert old_head not in engine.checkout_commit_bitmaps(emptied)
        assert {r.key(schema) for r in reopened.scan_branch("dev")} == {300}


class TestHybridMergeSharing:
    def test_merge_shares_tuples_across_segments(self, hy_loaded):
        hy_loaded.create_branch("dev", from_branch="master")
        hy_loaded.insert("dev", Record((600, 1, 2, 3)))
        hy_loaded.commit("dev")
        hy_loaded.commit("master")
        data_before = sum(s.record_count for s in hy_loaded.segments.all())
        hy_loaded.merge("master", "dev")
        data_after = sum(s.record_count for s in hy_loaded.segments.all())
        assert data_after == data_before  # shared, not copied
        location = hy_loaded.key_location("master", 600)
        assert location == hy_loaded.key_location("dev", 600)

    def test_bitmap_index_bytes(self, hy_loaded):
        assert hy_loaded.bitmap_index_bytes() > 0
