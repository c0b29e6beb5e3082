"""Tests specific to the hybrid engine."""

import os

import pytest

from repro.core.record import Record
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
        relevant = set(hy_loaded._branch_segment_bitmaps("dev"))
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
        # files, unlike tuple-first's one file per branch (paper Section 5.3).
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

    def test_reload_lists_histories_instead_of_probing_each_pair(
        self, hy_loaded, schema, monkeypatch
    ):
        """Reload finds the history files with one directory listing, not an
        ``exists`` probe per (branch, segment) pair (here 9 x 17), and
        restores every branch at its head."""
        for i in range(8):
            hy_loaded.create_branch(f"b{i}", from_branch="master")
            hy_loaded.insert(f"b{i}", Record((700 + i, 0, 0, 0)))
            hy_loaded.commit(f"b{i}")
        hy_loaded.close()
        probes = []
        exists = os.path.exists

        def counting_exists(path):
            if str(path).endswith(".hist"):
                probes.append(path)
            return exists(path)

        monkeypatch.setattr(os.path, "exists", counting_exists)
        reopened = HybridEngine(hy_loaded.directory, schema, page_size=SMALL_PAGE_SIZE)
        reopened.load_persistent_state()
        # Only the histories that exist are opened, each once.
        histories = [
            os.path.join(hy_loaded.directory, name)
            for name in os.listdir(hy_loaded.directory)
            if name.endswith(".hist")
        ]
        assert sorted(probes) == sorted(histories)
        for i in range(8):
            keys = {r.key(schema) for r in reopened.scan_branch(f"b{i}")}
            assert keys == set(range(20)) | {700 + i}


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
