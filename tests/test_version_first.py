"""Tests specific to the version-first engine."""

import pytest

from repro.core.record import Record
from repro.errors import CommitNotFoundError
from repro.storage.version_first import VersionFirstEngine

from tests.conftest import SMALL_PAGE_SIZE, annotated_rows, make_records


@pytest.fixture
def vf_engine(schema, tmp_path):
    return VersionFirstEngine(
        str(tmp_path / "vf"), schema, page_size=SMALL_PAGE_SIZE
    )


@pytest.fixture
def vf_loaded(vf_engine, records):
    vf_engine.init(records)
    return vf_engine


class TestVersionFirstSegments:
    def test_one_segment_per_branch(self, vf_loaded):
        assert vf_loaded.segment_count() == 1
        vf_loaded.create_branch("dev", from_branch="master")
        assert vf_loaded.segment_count() == 2
        vf_loaded.create_branch("feature", from_branch="dev")
        assert vf_loaded.segment_count() == 3

    def test_child_segment_records_branch_point(self, vf_loaded):
        vf_loaded.create_branch("dev", from_branch="master")
        dev_segment = vf_loaded.segments.get(vf_loaded._head_segment["dev"])
        pointer = dev_segment.parents[0]
        assert pointer.segment_id == vf_loaded._head_segment["master"]
        assert pointer.limit == 20

    def test_parent_writes_after_branch_point_invisible(self, vf_loaded, schema):
        vf_loaded.create_branch("dev", from_branch="master")
        vf_loaded.insert("master", Record((100, 0, 0, 0)))
        assert 100 not in {r.key(schema) for r in vf_loaded.scan_branch("dev")}

    def test_child_writes_go_to_child_segment(self, vf_loaded):
        vf_loaded.create_branch("dev", from_branch="master")
        master_count = vf_loaded.segments.get(
            vf_loaded._head_segment["master"]
        ).record_count
        vf_loaded.insert("dev", Record((101, 0, 0, 0)))
        assert (
            vf_loaded.segments.get(vf_loaded._head_segment["master"]).record_count
            == master_count
        )
        assert (
            vf_loaded.segments.get(vf_loaded._head_segment["dev"]).record_count == 1
        )

    def test_update_appends_to_segment(self, vf_loaded):
        before = vf_loaded.segments.get(
            vf_loaded._head_segment["master"]
        ).record_count
        vf_loaded.update("master", Record((0, 9, 9, 9)))
        assert (
            vf_loaded.segments.get(vf_loaded._head_segment["master"]).record_count
            == before + 1
        )

    def test_delete_appends_tombstone(self, vf_loaded, schema):
        segment = vf_loaded.segments.get(vf_loaded._head_segment["master"])
        before = segment.record_count
        vf_loaded.delete("master", 5)
        assert segment.record_count == before + 1
        last = segment.record_at(before)
        assert last.tombstone and last.key(schema) == 5

    def test_deleted_key_not_resurrected_from_ancestor(self, vf_loaded, schema):
        vf_loaded.create_branch("dev", from_branch="master")
        vf_loaded.delete("dev", 5)
        assert 5 not in {r.key(schema) for r in vf_loaded.scan_branch("dev")}
        # The parent still has it.
        assert 5 in {r.key(schema) for r in vf_loaded.scan_branch("master")}

    def test_newest_copy_wins_within_segment(self, vf_loaded):
        vf_loaded.update("master", Record((1, 1, 1, 1)))
        vf_loaded.update("master", Record((1, 2, 2, 2)))
        values = {r.values[0]: r.values for r in vf_loaded.scan_branch("master")}
        assert values[1] == (1, 2, 2, 2)


class TestVersionFirstCommits:
    def test_commit_records_offset(self, vf_loaded):
        commit_id = vf_loaded.commit("master")
        segment_id, offset = vf_loaded._commit_read_state(commit_id)
        assert segment_id == vf_loaded._head_segment["master"]
        assert offset == 20

    def test_scan_commit_ignores_later_appends(self, vf_loaded, schema):
        commit_id = vf_loaded.commit("master")
        vf_loaded.insert("master", Record((200, 0, 0, 0)))
        assert 200 not in {r.key(schema) for r in vf_loaded.scan_commit(commit_id)}

    def test_unknown_commit_rejected(self, vf_loaded):
        with pytest.raises(CommitNotFoundError):
            list(vf_loaded.scan_commit("v012345"))

    def test_commit_metadata_is_tiny(self, vf_loaded):
        for i in range(5):
            vf_loaded.insert("master", Record((300 + i, 0, 0, 0)))
            vf_loaded.commit("master")
        assert vf_loaded.commit_metadata_bytes() < 1024


class TestVersionFirstScanChains:
    def test_chain_order_child_first(self, vf_loaded):
        vf_loaded.create_branch("dev", from_branch="master")
        vf_loaded.create_branch("feature", from_branch="dev")
        chain = vf_loaded._chain(vf_loaded._head_segment["feature"], None)
        segment_ids = [segment_id for segment_id, _ in chain]
        assert segment_ids[0] == vf_loaded._head_segment["feature"]
        assert segment_ids[-1] == vf_loaded._head_segment["master"]

    def test_shared_ancestor_visited_once_in_multiscan(self, vf_loaded):
        vf_loaded.create_branch("a", from_branch="master")
        vf_loaded.create_branch("b", from_branch="master")
        vf_loaded.insert("a", Record((400, 0, 0, 0)))
        vf_loaded.insert("b", Record((401, 0, 0, 0)))
        pairs = annotated_rows(vf_loaded.scan_branches_batched(["a", "b"]))
        by_key = {values[0]: branches for values, branches in pairs}
        assert len(by_key) == len(pairs)
        assert by_key[0] == {"a", "b"}
        assert by_key[400] == {"a"}
        assert by_key[401] == {"b"}

    def test_scan_branches_reports_divergent_copies_separately(self, vf_loaded):
        vf_loaded.create_branch("a", from_branch="master")
        vf_loaded.update("a", Record((2, 5, 5, 5)))
        rows = [
            (values, branches)
            for values, branches in annotated_rows(
                vf_loaded.scan_branches_batched(["a", "master"])
            )
            if values[0] == 2
        ]
        assert len(rows) == 2
        variants = {values: branches for values, branches in rows}
        assert variants[(2, 5, 5, 5)] == frozenset({"a"})
        assert variants[(2, 20, 200, 7)] == frozenset({"master"})
