"""Tests specific to the version-first engine."""

import gc
import tracemalloc

import pytest

from repro.core.heapfile import HeapFile
from repro.core.predicates import ModuloPredicate
from repro.core.record import Record, RecordCodec
from repro.core.schema import Schema
from repro.errors import CommitNotFoundError
from repro.storage import create_engine
from repro.storage.version_first import VersionFirstEngine

from tests.conftest import (
    SMALL_PAGE_SIZE,
    annotated_rows,
    heads_oracle,
    make_records,
)


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
        last = segment.heap.record_by_ordinal(before)
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
        number, offset = vf_loaded.graph.commit_state(commit_id)
        assert number == vf_loaded._segment_numbers[vf_loaded._head_segment["master"]]
        assert offset == 20
        assert vf_loaded._commit_location(commit_id) == (
            vf_loaded._head_segment["master"],
            20,
        )

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


class TestVersionFirstRowlessReads:
    """A commit or snapshot-pinned read resolves its version by the chain
    walk, which decodes key columns and record headers only: a column scan,
    a count or a multi-branch scan of it builds no row."""

    def test_commit_and_pinned_reads_decode_no_rows(self, vf_loaded, monkeypatch):
        engine = vf_loaded
        for key in range(100, 400):
            engine.insert("master", Record((key, key % 7, key, 0)))
        engine.delete("master", 3)
        engine.create_branch("dev", from_branch="master")
        engine.update("dev", Record((5, 1, 1, 1)))
        engine.delete("dev", 101)
        pins = {"master": engine.commit("master"), "dev": engine.commit("dev")}
        # Neither commit stays at its segment's head.
        engine.update("dev", Record((6, 2, 2, 2)))
        engine.insert("master", Record((900, 0, 0, 0)))
        predicate = ModuloPredicate("c1", 2)

        decodes = []
        for name in ("decode", "decode_batch"):
            def counted(self, *args, _original=getattr(RecordCodec, name), **kw):
                decodes.append(_original)
                return _original(self, *args, **kw)

            monkeypatch.setattr(RecordCodec, name, counted)
        commit_rows = [
            row
            for batch in engine.scan_commit_columns(pins["dev"])
            for row in batch.rows()
        ]
        filtered = engine.count_commit(pins["dev"], predicate)
        pinned_rows = [
            row
            for batch in engine.scan_branch_columns("master", pins=pins)
            for row in batch.rows()
        ]
        heads = list(engine.scan_branches_batched(None, pins=pins))
        assert decodes == []
        monkeypatch.undo()

        dev = [record.values for record in engine.scan_commit(pins["dev"])]
        assert commit_rows == dev
        assert filtered == sum(1 for values in dev if values[1] % 2)
        assert pinned_rows == [
            record.values for record in engine.scan_commit(pins["master"])
        ]
        assert {
            values: branches for values, branches in annotated_rows(heads)
        } == heads_oracle(engine, pins=pins)


class TestVersionFirstLiveBits:
    def test_column_scan_reads_every_visible_chain_page(self, vf_engine, monkeypatch):
        """A branch's column scan, and its multi-branch scan, fetch every
        page of every segment of its chain up to the segment's visible limit
        -- pages holding only superseded copies or tombstones included,
        pages past a branch point not -- and select exactly the row scan's
        rows."""
        engine = vf_engine
        engine.init([Record((key, 0, 0, 0)) for key in range(400)])
        for key in range(100):  # master's first page is all superseded
            engine.update("master", Record((key, 1, 1, 1)))
        for key in range(270, 400):  # and its last one all tombstones
            engine.delete("master", key)
        engine.create_branch("dev", from_branch="master")
        for key in range(1000, 1200):  # past dev's branch point
            engine.insert("master", Record((key, 0, 0, 0)))
        for key in range(100, 150):
            engine.update("dev", Record((key, 2, 2, 2)))
        for key in range(150, 270):  # dev's last page is all tombstones
            engine.delete("dev", key)
        master = engine.segments.get(engine._head_segment["master"]).heap
        dev = engine.segments.get(engine._head_segment["dev"]).heap
        per_page = master.records_per_page
        # The tombstone-only pages hold no record ever live, and the
        # inserts past the branch point fill pages of their own.
        assert -(-500 // per_page) < -(-630 // per_page) < master.num_pages
        assert -(-50 // per_page) < -(-170 // per_page) == dev.num_pages

        fetched = set()

        def page(self, page_number, transient=False, _original=HeapFile.page):
            fetched.add((self.path, page_number))
            return _original(self, page_number, transient)

        monkeypatch.setattr(HeapFile, "page", page)
        columnar = [
            row for batch in engine.scan_branch_columns("dev") for row in batch.rows()
        ]
        chain_pages = {(dev.path, number) for number in range(dev.num_pages)} | {
            (master.path, number) for number in range(-(-630 // per_page))
        }
        assert fetched == chain_pages
        fetched.clear()
        list(engine.scan_branches_batched(["dev"]))  # Query 4 reads as much
        monkeypatch.undo()
        assert fetched == chain_pages
        rows = [record.values for record in engine.scan_branch("dev")]
        assert columnar == rows
        assert sorted(rows) == sorted(
            [(key, 1, 1, 1) for key in range(100)]
            + [(key, 2, 2, 2) for key in range(100, 150)]
        )

    def test_forks_after_reopen_build_only_a_head_forks_parent(
        self, tmp_path, schema
    ):
        """After a reopen, a fork at a head builds its parent's live bits to
        clone them; a fork off a commit restores that commit's chain walk
        and builds no branch."""
        directory = str(tmp_path / "vf")
        engine = VersionFirstEngine(directory, schema, page_size=SMALL_PAGE_SIZE)
        base = engine.init(make_records(50))
        engine.create_branch("dev", from_branch="master")
        engine.update("dev", Record((3, 0, 0, 0)))
        engine.delete("dev", 4)
        engine.commit("dev")
        engine.insert("master", Record((99, 0, 0, 0)))
        engine.commit("master")
        engine.close()
        engine = VersionFirstEngine(directory, schema, page_size=SMALL_PAGE_SIZE)
        engine.load_persistent_state()
        engine.create_branch("old", from_commit=base)
        assert not engine.live_bits_built("master")
        assert not engine.live_bits_built("dev")
        engine.create_branch("feature", from_branch="dev")
        assert engine.live_bits_built("dev")
        assert not engine.live_bits_built("master")
        for branch, count in (("old", 50), ("feature", 49), ("dev", 49)):
            assert engine.live_state(branch) == engine.chain_state(branch)
            assert engine.count_branch(branch) == count
        assert engine.record_for_key("feature", 3).values == (3, 0, 0, 0)
        assert engine.record_for_key("old", 4).values == (4, 40, 400, 7)
        assert not engine.branch_contains_key("feature", 4)

    def test_forks_retain_at_most_twice_hybrids_heap(self, tmp_path):
        """64 forks of a 5k-row base, each with one update and one commit,
        retain at most twice the heap on version-first that they do on
        hybrid: a fork clones live bits, not a map of every key."""

        def retained(kind: str) -> int:
            engine = create_engine(kind, str(tmp_path / kind), Schema.of_ints(3))
            engine.init([Record((key, key, key)) for key in range(5000)])
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for i in range(64):
                    engine.create_branch(f"b{i}", from_branch="master")
                    engine.update(f"b{i}", Record((i, -1, -1)))
                    engine.commit(f"b{i}")
                gc.collect()
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        assert retained("version-first") <= 2 * retained("hybrid")
