"""Tests specific to the hybrid engine."""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitmap import CommitHistory
from repro.bitmap.bitmap import Bitmap
from repro.bitmap.rle import rle_encode
from repro.core.buffer_pool import BufferPool
from repro.core.durable import FRAME_HEADER_SIZE, frame, read_framed
from repro.core.heapfile import HeapFile
from repro.core.record import Record
from repro.db.database import Decibel
from repro.errors import CommitNotFoundError, CorruptionError
from repro.storage.hybrid import KEPT_HEAD, HybridEngine
from repro.versioning.version_graph import decode_events, encode_events

from tests.conftest import SMALL_PAGE_SIZE, make_records
from tests.test_segments import topology


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
        # A first transaction creates the WAL file (and fsyncs its directory),
        # and the first write into master's newest head fsyncs the segments
        # directory, which its fork left for it.
        db.transactions("t").begin().commit()
        rel.insert("master", Record((199, 0, 0, 0)))
        rel.commit("master")
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
        (event,) = decode_events(read_framed(engine._graph_path())[-1])
        assert event["sequence"] == rel.graph.get_commit(commit_id).sequence
        head = engine._head_segment["master"]
        assert list(event["state"]) == [engine._segment_numbers[head]]

    def test_one_segment_commit_frame_is_at_most_40_bytes(self, hy_loaded):
        """A commit that sets 20 bits of one segment appends a frame of at
        most 40 bytes, framing included: the event costs about its RLE
        bytes."""
        hy_loaded.create_branch("c112", from_branch="master")
        hy_loaded.commit("c112")  # records the bits the fork inherited
        for key in range(1000, 1020):
            hy_loaded.insert("c112", Record((key, 0, 0, 0)))
        hy_loaded.commit("c112")
        payload = read_framed(hy_loaded._graph_path())[-1]
        (event,) = decode_events(payload)
        head = hy_loaded._segment_numbers[hy_loaded._head_segment["c112"]]
        ((number, (num_bits, _)),) = event["state"].items()
        assert (number, num_bits) == (head, 20)
        assert FRAME_HEADER_SIZE + len(payload) <= 40, (len(payload), event)

    def test_unchanged_commit_carries_no_state(self, hy_loaded, schema):
        """A commit that changes no segment's bitmap records no delta, and
        it checks out through the histories' earlier entries.  A child's
        first commit records only its own head: its inherited segments
        hold their fork state."""
        hy_loaded.create_branch("dev", from_branch="master")
        hy_loaded.insert("dev", Record((300, 0, 0, 0)))
        changed = hy_loaded.commit("dev")
        unchanged = hy_loaded.commit("dev")
        numbers = hy_loaded._segment_numbers
        assert set(hy_loaded.graph.commit_state(changed)) == {
            numbers[hy_loaded._head_segment["dev"]]
        }
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
        emptied_state = hy_loaded.graph.commit_state(emptied)
        assert hy_loaded._segment_numbers[old_head] in emptied_state
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


class TestHybridFlushScope:
    """A commit forces only the segments its branch's state can reference;
    other branches' pending appends stay in memory until their own commit
    or a flush."""

    @staticmethod
    def twenty_pending_branches(tmp_path, schema):
        """20 branches off master, each holding one unflushed insert."""
        db = Decibel(str(tmp_path), engine="hybrid", page_size=SMALL_PAGE_SIZE)
        rel = db.create_relation("t", schema)
        rel.init(make_records(20))
        names = [f"b{i:02d}" for i in range(20)]
        for name in names:
            rel.branch(name, from_branch="master")
        for i, name in enumerate(names):
            rel.insert(name, Record((100 + i, 0, 0, 0)))
        return db, rel, names

    @staticmethod
    def head_path(engine, branch):
        return engine.segments.get(engine._head_segment[branch]).heap.path

    def test_direct_commit_forces_its_head_and_the_graph_frame(
        self, tmp_path, schema, monkeypatch
    ):
        """With 20 branches pending, a direct commit on one of them fsyncs
        its head segment and the graph frame, and flushes no heap outside
        its branch's segments."""
        db, rel, names = self.twenty_pending_branches(tmp_path, schema)
        engine = rel.engine
        # The first commit of records into a segment the forks created
        # fsyncs the segments directory; another branch pays it here.
        rel.commit("b00")
        fsyncs = []
        flushed = []
        real_fsync = os.fsync
        real_flush = HeapFile.flush

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        def recording_flush(heap):
            flushed.append(heap.path)
            real_flush(heap)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        monkeypatch.setattr(HeapFile, "flush", recording_flush)
        rel.commit("b07")
        assert len(fsyncs) == 2
        scope = {
            engine.segments.get(segment_id).heap.path
            for segment_id in engine._branch_scope("b07")
        }
        assert self.head_path(engine, "b07") in flushed
        assert set(flushed) <= scope
        # Its head and master's loaded segment, of 22: the forks kept
        # master's empty head.
        assert len(scope) == 2 and len(engine.segments) == 22
        for name in names:
            size = os.path.getsize(self.head_path(engine, name))
            assert (size > 0) is (name in ("b00", "b07")), name

    @pytest.mark.parametrize("how", ["flush", "close"])
    def test_flush_and_close_write_every_tail(self, tmp_path, schema, how):
        """Every branch's pending append is on disk after a flush or a
        close, whichever branch committed last."""
        db, rel, names = self.twenty_pending_branches(tmp_path, schema)
        engine = rel.engine
        rel.commit("b07")
        paths = [self.head_path(engine, name) for name in names]
        getattr(db, how)()
        for path in paths:
            written = HeapFile(path, schema, BufferPool(), page_size=SMALL_PAGE_SIZE)
            assert written.num_records == 1, path


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


def reopen(engine, schema):
    engine.close()
    reopened = HybridEngine(engine.directory, schema, page_size=SMALL_PAGE_SIZE)
    reopened.load_persistent_state()
    return reopened


def keys(engine, branch):
    return {record.values[0] for record in engine.scan_branch(branch)}


def sixty_four_forks(engine):
    """64 forks of master; master writes and commits before every eighth,
    so most forks find its head empty and some find it holding records."""
    for i in range(64):
        if i % 8 == 0:
            engine.insert("master", Record((1000 + i, 0, 0, 0)))
            engine.commit("master")
        engine.create_branch(f"f{i:02d}", from_branch="master")
        engine.insert(f"f{i:02d}", Record((2000 + i, 0, 0, 0)))
        engine.commit(f"f{i:02d}")


def fork_chain_history(engine):
    """A fork taken over master's uncommitted writes, a chain three forks
    deep (``a``, ``b``, ``c``), a fork from ``a``'s first commit (``d``),
    merges into two children and a fork that never commits (``e``).
    Returns each commit's live bits: commit id -> the committing branch's
    :meth:`HybridEngine._head_state` right after it."""
    committed = {engine.graph.head("master"): engine._head_state("master")}

    def commit(branch):
        commit_id = engine.commit(branch)
        committed[commit_id] = engine._head_state(branch)
        return commit_id

    engine.insert("master", Record((100, 0, 0, 0)))
    engine.update("master", Record((3, 3, 3, 3)))
    engine.create_branch("a", from_branch="master")
    assert keys(engine, "a") == set(range(20)) | {100}
    commit("master")
    engine.delete("master", 4)
    commit("master")
    engine.delete("a", 5)
    first_on_a = commit("a")
    engine.insert("a", Record((101, 0, 0, 0)))
    engine.create_branch("b", from_branch="a")
    engine.update("b", Record((7, 7, 7, 7)))
    commit("b")
    engine.create_branch("c", from_branch="b")
    engine.delete("c", 8)
    engine.insert("c", Record((102, 0, 0, 0)))
    commit("c")
    commit("a")
    engine.create_branch("d", from_commit=first_on_a)
    engine.update("d", Record((9, 9, 9, 9)))
    commit("d")
    for target, source in (("c", "master"), ("b", "d")):
        merge = engine.merge(target, source)
        committed[merge.commit_id] = engine._head_state(target)
    engine.create_branch("e", from_branch="c")
    return committed


class TestKeptHead:
    """A fork at a head that holds no record keeps it as the parent's head
    and gives only the child a new one."""

    def test_fork_off_an_empty_head_adds_one_segment(self, hy_loaded):
        hy_loaded.create_branch("dev", from_branch="master")
        empty_head = hy_loaded._head_segment["master"]
        assert hy_loaded.graph.branch("dev").state is None  # froze a loaded head
        before = hy_loaded.segment_count()
        hy_loaded.create_branch("qa", from_branch="master")
        assert hy_loaded.segment_count() == before + 1
        assert hy_loaded._head_segment["master"] == empty_head
        assert not hy_loaded.segments.get(empty_head).frozen
        assert hy_loaded._head_segment["qa"] != empty_head
        assert hy_loaded.graph.branch("qa").state == KEPT_HEAD

    def test_an_uncommitted_append_freezes_the_head(self, hy_loaded):
        hy_loaded.create_branch("dev", from_branch="master")
        head = hy_loaded._head_segment["master"]
        hy_loaded.insert("master", Record((300, 0, 0, 0)))
        hy_loaded.create_branch("qa", from_branch="master")
        assert hy_loaded.segments.get(head).frozen
        assert hy_loaded.graph.branch("qa").state is None
        assert keys(hy_loaded, "qa") == set(range(20)) | {300}

    def test_parent_writes_into_the_kept_head_stay_invisible_to_the_child(
        self, hy_loaded, schema
    ):
        """The parent inserts into, updates into and commits in the head it
        kept; the child, which has no bit column there, never sees those
        rows, live or after a close and reopen."""
        hy_loaded.create_branch("dev", from_branch="master")
        kept = hy_loaded._head_segment["master"]
        hy_loaded.create_branch("qa", from_branch="master")
        original = hy_loaded.record_for_key("master", 3)
        hy_loaded.insert("master", Record((300, 0, 0, 0)))
        hy_loaded.update("master", Record((3, 9, 9, 9)))
        hy_loaded.commit("master")
        assert hy_loaded.key_location("master", 300)[0] == kept
        assert not hy_loaded._local_bitmaps[kept].has_branch("qa")
        hy_loaded.insert("qa", Record((400, 0, 0, 0)))
        hy_loaded.commit("qa")
        engine = hy_loaded
        for _ in range(2):
            assert keys(engine, "qa") == set(range(20)) | {400}
            assert engine.record_for_key("qa", 3) == original
            assert engine.record_for_key("master", 3).values == (3, 9, 9, 9)
            assert engine.record_for_key("qa", 300) is None
            assert keys(engine, "master") == set(range(20)) | {300}
            engine = reopen(engine, schema)
        assert engine._head_segment["master"] == kept

    def test_sixty_four_forks_replay_their_topology_and_share_one_codec(
        self, tmp_path, schema
    ):
        engine = HybridEngine(str(tmp_path / "hy"), schema, page_size=SMALL_PAGE_SIZE)
        engine.init(make_records(20))
        sixty_four_forks(engine)
        # The first fork of each run of eight froze master's head; the
        # other 56 kept it.
        assert engine.segment_count() == 1 + 8 + 64
        before = topology(engine)
        rows = {name: keys(engine, name) for name in engine.graph.branch_names()}
        reopened = reopen(engine, schema)
        assert topology(reopened) == before
        assert {name: keys(reopened, name) for name in rows} == rows
        assert {id(s.heap.codec) for s in reopened.segments.all()} == {
            id(reopened.codec)
        }

    def test_a_log_whose_forks_all_froze_reopens_with_that_topology(
        self, tmp_path, schema, monkeypatch
    ):
        """Branch events without a state froze the parent's head, as every
        hybrid fork did before empty heads were kept: such a log reopens
        with a frozen segment per fork."""
        real = HybridEngine._fork_segments

        def always_freeze(self, name, parent_branch, *, reopen=False, **_):
            real(self, name, parent_branch, reopen=reopen)

        with monkeypatch.context() as patch:
            patch.setattr(HybridEngine, "_fork_segments", always_freeze)
            engine = HybridEngine(
                str(tmp_path / "hy"), schema, page_size=SMALL_PAGE_SIZE
            )
            engine.init(make_records(20))
            sixty_four_forks(engine)
            before = topology(engine)
            rows = {name: keys(engine, name) for name in engine.graph.branch_names()}
            engine.close()
        assert len(before) == 1 + 2 * 64
        path = engine._graph_path()
        payloads = []
        for payload in read_framed(path):
            events = decode_events(payload)
            for event in events:
                if event["op"] == "create_branch":
                    event.pop("state", None)
            payloads.append(encode_events(events))
        with open(path, "wb") as handle:
            handle.write(b"".join(frame(payload) for payload in payloads))
        reopened = HybridEngine(engine.directory, schema, page_size=SMALL_PAGE_SIZE)
        reopened.load_persistent_state()
        assert topology(reopened) == before
        assert {name: keys(reopened, name) for name in rows} == rows


def rewrite_as_pre_fork_relative(engine):
    """Rewrite a closed engine's graph log into the form written before
    histories started at the fork: no branch event is marked
    ``fork_relative``, and each commit carries its deltas against its
    branch's previous commit, or against an empty state for the branch's
    first, so a child's first commit carries every inherited segment's
    bits.  The deltas come from the commits' read states."""
    numbers = engine._segment_numbers
    states, previous = {}, {}
    for commit in engine.graph.commits():
        before = previous.get(commit.branch, {})
        after = previous[commit.branch] = engine._commit_read_state(commit.commit_id)
        deltas = {}
        for segment_id in sorted(set(before) | set(after)):
            delta = before.get(segment_id, Bitmap()) ^ after.get(segment_id, Bitmap())
            if delta.any():
                deltas[numbers[segment_id]] = (len(delta), rle_encode(delta.to_bytes()))
        states[commit.sequence] = deltas
    path = engine._graph_path()
    payloads = []
    for payload in read_framed(path):
        events = decode_events(payload)
        for event in events:
            event.pop("fork_relative", None)
            if event["op"] in ("init", "commit", "merge"):
                event.pop("state", None)
                if states[event["sequence"]]:
                    event["state"] = states[event["sequence"]]
        payloads.append(encode_events(events))
    with open(path, "wb") as handle:
        handle.write(b"".join(frame(payload) for payload in payloads))


class TestOlderLogs:
    """A log written before histories started at the fork replays with its
    own meaning: a branch whose event is not marked fork-relative keeps
    histories that start empty."""

    @pytest.mark.parametrize("strict", ["1", "0"])
    def test_a_log_of_full_first_commits_reopens_with_the_same_answers(
        self, tmp_path, schema, strict, monkeypatch
    ):
        """Every branch and every commit of the rewritten log reads as the
        engine that wrote it did, in either recovery mode (a refusal
        would raise :class:`CorruptionError`).  Writes, commits and forks
        after the reopen, on branches of either form, read as their live
        bits, across a second reopen of the mixed log."""
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", strict)
        engine = HybridEngine(str(tmp_path / "hy"), schema, page_size=SMALL_PAGE_SIZE)
        engine.init(make_records(20))
        committed = fork_chain_history(engine)
        rows = {name: keys(engine, name) for name in engine.graph.branch_names()}
        engine.close()
        old_form = os.path.getsize(engine._graph_path())
        rewrite_as_pre_fork_relative(engine)
        assert os.path.getsize(engine._graph_path()) > old_form
        try:
            engine = HybridEngine(engine.directory, schema, page_size=SMALL_PAGE_SIZE)
            engine.load_persistent_state()
        except CorruptionError:
            return
        assert not any(branch.fork_relative for branch in engine.graph.branches())
        TestDirtyCommits.assert_reads_as_live(engine, committed)
        assert {name: keys(engine, name) for name in rows} == rows
        # "e" never committed: its first commit records every segment it
        # holds, as its histories start empty.  "f" forked over its
        # uncommitted insert and records only the segment holding it.
        engine.insert("e", Record((500, 0, 0, 0)))
        engine.delete("b", 1)
        engine.create_branch("f", from_branch="e")
        engine.create_branch("g", from_branch="b")
        engine.update("g", Record((2, 2, 2, 2)))
        for branch in ("e", "b", "f", "g", "master"):
            commit_id = engine.commit(branch)
            committed[commit_id] = engine._head_state(branch)
        e_state = engine.graph.commit_state(engine.graph.head("e"))
        assert len(e_state) == len(committed[engine.graph.head("e")])
        assert list(engine.graph.commit_state(engine.graph.head("f"))) == [
            engine._segment_numbers[engine.key_location("f", 500)[0]]
        ]
        rows = {name: keys(engine, name) for name in engine.graph.branch_names()}
        engine = reopen(engine, schema)
        TestDirtyCommits.assert_reads_as_live(engine, committed)
        assert {name: keys(engine, name) for name in rows} == rows


#: Steps of a generated hybrid history: (action, selector).
hybrid_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "update", "update", "rewrite", "delete", "commit",
             "fork", "fork-commit", "merge", "merge", "reopen"]
        ),
        st.integers(min_value=0, max_value=60),
    ),
    min_size=1,
    max_size=30,
)


class TestDirtyCommits:
    """A commit compares only the segments whose bits of its branch changed
    since its previous commit, or since its fork: a branch's histories start
    at its fork state."""

    @staticmethod
    def assert_reads_as_live(engine, committed):
        """Every commit's read state, and its Table 2 checkout, equals the
        live bits its branch held when it committed."""
        for commit_id, live in committed.items():
            assert engine._commit_read_state(commit_id) == live, commit_id
            assert engine.checkout_commit_bitmaps(commit_id) == live, commit_id

    @staticmethod
    def changed_segments(engine, before, after):
        """Numbers of the segments whose bits differ between two states."""
        return {
            engine._segment_numbers[segment_id]
            for segment_id in set(before) | set(after)
            if before.get(segment_id, Bitmap()) != after.get(segment_id, Bitmap())
        }

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(steps=hybrid_steps)
    def test_each_commit_reads_as_its_live_bits(
        self, tmp_path_factory, schema, steps
    ):
        """Each commit records the segments whose bits differ from the read
        state of its branch's previous head, its last commit or its fork
        commit, and nothing else; and each commit reads as the branch's live
        bits stood, live and after every reopen.  Forks chain off any
        branch, from heads holding uncommitted writes and from older
        commits, and merges go into any branch."""
        directory = str(tmp_path_factory.mktemp("hy"))
        engine = HybridEngine(directory, schema, page_size=SMALL_PAGE_SIZE)
        engine.init(make_records(12))
        #: commit id -> the committing branch's live bits at the commit.
        committed: dict[str, dict[str, Bitmap]] = {}

        def commit(branch, make_commit):
            before = engine._commit_read_state(engine.graph.head(branch))
            commit_id = make_commit()
            live = committed[commit_id] = engine._head_state(branch)
            state = engine.graph.commit_state(commit_id) or {}
            assert set(state) == self.changed_segments(engine, before, live)

        committed[engine.graph.head("master")] = engine._head_state("master")
        branches = ["master"]
        key = 100
        for action, n in steps:
            branch = branches[n % len(branches)]
            live = sorted(keys(engine, branch))
            if action == "insert":
                engine.insert(branch, Record((key, n, 0, 0)))
                key += 1
            elif action == "update" and live:
                engine.update(branch, Record((live[n % len(live)], -n, 0, 0)))
            elif action == "rewrite" and live:
                # An identical copy: merges pair it with the one it replaced.
                same = engine.record_for_key(branch, live[n % len(live)])
                engine.update(branch, same)
            elif action == "delete" and live:
                engine.delete(branch, live[n % len(live)])
            elif action == "commit":
                commit(branch, lambda: engine.commit(branch))
            elif action == "fork":
                name = f"b{len(branches)}"
                engine.create_branch(name, from_branch=branch)
                branches.append(name)
            elif action == "fork-commit":
                name = f"b{len(branches)}"
                commits = engine.graph.commits()
                engine.create_branch(
                    name, from_commit=commits[n % len(commits)].commit_id
                )
                branches.append(name)
            elif action == "merge" and len(branches) > 1:
                source = branches[(n + 1) % len(branches)]
                if source != branch:
                    commit(branch, lambda: engine.merge(branch, source).commit_id)
            elif action == "reopen":
                engine = reopen(engine, schema)
                self.assert_reads_as_live(engine, committed)
        for branch in branches:
            commit(branch, lambda: engine.commit(branch))
        self.assert_reads_as_live(engine, committed)
        engine = reopen(engine, schema)
        self.assert_reads_as_live(engine, committed)

    def test_fork_chains_read_as_their_live_bits(self, hy_loaded, schema):
        """A fork taken over a parent's uncommitted writes, a chain three
        forks deep, a fork from an older commit and merges into children:
        every commit reads as its branch's live bits, live and after two
        reopens, and each branch reopens with the rows it held."""
        engine = hy_loaded
        committed = fork_chain_history(engine)
        rows = {name: keys(engine, name) for name in engine.graph.branch_names()}
        assert rows["a"] == (set(range(20)) | {100, 101}) - {5}
        assert rows["d"] == (set(range(20)) | {100}) - {5}
        for _ in range(3):
            self.assert_reads_as_live(engine, committed)
            assert {name: keys(engine, name) for name in rows} == rows
            engine = reopen(engine, schema)

    def test_a_childs_first_insert_commit_records_one_segment(
        self, tmp_path, schema, monkeypatch
    ):
        """After 64 forks of master, a new child that only inserted commits
        with one ``record_commit`` call and one delta: its head's."""
        engine = HybridEngine(str(tmp_path / "hy"), schema, page_size=SMALL_PAGE_SIZE)
        engine.init(make_records(20))
        sixty_four_forks(engine)
        engine.create_branch("child", from_branch="master")
        engine.insert("child", Record((3000, 0, 0, 0)))
        calls = []
        real = CommitHistory.record_commit

        def counting(history, sequence, snapshot):
            calls.append(sequence)
            return real(history, sequence, snapshot)

        monkeypatch.setattr(CommitHistory, "record_commit", counting)
        commit_id = engine.commit("child")
        assert len(calls) == 1
        head = engine._segment_numbers[engine._head_segment["child"]]
        assert list(engine.graph.commit_state(commit_id)) == [head]
        assert keys(engine, "child") == keys(engine, "master") | {3000}

    def test_a_merge_retiring_an_identical_copy_records_its_segment(
        self, hy_loaded, schema
    ):
        """The target rewrote a key to the same values and committed; the
        source changed the key.  The merge retires the target's rewritten
        copy, in a head its last commit left clean, and the merge commit
        records that head."""
        hy_loaded.create_branch("dev", from_branch="master")
        hy_loaded.update("master", hy_loaded.record_for_key("master", 5))
        hy_loaded.commit("master")
        head = hy_loaded._head_segment["master"]
        hy_loaded.update("dev", Record((5, 1, 1, 1)))
        hy_loaded.commit("dev")
        merge = hy_loaded.merge("master", "dev")
        assert hy_loaded._segment_numbers[head] in hy_loaded.graph.commit_state(
            merge.commit_id
        )
        assert hy_loaded.checkout_commit_bitmaps(merge.commit_id).get(
            head, Bitmap()
        ) == hy_loaded._local_bitmaps[head].branch_bitmap("master")
        engine = reopen(hy_loaded, schema)
        assert engine.record_for_key("master", 5).values == (5, 1, 1, 1)
        assert keys(engine, "master") == set(range(20))

    def test_a_one_segment_commit_compares_one_segment(
        self, tmp_path, schema, monkeypatch
    ):
        """After 64 forks with master advancing, master spans 9 segments; a
        commit that changes one of them compares at most two, also as the
        first commit after a reopen."""
        engine = HybridEngine(str(tmp_path / "hy"), schema, page_size=SMALL_PAGE_SIZE)
        engine.init(make_records(20))
        sixty_four_forks(engine)
        assert len(engine._branch_scope("master")) == 9
        calls = []
        real = CommitHistory.record_commit

        def counting(history, sequence, snapshot):
            calls.append(sequence)
            return real(history, sequence, snapshot)

        monkeypatch.setattr(CommitHistory, "record_commit", counting)
        for value in (1, 2):
            del calls[:]
            engine.update("master", Record((1008, value, 1, 1)))
            engine.commit("master")
            assert 1 <= len(calls) <= 2
            engine = reopen(engine, schema)
