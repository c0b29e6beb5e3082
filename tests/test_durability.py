"""Tests for the crash-safe durability layer.

Covers the WAL's binary format and torn-tail repair, the atomic-write
protocol for metadata files, the version-graph log (torn, corrupt and
missing frames; one frame per commit), CRC corruption detection (structured
:class:`CorruptionError`, never a silent misread), strict vs degraded
recovery modes, and the fault-injection harness itself.
"""

import json
import os
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.durable import (
    FRAME_HEADER_SIZE,
    append_framed,
    atomic_write,
    drain_recovery_notes,
    dump_json_atomic,
    frame,
    load_checked_json,
    read_framed,
)
from repro.core.record import Record, RecordCodec
from repro.core.schema import Schema
from repro.core.wal import LogRecord, LogRecordType, WriteAheadLog
from repro.db.database import Decibel
from repro.errors import CorruptionError
from repro.storage import create_engine
from repro.testing.faults import FaultSchedule, InjectedCrash, crashpoint, inject
from repro.versioning.version_graph import VersionGraph, decode_events, encode_events


@pytest.fixture(autouse=True)
def _clean_notes():
    """Keep the module-level recovery-note log isolated per test."""
    drain_recovery_notes()
    yield
    drain_recovery_notes()


def write_log(path, count=3):
    wal = WriteAheadLog(path)
    for txn in range(1, count + 1):
        wal.append(LogRecord(LogRecordType.BEGIN, txn))
        wal.append(
            LogRecord(
                LogRecordType.WRITE,
                txn,
                branch="master",
                payload={"kind": "insert", "values": [txn, 0]},
            )
        )
        wal.append_group(LogRecord(LogRecordType.COMMIT, txn))
    return wal


class TestWalTornTail:
    def test_byte_truncated_final_record_is_repaired(self, tmp_path):
        """Regression: a partial final record must not crash the log open."""
        path = str(tmp_path / "wal.log")
        full = len(write_log(path).records())
        os.truncate(path, os.path.getsize(path) - 3)
        reopened = WriteAheadLog(path)
        assert len(reopened.records()) == full - 1
        assert any("torn" in note for note in drain_recovery_notes())
        # The file itself is truncated back to the record boundary, so a
        # second open sees a clean log with no further repair.
        again = WriteAheadLog(path)
        assert len(again.records()) == full - 1
        assert drain_recovery_notes() == []

    def test_truncation_mid_header(self, tmp_path):
        path = str(tmp_path / "wal.log")
        full = len(write_log(path).records())
        os.truncate(path, os.path.getsize(path) - 1)
        assert len(WriteAheadLog(path).records()) == full - 1

    def test_torn_write_via_fault_injection(self, tmp_path):
        """The harness's torn-write mode produces a recoverable log."""
        path = str(tmp_path / "wal.log")
        wal = write_log(path, count=2)
        with inject(FaultSchedule("wal-group-commit-pre-fsync", torn_bytes=4)):
            with pytest.raises(InjectedCrash):
                wal.append_group(LogRecord(LogRecordType.COMMIT, 99))
        reopened = WriteAheadLog(path)
        assert 99 not in {r.transaction_id for r in reopened.records()}
        report = reopened.replay()
        assert report.committed == {1, 2}


class TestWalCorruption:
    def test_bit_flip_mid_log_raises_structured_error(self, tmp_path):
        """A corrupt record with valid data after it must raise, not truncate."""
        path = str(tmp_path / "wal.log")
        write_log(path)
        with open(path, "r+b") as handle:
            handle.seek(12)  # inside the first record's payload
            byte = handle.read(1)
            handle.seek(12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CorruptionError) as info:
            WriteAheadLog(path)
        assert info.value.file == path
        assert info.value.expected is not None
        assert info.value.actual is not None
        assert info.value.expected != info.value.actual

    def test_bit_flip_degraded_mode_truncates_with_note(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", "0")
        path = str(tmp_path / "wal.log")
        write_log(path)
        with open(path, "r+b") as handle:
            handle.seek(12)
            byte = handle.read(1)
            handle.seek(12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        reopened = WriteAheadLog(path)
        assert reopened.records() == []
        assert any("CRC32 mismatch" in note for note in drain_recovery_notes())

    def test_garbage_tail_is_a_clean_tear_even_in_strict_mode(self, tmp_path):
        path = str(tmp_path / "wal.log")
        full = len(write_log(path).records())
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef garbage that frames nothing")
        reopened = WriteAheadLog(path)
        assert len(reopened.records()) == full


class TestWalCheckpoint:
    def test_checkpoint_truncates_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = write_log(path)
        wal.checkpoint()
        reopened = WriteAheadLog(path)
        assert [r.type for r in reopened.records()] == [LogRecordType.CHECKPOINT]

    def test_crash_mid_checkpoint_preserves_old_log(self, tmp_path):
        """Regression: checkpoint must never leave a half-written log."""
        path = str(tmp_path / "wal.log")
        wal = write_log(path)
        before = [r.to_json() for r in wal.records()]
        for point in ("wal-checkpoint-mid-write", "wal-checkpoint-pre-rename"):
            with inject(FaultSchedule(point)):
                with pytest.raises(InjectedCrash):
                    wal.checkpoint()
            reopened = WriteAheadLog(path)
            assert [r.to_json() for r in reopened.records()] == before


class TestAtomicWrite:
    def test_replaces_content(self, tmp_path):
        path = str(tmp_path / "meta.json")
        atomic_write(path, b"old")
        atomic_write(path, b"new")
        with open(path, "rb") as handle:
            assert handle.read() == b"new"

    @pytest.mark.parametrize("point", ["meta-mid-write", "meta-pre-rename"])
    def test_crash_leaves_old_file_intact(self, tmp_path, point):
        path = str(tmp_path / "meta.json")
        atomic_write(path, b"the old complete payload", label="meta")
        with inject(FaultSchedule(point)):
            with pytest.raises(InjectedCrash):
                atomic_write(path, b"the new payload", label="meta")
        with open(path, "rb") as handle:
            assert handle.read() == b"the old complete payload"

    def test_checked_json_round_trip(self, tmp_path):
        path = str(tmp_path / "meta.json")
        payload = {"alpha": [1, 2, 3], "beta": {"nested": True}}
        dump_json_atomic(path, payload)
        assert load_checked_json(path) == payload

    def test_bit_flipped_metadata_detected(self, tmp_path):
        path = str(tmp_path / "meta.json")
        dump_json_atomic(path, {"value": 12345})
        with open(path, "r+b") as handle:
            data = bytearray(handle.read())
        # Flip a digit inside the stamped payload without breaking the JSON.
        index = data.index(b"12345")
        data[index] = ord("9")
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(CorruptionError) as info:
            load_checked_json(path)
        assert info.value.file == path
        assert info.value.expected != info.value.actual

    def test_legacy_unstamped_file_loads(self, tmp_path):
        path = str(tmp_path / "meta.json")
        with open(path, "w") as handle:
            json.dump({"legacy": True}, handle)
        assert load_checked_json(path) == {"legacy": True}


class TestFramedLog:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "entries.log")
        payloads = [b"first", b"second", b"third"]
        for payload in payloads:
            append_framed(path, payload)
        assert read_framed(path) == payloads

    def test_torn_tail_truncated(self, tmp_path):
        path = str(tmp_path / "entries.log")
        append_framed(path, b"survives")
        append_framed(path, b"torn away")
        os.truncate(path, os.path.getsize(path) - 2)
        assert read_framed(path) == [b"survives"]

    def test_mid_log_corruption_raises_in_strict_mode(self, tmp_path):
        path = str(tmp_path / "entries.log")
        append_framed(path, b"first record here")
        append_framed(path, b"second record here")
        with open(path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff")
        with pytest.raises(CorruptionError):
            read_framed(path)


def saved_graph(path):
    """A version graph saved once per mutation: one log frame each."""
    graph = VersionGraph()
    graph.init()
    graph.save(path)
    graph.create_branch("dev")
    graph.save(path)
    for branch in ("dev", "master", "dev"):
        graph.commit(branch)
        graph.save(path)
    return graph


def rewrite_frames(path, transform):
    """Rewrite the framed log at ``path`` as ``transform(payloads)``."""
    payloads = transform(read_framed(path))
    with open(path, "wb") as handle:
        handle.write(b"".join(frame(payload) for payload in payloads))


def flip_frame_byte(path, index):
    """Flip one payload byte of frame ``index`` of the framed log at ``path``."""
    start = sum(len(frame(payload)) for payload in read_framed(path)[:index])
    with open(path, "r+b") as handle:
        handle.seek(start + FRAME_HEADER_SIZE + 2)
        byte = handle.read(1)
        handle.seek(start + FRAME_HEADER_SIZE + 2)
        handle.write(bytes([byte[0] ^ 0x01]))


ENGINES = ["tuple-first", "version-first", "hybrid"]

#: Bytes per record of the two-integer relations below.
RECORD_SIZE = RecordCodec(Schema.of_ints(2)).record_size


def checkouts(rel):
    """Commit id -> the sorted rows a checkout of that commit returns."""
    return {
        commit.commit_id: sorted(r.values for r in rel.checkout(commit.commit_id))
        for commit in rel.graph.commits()
    }


def committed_dataset(directory, engine):
    """A closed relation ``t`` whose graph log holds one frame per step:
    init (v000001), branch dev, then commits v000002 (master, key 200),
    v000003 (dev, key 201) and v000004 (master, key 202).  Returns its
    per-commit checkouts."""
    db = Decibel(str(directory), engine=engine)
    rel = db.create_relation("t", Schema.of_ints(2))
    rel.init([Record((key, key)) for key in range(10)])
    rel.branch("dev")
    for branch, key in (("master", 200), ("dev", 201), ("master", 202)):
        rel.insert(branch, (key, key))
        rel.commit(branch)
    result = checkouts(rel)
    db.close()
    return result


def branch_rows(db, branch):
    return sorted(r.values for r in db.relation("t").scan(branch))


class TestVersionGraphLog:
    def test_torn_final_frame_lands_on_previous_commit(self, tmp_path):
        path = str(tmp_path / "version_graph.log")
        graph = saved_graph(path)
        before_last = graph.head("dev")
        graph.commit("master")
        graph.save(path)
        os.truncate(path, os.path.getsize(path) - 3)
        restored = VersionGraph.load(path)
        assert restored.heads() == {"master": "v000003", "dev": before_last}
        assert any("torn version graph" in n for n in drain_recovery_notes())

    def test_flipped_byte_in_middle_frame_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", "1")
        path = str(tmp_path / "version_graph.log")
        saved_graph(path)
        first = len(frame(read_framed(path)[0]))
        with open(path, "r+b") as handle:
            handle.seek(first + FRAME_HEADER_SIZE + 2)
            byte = handle.read(1)
            handle.seek(first + FRAME_HEADER_SIZE + 2)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(CorruptionError):
            VersionGraph.load(path)

    def test_dropped_middle_frame_raises_on_id_mismatch(self, tmp_path):
        path = str(tmp_path / "version_graph.log")
        saved_graph(path)
        # Frame 2 is dev's first commit: without it, master's commit
        # replays to that commit's id instead of its own.
        rewrite_frames(path, lambda payloads: payloads[:2] + payloads[3:])
        with pytest.raises(CorruptionError) as info:
            VersionGraph.load(path)
        assert info.value.expected == "v000003"
        assert info.value.actual == "v000002"

    @pytest.mark.parametrize("engine", ["tuple-first", "version-first", "hybrid"])
    def test_commit_appends_one_frame_and_rewrites_nothing(self, tmp_path, engine):
        db = Decibel(str(tmp_path), engine=engine)
        rel = db.create_relation("t", Schema.of_ints(2))
        rel.init([Record((key, key)) for key in range(10)])
        rel.branch("dev")
        with inject() as injector:
            rel.insert("dev", (100, 1))
            rel.commit("dev")
        assert injector.counts["graph-persist-pre-fsync"] == 1
        assert not [p for p in injector.counts if p.endswith("-pre-rename")]
        names = set(os.listdir(tmp_path / "t"))
        assert "version_graph.log" in names
        assert not names & {
            "version_graph.json",
            "commit_locations.json",
            "hybrid_meta.log",
        }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_torn_final_frame_reverts_engine_to_previous_commit(
        self, tmp_path, engine
    ):
        """The torn commit's data is invisible after reopen, and its id is
        reused by the next commit without colliding with leftover state."""
        before = committed_dataset(tmp_path, engine)
        path = tmp_path / "t" / "version_graph.log"
        os.truncate(path, os.path.getsize(path) - 3)
        db = Decibel.open(str(tmp_path), engine=engine)
        rel = db.relation("t")
        assert rel.graph.heads() == {"master": "v000002", "dev": "v000003"}
        assert branch_rows(db, "master") == before["v000002"]
        assert any("torn version graph" in n for n in db.last_recovery.notes)
        rel.insert("master", (203, 203))
        assert rel.commit("master") == "v000004"
        db.close()
        again = Decibel.open(str(tmp_path), engine=engine)
        assert branch_rows(again, "master") == sorted(
            before["v000002"] + [(203, 203)]
        )
        assert branch_rows(again, "dev") == before["v000003"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_flipped_middle_frame_fails_open_in_strict_mode(
        self, tmp_path, engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", "1")
        committed_dataset(tmp_path, engine)
        flip_frame_byte(tmp_path / "t" / "version_graph.log", 3)
        with pytest.raises(CorruptionError):
            Decibel.open(str(tmp_path), engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_flipped_middle_frame_degrades_to_the_prefix(
        self, tmp_path, engine, monkeypatch
    ):
        """Degraded recovery cuts the log at the corrupt frame: every branch
        lands on its last commit before it, storage included."""
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", "0")
        before = committed_dataset(tmp_path, engine)
        flip_frame_byte(tmp_path / "t" / "version_graph.log", 3)
        db = Decibel.open(str(tmp_path), engine=engine)
        assert db.relation("t").graph.heads() == {
            "master": "v000002",
            "dev": "v000001",
        }
        assert branch_rows(db, "master") == before["v000002"]
        assert branch_rows(db, "dev") == before["v000001"]
        assert any("version graph" in n for n in db.last_recovery.notes)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_dropped_middle_frame_fails_open(self, tmp_path, engine):
        committed_dataset(tmp_path, engine)
        # Frame 3 is dev's commit v000003: master's next commit then replays
        # to that id instead of its own.
        rewrite_frames(
            tmp_path / "t" / "version_graph.log",
            lambda payloads: payloads[:3] + payloads[4:],
        )
        with pytest.raises(CorruptionError):
            Decibel.open(str(tmp_path), engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_commit_checks_out_the_same_after_reopen(self, tmp_path, engine):
        """Each commit's engine state is read back from its own graph event,
        including merge commits and a branch taken off a historical one."""
        committed_dataset(tmp_path, engine)
        db = Decibel.open(str(tmp_path), engine=engine)
        rel = db.relation("t")
        rel.merge("master", "dev")
        rel.branch("old", from_commit="v000002")
        rel.insert("old", (300, 300))
        rel.commit("old")
        before = checkouts(rel)
        db.close()
        rel = Decibel.open(str(tmp_path), engine=engine).relation("t")
        assert checkouts(rel) == before
        # Every commit changed its branch, so every engine's event carries
        # state: a segment offset, or the changed bitmaps' deltas.
        for commit in rel.graph.commits():
            assert rel.graph.commit_state(commit.commit_id) is not None


    @pytest.mark.parametrize("engine", ENGINES)
    def test_reinit_over_a_reused_directory_reopens_to_the_new_data(
        self, tmp_path, engine
    ):
        """A fresh engine object that re-``init``s a directory holding an
        older dataset starts a new graph log and empty heaps, and a reopen
        restores the new dataset, never the old one's records or commit
        snapshots."""
        schema = Schema.of_ints(2)
        directory = str(tmp_path / "t")
        old = create_engine(engine, directory, schema)
        old.init([Record((key, 1)) for key in range(5)])
        for _ in range(3):
            old.commit("master")
        old.close()
        new = create_engine(engine, directory, schema)
        new.init([Record((key, 2)) for key in range(100, 103)])
        expected = sorted(r.values for r in new.scan_branch("master"))
        assert expected == [(key, 2) for key in range(100, 103)]
        new.close()
        reopened = create_engine(engine, directory, schema)
        reopened.load_persistent_state()
        assert sorted(r.values for r in reopened.scan_branch("master")) == expected
        head = reopened.graph.head("master")
        assert sorted(r.values for r in reopened.scan_commit(head)) == expected
        heaps = (
            [reopened.heap]
            if engine == "tuple-first"
            else [segment.heap for segment in reopened.segments.all()]
        )
        stored = sorted(r.values for heap in heaps for r in heap.scan_records())
        assert stored == expected


class TestCommittedRecordsOnDisk:
    """Reopen checks that each heap still holds every record its restored
    head commits reference.  A heap cut below that raises in strict mode;
    degraded mode notes the loss, and reads answer from the records that
    remain instead of failing later."""

    @staticmethod
    def head_heap_path(directory, engine):
        relation = os.path.join(str(directory), "t")
        if engine == "tuple-first":
            return os.path.join(relation, "data.heap")
        # Master's first head segment holds the ten initial rows.
        return os.path.join(relation, "segments", "seg00000.seg")

    @staticmethod
    def cut_to_records(path, records):
        """Cut the heap file to its count and first ``records`` records,
        as a damaged disk might; the count still names all of them."""
        os.truncate(path, 4 + records * RECORD_SIZE)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_heap_cut_below_its_commits_fails_open_in_strict_mode(
        self, tmp_path, engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", "1")
        committed_dataset(tmp_path, engine)
        self.cut_to_records(self.head_heap_path(tmp_path, engine), 6)
        with pytest.raises(CorruptionError, match="fewer records than its commits"):
            Decibel.open(str(tmp_path), engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_heap_cut_below_its_commits_degrades_with_a_note(
        self, tmp_path, engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", "0")
        committed_dataset(tmp_path, engine)
        self.cut_to_records(self.head_heap_path(tmp_path, engine), 6)
        db = Decibel.open(str(tmp_path), engine=engine)
        notes = db.last_recovery.notes
        assert any("fewer records than its commits" in n for n in notes), notes
        # Every read answers from the records that remain; none fails.
        rel = db.relation("t")
        for branch in ("master", "dev"):
            rows = branch_rows(db, branch)
            assert {(key, key) for key in range(6)} <= set(rows)
            assert not {(key, key) for key in range(6, 10)} & set(rows)
            for key, _ in rows:
                assert rel.engine.record_for_key(branch, key).values == (key, key)
            count = db.query(
                f"SELECT COUNT(*) FROM t WHERE t.Version = '{branch}'"
            ).rows[0][0]
            assert count == len(rows)



#: Steps of a generated single-relation history: (action, selector).
history_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "update", "delete", "commit", "commit", "unchanged-commit",
             "branch", "historic-branch", "merge"]
        ),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=1,
    max_size=24,
)


class TestCommitStatesInTheGraph:
    """The commit states the graph events carry are all a reopen needs."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(steps=history_steps)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_generated_histories_check_out_the_same_after_reopen(
        self, tmp_path_factory, engine, steps
    ):
        """Writes, commits that change nothing, branches off heads and off
        historical commits, and merges: after a reopen every commit checks
        out as before, and every branch stands at its head commit.  Branches
        and merges read committed state only: every branch commits first."""
        directory = str(tmp_path_factory.mktemp("db"))
        db = Decibel(directory, engine=engine)
        rel = db.create_relation("t", Schema.of_ints(2))
        rel.init([Record((key, key)) for key in range(8)])
        branches = ["master"]

        def commit_all():
            for name in branches:
                rel.commit(name)

        for action, n in steps:
            branch = branches[n % len(branches)]
            keys = sorted(r.values[0] for r in rel.scan(branch))
            if action == "insert" and 100 + n not in keys:
                rel.insert(branch, (100 + n, n))
            elif action == "update" and keys:
                rel.update(branch, (keys[n % len(keys)], -n))
            elif action == "delete" and keys:
                rel.delete(branch, keys[n % len(keys)])
            elif action == "commit":
                rel.commit(branch)
            elif action == "unchanged-commit":
                rel.commit(branch)
                rel.commit(branch)
            elif action == "branch":
                commit_all()
                rel.branch(f"b{len(branches)}", from_branch=branch)
                branches.append(f"b{len(branches)}")
            elif action == "historic-branch":
                commit_all()
                commits = rel.graph.commits()
                rel.branch(
                    f"b{len(branches)}", from_commit=commits[n % len(commits)].commit_id
                )
                branches.append(f"b{len(branches)}")
            elif action == "merge" and len(branches) > 1:
                source = branches[(n + 1) % len(branches)]
                if source != branch:
                    commit_all()
                    rel.merge(branch, source)
        before = checkouts(rel)
        db.close()
        reopened = Decibel.open(directory, engine=engine)
        rel = reopened.relation("t")
        assert checkouts(rel) == before
        for branch in branches:
            head = rel.graph.head(branch)
            assert sorted(r.values for r in rel.scan(branch)) == before[head]

    @pytest.mark.parametrize("engine", ["tuple-first", "hybrid"])
    def test_commit_metadata_bytes_are_the_recorded_delta_payloads(
        self, tmp_path, engine
    ):
        """``commit_metadata_bytes`` sums the RLE payloads of the deltas the
        graph events carry, live and after a reopen."""
        committed_dataset(tmp_path, engine)
        rel = Decibel.open(str(tmp_path), engine=engine).relation("t")
        rel.commit("master")  # changes nothing: records no delta
        payload_bytes = 0
        for commit in rel.graph.commits():
            state = rel.graph.commit_state(commit.commit_id)
            deltas = [] if state is None else [state]
            if isinstance(state, dict):
                deltas = list(state.values())
            for _, rle in deltas:
                payload_bytes += len(rle)
        assert payload_bytes > 0
        assert rel.engine.commit_metadata_bytes() == payload_bytes
        reopened = Decibel.open(str(tmp_path), engine=engine).relation("t")
        assert reopened.engine.commit_metadata_bytes() == payload_bytes

    @pytest.mark.parametrize("engine", ["tuple-first", "hybrid"])
    def test_a_one_row_change_inlines_a_short_delta(self, tmp_path, engine):
        """A commit that changes one row of a 4000-row branch carries a delta
        of a few dozen bytes, not a snapshot of the bitmap."""
        db = Decibel(str(tmp_path), engine=engine)
        rel = db.create_relation("t", Schema.of_ints(2))
        rel.init([Record((key, key)) for key in range(4000)])
        rel.delete("master", 1234)
        commit_id = rel.commit("master")
        (event,) = decode_events(read_framed(rel.engine._graph_path())[-1])
        assert event["state"] == rel.graph.commit_state(commit_id)
        assert len(encode_events([event])) < 40, event


class TestFaultHarness:
    def test_fires_on_nth_hit(self):
        with inject(FaultSchedule("point", hit=3)) as injector:
            crashpoint("point")
            crashpoint("point")
            with pytest.raises(InjectedCrash):
                crashpoint("point")
        assert injector.fired is not None
        assert injector.counts["point"] == 3

    def test_death_is_permanent(self):
        with inject(FaultSchedule("lethal")):
            with pytest.raises(InjectedCrash):
                crashpoint("lethal")
            # Any later crashpoint -- e.g. one reached from a finally block --
            # also dies: a dead process cannot keep writing.
            with pytest.raises(InjectedCrash):
                crashpoint("unrelated")

    def test_inert_when_unarmed(self):
        crashpoint("anything")  # must be a no-op

    def test_nesting_rejected(self):
        with inject(FaultSchedule("a")):
            with pytest.raises(RuntimeError):
                with inject(FaultSchedule("b")):
                    pass

    def test_torn_bytes_truncate_target(self, tmp_path):
        path = str(tmp_path / "file.bin")
        with open(path, "wb") as handle:
            handle.write(b"0123456789")
        with inject(FaultSchedule("tear", torn_bytes=4)):
            with pytest.raises(InjectedCrash):
                crashpoint("tear", path=path)
        assert os.path.getsize(path) == 6


def test_wal_crc_framing_is_what_it_claims(tmp_path):
    """White-box check of the on-disk framing documented in the module."""
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    record = LogRecord(LogRecordType.BEGIN, 7)
    wal.append(record)
    with open(path, "rb") as handle:
        raw = handle.read()
    crc = int.from_bytes(raw[0:4], "little")
    length = int.from_bytes(raw[4:8], "little")
    payload = raw[8 : 8 + length]
    assert zlib.crc32(payload) == crc
    assert LogRecord.from_json(payload.decode()) == record
