"""Tests for the write-ahead log."""

import builtins
import gc
import os
import sys
import threading
import types

import repro.db.database as database_module
from repro.core.durable import drain_recovery_notes
from repro.core.record import Record
from repro.core.schema import Schema
from repro.core.wal import LogRecord, LogRecordType, WriteAheadLog
from repro.db.database import Decibel
from repro.server import DecibelClient, ServerConfig, ServerThread


class TestLogRecord:
    def test_json_roundtrip(self):
        record = LogRecord(LogRecordType.WRITE, 7, branch="dev", payload="insert")
        assert LogRecord.from_json(record.to_json()) == record

    def test_json_roundtrip_minimal(self):
        record = LogRecord(LogRecordType.BEGIN, 1)
        restored = LogRecord.from_json(record.to_json())
        assert restored.branch is None and restored.payload is None


class TestWriteAheadLog:
    def test_in_memory_append(self):
        wal = WriteAheadLog.in_memory()
        wal.append(LogRecord(LogRecordType.BEGIN, 1))
        assert len(wal) == 1

    def test_file_backed_persistence(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(LogRecord(LogRecordType.BEGIN, 1))
        wal.append(LogRecord(LogRecordType.COMMIT, 1))
        reopened = WriteAheadLog(path)
        assert len(reopened) == 2
        assert reopened.records()[1].type is LogRecordType.COMMIT

    def test_replay_classifies_transactions(self):
        wal = WriteAheadLog.in_memory()
        wal.append(LogRecord(LogRecordType.BEGIN, 1))
        wal.append(LogRecord(LogRecordType.COMMIT, 1))
        wal.append(LogRecord(LogRecordType.BEGIN, 2))
        wal.append(LogRecord(LogRecordType.ABORT, 2))
        wal.append(LogRecord(LogRecordType.BEGIN, 3))  # crashed mid-flight
        report = wal.replay()
        assert report.committed == {1}
        assert report.aborted == {2}
        assert report.in_flight == {3}
        assert report.losers == {2, 3}

    def test_checkpoint_truncates(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        for i in range(5):
            wal.append(LogRecord(LogRecordType.BEGIN, i))
        wal.checkpoint()
        assert len(wal) == 1
        assert WriteAheadLog(path).records()[0].type is LogRecordType.CHECKPOINT

    def test_abort_after_commit_is_not_redone(self, tmp_path):
        """A COMMIT whose committer then logged ABORT (the commit raised)
        is a loser: recovery neither redoes it nor keeps its writes."""
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        log_transaction(wal, 1, [1], applied=False)
        wal.append(LogRecord(LogRecordType.ABORT, 1, relation="r"))
        wal.close()
        report, redo = WriteAheadLog(path).take_recovery()
        assert report.committed == report.aborted == {1}
        assert report.needs_redo == set()
        assert redo == {}

    def test_replay_empty_log(self):
        report = WriteAheadLog.in_memory().replay()
        assert not report.committed and not report.losers


class TestGroupCommit:
    """append_group: concurrent committers share one fsync (leader batches)."""

    def test_single_appender_still_syncs(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.append_group(LogRecord(LogRecordType.COMMIT, 1))
        assert wal.fsync_count >= 1
        assert wal.group_batches >= 1
        reopened = WriteAheadLog(str(tmp_path / "wal.log"))
        assert reopened.records()[-1].type is LogRecordType.COMMIT

    def test_concurrent_committers_share_fsyncs(self, tmp_path):
        import threading

        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        committers = 16
        barrier = threading.Barrier(committers)

        def commit(txn_id):
            barrier.wait(timeout=10)
            wal.append_group(LogRecord(LogRecordType.COMMIT, txn_id))

        threads = [
            threading.Thread(target=commit, args=(i,)) for i in range(committers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        # Everyone is durable...
        reopened = WriteAheadLog(str(tmp_path / "wal.log"))
        assert len(reopened.records()) == committers
        # ...but the log fsynced fewer times than there were committers:
        # at least one batch covered multiple COMMIT records.
        assert wal.fsync_count < committers, (
            f"{wal.fsync_count} fsyncs for {committers} committers -- "
            "group commit never batched"
        )
        assert wal.group_batches == wal.fsync_count

    def test_unsynced_buffered_records_ride_the_group_fsync(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.append(LogRecord(LogRecordType.BEGIN, 1))
        wal.append(LogRecord(LogRecordType.WRITE, 1, branch="master"))
        # Plain appends buffer without an fsync; the COMMIT fsync covers them.
        assert wal.fsync_count == 0
        wal.append_group(LogRecord(LogRecordType.COMMIT, 1))
        assert wal.fsync_count == 1
        reopened = WriteAheadLog(str(tmp_path / "wal.log"))
        assert [r.type for r in reopened.records()] == [
            LogRecordType.BEGIN,
            LogRecordType.WRITE,
            LogRecordType.COMMIT,
        ]


# -- what a log keeps in memory ------------------------------------------------


def reachable_log_records(root) -> list[LogRecord]:
    """Every LogRecord reachable from ``root`` through object state.

    Types, modules and functions are not followed, so the walk stays inside
    ``root``'s own data instead of reaching the whole interpreter.
    """
    opaque = (
        type,
        types.ModuleType,
        types.FunctionType,
        types.BuiltinFunctionType,
    )
    found: list[LogRecord] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        if isinstance(obj, LogRecord):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def log_transaction(wal, txn, writes, *, applied=True):
    """BEGIN, ``writes`` WRITE records and a group-committed COMMIT for
    ``txn`` on relation ``r``, then APPLIED unless ``applied`` is false."""
    wal.append(LogRecord(LogRecordType.BEGIN, txn, relation="r"))
    for key in writes:
        wal.append(
            LogRecord(
                LogRecordType.WRITE,
                txn,
                branch="master",
                payload={"kind": "insert", "values": [key, key]},
                relation="r",
            )
        )
    wal.append_group(LogRecord(LogRecordType.COMMIT, txn, relation="r"))
    if applied:
        wal.append(LogRecord(LogRecordType.APPLIED, txn, relation="r"))


class TestRetention:
    """A live log holds its records as frames only; the open-time pass keeps
    only the writes recovery must redo."""

    def test_walk_finds_records_it_can_reach(self):
        record = LogRecord(LogRecordType.BEGIN, 1)
        assert reachable_log_records({"held": [record]}) == [record]

    def test_embedded_commits_leave_no_decoded_record(self, tmp_path):
        db = Decibel(str(tmp_path / "data"))
        db.create_relation("r", Schema.of_ints(2)).init([Record((0, 0))])
        manager = db.transactions("r")
        for key in range(1, 201):
            txn = manager.begin()
            txn.insert("master", Record((key, key)))
            txn.commit()
        assert len(db.wal) == 200 * 4
        assert reachable_log_records(db.wal) == []
        db.close()

    def test_served_commits_leave_no_decoded_record(self, tmp_path):
        db = Decibel(str(tmp_path / "data"))
        db.create_relation("r", Schema.of_ints(2)).init([Record((0, 0))])
        server = ServerThread(db, ServerConfig(worker_threads=2), own_db=True)
        host, port = server.start()
        try:
            with DecibelClient(host, port) as client:
                client.connect()
                for key in range(1, 201):
                    client.insert("r", [key, key])
                    client.commit(f"row {key}")
            assert db.wal.replay().committed == set(range(1, 201))
            assert reachable_log_records(db.wal) == []
        finally:
            server.stop()

    def test_open_keeps_only_the_writes_to_redo(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "data")
        db = Decibel(directory)
        db.create_relation("r", Schema.of_ints(2)).init([Record((0, 0))])
        db.close()
        wal = WriteAheadLog(os.path.join(directory, "wal.log"))
        for txn in range(1, 201):
            log_transaction(wal, txn, [10_000 + txn])
        # Committed (its COMMIT is fsynced) but never applied: a crash
        # between the commit point and the engine commit leaves this.
        log_transaction(wal, 201, [1, 2, 3], applied=False)
        wal.close()

        reopened = WriteAheadLog(os.path.join(directory, "wal.log"))
        held = reachable_log_records(reopened)
        assert sorted(r.payload["values"][0] for r in held) == [1, 2, 3]
        assert {r.transaction_id for r in held} == {201}
        assert reopened.max_transaction_id() == 201
        reopened.close()

        redone = []
        original = database_module.redo_write

        def counting_redo(engine, branch, payload):
            redone.append(payload["values"][0])
            return original(engine, branch, payload)

        monkeypatch.setattr(database_module, "redo_write", counting_redo)
        db = Decibel.open(directory)
        assert db.last_recovery.needs_redo == {201}
        assert redone == [1, 2, 3]
        assert reachable_log_records(db.wal) == []
        rows = sorted(r.values for r in db.relation("r").scan("master"))
        assert rows == [(0, 0), (1, 1), (2, 2), (3, 3)]
        db.close()
        again = Decibel.open(directory)
        assert again.last_recovery.needs_redo == set()
        assert redone == [1, 2, 3]
        again.close()

    def test_live_log_reads_match_a_fresh_open(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)

        def assert_matches_fresh():
            fresh = WriteAheadLog(path)
            assert wal.records() == fresh.records()
            assert len(wal) == len(fresh)
            assert wal.replay() == fresh.replay()
            assert wal.max_transaction_id() == fresh.max_transaction_id()
            fresh.close()

        log_transaction(wal, 1, [1, 2])
        log_transaction(wal, 2, [3], applied=False)
        wal.append(LogRecord(LogRecordType.BEGIN, 3))
        wal.append(LogRecord(LogRecordType.ABORT, 3))
        wal.append(LogRecord(LogRecordType.BEGIN, 4))
        assert_matches_fresh()
        assert len(wal) == 11
        wal.checkpoint()
        assert_matches_fresh()
        log_transaction(wal, 5, [4])
        assert_matches_fresh()
        assert [r.type for r in wal.records()][:2] == [
            LogRecordType.CHECKPOINT,
            LogRecordType.BEGIN,
        ]
        wal.close()

    def test_reading_a_torn_live_log_does_not_repair_it(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        for txn in (1, 2):
            log_transaction(wal, txn, [txn])
        full = len(wal)
        os.truncate(path, os.path.getsize(path) - 3)
        size = os.path.getsize(path)
        assert len(wal.records()) == full - 1
        assert len(wal) == full - 1
        assert wal.replay().committed == {1, 2}
        assert os.path.getsize(path) == size
        assert drain_recovery_notes() == []
        wal.close()


class TestAppendHandle:
    def test_appends_and_a_group_commit_open_the_file_once(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "wal.log")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if file == path:
                opened.append(args[0] if args else kwargs.get("mode", "r"))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        wal = WriteAheadLog(path)
        wal.append(LogRecord(LogRecordType.BEGIN, 1))
        for key in range(10):
            wal.append(LogRecord(LogRecordType.WRITE, 1, payload=key))
        wal.append_group(LogRecord(LogRecordType.COMMIT, 1))
        wal.append(LogRecord(LogRecordType.APPLIED, 1))
        assert opened == ["ab"]
        assert wal.fsync_count == 1
        # A checkpoint renames a new file over the log; the next append
        # opens that file once and lands in it.
        wal.checkpoint()
        wal.append(LogRecord(LogRecordType.BEGIN, 2))
        wal.append_group(LogRecord(LogRecordType.COMMIT, 2))
        assert opened == ["ab", "ab"]
        monkeypatch.undo()
        assert [r.type for r in WriteAheadLog(path).records()] == [
            LogRecordType.CHECKPOINT,
            LogRecordType.BEGIN,
            LogRecordType.COMMIT,
        ]
        wal.close()

    def test_group_commits_race_checkpoints_and_closes(self, tmp_path):
        """Committers share the append handle while other threads replace
        it (checkpoint) and close it: no fsync ever meets a closed handle,
        and every frame on disk stays whole."""
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        committers, commits = 8, 25
        errors: list[BaseException] = []
        done = threading.Event()

        def commit(worker):
            try:
                for i in range(commits):
                    txn = worker * commits + i + 1
                    wal.append(LogRecord(LogRecordType.BEGIN, txn))
                    wal.append_group(LogRecord(LogRecordType.COMMIT, txn))
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        def churn():
            try:
                while not done.is_set():
                    wal.checkpoint()
                    wal.close()
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=commit, args=(w,)) for w in range(committers)
            ]
            churner = threading.Thread(target=churn)
            churner.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            done.set()
            churner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [churner])
        assert errors == []
        wal.append_group(LogRecord(LogRecordType.COMMIT, 10_000))
        fresh = WriteAheadLog(path)
        assert fresh.records() == wal.records()
        assert fresh.records()[0].type is LogRecordType.CHECKPOINT
        assert fresh.records()[-1].transaction_id == 10_000
        assert drain_recovery_notes() == []
        fresh.close()
        wal.close()
