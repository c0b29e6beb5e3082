"""Tests for the write-ahead log."""

from repro.core.wal import LogRecord, LogRecordType, WriteAheadLog


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
