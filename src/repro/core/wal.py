"""A crash-safe write-ahead log.

The paper notes that by living inside a relational DBMS, Decibel can inherit
fault tolerance "by employing standard write-ahead logging techniques on
writes" (Section 2.1) and leaves a full treatment to future work.  This module
provides that standard mechanism: an append-only log of typed records that is
persisted with checksums, replayed after a crash, and truncated at a
checkpoint.

On-disk format
--------------

Each record is length-prefixed and checksummed with the shared framing of
:func:`repro.core.durable.frame`::

    +----------------+----------------+------------------------+
    | crc32  (4B LE) | length (4B LE) | payload (JSON, length) |
    +----------------+----------------+------------------------+

The CRC covers the payload bytes.  On open the log is read through
:func:`repro.core.durable.read_framed`: a tail that is torn (truncated header
or payload) or corrupt (CRC mismatch) is *truncated away* rather than
crashing the very recovery that is supposed to fix things.  Every truncation
is recorded once, as a recovery note that
:meth:`repro.db.database.Decibel.recover` drains into its report, and in
strict mode (``REPRO_STRICT_RECOVERY=1``, the default) a corrupt record
*followed by* readable data still raises -- only a clean tail tear is ever
repaired.

Transactions write BEGIN / WRITE / COMMIT / APPLIED / ABORT records through
the log.  Only the COMMIT record is fsynced: :meth:`WriteAheadLog.append`
buffers a record without an fsync, and :meth:`WriteAheadLog.append_group`
makes the COMMIT record -- and every record buffered before it -- durable
with one fsync shared by all concurrently committing transactions.  That
fsync, taken before the storage engine applies anything durable, is the
commit point; the APPLIED record marks that the engine finished applying, so
recovery (:func:`WriteAheadLog.replay`) can tell which committed transactions
still need their WRITE records redone.
"""

from __future__ import annotations

import enum
import json
import os
import threading
from dataclasses import dataclass, field

from repro.core.durable import atomic_write, frame, fsync_dir, read_framed
from repro.testing.faults import check_crashed, crashpoint


class LogRecordType(enum.Enum):
    """Kinds of log records."""

    BEGIN = "begin"
    WRITE = "write"
    COMMIT = "commit"
    APPLIED = "applied"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"


@dataclass(frozen=True)
class LogRecord:
    """One entry in the write-ahead log.

    ``payload`` is any JSON-serializable value; WRITE records carry the full
    logical write (``{"kind": ..., "values": ...}`` or ``{"kind": "delete",
    "key": ...}``) so recovery can redo it.  ``relation`` names the relation
    the transaction ran against, letting a database-level replay route each
    record to the right storage engine.
    """

    type: LogRecordType
    transaction_id: int
    branch: str | None = None
    payload: object = None
    relation: str | None = None

    def to_json(self) -> str:
        """Serialize to a single JSON document (the record payload)."""
        doc: dict[str, object] = {
            "type": self.type.value,
            "txn": self.transaction_id,
            "branch": self.branch,
            "payload": self.payload,
        }
        if self.relation is not None:
            doc["relation"] = self.relation
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "LogRecord":
        """Parse a record previously produced by :meth:`to_json`."""
        raw = json.loads(line)
        return cls(
            type=LogRecordType(raw["type"]),
            transaction_id=raw["txn"],
            branch=raw.get("branch"),
            payload=raw.get("payload"),
            relation=raw.get("relation"),
        )


@dataclass
class RecoveryReport:
    """Summary of a log replay: which transactions survive a crash."""

    committed: set[int] = field(default_factory=set)
    aborted: set[int] = field(default_factory=set)
    in_flight: set[int] = field(default_factory=set)
    applied: set[int] = field(default_factory=set)
    notes: list[str] = field(default_factory=list)

    @property
    def losers(self) -> set[int]:
        """Transactions whose effects must be discarded (aborted or in flight)."""
        return self.aborted | self.in_flight

    @property
    def needs_redo(self) -> set[int]:
        """Committed transactions whose application was not confirmed durable."""
        return self.committed - self.applied


class WriteAheadLog:
    """Append-only log, either purely in memory or backed by a file."""

    def __init__(self, path: str | None = None):
        self.path = path
        self._records: list[LogRecord] = []
        # Concurrency: _mutex serializes file appends and _records mutation;
        # _sync_cond coordinates group commit (followers wait on it until the
        # leader's fsync covers their record).  Sequence numbers count
        # appended records: _synced_seq <= _written_seq always, and a record
        # with seq <= _synced_seq is durably on disk.
        self._mutex = threading.Lock()
        self._sync_cond = threading.Condition()
        self._written_seq = 0
        self._synced_seq = 0
        self._sync_leader_active = False
        #: Number of fsync() calls issued on the log file, and how many
        #: group-commit batches (each covering >= 1 waiting commit) they
        #: made.  Every log fsync is a batch fsync, so the two stay equal.
        self.fsync_count = 0
        self.group_batches = 0
        if path is not None and os.path.exists(path):
            self._load(path)

    @classmethod
    def in_memory(cls) -> "WriteAheadLog":
        """A log that is never persisted (used by tests and benchmarks)."""
        return cls(path=None)

    def __len__(self) -> int:
        return len(self._records)

    # -- loading --------------------------------------------------------------

    def _load(self, path: str) -> None:
        for payload in read_framed(path, "WAL"):
            self._records.append(LogRecord.from_json(payload.decode("utf-8")))

    # -- writing --------------------------------------------------------------

    def append(self, record: LogRecord) -> None:
        """Append a record without an fsync.

        The record sits in the OS page cache: it is ordered before any later
        record but not yet durable.  The next :meth:`append_group` fsync on
        the file makes every buffered record before it durable too, which is
        what lets BEGIN/WRITE records ride the COMMIT record's fsync for free.
        """
        check_crashed()
        self._write_record(record)

    def append_group(self, record: LogRecord) -> None:
        """Append a record and make it durable via a *group* fsync.

        The record is written (buffered) immediately; the calling thread then
        either becomes the sync leader -- issuing one fsync that covers every
        record written so far, including other sessions' pending commits -- or
        waits for the current leader's fsync to cover it.  Concurrent
        committers therefore share fsyncs instead of queueing one each, which
        is the classic group-commit optimization.  On return the record is
        durable (or an injected crash has been raised before the fsync).
        """
        check_crashed()
        seq = self._write_record(record)
        if self.path is None:
            return
        while True:
            with self._sync_cond:
                while self._synced_seq < seq and self._sync_leader_active:
                    self._sync_cond.wait()
                if self._synced_seq >= seq:
                    return
                self._sync_leader_active = True
            # This thread is now the leader: fsync once for the whole batch.
            # ``synced_to`` stays 0 unless the fsync actually completed, so a
            # crash injected before the fsync never marks records durable.
            # The fsync runs outside ``_mutex`` so other committers keep
            # appending meanwhile; the next leader's fsync covers them all.
            synced_to = 0
            try:
                with self._mutex:
                    target = self._written_seq
                    crashpoint("wal-group-commit-pre-fsync", path=self.path)
                with open(self.path, "ab") as handle:
                    os.fsync(handle.fileno())
                self.fsync_count += 1
                self.group_batches += 1
                synced_to = target
            finally:
                with self._sync_cond:
                    self._sync_leader_active = False
                    self._synced_seq = max(self._synced_seq, synced_to)
                    self._sync_cond.notify_all()

    def _write_record(self, record: LogRecord) -> int:
        """Write ``record`` to the file (no fsync) and return its sequence."""
        with self._mutex:
            if self.path is not None:
                created = not os.path.exists(self.path)
                with open(self.path, "ab") as handle:
                    handle.write(frame(record.to_json().encode("utf-8")))
                    handle.flush()
                if created:
                    # First append creates the file; fsync the directory so
                    # the log's directory entry survives a crash too.
                    fsync_dir(os.path.dirname(os.path.abspath(self.path)))
            self._records.append(record)
            self._written_seq += 1
            return self._written_seq

    def checkpoint(self) -> None:
        """Write a checkpoint record and drop everything before it.

        The file is rewritten via write-new / fsync / atomic-rename, so a
        crash mid-checkpoint leaves the complete old log rather than losing
        history to an in-place truncating rewrite.
        """
        check_crashed()
        checkpoint = LogRecord(LogRecordType.CHECKPOINT, transaction_id=0)
        with self._mutex:
            if self.path is not None:
                atomic_write(
                    self.path,
                    frame(checkpoint.to_json().encode("utf-8")),
                    label="wal-checkpoint",
                )
            self._records = [checkpoint]
        # The rename made the whole log durable.
        with self._sync_cond:
            self._synced_seq = self._written_seq
            self._sync_cond.notify_all()

    # -- reading --------------------------------------------------------------

    def records(self) -> list[LogRecord]:
        """All records currently in the log, oldest first."""
        with self._mutex:
            return list(self._records)

    def max_transaction_id(self) -> int:
        """Highest transaction id seen in the log (0 when empty)."""
        return max((r.transaction_id for r in self._records), default=0)

    def replay(self) -> RecoveryReport:
        """Classify every transaction seen in the log.

        The report carries no notes of its own: a torn tail repaired while
        opening the log is a recovery note like any other durable file's,
        which :meth:`repro.db.database.Decibel.recover` adds once.
        """
        report = RecoveryReport()
        for record in self._records:
            txn = record.transaction_id
            if record.type is LogRecordType.BEGIN:
                report.in_flight.add(txn)
            elif record.type is LogRecordType.COMMIT:
                report.in_flight.discard(txn)
                report.committed.add(txn)
            elif record.type is LogRecordType.APPLIED:
                report.applied.add(txn)
            elif record.type is LogRecordType.ABORT:
                report.in_flight.discard(txn)
                report.aborted.add(txn)
        return report

    def writes_for(self, transaction_id: int) -> list[LogRecord]:
        """The WRITE records of one transaction, in log order."""
        return [
            r
            for r in self._records
            if r.transaction_id == transaction_id and r.type is LogRecordType.WRITE
        ]
