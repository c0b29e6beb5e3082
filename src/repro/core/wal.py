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
:func:`repro.core.durable.iter_framed`: a tail that is torn (truncated header
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
recovery can tell which committed transactions still need their WRITE
records redone.

In memory
---------

The framed bytes are the log's only copy of its records.  An append writes
its frame through the one append handle the log keeps open (an in-memory
log appends to a ``bytearray`` with the same framing) and keeps no
:class:`LogRecord`; :meth:`WriteAheadLog.records`, ``len()`` and
:meth:`WriteAheadLog.replay` decode the bytes when called, and never repair
a torn tail on a live log.  Opening a log file makes one pass
(:meth:`WriteAheadLog._load`): it repairs the tail, classifies every
transaction and keeps decoded WRITE records only for transactions with a
COMMIT and no APPLIED -- a transaction's writes are dropped as soon as its
APPLIED or ABORT frame is read.  :meth:`WriteAheadLog.take_recovery` hands
that set to :meth:`repro.db.database.Decibel.recover` once.
"""

from __future__ import annotations

import enum
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator

from repro.core.durable import atomic_write, frame, frames, fsync_dir, iter_framed
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
        """Committed transactions whose application was not confirmed durable.

        A transaction with an ABORT record is never redone, even after its
        COMMIT: its committer saw the commit fail.
        """
        return self.committed - self.applied - self.aborted


#: What recovery acts on: the classification of every transaction, and the
#: WRITE records, in log order, of each transaction it must redo.
Recovery = tuple[RecoveryReport, dict[int, list[LogRecord]]]


def _classify(
    payloads: Iterable[bytes],
) -> tuple[RecoveryReport, dict[int, list[LogRecord]], int]:
    """One pass over a log's payloads, decoding one record at a time.

    Returns the classification of every transaction, the WRITE records of
    each transaction that needs redo, and the highest transaction id.  A
    transaction's WRITE records are held only while its fate is open: its
    APPLIED or ABORT record drops them, and those of a transaction that
    never committed are dropped at the end.
    """
    report = RecoveryReport()
    writes: dict[int, list[LogRecord]] = {}
    highest = 0
    for payload in payloads:
        record = LogRecord.from_json(payload.decode("utf-8"))
        txn = record.transaction_id
        highest = max(highest, txn)
        kind = record.type
        if kind is LogRecordType.WRITE:
            writes.setdefault(txn, []).append(record)
        elif kind is LogRecordType.BEGIN:
            report.in_flight.add(txn)
        elif kind is LogRecordType.COMMIT:
            report.in_flight.discard(txn)
            report.committed.add(txn)
        elif kind is LogRecordType.APPLIED:
            report.applied.add(txn)
            writes.pop(txn, None)
        elif kind is LogRecordType.ABORT:
            report.in_flight.discard(txn)
            report.aborted.add(txn)
            writes.pop(txn, None)
    redo = {txn: writes[txn] for txn in report.needs_redo if txn in writes}
    return report, redo, highest


class WriteAheadLog:
    """Append-only log, either purely in memory or backed by a file.

    The framed bytes are the log's only copy of its records: appends keep
    no :class:`LogRecord`, and :meth:`records`, :meth:`__len__` and
    :meth:`replay` decode what the log has written when they are called.
    An in-memory log keeps its frames in a ``bytearray``; a file-backed
    log keeps them in its file.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        #: The frames of an in-memory log (``None`` for a file-backed one).
        self._buffer: bytearray | None = bytearray() if path is None else None
        #: A file-backed log's append handle: opened by the first append
        #: and closed when a checkpoint renames a new file over the log.
        self._handle: BinaryIO | None = None
        self._max_transaction_id = 0
        #: The last id :meth:`allocate_transaction_id` handed out.
        self._last_allocated_id = 0
        #: The open-time pass's findings, until recovery takes them.
        self._opened: Recovery | None = None
        # Concurrency: _mutex serializes appends and reads of the frames;
        # _sync_cond coordinates group commit (followers wait on it until
        # the leader's fsync covers their record).  Sequence numbers count
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
        with self._mutex:
            return sum(1 for _ in self._payloads())

    # -- loading --------------------------------------------------------------

    def _load(self, path: str) -> None:
        """The open-time pass: repair a torn tail, classify every
        transaction and keep only the writes recovery must redo."""
        report, redo, self._max_transaction_id = _classify(iter_framed(path, "WAL"))
        self._opened = (report, redo)

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
            # No checkpoint or close replaces the handle while this thread
            # leads.
            synced_to = 0
            try:
                with self._mutex:
                    target = self._written_seq
                    handle = self._append_handle()
                    crashpoint("wal-group-commit-pre-fsync", path=self.path)
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
        """Write ``record``'s frame (no fsync) and return its sequence."""
        data = frame(record.to_json().encode("utf-8"))
        with self._mutex:
            if self._buffer is not None:
                self._buffer += data
            else:
                handle = self._append_handle()
                handle.write(data)
                handle.flush()
            self._max_transaction_id = max(
                self._max_transaction_id, record.transaction_id
            )
            self._written_seq += 1
            return self._written_seq

    def _append_handle(self) -> BinaryIO:
        """The log file's append handle, opened on first use (caller holds
        ``_mutex``)."""
        if self._handle is None:
            assert self.path is not None
            created = not os.path.exists(self.path)
            self._handle = open(self.path, "ab")
            if created:
                # First append creates the file; fsync the directory so the
                # log's directory entry survives a crash too.
                fsync_dir(os.path.dirname(os.path.abspath(self.path)))
        return self._handle

    @contextmanager
    def _leading(self) -> Iterator[None]:
        """Hold sync leadership: no group fsync runs until the block ends."""
        with self._sync_cond:
            while self._sync_leader_active:
                self._sync_cond.wait()
            self._sync_leader_active = True
        try:
            yield
        finally:
            with self._sync_cond:
                self._sync_leader_active = False
                self._sync_cond.notify_all()

    def _close_handle(self) -> None:
        """Close the append handle; the next append reopens the file."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def checkpoint(self) -> None:
        """Write a checkpoint record and drop everything before it.

        The file is rewritten via write-new / fsync / atomic-rename, so a
        crash mid-checkpoint leaves the complete old log rather than losing
        history to an in-place truncating rewrite.
        """
        check_crashed()
        checkpoint = LogRecord(LogRecordType.CHECKPOINT, transaction_id=0)
        data = frame(checkpoint.to_json().encode("utf-8"))
        with self._leading():
            with self._mutex:
                if self._buffer is not None:
                    self._buffer = bytearray(data)
                else:
                    atomic_write(self.path, data, label="wal-checkpoint")
                    # The handle still points at the replaced file.
                    self._close_handle()
                self._max_transaction_id = 0
                written = self._written_seq
            # The rename made the whole log durable.
            with self._sync_cond:
                self._synced_seq = written

    def close(self) -> None:
        """Close the log file; a later append reopens it."""
        with self._leading(), self._mutex:
            self._close_handle()

    # -- reading --------------------------------------------------------------

    def _payloads(self) -> Iterator[bytes]:
        """The payload of every complete frame written so far (caller holds
        ``_mutex``).  A torn tail ends the frames; it is never repaired
        here, only by the open-time pass."""
        if self._buffer is not None:
            return frames(self._buffer)
        assert self.path is not None
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return iter(())
        return frames(data, self.path, "WAL")

    def records(self) -> list[LogRecord]:
        """All records currently in the log, oldest first, decoded now."""
        with self._mutex:
            return [
                LogRecord.from_json(payload.decode("utf-8"))
                for payload in self._payloads()
            ]

    def allocate_transaction_id(self) -> int:
        """A transaction id no other transaction of this log holds: above
        every id handed out since the log opened and every id it holds.

        Every transaction manager sharing the log (one per relation) takes
        its ids here, so two relations' transactions never share a lock
        owner or a WAL identity.  A checkpoint does not restart the count.
        """
        with self._mutex:
            self._last_allocated_id = (
                max(self._last_allocated_id, self._max_transaction_id) + 1
            )
            return self._last_allocated_id

    def max_transaction_id(self) -> int:
        """Highest transaction id in the log (0 when empty or just
        checkpointed)."""
        return self._max_transaction_id

    def replay(self) -> RecoveryReport:
        """Classify every transaction in the log, decoding its bytes now.

        The report carries no notes of its own: a torn tail repaired while
        opening the log is a recovery note like any other durable file's,
        which :meth:`repro.db.database.Decibel.recover` adds once.
        """
        with self._mutex:
            report, _, _ = _classify(self._payloads())
        return report

    def take_recovery(self) -> Recovery:
        """The classification and redo writes recovery acts on.

        The open-time pass's findings are handed over once, so the log holds
        no decoded record after recovery; any later call classifies the
        bytes the log holds then.
        """
        with self._mutex:
            opened, self._opened = self._opened, None
            if opened is None:
                report, redo, _ = _classify(self._payloads())
                return report, redo
        return opened
