"""Transactions over branches.

Updates made as part of a commit are issued in a single transaction so they
become atomically visible at commit time and are rolled back if the client
disconnects first (paper Section 2.2.3).  A :class:`Transaction` buffers the
data modifications made through it, acquires branch locks through the shared
:class:`~repro.core.locks.LockManager`, writes intent records to the
write-ahead log, and applies the buffered changes to the storage engine.

Durability protocol (redo-only logging):

1. Buffered writes are applied to the engine's *in-memory* state and logged
   as WRITE records carrying the full logical write (values or key), so they
   can be redone from the log alone.
2. A COMMIT record is appended and fsynced -- this is the commit point.
   It is the transaction's only WAL fsync: BEGIN, WRITE, APPLIED and ABORT
   records are buffered, and the COMMIT fsync (shared by every transaction
   committing at the same moment, :meth:`WriteAheadLog.append_group`) makes
   them durable with it.  Nothing the engine has touched so far is durably
   visible: visibility is governed by the branch bitmaps / segment offsets
   captured at the last engine-level commit.
3. ``engine.commit`` then makes the changes durable on each touched branch
   (flushing storage, recording the commit snapshot, persisting the graph).
4. An APPLIED record marks the application complete.

A crash before step 2 loses only in-memory state -- the transaction is a
loser and its effects are invisible on reopen.  A crash between 2 and 4
leaves a committed-but-unapplied transaction in the log;
:func:`redo_write` lets recovery re-apply its WRITE records idempotently
before re-running the engine commit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.cancel import checkpoint, remaining_time
from repro.core.locks import LockManager, LockMode
from repro.core.record import Record, RecordCodec
from repro.core.wal import LogRecord, LogRecordType, WriteAheadLog
from repro.errors import StorageError, TransactionError
from repro.testing.faults import InjectedCrash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.base import VersionedStorageEngine


class TransactionState(enum.Enum):
    """Lifecycle of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class _BufferedWrite:
    kind: str  # "insert" | "update" | "delete"
    branch: str
    record: Record | None = None
    key: int | None = None

    def payload(self) -> dict[str, object]:
        """The logical write as a redo-able WAL payload."""
        if self.kind == "delete":
            return {"kind": "delete", "key": self.key}
        assert self.record is not None
        return {"kind": self.kind, "values": list(self.record.values)}


def check_write(codec: RecordCodec, payload: dict[str, object]) -> None:
    """Raise :class:`~repro.errors.SchemaError` unless ``codec``'s schema
    accepts the logged write ``payload``: an insert's or update's values
    must encode, a delete's key must fit the primary-key column."""
    if payload["kind"] == "delete":
        codec.schema.validate_key(payload["key"])
    else:
        codec.encode(Record(tuple(payload["values"])))  # type: ignore[arg-type]


def redo_write(
    engine: "VersionedStorageEngine", branch: str, payload: dict[str, object]
) -> bool:
    """Idempotently re-apply one logged write; True if it changed anything.

    Recovery replays committed-but-unapplied transactions through this: a
    write whose effect already survives (the engine commit completed for its
    branch before the crash) is detected and skipped, so redo never doubles
    an insert or resurrects a deleted row.
    """
    kind = payload["kind"]
    if kind == "delete":
        key = payload["key"]
        if engine.branch_contains_key(branch, key):  # type: ignore[arg-type]
            engine.delete(branch, key)  # type: ignore[arg-type]
            return True
        return False
    values = tuple(payload["values"])  # type: ignore[arg-type]
    record = Record(values)
    key = record.key(engine.schema)
    existing = engine.record_for_key(branch, key)
    if existing is None:
        engine.insert(branch, record)
        return True
    if tuple(existing.values) == values:
        return False
    engine.update(branch, record)
    return True


@dataclass
class Transaction:
    """A unit of atomically visible changes to one or more branches."""

    transaction_id: int
    manager: "TransactionManager"
    state: TransactionState = TransactionState.ACTIVE
    _writes: list[_BufferedWrite] = field(default_factory=list)

    # -- buffered data operations ---------------------------------------------

    def insert(self, branch: str, record: Record) -> None:
        """Buffer an insert of ``record`` into ``branch``."""
        self._buffer(_BufferedWrite("insert", branch, record=record))

    def update(self, branch: str, record: Record) -> None:
        """Buffer an update (by primary key) of ``record`` in ``branch``."""
        self._buffer(_BufferedWrite("update", branch, record=record))

    def delete(self, branch: str, key: int) -> None:
        """Buffer a delete of the record with primary key ``key``."""
        self._buffer(_BufferedWrite("delete", branch, key=key))

    def _buffer(self, write: _BufferedWrite) -> None:
        """Check ``write`` as recovery would check its log record, lock its
        branch, and buffer it.  A write the schema rejects raises
        :class:`~repro.errors.SchemaError` here, so it never reaches
        :meth:`commit` or the log."""
        self._check_active()
        check_write(self.manager.codec, write.payload())
        self._lock_branch(write.branch)
        self._writes.append(write)

    @property
    def pending_writes(self) -> int:
        """Number of buffered, not-yet-applied writes."""
        return len(self._writes)

    # -- lifecycle ------------------------------------------------------------

    def commit(self, message: str = "") -> dict[str, str]:
        """Apply buffered writes and create a commit on each touched branch.

        Returns a mapping of branch name to the commit id created on it.
        """
        self._check_active()
        engine = self.manager.engine
        wal = self.manager.wal
        relation = self.manager.relation
        # BEGIN/WRITE/APPLIED records are buffered (ordered but not fsynced)
        # and the COMMIT record rides a batch fsync shared with any other
        # concurrently committing transaction.  Fsyncing the COMMIT record
        # makes every earlier buffered record for this transaction durable
        # too, and APPLIED is advisory (redo is idempotent, so losing it only
        # costs redo work).
        try:
            # Last chance to observe a deadline before any work is applied;
            # past the commit point the transaction always runs to completion.
            checkpoint()
            with engine.write_mutex:
                wal.append(
                    LogRecord(
                        LogRecordType.BEGIN, self.transaction_id, relation=relation
                    )
                )
                self._check_deletes(engine)
                for write in self._writes:
                    if write.kind == "insert":
                        engine.insert(write.branch, write.record)
                    elif write.kind == "update":
                        engine.update(write.branch, write.record)
                    else:
                        engine.delete(write.branch, write.key)
                    wal.append(
                        LogRecord(
                            LogRecordType.WRITE,
                            self.transaction_id,
                            branch=write.branch,
                            payload=write.payload(),
                            relation=relation,
                        )
                    )
            # The fsynced COMMIT record is the commit point: from here the
            # transaction's effects must survive a crash (via redo).  It is
            # appended *outside* the engine write mutex so concurrent
            # committers can share one batch fsync.
            wal.append_group(
                LogRecord(LogRecordType.COMMIT, self.transaction_id, relation=relation)
            )
            self.state = TransactionState.COMMITTED
            commits = {}
            with engine.write_mutex:
                for branch in sorted({write.branch for write in self._writes}):
                    commits[branch] = engine.commit(branch, message=message)
            wal.append(
                LogRecord(
                    LogRecordType.APPLIED, self.transaction_id, relation=relation
                )
            )
            return commits
        except InjectedCrash:
            # Simulated process death: a real dead process writes nothing
            # more, so no ABORT record -- replay classifies us by what is
            # already on disk.
            raise
        finally:
            self.manager.lock_manager.release_all(self.transaction_id)
            if self.state is TransactionState.ACTIVE:
                self.state = TransactionState.ABORTED
                wal.append(
                    LogRecord(
                        LogRecordType.ABORT, self.transaction_id, relation=relation
                    )
                )

    def abort(self) -> None:
        """Discard all buffered writes and release locks."""
        self._check_active()
        self._writes.clear()
        self.state = TransactionState.ABORTED
        self.manager.wal.append(
            LogRecord(
                LogRecordType.ABORT,
                self.transaction_id,
                relation=self.manager.relation,
            )
        )
        self.manager.lock_manager.release_all(self.transaction_id)

    # -- helpers --------------------------------------------------------------

    def _check_deletes(self, engine: "VersionedStorageEngine") -> None:
        """Raise :class:`~repro.errors.StorageError`, before anything is
        applied, if a delete's key will not be live (given the earlier
        writes) when it applies: a mid-apply raise would leave those writes."""
        live: dict[tuple[str, int | None], bool] = {}
        for write in self._writes:
            if write.record is not None:
                live[(write.branch, write.record.key(engine.schema))] = True
                continue
            slot = (write.branch, write.key)
            if not (live[slot] if slot in live else engine.branch_contains_key(*slot)):
                raise StorageError(
                    f"key {write.key} is not live in branch {write.branch!r}"
                )
            live[slot] = False

    def _lock_branch(self, branch: str) -> None:
        # A request-scoped deadline caps the lock wait: no transaction blocks
        # on a branch lock longer than its request has left to live.  The
        # database's relations share one lock manager and each has its own
        # branches, so the lock names the relation too.
        checkpoint()
        self.manager.lock_manager.acquire(
            self.transaction_id,
            f"branch:{self.manager.relation or ''}/{branch}",
            LockMode.EXCLUSIVE,
            timeout=remaining_time(),
        )

    def _check_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionError(
                f"transaction {self.transaction_id} is {self.state.value}"
            )


class TransactionManager:
    """Creates transactions bound to one storage engine, WAL and lock manager.

    ``relation`` stamps every log record this manager writes, so a shared
    database-level WAL can route records back to the right engine during
    recovery.  Transaction ids come from the log
    (:meth:`~repro.core.wal.WriteAheadLog.allocate_transaction_id`), so they
    stay unique across the relations sharing it and across restarts.
    """

    def __init__(
        self,
        engine: "VersionedStorageEngine",
        wal: WriteAheadLog | None = None,
        lock_manager: LockManager | None = None,
        relation: str | None = None,
    ):
        self.engine = engine
        self.wal = wal if wal is not None else WriteAheadLog.in_memory()
        self.lock_manager = lock_manager if lock_manager is not None else LockManager()
        self.relation = relation
        #: Checks each write as it is buffered (the encode's bytes are
        #: dropped; the engine encodes the record again when it applies it)
        #: and each logged write before recovery redoes it.  The engine's
        #: own codec: a codec holds no per-use state.
        self.codec = engine.codec

    def begin(self) -> Transaction:
        """Start a new transaction."""
        return Transaction(self.wal.allocate_transaction_id(), self)
