"""The Decibel facade: datasets of versioned relations plus a SQL entry point.

This is the layer a user of the reproduction interacts with.  A
:class:`Decibel` instance manages a directory containing one or more
versioned relations; each relation is backed by one of the storage engines
(hybrid by default) and shares the facade's catalog.  Branch, commit, and
merge operations may be issued per relation or across the whole dataset
(applied to every relation in lockstep, mirroring the paper's notion that a
version snapshots all relations of a dataset together).

Versioned queries in the SQL dialect of the paper's Table 1 are executed via
:meth:`Decibel.query`, which delegates to :mod:`repro.query`.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Iterable, Iterator

from repro.core.buffer_pool import BufferPool
from repro.core.catalog import Catalog
from repro.core.durable import drain_recovery_notes, strict_recovery
from repro.core.locks import LockManager
from repro.core.page import DEFAULT_PAGE_SIZE
from repro.core.predicates import Predicate
from repro.core.record import Record
from repro.core.schema import Schema
from repro.core.transactions import TransactionManager, check_write, redo_write
from repro.core.wal import LogRecord, LogRecordType, RecoveryReport, WriteAheadLog
from repro.errors import (
    CorruptionError,
    DatabaseClosedError,
    SchemaError,
    StorageError,
)
from repro.storage import create_engine
from repro.storage.base import MergeResult, StorageEngineKind, VersionedStorageEngine
from repro.versioning.conflicts import MergePolicy
from repro.versioning.diff import DiffResult
from repro.versioning.session import Session
from repro.versioning.snapshots import Snapshot, SnapshotManager


class VersionedRelation:
    """One versioned relation: a thin, user-friendly wrapper over an engine."""

    def __init__(self, name: str, engine: VersionedStorageEngine):
        self.name = name
        self.engine = engine

    # -- properties -------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The relation's schema."""
        return self.engine.schema

    @property
    def graph(self):
        """The relation's version graph."""
        return self.engine.graph

    # -- versioning -------------------------------------------------------------

    def init(self, records: Iterable[Record] = (), message: str = "init") -> str:
        """Create the master branch and load the initial records (or
        plain value tuples).  All or nothing: a record the schema rejects
        leaves the relation uninitialized, so the init can be retried."""
        return self.engine.init(map(self._coerce, records), message=message)

    def branch(self, name: str, from_branch: str | None = None, from_commit: str | None = None) -> None:
        """Create a branch off a branch head or a historical commit."""
        self.engine.create_branch(name, from_branch=from_branch, from_commit=from_commit)

    def commit(self, branch: str = "master", message: str = "") -> str:
        """Commit the current state of ``branch``."""
        return self.engine.commit(branch, message=message)

    def checkout(self, commit_id: str) -> list[Record]:
        """Materialize a historical commit."""
        return self.engine.checkout(commit_id)

    def merge(
        self,
        target_branch: str,
        source_branch: str,
        *,
        policy: MergePolicy | None = None,
        three_way: bool = True,
        message: str = "",
    ) -> MergeResult:
        """Merge ``source_branch`` into ``target_branch``."""
        return self.engine.merge(
            target_branch,
            source_branch,
            policy=policy,
            three_way=three_way,
            message=message,
        )

    def diff(self, branch_a: str, branch_b: str) -> DiffResult:
        """Positive/negative difference between two branch heads."""
        return self.engine.diff(branch_a, branch_b)

    def session(self, branch: str = "master") -> Session:
        """Open a session positioned on ``branch``."""
        return Session(self.engine, branch=branch)

    # -- data -----------------------------------------------------------------------

    def insert(self, branch: str, record: Record | tuple) -> None:
        """Insert a record (or a plain value tuple) into ``branch``."""
        self.engine.insert(branch, self._coerce(record))

    def update(self, branch: str, record: Record | tuple) -> None:
        """Update (by primary key) a record in ``branch``."""
        self.engine.update(branch, self._coerce(record))

    def delete(self, branch: str, key: int) -> None:
        """Delete the record with primary key ``key`` from ``branch``."""
        self.engine.delete(branch, key)

    def scan(self, branch: str = "master", predicate: Predicate | None = None) -> Iterator[Record]:
        """Iterate the live records of ``branch``."""
        return self.engine.scan_branch(branch, predicate)

    def _coerce(self, record: Record | tuple) -> Record:
        if isinstance(record, Record):
            return record
        return Record(tuple(record))


class Decibel:
    """A directory of versioned relations sharing a catalog.

    Parameters
    ----------
    directory:
        Where data, the version-graph logs and the catalog live.
    engine:
        Default storage engine kind for new relations: ``"hybrid"``,
        ``"tuple-first"`` or ``"version-first"`` (or a
        :class:`StorageEngineKind`).
    page_size:
        Page size passed to every engine.
    """

    def __init__(
        self,
        directory: str,
        engine: StorageEngineKind | str = StorageEngineKind.HYBRID,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        self.directory = directory
        self.default_engine_kind = (
            StorageEngineKind(engine) if isinstance(engine, str) else engine
        )
        self.page_size = page_size
        self.buffer_pool = BufferPool()
        os.makedirs(directory, exist_ok=True)
        self.catalog = Catalog(directory)
        self._relations: dict[str, VersionedRelation] = {}
        #: Database-level write-ahead log shared by all relations.
        self.wal = WriteAheadLog(os.path.join(directory, "wal.log"))
        self.lock_manager = LockManager()
        self._transaction_managers: dict[str, TransactionManager] = {}
        #: Report of the last :meth:`recover` run, if any.
        self.last_recovery: RecoveryReport | None = None
        #: Snapshot-isolated read views (pinned branch heads) for the
        #: serving layer and anyone else who wants a stable read state.
        self.snapshot_manager = SnapshotManager(self)
        # Close protocol: operations register with _begin_operation /
        # _end_operation; close() drains them before tearing engines down
        # and is idempotent (a second close is a no-op).
        self._closed = False
        self._closing = False
        self._active_operations = 0
        self._drain = threading.Condition()
        self._close_lock = threading.Lock()

    @classmethod
    def open(
        cls,
        directory: str,
        engine: StorageEngineKind | str = StorageEngineKind.HYBRID,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> "Decibel":
        """Open an existing (or new) dataset directory and run recovery.

        Reloads every cataloged relation from its persisted state, replays
        the write-ahead log (redoing committed-but-unapplied transactions and
        discarding losers), and verifies catalog / engine consistency.  The
        recovery report is left in :attr:`last_recovery`.
        """
        db = cls(directory, engine=engine, page_size=page_size)
        db.recover()
        return db

    # -- recovery -----------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Bring the dataset to a consistent state after a crash.

        1. Every cataloged relation with persisted state is reloaded at its
           branch heads -- uncommitted effects are invisible (tuple-first,
           hybrid: bitmaps reset to the head-commit snapshots) or physically
           discarded (version-first: head segments truncated to the committed
           offset).
        2. The WAL's open-time pass is acted on: committed transactions
           missing their APPLIED confirmation -- the only ones whose WRITE
           records the pass kept -- are redone write by write (idempotently) and
           re-committed on each branch they changed; in-flight and aborted
           transactions are ignored -- step 1 already erased them.  A
           committed transaction with a write its schema rejects (logged
           before writes were checked when buffered) is never redone in
           part: strict recovery raises :class:`CorruptionError`, degraded
           recovery skips the whole transaction with a note.
        3. Catalog/engine consistency is verified and the log is
           checkpointed.
        """
        known = set(self.relations())
        for name in sorted(known):
            relation = self.relation(name)
            if relation.engine.has_persistent_state():
                relation.engine.load_persistent_state()
        report, redo = self.wal.take_recovery()
        for txn_id in sorted(report.needs_redo):
            writes = redo.pop(txn_id, [])
            try:
                for record in writes:
                    if record.relation in known:
                        codec = self.transactions(record.relation).codec
                        check_write(codec, record.payload)
            except SchemaError as exc:
                error = CorruptionError(
                    str(self.wal.path),
                    f"committed transaction {txn_id} logged a write its "
                    f"schema rejects: {exc}",
                )
                if strict_recovery():
                    raise error from exc
                report.notes.append(f"skipped redo of transaction {txn_id}: {error}")
                continue
            touched: dict[str, set[str]] = {}
            for record in writes:
                if record.relation is None or record.relation not in known:
                    report.notes.append(
                        f"skipped redo of transaction {txn_id}: write targets "
                        f"unknown relation {record.relation!r}"
                    )
                    continue
                engine = self.relation(record.relation).engine
                assert record.branch is not None
                if redo_write(engine, record.branch, record.payload):
                    touched.setdefault(record.relation, set()).add(record.branch)
            for name in sorted(touched):
                engine = self.relation(name).engine
                for branch in sorted(touched[name]):
                    engine.commit(
                        branch, message=f"recovered transaction {txn_id}"
                    )
            self.wal.append(LogRecord(LogRecordType.APPLIED, txn_id))
        report.notes.extend(drain_recovery_notes())
        self._verify_consistency()
        if report.committed or report.losers:
            self.wal.checkpoint()
        self.last_recovery = report
        return report

    def _verify_consistency(self) -> None:
        """Cross-check each built version-first branch's live bits against
        the chain walk
        (:meth:`~repro.storage.version_first.VersionFirstEngine.chain_state`).

        Only version-first derives its live bits: a reopen rebuilds them
        from the segments, and the chain walk reads those without them.
        Tuple-first's and hybrid's live bitmaps are the restored commit
        snapshots themselves, so there is nothing to compare them with.
        """
        for name in self.relations():
            engine = self.relation(name).engine
            if engine.kind is not StorageEngineKind.VERSION_FIRST:
                continue
            for branch in engine.graph.branch_names():
                if not engine.live_bits_built(branch):
                    # Unbuilt branches are built from the chain walk on
                    # first touch; building them here would defeat lazy
                    # cold opens.
                    continue
                indexed = engine.live_state(branch)
                live = engine.chain_state(branch)
                if indexed != live:
                    raise CorruptionError(
                        engine.directory,
                        f"primary-key index of relation {name!r} branch "
                        f"{branch!r} disagrees with live records",
                        expected=sum(bitmap.count() for bitmap in live.values()),
                        actual=sum(bitmap.count() for bitmap in indexed.values()),
                    )

    def transactions(self, relation: str) -> TransactionManager:
        """The transaction manager for ``relation``, sharing the database WAL.

        Records written through it are stamped with the relation name so
        :meth:`recover` can route redo back to the right engine.
        """
        manager = self._transaction_managers.get(relation)
        if manager is None:
            manager = TransactionManager(
                self.relation(relation).engine,
                wal=self.wal,
                lock_manager=self.lock_manager,
                relation=relation,
            )
            self._transaction_managers[relation] = manager
        return manager

    # -- relation management ------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        schema: Schema,
        engine: StorageEngineKind | str | None = None,
        indexes: tuple[str, ...] = (),
    ) -> VersionedRelation:
        """Create (and register) a new versioned relation.

        ``indexes`` declares secondary indexes on the named columns; the
        primary key is always hash-indexed and need not be listed.
        """
        kind = self.default_engine_kind if engine is None else (
            StorageEngineKind(engine) if isinstance(engine, str) else engine
        )
        self.catalog.create_relation(name, schema, kind.value, indexes=indexes)
        relation = self._open_relation(name, schema, kind, indexes=indexes)
        return relation

    def create_index(self, relation: str, column: str) -> None:
        """Declare a secondary index on ``relation.column``.

        Idempotent; the index is built lazily per branch the first time the
        optimizer (or a direct lookup) needs it, and maintained incrementally
        afterwards.
        """
        engine = self.relation(relation).engine
        engine.index_hook.declare(column)
        self.catalog.add_index(relation, column)

    def relation(self, name: str) -> VersionedRelation:
        """Fetch a relation, opening it from the catalog if needed."""
        if name in self._relations:
            return self._relations[name]
        info = self.catalog.relation(name)
        return self._open_relation(
            name,
            info.schema,
            StorageEngineKind(info.engine_kind),
            indexes=info.indexes,
        )

    def relations(self) -> list[str]:
        """Names of all registered relations."""
        return [info.name for info in self.catalog.relations()]

    def drop_relation(self, name: str) -> None:
        """Remove a relation and its on-disk data."""
        relation = self.relation(name)
        relation.engine.destroy()
        self.catalog.drop_relation(name)
        self._relations.pop(name, None)

    def _open_relation(
        self,
        name: str,
        schema: Schema,
        kind: StorageEngineKind,
        indexes: tuple[str, ...] = (),
    ) -> VersionedRelation:
        engine = create_engine(
            kind,
            os.path.join(self.directory, name),
            schema,
            page_size=self.page_size,
            buffer_pool=self.buffer_pool,
        )
        for column in indexes:
            engine.index_hook.declare(column)
        relation = VersionedRelation(name, engine)
        self._relations[name] = relation
        return relation

    # -- dataset-wide versioning ----------------------------------------------------------

    def branch_all(self, name: str, from_branch: str | None = None) -> None:
        """Create branch ``name`` on every relation of the dataset."""
        for relation_name in self.relations():
            self.relation(relation_name).branch(name, from_branch=from_branch)

    def commit_all(self, branch: str = "master", message: str = "") -> dict[str, str]:
        """Commit every relation on ``branch``; returns per-relation commit ids."""
        return {
            relation_name: self.relation(relation_name).commit(branch, message=message)
            for relation_name in self.relations()
        }

    # -- queries -----------------------------------------------------------------------------

    def query(self, sql: str) -> "QueryResult":
        """Execute a versioned SQL query (the dialect of the paper's Table 1)."""
        from repro.query.executor import execute_query

        self._begin_operation()
        try:
            return execute_query(self, sql)
        finally:
            self._end_operation()

    def snapshot(self, relations: list[str] | None = None) -> Snapshot:
        """Pin every branch head and return a snapshot-isolated read view.

        Queries run through ``snapshot.database`` see the pinned state no
        matter what concurrent writers commit; see
        :mod:`repro.versioning.snapshots`.
        """
        self._begin_operation()
        try:
            return self.snapshot_manager.acquire(relations)
        finally:
            self._end_operation()

    def explain(self, sql: str) -> str:
        """The optimized logical plan for ``sql``, rendered as text.

        Shows the plan the executor would run: scans with their pushed-down
        predicates, ``NOT IN`` shapes rewritten to engine diffs, joins,
        aggregation, ordering and limits.
        """
        from repro.query.executor import explain_query

        return explain_query(self, sql)

    # -- lifecycle ------------------------------------------------------------------------------

    def flush(self) -> None:
        """Flush every open relation."""
        for relation in self._relations.values():
            relation.engine.flush()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has completed."""
        return self._closed

    def _begin_operation(self) -> None:
        """Register an in-flight operation; raises once close has started."""
        with self._drain:
            if self._closing or self._closed:
                raise DatabaseClosedError(
                    f"database at {self.directory!r} is closed"
                )
            self._active_operations += 1

    def _end_operation(self) -> None:
        with self._drain:
            self._active_operations -= 1
            if self._active_operations == 0:
                self._drain.notify_all()

    def close(self, drain_timeout_s: float = 30.0) -> None:
        """Flush and drop cached pages for every open relation.

        Safe to call concurrently with in-flight queries and with itself:
        the first close stops admitting new operations
        (:class:`~repro.errors.DatabaseClosedError`), waits up to
        ``drain_timeout_s`` for in-flight ones to drain, then tears engines
        down exactly once.  Any further close() is a no-op that returns
        after the first one has finished (it shares the same lock).
        """
        with self._close_lock:
            if self._closed:
                return
            with self._drain:
                self._closing = True
                deadline = time.monotonic() + drain_timeout_s
                while self._active_operations > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._drain.wait(remaining)
            for relation in self._relations.values():
                relation.engine.close()
            self.wal.close()
            self._closed = True

    def __enter__(self) -> "Decibel":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
