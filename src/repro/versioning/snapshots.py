"""Snapshot-isolated read views over a dataset's branch heads.

The serving layer must let many readers run against a consistent state of
the data while writers keep committing.  The engines already contain the
mechanism: every commit records an immutable branch bitmap (or segment
offsets) addressable by commit id, and heap pages are append-only, so *the
head commit of a branch is a free point-in-time view*.  A
:class:`SnapshotManager` pins, per relation, every branch's head commit at
acquisition time (under each engine's commit gate, so a half-finished
commit is never observed) and hands back a :class:`Snapshot` whose
``database`` attribute quacks like a :class:`~repro.db.database.Decibel`
for the query pipeline -- but reads every branch at its pinned commit
instead of the live head.  Reads run through the engine's own paths: every
branch read -- a scan, a count, a multi-branch read (Query 4), a diff
(Query 2) -- hands the pins to the engine, whose one resolution step reads
a pinned branch through its pinned commit's recorded state, so a snapshot
answers exactly as the live heads would at the pinned commits.

Readers therefore never block writers and never see a writer's in-flight
state: a query sees either entirely pre-commit or entirely post-commit
data, no matter how the threads interleave (the snapshot-isolation
guarantee the concurrency suite asserts).  Writers pay nothing: pinning is
bookkeeping only -- bitmaps and heap ordinals referenced by a commit are
immutable, so there is nothing to copy and nothing to garbage-collect
beyond dropping the pin counts on release.
"""

from __future__ import annotations

import threading
from collections import Counter
from functools import partial
from typing import TYPE_CHECKING, Iterator

from repro.core.predicates import Predicate
from repro.core.record import Record
from repro.errors import BranchNotFoundError
from repro.versioning.diff import DiffResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Decibel
    from repro.storage.base import VersionedStorageEngine


class SnapshotEngineView:
    """A read-only engine facade that reads pinned commits, not live heads.

    Exposes exactly the surface the query pipeline uses (``schema``,
    ``graph``, the branch, commit and multi-branch scans, the counts,
    ``diff``).  Each branch read is the engine's own branch read with the
    snapshot's pins, so the engine resolves a pinned branch to its pinned
    commit's state; commit reads pass straight through, since history is
    immutable.  A branch the snapshot does not hold raises
    :class:`~repro.errors.BranchNotFoundError`.  Plans built against the
    view keep their ``kind == "branch"`` scans, so they run through the
    same columnar execution path as head reads.
    """

    def __init__(self, engine: "VersionedStorageEngine", pins: dict[str, str]):
        self._engine = engine
        #: branch name -> head commit id at snapshot time.
        self.pins = dict(pins)
        self.schema = engine.schema
        self.graph = engine.graph
        self.stats = engine.stats
        self.kind = engine.kind
        self.scan_branch = partial(engine.scan_branch, pins=self.pins)
        self.scan_branch_columns = partial(engine.scan_branch_columns, pins=self.pins)
        self.count_branch = partial(engine.count_branch, pins=self.pins)
        self.scan_branches_batched = partial(
            engine.scan_branches_batched, pins=self.pins
        )
        self.scan_commit = engine.scan_commit
        self.scan_commit_columns = engine.scan_commit_columns
        self.count_commit = engine.count_commit

    def diff(self, branch_a: str, branch_b: str) -> DiffResult:
        """The engine's diff of the two branches' pinned commits."""
        return self._engine.diff(branch_a, branch_b, pins=self.pins)


class SnapshotRelationView:
    """Relation facade over a :class:`SnapshotEngineView` (read paths only)."""

    def __init__(self, name: str, engine_view: SnapshotEngineView):
        self.name = name
        self.engine = engine_view

    @property
    def schema(self):
        return self.engine.schema

    @property
    def graph(self):
        return self.engine.graph

    def scan(
        self, branch: str = "master", predicate: Predicate | None = None
    ) -> Iterator[Record]:
        return self.engine.scan_branch(branch, predicate)


class SnapshotDatabaseView:
    """Database facade over one snapshot; quacks like Decibel for queries."""

    def __init__(self, db: "Decibel", relation_views: dict[str, SnapshotRelationView]):
        self._db = db
        self._relation_views = relation_views

    def relation(self, name: str) -> SnapshotRelationView:
        view = self._relation_views.get(name)
        if view is None:
            # The relation was not pinned (created after the snapshot, or a
            # partial pin).  Fall back to pinning nothing: queries against it
            # fail with the usual unknown-relation error from the catalog.
            self._db.catalog.relation(name)
            raise BranchNotFoundError(
                f"relation {name!r} is not part of this snapshot"
            )
        return view

    def relations(self) -> list[str]:
        return sorted(self._relation_views)

    def query(self, sql: str):
        """Execute a query against the snapshot (never the live heads)."""
        from repro.query.executor import execute_query

        return execute_query(self, sql)


class Snapshot:
    """A pinned, immutable view of every relation's branch heads.

    Context-manager style::

        with db.snapshot() as snap:
            result = snap.database.query("SELECT ...")

    ``pins`` maps ``relation -> {branch -> commit id}``.  The snapshot holds
    no locks -- it is pure bookkeeping -- so it can live as long as a session
    needs it; ``release()`` (or the context exit) drops the pin counts.
    """

    def __init__(self, manager: "SnapshotManager", pins: dict[str, dict[str, str]]):
        self._manager = manager
        self.pins = pins
        self._released = False
        views = {
            name: SnapshotRelationView(
                name,
                SnapshotEngineView(
                    manager.db.relation(name).engine, branch_pins
                ),
            )
            for name, branch_pins in pins.items()
        }
        self.database = SnapshotDatabaseView(manager.db, views)

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._manager._release(self)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.release()


class SnapshotManager:
    """Creates and tracks snapshots over a :class:`Decibel` database.

    Pin counts are kept per ``(relation, commit)`` so operational tooling
    (and tests) can see which commits are held by live readers; they are
    advisory today -- nothing is deleted either way -- but they are the
    contract a future history-compaction pass must respect.
    """

    def __init__(self, db: "Decibel"):
        self.db = db
        self._pin_counts: Counter[tuple[str, str]] = Counter()
        self._lock = threading.Lock()
        self.acquired = 0
        self.released = 0

    def acquire(self, relations: list[str] | None = None) -> Snapshot:
        """Pin the current head commit of every branch of every relation.

        Each relation's heads are read under its engine's commit gate, so a
        concurrently running commit is observed either fully (head moved and
        snapshot recorded) or not at all.
        """
        names = sorted(relations) if relations is not None else sorted(
            self.db.relations()
        )
        pins: dict[str, dict[str, str]] = {}
        for name in names:
            engine = self.db.relation(name).engine
            with engine.commit_gate:
                if not engine.graph.initialized:
                    pins[name] = {}
                    continue
                pins[name] = {
                    branch: engine.graph.head(branch)
                    for branch in engine.graph.branch_names()
                }
        with self._lock:
            self.acquired += 1
            for name, branch_pins in pins.items():
                for commit_id in branch_pins.values():
                    self._pin_counts[(name, commit_id)] += 1
        return Snapshot(self, pins)

    def _release(self, snapshot: Snapshot) -> None:
        with self._lock:
            self.released += 1
            for name, branch_pins in snapshot.pins.items():
                for commit_id in branch_pins.values():
                    key = (name, commit_id)
                    self._pin_counts[key] -= 1
                    if self._pin_counts[key] <= 0:
                        del self._pin_counts[key]

    def pinned_commits(self) -> dict[tuple[str, str], int]:
        """Live pin counts: ``(relation, commit id) -> reader count``."""
        with self._lock:
            return dict(self._pin_counts)

    @property
    def active(self) -> int:
        """Number of snapshots currently held."""
        return self.acquired - self.released
