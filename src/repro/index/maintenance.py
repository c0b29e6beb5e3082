"""Per-engine index maintenance facade.

Every storage engine owns one :class:`IndexMaintenance` instance (its
``index_hook`` attribute -- lint rule REPRO011 checks that every mutation
path notifies it).  The facade owns:

- the in-memory :class:`~repro.storage.pk_index.PrimaryKeyIndex`.  A pk
  map is derived data -- the branch's live records determine it -- so it is
  never persisted: a reopened branch registers lazily and rebuilds its map
  from storage on first touch, through the engine's ``rebuild_branch``
  callback,
- the declared :class:`~repro.index.secondary.SecondaryIndex` set, built
  lazily per branch and maintained incrementally afterwards,
- the planner-facing API (:meth:`has_index`, :meth:`match_fraction`,
  :meth:`lookup_keys`) behind :class:`~repro.query.logical.IndexScan`.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.schema import ColumnType, Schema
from repro.errors import SchemaError
from repro.index.secondary import SUPPORTED_OPS, SecondaryIndex
from repro.storage.pk_index import PrimaryKeyIndex

#: Column types a secondary index may be declared on.
INDEXABLE_TYPES = (ColumnType.INT, ColumnType.INT32, ColumnType.STRING)


class IndexMaintenance:
    """Owns one engine's in-memory primary and secondary indexes."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.pk: PrimaryKeyIndex = PrimaryKeyIndex()
        self.secondary: dict[str, SecondaryIndex] = {}
        self._rebuild_branch: Callable[[str], dict[int, object]] | None = None
        self._scan_branch: Callable[[str], Iterable] | None = None

    # -- engine wiring --------------------------------------------------------

    def bind(
        self,
        rebuild_branch: Callable[[str], dict[int, object]],
        scan_branch: Callable[[str], Iterable],
    ) -> None:
        """Install the engine callbacks the hook needs.

        ``rebuild_branch`` derives a branch's full pk map from storage
        without touching the pk index (no reentrancy); ``scan_branch``
        yields the branch's live records (for secondary builds).
        """
        self._rebuild_branch = rebuild_branch
        self._scan_branch = scan_branch

    def attach_lazy(self, branches: Iterable[str]) -> None:
        """Register known branches for on-first-touch rebuilds (cold open)."""
        if self._rebuild_branch is None:  # pragma: no cover - engine bug
            raise RuntimeError("index hook has no rebuild callback bound")
        self.pk.register_lazy(branches, self._rebuild_branch)

    # -- mutation notifications ----------------------------------------------

    def applied(self, branch: str, key: int, location: object, record) -> None:
        """An insert or update landed ``key`` at ``location`` in ``branch``."""
        self.pk.put(branch, key, location)
        for index in self.secondary.values():
            if index.has_branch(branch):
                index.put(branch, key, record.values[index.position])

    def removed(self, branch: str, key: int) -> None:
        """A delete dropped ``key`` from ``branch``."""
        self.pk.remove(branch, key)
        for index in self.secondary.values():
            if index.has_branch(branch):
                index.remove(branch, key)

    def branch_created(self, branch: str, clone_from: str | None = None) -> None:
        """A new branch forked at its parent's head (or empty for master)."""
        self.pk.add_branch(branch, clone_from=clone_from)
        for index in self.secondary.values():
            if clone_from is not None and index.has_branch(clone_from):
                index.add_branch(branch, clone_from=clone_from)
            else:
                index.drop_branch(branch)

    def branch_rebuilt(self, branch: str, entries: dict[int, object]) -> None:
        """A branch was materialized wholesale (historical checkout)."""
        self.pk.replace_branch(branch, entries)
        for index in self.secondary.values():
            index.drop_branch(branch)

    def committed(
        self, branch: str, commit_id: str, previous_commit_id: str | None
    ) -> None:
        # Kept only because perf/trace.py patches it by name; nothing calls it.
        return None

    # -- secondary index declaration and use ----------------------------------

    def declare(self, column: str) -> None:
        """Declare a secondary index on ``column`` (idempotent)."""
        if column == self.schema.primary_key or column in self.secondary:
            return
        spec = self.schema.column(column)
        if spec.type not in INDEXABLE_TYPES:
            raise SchemaError(
                f"cannot index column {column!r} of type {spec.type.value}: "
                f"only INT, INT32 and STRING columns are indexable"
            )
        self.secondary[column] = SecondaryIndex(column, self.schema.index_of(column))

    def declared_columns(self) -> tuple[str, ...]:
        """The declared secondary-index columns, in declaration order."""
        return tuple(self.secondary)

    def has_index(self, column: str) -> bool:
        """True if ``column`` is the primary key or has a declared index."""
        return column == self.schema.primary_key or column in self.secondary

    def ensure_secondary(self, branch: str, column: str) -> SecondaryIndex:
        """The secondary index on ``column``, built for ``branch`` if needed."""
        index = self.secondary[column]
        if not index.has_branch(branch):
            if self._scan_branch is None:  # pragma: no cover - engine bug
                raise RuntimeError("index hook has no scan callback bound")
            key_position = self.schema.primary_key_index
            position = index.position
            index.build(
                branch,
                (
                    (record.values[key_position], record.values[position])
                    for record in self._scan_branch(branch)
                ),
            )
        return index

    def supports_op(self, column: str, op: str) -> bool:
        """True if an index on ``column`` can answer operator ``op``.

        The pk index is a hash map, so it answers equality only; declared
        secondary indexes answer equality and ranges.
        """
        if column in self.secondary:
            return op in SUPPORTED_OPS
        if column == self.schema.primary_key:
            return op in ("=", "==")
        return False

    def match_fraction(
        self, branch: str, column: str, op: str, value: object
    ) -> float | None:
        """Estimated fraction of the branch's live rows matching ``op value``.

        ``None`` means the index cannot estimate (unsupported op) and the
        optimizer must not pick it.  Secondary estimates are exact counts;
        a pk equality probe matches at most one row.
        """
        if column == self.schema.primary_key and column not in self.secondary:
            if op not in ("=", "=="):
                return None
            live = self.pk.live_count(branch)
            return 1.0 / live if live else 0.0
        if column not in self.secondary or op not in SUPPORTED_OPS:
            return None
        index = self.ensure_secondary(branch, column)
        size = index.size(branch)
        if size == 0:
            return 0.0
        return index.matching_count(branch, op, value) / size

    def lookup_keys(
        self, branch: str, column: str, op: str, value: object
    ) -> list[int]:
        """Primary keys in ``branch`` matching ``column op value``, sorted."""
        if column == self.schema.primary_key and column not in self.secondary:
            if op in ("=", "==") and self.pk.contains(branch, value):
                return [value]
            return []
        index = self.ensure_secondary(branch, column)
        return sorted(index.lookup(branch, op, value))
