"""Per-engine index maintenance facade.

Every storage engine owns one :class:`IndexMaintenance` instance (its
``index_hook`` attribute -- lint rule REPRO011 checks that every mutation
path notifies it).  The facade owns:

- the declared :class:`~repro.index.secondary.SecondaryIndex` set, built
  lazily per branch and maintained incrementally afterwards,
- the planner-facing API (:meth:`has_index`, :meth:`match_fraction`,
  :meth:`lookup_keys`) behind :class:`~repro.query.logical.IndexScan`.

Primary-key questions go to the engine, which owns its pk index.  The
paper keeps a pk map per branch (Section 3.2); here every engine answers
from one branch-independent :class:`~repro.storage.pk_index.KeyCopyIndex`
plus the branch's live bitmaps, so forking a branch copies no pk entries.
The pk index is derived data, never persisted, and rebuilt from storage
after a reopen; version-first's live bits are too, from its chain walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.schema import ColumnType, Schema
from repro.errors import SchemaError
from repro.index.secondary import SUPPORTED_OPS, SecondaryIndex

if TYPE_CHECKING:
    from repro.storage.base import VersionedStorageEngine
    from repro.versioning.snapshots import SnapshotEngineView

#: Column types a secondary index may be declared on.
INDEXABLE_TYPES = (ColumnType.INT, ColumnType.INT32, ColumnType.STRING)


class IndexMaintenance:
    """Owns one engine's secondary indexes; asks the engine about keys."""

    def __init__(
        self,
        schema: Schema,
        engine: "VersionedStorageEngine | SnapshotEngineView | None" = None,
    ):
        self.schema = schema
        self.secondary: dict[str, SecondaryIndex] = {}
        self._engine = engine

    # -- mutation notifications ----------------------------------------------

    def applied(self, branch: str, key: int, record) -> None:
        """An insert or update made ``record`` ``key``'s live row in ``branch``."""
        for index in self.secondary.values():
            if index.has_branch(branch):
                index.put(branch, key, record.values[index.position])

    def applied_stored(
        self, branch: str, key: int, stored: Callable[[], bytes], codec
    ) -> None:
        """As :meth:`applied`, for a stored copy a merge made ``key``'s live
        row in ``branch`` without decoding it.  ``stored()`` reads the
        copy's encoded bytes; it is called only when a secondary index is
        built for ``branch``, and only the indexed columns are decoded."""
        data = None
        for index in self.secondary.values():
            if index.has_branch(branch):
                if data is None:
                    data = stored()
                index.put(branch, key, codec.decode_column(data, index.position)[0])

    def removed(self, branch: str, key: int) -> None:
        """A delete dropped ``key`` from ``branch``."""
        for index in self.secondary.values():
            if index.has_branch(branch):
                index.remove(branch, key)

    def branch_created(self, branch: str, clone_from: str | None = None) -> None:
        """A new branch forked at its parent's head (or empty for master)."""
        for index in self.secondary.values():
            if clone_from is not None and index.has_branch(clone_from):
                index.add_branch(branch, clone_from=clone_from)
            else:
                index.drop_branch(branch)

    def branch_rebuilt(self, branch: str) -> None:
        """A branch was materialized wholesale (historical checkout)."""
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

    def has_index(self, column: str) -> bool:
        """True if ``column`` is the primary key or has a declared index."""
        return column == self.schema.primary_key or column in self.secondary

    def ensure_secondary(self, branch: str, column: str) -> SecondaryIndex:
        """The secondary index on ``column``, built for ``branch`` if needed."""
        index = self.secondary[column]
        if not index.has_branch(branch):
            key_position = self.schema.primary_key_index
            position = index.position
            index.build(
                branch,
                (
                    (record.values[key_position], record.values[position])
                    for record in self._bound_engine().scan_branch(branch)
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
        a pk equality probe matches at most one row of the branch's live
        count (the engine's index-only :meth:`count_branch`).
        """
        if column == self.schema.primary_key and column not in self.secondary:
            if op not in ("=", "=="):
                return None
            live = self._bound_engine().count_branch(branch)
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
            if op in ("=", "==") and self._bound_engine().branch_contains_key(
                branch, value
            ):
                return [value]
            return []
        index = self.ensure_secondary(branch, column)
        return sorted(index.lookup(branch, op, value))

    def _bound_engine(self) -> "VersionedStorageEngine | SnapshotEngineView":
        if self._engine is None:  # pragma: no cover - engine bug
            raise RuntimeError("index hook is not bound to an engine")
        return self._engine
