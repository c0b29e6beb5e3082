"""The tuple-first storage engine.

Tuples from every branch live together in a single shared heap file, and a
bitmap index records which branches each tuple is live in (paper Section 3.2).
Commits snapshot the committing branch's bitmap into a per-branch,
delta-and-RLE-compressed commit history kept outside the live index.  A
commit that changed the bitmap carries its one delta in its version-graph
event, which is the commit's only metadata write; a reopen rebuilds the
histories from the graph.
Multi-branch operations (diff, Query 4) reduce to bitmap algebra; single-branch
scans must visit the shared heap file, where tuples of the scanned branch are
interleaved with everyone else's -- the weakness the evaluation highlights.

The bitmap index may be branch-oriented (the default, and what the paper's
evaluation uses) or tuple-oriented; see :mod:`repro.bitmap`.
"""

from __future__ import annotations

import os
from typing import Iterator

from repro.bitmap import BitmapOrientation, CommitHistory, make_bitmap_index
from repro.bitmap.bitmap import Bitmap
from repro.core.buffer_pool import BufferPool
from repro.core.columns import ColumnBatch
from repro.core.heapfile import HeapFile
from repro.core.page import DEFAULT_PAGE_SIZE
from repro.core.predicates import Predicate
from repro.core.record import Record
from repro.core.schema import Schema
from repro.errors import StorageError
from repro.storage.base import (
    StorageEngineKind,
    VersionedStorageEngine,
    diff_heap_bitmaps,
    live_heap_records,
    scan_heap_bitmap_columns,
    scan_heap_member_columns,
    stored_bitmap,
    stored_pk_ordinals,
)
from repro.storage.pk_index import KeyCopyIndex
from repro.versioning.diff import DiffResult
from repro.versioning.version_graph import MASTER_BRANCH


class TupleFirstEngine(VersionedStorageEngine):
    """Single shared heap file plus a branch/tuple bitmap index."""

    kind = StorageEngineKind.TUPLE_FIRST

    def __init__(
        self,
        directory: str,
        schema: Schema,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pool: BufferPool | None = None,
        bitmap_orientation: BitmapOrientation | str = BitmapOrientation.BRANCH,
        commit_layer_interval: int = 8,
    ):
        super().__init__(
            directory, schema, page_size=page_size, buffer_pool=buffer_pool
        )
        self.heap = HeapFile(
            os.path.join(directory, "data.heap"),
            schema,
            self.buffer_pool,
            page_size=page_size,
        )
        self.bitmap_index = make_bitmap_index(bitmap_orientation)
        #: Every stored copy of each key as a heap ordinal, for all
        #: branches; a branch's copy is the one live in its bitmap.
        self.key_index: KeyCopyIndex[int] = KeyCopyIndex(
            lambda: stored_pk_ordinals(self.heap, self.schema.primary_key_index),
            self.write_mutex,
        )
        self.commit_layer_interval = commit_layer_interval
        self._histories: dict[str, CommitHistory] = {}

    # -- engine hooks ---------------------------------------------------------

    def _prepare_master(self) -> None:
        # A re-init over a reused directory starts from an empty heap.
        self.heap.truncate_records(0)
        self.key_index.start_empty()
        self._add_branch_structures(MASTER_BRANCH, clone_from=None)

    def _add_branch_structures(self, branch: str, clone_from: str | None) -> None:
        self.bitmap_index.add_branch(branch, clone_from=clone_from)
        self.index_hook.branch_created(branch, clone_from=clone_from)
        self._histories[branch] = CommitHistory(self.commit_layer_interval)

    def _materialize_branch(
        self, name: str, parent_branch: str, from_commit: str, at_head: bool
    ) -> None:
        if at_head:
            # A branch is a straight clone of the parent's bitmap.
            self._add_branch_structures(name, clone_from=parent_branch)
            return
        # Branching from a historical commit: restore that commit's bitmap
        # from the parent's commit history.  The key index needs nothing:
        # the restored bits pick the branch's copies.
        snapshot = self._commit_read_state(from_commit)
        self._add_branch_structures(name, clone_from=None)
        self.bitmap_index.restore_branch(name, snapshot)
        self.index_hook.branch_rebuilt(name)

    def _record_commit_state(self, branch: str, commit_id: str) -> str | None:
        """The commit's bitmap delta, or None when the bitmap is unchanged."""
        return self._histories[branch].record_commit(
            self.graph.get_commit(commit_id).sequence,
            self.bitmap_index.branch_bitmap(branch),
        )

    def _flush_storage(self) -> None:
        self.heap.flush()

    def _load_storage(self) -> None:
        """Restore every branch to its head-commit bitmap snapshot.

        The shared heap was reloaded when the engine object was constructed;
        what recovery restores here is *visibility*: each branch's live
        bitmap is checked out from its head commit, so heap tuples appended
        by uncommitted (loser) transactions have no set bits anywhere and
        stay invisible.  The commit histories are rebuilt from the deltas
        the graph's commit events carry, in commit order.  A heap too short
        for a restored bitmap lost committed records: strict recovery
        refuses to open.
        """
        branches = self.graph.branch_names()
        for branch in branches:
            self.bitmap_index.add_branch(branch)
            self._histories[branch] = CommitHistory(self.commit_layer_interval)
        for commit in self.graph.commits():
            delta = self.graph.commit_state(commit.commit_id)
            if delta is not None:
                self._histories[commit.branch].replay(commit.sequence, delta)
        # Second pass: a branch with no commits of its own checks out through
        # an ancestor's history, so all histories must be rebuilt first.
        for branch in branches:
            self.bitmap_index.restore_branch(
                branch,
                stored_bitmap(
                    self.heap, self._commit_read_state(self.graph.head(branch))
                ),
            )
        # The key index stays unbuilt: the first pk lookup reads it from
        # the heap.

    # -- data operations --------------------------------------------------------

    def key_location(self, branch: str, key: int) -> int | None:
        """The heap ordinal of ``key``'s copy live in ``branch``, or None.

        Walks the key's stored copies, newest first, and tests each one's
        live bit in place; at most one copy of a key is live in a branch.
        """
        is_set = self.bitmap_index.is_set
        for ordinal in reversed(self.key_index.copies(key)):
            if is_set(ordinal, branch):
                return ordinal
        return None

    def insert(self, branch: str, record: Record) -> None:
        key = record.key(self.schema)
        ordinal = self._append(key, record)
        self.bitmap_index.set(ordinal, branch)
        self.index_hook.applied(branch, key, record)
        self.stats.records_inserted += 1

    def update(self, branch: str, record: Record) -> None:
        key = record.key(self.schema)
        previous = self.key_location(branch, key)
        # The new copy's append comes first: a record the schema rejects
        # raises there, before the old copy's live bit is touched.
        ordinal = self._append(key, record)
        if previous is not None:
            # The old copy stays in the heap (historical commits still see
            # it); only its live bit for this branch is cleared.
            self.bitmap_index.clear(previous, branch)
        self.bitmap_index.set(ordinal, branch)
        self.index_hook.applied(branch, key, record)
        self.stats.records_updated += 1

    def delete(self, branch: str, key: int) -> None:
        self.schema.validate_key(key)
        previous = self.key_location(branch, key)
        if previous is None:
            raise StorageError(f"key {key} is not live in branch {branch!r}")
        self.bitmap_index.clear(previous, branch)
        self.index_hook.removed(branch, key)
        self.stats.records_deleted += 1

    def branch_contains_key(self, branch: str, key: int) -> bool:
        return self.key_location(branch, key) is not None

    def record_for_key(self, branch: str, key: int) -> Record | None:
        ordinal = self.key_location(branch, key)
        if ordinal is None:
            return None
        return self.heap.record_by_ordinal(ordinal)

    def records_for_keys(self, branch: str, keys) -> list[Record]:
        def locate(key: int) -> tuple[HeapFile, int] | None:
            ordinal = self.key_location(branch, key)
            return None if ordinal is None else (self.heap, ordinal)

        return self._fetch_located(branch, keys, locate)

    def _append(self, key: int, record: Record) -> int:
        """Append a new stored copy of ``key``; returns its heap ordinal."""
        ordinal = self.heap.append(record).ordinal(self.heap.records_per_page)
        self.key_index.add(key, ordinal)
        return ordinal

    # -- read states --------------------------------------------------------------

    def _head_state(self, branch: str) -> Bitmap:
        return self.bitmap_index.branch_bitmap(branch)

    def _commit_read_state(self, commit_id: str) -> Bitmap:
        commit = self.graph.get_commit(commit_id)
        return self._histories[commit.branch].checkout(commit.sequence)

    def _scan_state(
        self, state: Bitmap, predicate: Predicate | None
    ) -> Iterator[Record]:
        """The reference row scan of a bitmap over the shared heap."""
        for record in live_heap_records(self.heap, state):
            self.stats.records_scanned += 1
            if predicate is None or predicate.evaluate(record, self.schema):
                yield record

    def _scan_state_columns(
        self,
        state: Bitmap,
        predicate: Predicate | None,
        batch_size: int,
        columns: tuple[str, ...] | None,
    ) -> Iterator[ColumnBatch]:
        """Pages decode straight into typed column arrays, never building
        record objects; ``columns`` pushes projection into the page decode."""
        return scan_heap_bitmap_columns(
            self.heap,
            state,
            self.schema,
            predicate,
            batch_size,
            self.stats,
            columns=columns,
        )

    def _scan_state_copies(
        self, states: dict[str, Bitmap], predicate: Predicate | None
    ) -> Iterator[tuple[ColumnBatch, list[frozenset]]]:
        """One pass over the shared heap, page at a time, with branch
        membership computed word-at-a-time from the branches' bitmaps."""
        return scan_heap_member_columns(
            self.heap, states, self.schema, predicate, self.stats
        )

    def _live_count(self, branch: str) -> int:
        # The branch bitmap's popcount, read in place; no heap I/O at all.
        return self.bitmap_index.live_count(branch)

    def _count_state(self, state: Bitmap) -> int:
        return state.count()

    def _diff_states(
        self, state_a: Bitmap, state_b: Bitmap, version_a: str = "", version_b: str = ""
    ) -> DiffResult:
        """XOR the two bitmaps and route records to the two sides.

        Against the LCA snapshot, this is how a merge uses "the bitmap ... to
        reduce the amount of data that needs to be scanned" (paper Section
        3.2): only the tuples whose liveness changed are fetched.
        """
        return diff_heap_bitmaps(
            [(self.heap, state_a, state_b)],
            DiffResult(version_a=version_a, version_b=version_b),
            self.schema.primary_key_index,
            self.stats,
        )

    # -- merge application ---------------------------------------------------------------

    def _apply_merge_change(
        self,
        target_branch: str,
        source_branch: str,
        key: int,
        record: Record | None,
        *,
        in_target: bool,
        shared: bool,
    ) -> None:
        """Prefer sharing the source branch's tuple over copying it.

        When the resolved record is the source branch's current copy, the
        merge only flips bits: the target's old copy (if any) is cleared and
        the source's tuple becomes live in the target too.  Only records
        whose resolved values match neither branch (field-level merges) are
        physically appended.
        """
        source_ordinal = self.key_location(source_branch, key) if shared else None
        if source_ordinal is None:
            super()._apply_merge_change(
                target_branch, source_branch, key, record,
                in_target=in_target, shared=shared,
            )
            return
        target_ordinal = self.key_location(target_branch, key)
        if target_ordinal is not None:
            self.bitmap_index.clear(target_ordinal, target_branch)
        # The shared copy is already in the key index; only the target's
        # live bits move.
        self.bitmap_index.set(source_ordinal, target_branch)
        self.index_hook.applied(target_branch, key, record)

    # -- sizes ------------------------------------------------------------------------------

    def data_size_bytes(self) -> int:
        return self.heap.size_bytes()

    def commit_metadata_bytes(self) -> int:
        return sum(history.size_bytes() for history in self._histories.values())

    def bitmap_index_bytes(self) -> int:
        """Memory footprint of the live bitmap index."""
        return self.bitmap_index.size_bytes()

    def commit_history(self, branch: str) -> CommitHistory:
        """The commit history of ``branch`` (exposed for benchmarks)."""
        return self._histories[branch]

    def checkout_commit_bitmap(self, commit_id: str) -> Bitmap:
        """Reconstruct only the bitmap snapshot of a commit (no data scan).

        This is the operation the paper's Table 2 times as "checkout": the
        delta chain of the owning branch's commit history is replayed up to
        the commit, without touching the heap file.
        """
        return self._commit_read_state(commit_id)
