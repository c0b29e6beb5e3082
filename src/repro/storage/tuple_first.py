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

from repro.bitmap import BitmapOrientation, CommitHistory, make_bitmap_index
from repro.bitmap.bitmap import Bitmap
from repro.core.buffer_pool import BufferPool
from repro.core.heapfile import HeapFile
from repro.core.page import DEFAULT_PAGE_SIZE
from repro.core.record import Record
from repro.core.schema import Schema
from repro.errors import StorageError
from repro.storage.base import (
    StorageEngineKind,
    VersionedStorageEngine,
    stored_bitmap,
    stored_pk_ordinals,
)
from repro.storage.pk_index import KeyCopyIndex
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
            codec=self.codec,
        )
        self.bitmap_index = make_bitmap_index(bitmap_orientation)
        #: Every stored copy of each key as a heap ordinal, for all
        #: branches; a branch's copy is the one live in its bitmap.
        self.key_index: KeyCopyIndex = KeyCopyIndex(
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

    def _discard_master(self) -> None:
        self.heap.truncate_records(0)
        self.bitmap_index = type(self.bitmap_index)()
        self._histories.clear()
        self.key_index.drop()

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
        snapshot = self._commit_bitmap(from_commit)
        self._add_branch_structures(name, clone_from=None)
        self.bitmap_index.restore_branch(name, snapshot)
        self.index_hook.branch_rebuilt(name)

    def _record_commit_state(
        self, branch: str, commit_id: str
    ) -> tuple[int, bytes] | None:
        """The commit's bitmap delta, ``(bit length, RLE bytes)``, or None
        when the bitmap is unchanged."""
        return self._histories[branch].record_commit(
            self.graph.get_commit(commit_id).sequence,
            self.bitmap_index.branch_bitmap(branch),
        )

    def _flush_storage(self, branch: str | None = None) -> None:
        # Every branch's records share the one heap.
        self.heap.flush()

    def close(self) -> None:
        """Flush, release cached pages and drop the derived key index,
        which the next lookup rebuilds from storage."""
        super().close()
        self.key_index.drop()

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
                    self.heap, self._commit_bitmap(self.graph.head(branch))
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

    def _live_copy(self, branch: str, key: int) -> tuple[HeapFile, int] | None:
        ordinal = self.key_location(branch, key)
        return None if ordinal is None else (self.heap, ordinal)

    def _append(self, key: int, record: Record) -> int:
        """Append a new stored copy of ``key``; returns its heap ordinal."""
        ordinal = self.heap.append(record)
        self.key_index.add(key, ordinal)
        return ordinal

    # -- read states --------------------------------------------------------------

    def _state_heap(self, key: None) -> HeapFile:
        # A state's one entry, keyed None, is the shared heap's bitmap.
        return self.heap

    def _head_state(self, branch: str) -> dict[None, Bitmap]:
        return {None: self.bitmap_index.branch_bitmap(branch)}

    def _commit_read_state(self, commit_id: str) -> dict[None, Bitmap]:
        return {None: self._commit_bitmap(commit_id)}

    def _commit_bitmap(self, commit_id: str) -> Bitmap:
        """The bitmap a commit recorded, checked out of its branch's history."""
        commit = self.graph.get_commit(commit_id)
        return self._histories[commit.branch].checkout(commit.sequence)

    def _live_count(self, branch: str) -> int:
        # The branch bitmap's popcount, read in place; no heap I/O at all.
        return self.bitmap_index.live_count(branch)

    # -- merge application ---------------------------------------------------------------

    def _share_copy(
        self, target_branch: str, key: int, location: int, held: int | None
    ) -> None:
        """Share the source branch's tuple instead of copying it: the merge
        only flips bits.  The target's copy (if any) is cleared, the
        source's tuple becomes live in the target too, and a secondary
        index built for the target learns the tuple's indexed value."""
        if held is not None and not self.bitmap_index.is_set(held, target_branch):
            # The target holds a copy with the same content elsewhere.
            held = self.key_location(target_branch, key)
        if held is not None:
            self.bitmap_index.clear(held, target_branch)
        # The shared copy is already in the key index; only the target's
        # live bits move.
        self.bitmap_index.set(location, target_branch)
        self.index_hook.applied_stored(
            target_branch, key, lambda: self._stored_bytes(location), self.codec
        )

    def _located(self, location: int) -> tuple[None, int]:
        # A location is the shared heap's ordinal.
        return None, location

    def _location_base(self, state_key: None) -> int:
        return 0

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
        return self._commit_bitmap(commit_id)
