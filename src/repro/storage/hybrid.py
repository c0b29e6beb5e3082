"""The hybrid storage engine.

Hybrid combines the other two layouts (paper Section 3.4): records are stored
in segments as in version-first, giving data locality per branch lineage, and
each segment carries a *local* bitmap index recording which branches each of
its records is live in, as in tuple-first.  A *branch-segment* index maps each
branch to the segments containing at least one record live in it, letting
scans skip irrelevant segments and multi-branch operations work per segment.

Segments come in two classes: *head* segments receive fresh modifications of
one branch; on a branch operation the parent's head is frozen into an
*internal* segment (only its bitmaps may change afterwards) and two new head
segments are created, one for the parent and one for the child.

Commits snapshot each (branch, segment) local bitmap into its own
delta-compressed commit history.  The paper keeps these histories as many
small files, which is why its hybrid commit metadata is split across them
(Section 5.3).  Here a commit's deltas ride in its version-graph event instead,
one per segment whose bitmap the commit changed, so that one graph frame is
the commit's only metadata write; a reopen rebuilds the histories from the
graph.  The segments a commit covers are those whose history holds an entry
at or before it.
"""

from __future__ import annotations

import os
from typing import Iterator

from repro.bitmap import CommitHistory
from repro.bitmap.bitmap import Bitmap
from repro.bitmap.branch_bitmap import BranchOrientedBitmapIndex
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
from repro.storage.segments import SegmentSet
from repro.versioning.diff import DiffResult
from repro.versioning.version_graph import MASTER_BRANCH

#: Low bits of a packed key-index location that hold the ordinal.
_ORDINAL_BITS = 32
_ORDINAL_MASK = (1 << _ORDINAL_BITS) - 1


class HybridEngine(VersionedStorageEngine):
    """Version-first segments with tuple-first style per-segment bitmaps."""

    kind = StorageEngineKind.HYBRID

    def __init__(
        self,
        directory: str,
        schema: Schema,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pool: BufferPool | None = None,
        commit_layer_interval: int = 8,
    ):
        super().__init__(
            directory, schema, page_size=page_size, buffer_pool=buffer_pool
        )
        self.segments = SegmentSet(
            os.path.join(directory, "segments"),
            schema,
            self.buffer_pool,
            page_size=page_size,
        )
        self.commit_layer_interval = commit_layer_interval
        #: Per-segment local bitmap indexes: segment id -> (branch -> bitmap).
        self._local_bitmaps: dict[str, BranchOrientedBitmapIndex] = {}
        #: The branch-segment index: branch -> set of segment ids with records
        #: live in that branch.
        self._branch_segments: dict[str, set[str]] = {}
        #: branch -> id of its current head segment.
        self._head_segment: dict[str, str] = {}
        #: branch -> segment id -> commit history of that local bitmap column.
        self._histories: dict[str, dict[str, CommitHistory]] = {}
        #: Segments numbered in registration order, with their local
        #: bitmaps.  The key index stores a copy at ``ordinal`` of segment
        #: number ``n`` as the one int ``n << 32 | ordinal``, which takes a
        #: third of the memory of a ``(segment id, ordinal)`` tuple.
        self._numbered_segments: list[tuple[str, BranchOrientedBitmapIndex]] = []
        self._segment_numbers: dict[str, int] = {}
        #: Every stored copy of each key as a packed location, for all
        #: branches; a branch's copy is the one live in its local bitmaps.
        self.key_index: KeyCopyIndex[int] = KeyCopyIndex(
            self._stored_copies, self.write_mutex
        )

    # -- engine hooks --------------------------------------------------------------

    def _prepare_master(self) -> None:
        self.key_index.start_empty()
        self._fork_segments(MASTER_BRANCH, None)
        self._branch_segments[MASTER_BRANCH] = set()
        self.index_hook.branch_created(MASTER_BRANCH)

    def _fork_segments(
        self, name: str, parent_branch: str | None, *, reopen: bool = False
    ) -> None:
        """The segments a branch operation creates (paper Section 3.4): a
        fork off ``parent_branch``'s head freezes it and gives the parent a
        fresh head; the new branch always gets one.  The graph's branch
        events name every argument, so a reopen replays them."""
        if parent_branch is not None:
            self.segments.get(self._head_segment[parent_branch]).freeze()
            self._head_segment[parent_branch] = self._new_head_segment(
                parent_branch, reopen
            )
        self._head_segment[name] = self._new_head_segment(name, reopen)

    def _new_head_segment(self, branch: str, reopen: bool) -> str:
        segment = self.segments.create(owner_branch=branch, reopen=reopen)
        self._add_local_bitmaps(segment.segment_id).add_branch(branch)
        return segment.segment_id

    def _add_local_bitmaps(self, segment_id: str) -> BranchOrientedBitmapIndex:
        """Create a segment's (empty) local bitmap index and number it."""
        local = self._local_bitmaps[segment_id] = BranchOrientedBitmapIndex()
        self._segment_numbers[segment_id] = len(self._numbered_segments)
        self._numbered_segments.append((segment_id, local))
        return local

    def _materialize_branch(
        self, name: str, parent_branch: str, from_commit: str, at_head: bool
    ) -> None:
        self._branch_segments[name] = set()
        if at_head:
            self._fork_bitmaps(name, parent_branch)
            self._fork_segments(name, parent_branch)
            self.index_hook.branch_created(name, clone_from=parent_branch)
        else:
            self._restore_branch(name, from_commit)
            self._fork_segments(name, None)
            self.index_hook.branch_rebuilt(name)

    def _fork_bitmaps(self, name: str, parent_branch: str) -> None:
        """Fork the parent's liveness bits into a new column for the child
        in every segment that holds records live in the parent's ancestry."""
        for segment_id in self._branch_segments[parent_branch]:
            local = self._local_bitmaps[segment_id]
            if local.has_branch(name):
                continue
            local.add_branch(name, clone_from=parent_branch)
            if local.branch_bitmap(name).any():
                self._branch_segments[name].add(segment_id)

    def _restore_branch(self, branch: str, commit_id: str) -> None:
        """Set ``branch``'s local bitmaps to the snapshots of ``commit_id``."""
        for segment_id, snapshot in self._commit_read_state(commit_id).items():
            snapshot = stored_bitmap(self.segments.get(segment_id).heap, snapshot)
            local = self._local_bitmaps[segment_id]
            if not local.has_branch(branch):
                local.add_branch(branch)
            local.restore_branch(branch, snapshot)
            if snapshot.any():
                self._branch_segments[branch].add(segment_id)

    def _record_commit_state(
        self, branch: str, commit_id: str
    ) -> dict[str, str] | None:
        """``{segment id: delta}`` for the segments whose bitmap of
        ``branch`` changed since its previous commit, or None if none did."""
        sequence = self.graph.get_commit(commit_id).sequence
        histories = self._histories.setdefault(branch, {})
        deltas: dict[str, str] = {}
        for segment_id in sorted(
            self._branch_segments[branch] | {self._head_segment[branch]}
        ):
            local = self._local_bitmaps[segment_id]
            snapshot = (
                local.branch_bitmap(branch) if local.has_branch(branch) else Bitmap()
            )
            history = histories.get(segment_id)
            if history is None:
                history = CommitHistory(self.commit_layer_interval)
            delta = history.record_commit(sequence, snapshot)
            if delta is not None:
                histories[segment_id] = history
                deltas[segment_id] = delta
        return deltas or None

    def _load_storage(self) -> None:
        """Replay segments from the graph's branch events, rebuild histories
        from its commit events, and restore each branch's local bitmaps.

        Each branch event, in creation order, recreates the segments its
        branch operation made (:meth:`_fork_segments`).  Visibility in hybrid is bitmap-governed, so head segments are *not*
        truncated on recovery: records appended by an uncommitted transaction
        may survive as dead bytes in the head segment, but no restored bitmap
        references them, making them invisible to every scan.  A segment
        too short for a restored bitmap lost committed records: strict
        recovery refuses to open.
        """
        self.segments.check_layout()
        for branch in self.graph.branches():
            self._fork_segments(
                branch.name,
                branch.parent_branch if branch.at_head else None,
                reopen=True,
            )
            self._branch_segments[branch.name] = set()
        # Rebuild every (branch, segment) history from the deltas the graph's
        # commit events carry, in commit order.
        for commit in self.graph.commits():
            deltas = self.graph.commit_state(commit.commit_id) or {}
            histories = self._histories.setdefault(commit.branch, {})
            for segment_id, delta in deltas.items():
                if segment_id not in histories:
                    histories[segment_id] = CommitHistory(self.commit_layer_interval)
                histories[segment_id].replay(commit.sequence, delta)
        # Restore each branch's local bitmaps at its head commit.  The head
        # commit may live on an ancestor branch (for a branch with no commits
        # of its own); the snapshots come from the owning branch's histories.
        for name in self.graph.branch_names():
            self._restore_branch(name, self.graph.head(name))
        # The key index stays unbuilt: the first pk lookup reads it from
        # the segments.

    def _stored_copies(self) -> Iterator[tuple[int, int]]:
        """``(key, packed location)`` of every record of every segment."""
        pk_position = self.schema.primary_key_index
        for segment in self.segments.all():
            base = self._segment_numbers[segment.segment_id] << _ORDINAL_BITS
            for key, ordinal in stored_pk_ordinals(segment.heap, pk_position):
                yield key, base | ordinal

    def key_location(self, branch: str, key: int) -> tuple[str, int] | None:
        """The ``(segment id, ordinal)`` of ``key``'s copy live in ``branch``.

        Walks the key's stored copies, newest first, and tests each one's
        live bit in its segment's local bitmap in place; at most one copy of
        a key is live in a branch.  The cost is the key's copy count, not
        the number of segments the branch spans.
        """
        numbered = self._numbered_segments
        for packed in reversed(self.key_index.copies(key)):
            segment_id, local = numbered[packed >> _ORDINAL_BITS]
            ordinal = packed & _ORDINAL_MASK
            if local.has_branch(branch) and local.is_set(ordinal, branch):
                return segment_id, ordinal
        return None

    def record_for_key(self, branch: str, key: int) -> Record | None:
        location = self.key_location(branch, key)
        if location is None:
            return None
        segment_id, ordinal = location
        return self.segments.get(segment_id).record_at(ordinal)

    def records_for_keys(self, branch: str, keys) -> list[Record]:
        def locate(key: int) -> tuple[HeapFile, int] | None:
            location = self.key_location(branch, key)
            if location is None:
                return None
            segment_id, ordinal = location
            return self.segments.get(segment_id).heap, ordinal

        return self._fetch_located(branch, keys, locate)

    def _flush_storage(self) -> None:
        self.segments.flush()

    # -- data operations ----------------------------------------------------------------

    def insert(self, branch: str, record: Record) -> None:
        segment_id = self._head_segment[branch]
        segment = self.segments.get(segment_id)
        ordinal = segment.append(record)
        local = self._local_bitmaps[segment_id]
        if not local.has_branch(branch):
            local.add_branch(branch)
        local.set(ordinal, branch)
        self._branch_segments[branch].add(segment_id)
        key = record.key(self.schema)
        self.key_index.add(
            key, self._segment_numbers[segment_id] << _ORDINAL_BITS | ordinal
        )
        self.index_hook.applied(branch, key, record)
        self.stats.records_inserted += 1

    def update(self, branch: str, record: Record) -> None:
        key = record.key(self.schema)
        previous = self.key_location(branch, key)
        # The new copy's append comes first: a record the schema rejects
        # raises there, before the old copy's live bit is touched.
        self.insert(branch, record)
        if previous is not None:
            old_segment_id, old_ordinal = previous
            self._local_bitmaps[old_segment_id].clear(old_ordinal, branch)
        self.stats.records_inserted -= 1
        self.stats.records_updated += 1

    def delete(self, branch: str, key: int) -> None:
        self.schema.validate_key(key)
        previous = self.key_location(branch, key)
        if previous is None:
            raise StorageError(f"key {key} is not live in branch {branch!r}")
        segment_id, ordinal = previous
        self._local_bitmaps[segment_id].clear(ordinal, branch)
        self.index_hook.removed(branch, key)
        self.stats.records_deleted += 1

    def branch_contains_key(self, branch: str, key: int) -> bool:
        return self.key_location(branch, key) is not None

    # -- read states ---------------------------------------------------------------------

    # perf/trace.py patches these names through the class's own __dict__
    # (ROADMAP item 9), so the base class's reads are bound here too.
    scan_branch_columns = VersionedStorageEngine.scan_branch_columns
    scan_commit_columns = VersionedStorageEngine.scan_commit_columns
    scan_branches_batched = VersionedStorageEngine.scan_branches_batched
    count_branch = VersionedStorageEngine.count_branch
    count_commit = VersionedStorageEngine.count_commit
    diff = VersionedStorageEngine.diff

    def _head_state(self, branch: str) -> dict[str, Bitmap]:
        """``{segment id: bitmap}`` of ``branch``'s live local bitmaps, per
        segment it touches."""
        result = {}
        for segment_id in sorted(self._branch_segments.get(branch, ())):
            local = self._local_bitmaps[segment_id]
            if local.has_branch(branch):
                bitmap = local.branch_bitmap(branch)
                if bitmap.any():
                    result[segment_id] = bitmap
        return result

    def _commit_read_state(self, commit_id: str) -> dict[str, Bitmap]:
        """``{segment id: recorded bitmap}`` for a historical commit: every
        non-empty state the committing branch's histories hold at it."""
        commit = self.graph.get_commit(commit_id)
        histories = self._histories.get(commit.branch, {})
        result = {}
        for segment_id in sorted(histories):
            bitmap = histories[segment_id].checkout(commit.sequence)
            if bitmap.any():
                result[segment_id] = bitmap
        return result

    def _scan_state(
        self, state: dict[str, Bitmap], predicate: Predicate | None
    ) -> Iterator[Record]:
        """The reference row scan of per-segment bitmaps, in segment order."""
        for segment_id, bitmap in state.items():
            heap = self.segments.get(segment_id).heap
            for record in live_heap_records(heap, bitmap):
                self.stats.records_scanned += 1
                if predicate is None or predicate.evaluate(record, self.schema):
                    yield record

    def _scan_state_columns(
        self,
        state: dict[str, Bitmap],
        predicate: Predicate | None,
        batch_size: int,
        columns: tuple[str, ...] | None,
    ) -> Iterator[ColumnBatch]:
        """Per-segment page-decode column scans, in the same segment order
        as the row scan."""
        for segment_id, bitmap in state.items():
            segment = self.segments.get(segment_id)
            yield from scan_heap_bitmap_columns(
                segment.heap,
                bitmap,
                self.schema,
                predicate,
                batch_size,
                self.stats,
                columns=columns,
            )

    def _scan_state_copies(
        self, states: dict[str, dict[str, Bitmap]], predicate: Predicate | None
    ) -> Iterator[tuple[ColumnBatch, list[frozenset]]]:
        """One pass per segment any of ``states`` touches, annotating copies
        with branches.

        The branch-segment index (or the pinned commits' segment lists)
        narrows the scan to segments holding any requested branch's
        records; within each segment the per-branch local bitmaps are
        consulted word-at-a-time (paper Section 3.4).
        """
        per_segment: dict[str, dict[str, Bitmap]] = {}
        for branch, state in states.items():
            for segment_id, bitmap in state.items():
                per_segment.setdefault(segment_id, {})[branch] = bitmap
        for segment_id in sorted(per_segment):
            yield from scan_heap_member_columns(
                self.segments.get(segment_id).heap,
                per_segment[segment_id],
                self.schema,
                predicate,
                self.stats,
            )

    def _live_count(self, branch: str) -> int:
        # Sum of per-segment local bitmap popcounts, read in place; no
        # segment I/O.
        local_bitmaps = self._local_bitmaps
        return sum(
            local_bitmaps[segment_id].live_count(branch)
            for segment_id in self._branch_segments.get(branch, ())
            if local_bitmaps[segment_id].has_branch(branch)
        )

    def _count_state(self, state: dict[str, Bitmap]) -> int:
        return sum(bitmap.count() for bitmap in state.values())

    def _diff_states(
        self,
        state_a: dict[str, Bitmap],
        state_b: dict[str, Bitmap],
        version_a: str = "",
        version_b: str = "",
    ) -> DiffResult:
        """Per-segment bitmap differences (paper Section 3.4).

        Only the segments either state touches are visited, and within them
        only the tuples whose liveness differs are fetched -- against the LCA
        snapshots, the reason hybrid posts the best merge throughput in
        Table 3.
        """
        empty = Bitmap()
        return diff_heap_bitmaps(
            (
                (
                    self.segments.get(segment_id).heap,
                    state_a.get(segment_id, empty),
                    state_b.get(segment_id, empty),
                )
                for segment_id in sorted(set(state_a) | set(state_b))
            ),
            DiffResult(version_a=version_a, version_b=version_b),
            self.schema.primary_key_index,
            self.stats,
        )

    # -- merge application -----------------------------------------------------------------------

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
        """Share the source branch's (segment, ordinal) instead of copying.

        When the resolved record is the source branch's current copy, the
        target branch simply gains a live bit in the source copy's segment
        (creating a bitmap column for the target in that segment if needed)
        and the branch-segment index is updated.  Only genuinely merged
        records are appended to the target's head segment.
        """
        source_location = self.key_location(source_branch, key) if shared else None
        if source_location is None:
            super()._apply_merge_change(
                target_branch, source_branch, key, record,
                in_target=in_target, shared=shared,
            )
            return
        target_location = self.key_location(target_branch, key)
        if target_location is not None:
            old_segment, old_ordinal = target_location
            self._local_bitmaps[old_segment].clear(old_ordinal, target_branch)
        # The shared copy is already in the key index; only the target's
        # live bits move.
        segment_id, ordinal = source_location
        local = self._local_bitmaps[segment_id]
        if not local.has_branch(target_branch):
            local.add_branch(target_branch)
        local.set(ordinal, target_branch)
        self._branch_segments[target_branch].add(segment_id)
        self.index_hook.applied(target_branch, key, record)

    # -- sizes ----------------------------------------------------------------------------------

    def data_size_bytes(self) -> int:
        return self.segments.total_size_bytes()

    def commit_metadata_bytes(self) -> int:
        return sum(
            history.size_bytes()
            for histories in self._histories.values()
            for history in histories.values()
        )

    def bitmap_index_bytes(self) -> int:
        """Combined footprint of all local bitmap indexes."""
        return sum(index.size_bytes() for index in self._local_bitmaps.values())

    def segment_count(self) -> int:
        """Number of segment files (exposed for tests and benchmarks)."""
        return len(self.segments)

    def commit_history_count(self) -> int:
        """Number of (branch, segment) commit histories."""
        return sum(len(histories) for histories in self._histories.values())

    def checkout_commit_bitmaps(self, commit_id: str) -> dict[str, Bitmap]:
        """Reconstruct only the per-segment bitmap snapshots of a commit.

        This is the operation the paper's Table 2 times as "checkout": each
        relevant (branch, segment) history replays its delta chain up to the
        commit, without touching any segment heap file.
        """
        return self._commit_read_state(commit_id)
