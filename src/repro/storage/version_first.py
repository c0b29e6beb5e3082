"""The version-first storage engine.

Each branch's modifications are stored in that branch's own segment file,
chained to ancestor segments by branch-point offsets (paper Section 3.3).
A version holds the newest copy of each key along the chain from the
branch's own segment back towards the root: a key's first copy (or
tombstone) hides the older ones.  Because data of one branch is clustered in
its lineage, single-branch scans are cheap; operations that compare many
branches (diff, Query 4) must resolve whole chains into per-branch key
tables, which is the weakness the evaluation exposes.

A version reads as in the other two engines (:mod:`repro.storage.base`): as
one bitmap of live ordinals per segment of its chain.  Version-first derives
those bitmaps rather than storing them.  A live head's, and a commit's still
at its segment's head (a snapshot's pin, say), come from the branch's
primary-key index; any other commit's come from the *chain walk*, which
visits the chain leaf to root, newest record first, and decodes only each
page's key column and record headers.  The chain walk is the
index-independent reference: it rebuilds a reopened branch's index and
verifies a loaded one.  The bitmaps only select rows: a column scan reads
every segment of the chain whole, up to its visible limit, superseded copies
included, as the paper's version-first scan does (:attr:`reads_whole_heaps`),
so its cost grows with the data on the chain (Figure 11).

Commits map a commit id to the byte position -- here, the record ordinal -- of
the latest record active in the committing branch's segment file, stored in an
external structure (paper Section 3.3, *Commit*): the commit's own event in
the version-graph log.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from repro.bitmap.bitmap import Bitmap
from repro.core.buffer_pool import BufferPool
from repro.core.heapfile import HeapFile
from repro.core.page import DEFAULT_PAGE_SIZE, PAGE_HEADER_SIZE
from repro.core.record import Record
from repro.core.schema import Schema
from repro.errors import CommitNotFoundError, CorruptionError, StorageError
from repro.storage.base import (
    MergeChanges,
    StorageEngineKind,
    VersionedStorageEngine,
    check_stored_records,
)
from repro.storage.pk_index import PrimaryKeyIndex
from repro.storage.segments import ParentPointer, SegmentSet
from repro.versioning.diff import DiffResult
from repro.versioning.version_graph import MASTER_BRANCH


class VersionFirstEngine(VersionedStorageEngine):
    """One segment file per branch, chained by branch points."""

    kind = StorageEngineKind.VERSION_FIRST
    # The paper's version-first scan reads each segment of the chain whole,
    # superseded copies included (the cost its Figure 11 shows); the read
    # states' bitmaps only select the rows.
    reads_whole_heaps = True

    def __init__(
        self,
        directory: str,
        schema: Schema,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pool: BufferPool | None = None,
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
        #: branch name -> id of the segment the branch currently writes to.
        self._head_segment: dict[str, str] = {}
        #: Per-branch primary-key index mapping each live key to the
        #: ``(segment id, ordinal)`` of its newest copy, maintained
        #: incrementally on every write.  An in-memory acceleration structure,
        #: not part of the on-disk layout (the paper's version-first design
        #: has no index): key lookups, live counts and the read states of a
        #: live head, or of a commit still at its segment's head, read it
        #: instead of walking the chain.  The chain walk
        #: (:meth:`chain_entries`) stays the reference: reopened branches
        #: rebuild their maps from it lazily, on first touch, and a reopen
        #: verifies the loaded ones against it.
        self.pk_index: PrimaryKeyIndex[tuple[str, int]] = PrimaryKeyIndex()

    # -- engine hooks -------------------------------------------------------------

    def _prepare_master(self) -> None:
        segment = self.segments.create(owner_branch=MASTER_BRANCH)
        self._head_segment[MASTER_BRANCH] = segment.segment_id
        self.pk_index.add_branch(MASTER_BRANCH)
        self.index_hook.branch_created(MASTER_BRANCH)

    def _materialize_branch(
        self, name: str, parent_branch: str, from_commit: str, at_head: bool
    ) -> int | None:
        """Give the branch a segment chained to the parent's records.

        Returns an at-head fork's limit, the parent head's record count now,
        which the graph cannot derive; a fork off an older commit takes the
        commit's recorded offset."""
        if at_head:
            head = self._head(parent_branch)
            pointer = ParentPointer(head.segment_id, head.record_count)
            # Every parent location is visible through the branch point, so
            # the child's index is a straight clone.
            self.pk_index.add_branch(name, clone_from=parent_branch)
            self.index_hook.branch_created(name, clone_from=parent_branch)
        else:
            pointer = ParentPointer(*self._commit_location(from_commit))
            self.pk_index.replace_branch(
                name, self._walk_chain(pointer.segment_id, pointer.limit)
            )
            self.index_hook.branch_rebuilt(name)
        segment = self.segments.create(owner_branch=name, parents=(pointer,))
        self._head_segment[name] = segment.segment_id
        return pointer.limit if at_head else None

    def _record_commit_state(
        self, branch: str, commit_id: str
    ) -> tuple[str, int]:
        segment_id = self._head_segment[branch]
        return segment_id, self.segments.get(segment_id).record_count

    def _flush_storage(self, branch: str | None = None) -> None:
        # A branch reads its own segment and each ancestor behind its branch
        # points.  An at-head fork's limit counts the parent head's
        # unflushed records, so the fork flushes them too.
        chain: list[str] | None = None
        if branch is not None:
            head = self._head(branch).segment_id
            chain = [segment_id for segment_id, _ in self._chain(head, None)]
        self.segments.flush(chain)

    def _load_storage(self) -> None:
        """Replay segment topology from the graph, then roll each branch
        back to its head.

        Each branch event, in creation order, recreates the branch's segment
        with the branch point it had: an at-head fork's limit rides in its
        event, an older commit's offset in that commit's event.

        Visibility in version-first is physical -- a branch's state is its
        segment's content -- so recovery *truncates* each branch's segment to
        the record offset its head commit recorded.  The truncation floor is
        raised by any child branch point into the segment: a child created
        off this branch durably references the parent's records below its
        pointer limit, so those records must survive even if the parent
        itself never committed past them.  A segment holding fewer records
        than its floor lost committed ones: strict recovery refuses to open.
        """
        self.segments.check_layout()
        master = self.segments.create(MASTER_BRANCH, reopen=True)
        self._head_segment[MASTER_BRANCH] = master.segment_id
        for branch in self.graph.branches()[1:]:
            if branch.created_from is not None and not branch.at_head:
                pointer = ParentPointer(*self._commit_location(branch.created_from))
            elif isinstance(branch.state, int) and branch.parent_branch:
                parent_segment = self._head_segment[branch.parent_branch]
                pointer = ParentPointer(parent_segment, branch.state)
            else:
                raise CorruptionError(
                    self._graph_path(), f"no branch-point limit for {branch.name!r}"
                )
            segment = self.segments.create(branch.name, (pointer,), reopen=True)
            self._head_segment[branch.name] = segment.segment_id
        # Records each segment must hold: up to its child branch points'
        # limits and, for a head segment, its head commit's offset.
        needed: dict[str, int] = {}
        for segment in self.segments.all():
            for pointer in segment.parents:
                needed[pointer.segment_id] = max(
                    needed.get(pointer.segment_id, 0), pointer.limit
                )
        for branch_name, segment_id in self._head_segment.items():
            location = self.graph.commit_state(self.graph.head(branch_name))
            committed = (
                location[1]
                if location is not None and location[0] == segment_id
                else 0
            )
            floor = needed[segment_id] = max(committed, needed.get(segment_id, 0))
            segment = self.segments.get(segment_id)
            if segment.record_count > floor:
                segment.heap.truncate_records(floor)
        for segment in self.segments.all():
            check_stored_records(segment.heap, needed.get(segment.segment_id, 0))
        # Primary-key maps are rebuilt lazily, on a branch's first touch, by
        # the chain walk.
        self.pk_index.register_lazy(self.graph.branch_names(), self.chain_entries)

    def chain_entries(self, branch: str) -> dict[int, tuple[str, int]]:
        """``branch``'s live head as the chain walk sees it (:meth:`_walk_chain`):
        ``{key: (segment id, ordinal)}``, the reference its primary-key index
        must equal."""
        segment_id = self._head_segment.get(branch)
        if segment_id is None:
            return {}
        return self._walk_chain(segment_id, None)

    # -- data operations -------------------------------------------------------------

    def insert(self, branch: str, record: Record) -> None:
        key = self._append_live(branch, record)
        self.index_hook.applied(branch, key, record)
        self.stats.records_inserted += 1

    def update(self, branch: str, record: Record) -> None:
        # Updates append a new copy with the same primary key; scans ignore
        # the earlier copy (paper Section 3.3, *Data Modification*).  The
        # index is repointed at the new copy.
        key = self._append_live(branch, record)
        self.index_hook.applied(branch, key, record)
        self.stats.records_updated += 1

    def _append_live(self, branch: str, record: Record) -> int:
        """Append ``record`` to the branch head and point its key there."""
        segment = self._head(branch)
        ordinal = segment.append(record)
        key = record.key(self.schema)
        self.pk_index.put(branch, key, (segment.segment_id, ordinal))
        return key

    def delete(self, branch: str, key: int) -> None:
        self.schema.validate_key(key)
        if not self.pk_index.contains(branch, key):
            raise StorageError(f"key {key} is not live in branch {branch!r}")
        self._head(branch).append(Record.deleted(self.schema, key))
        self.pk_index.remove(branch, key)
        self.index_hook.removed(branch, key)
        self.stats.records_deleted += 1

    def branch_contains_key(self, branch: str, key: int) -> bool:
        return self.pk_index.contains(branch, key)

    def record_for_key(self, branch: str, key: int) -> Record | None:
        location = self.pk_index.get(branch, key)
        if location is None:
            return None
        segment_id, ordinal = location
        self.stats.records_decoded += 1
        return self.segments.get(segment_id).record_at(ordinal)

    def records_for_keys(self, branch: str, keys) -> list[Record]:
        def locate(key: int) -> tuple[HeapFile, int] | None:
            location = self.pk_index.get(branch, key)
            if location is None:
                return None
            segment_id, ordinal = location
            return self.segments.get(segment_id).heap, ordinal

        return self._fetch_located(branch, keys, locate)

    def _head(self, branch: str):
        try:
            segment_id = self._head_segment[branch]
        except KeyError:
            raise StorageError(f"branch {branch!r} has no head segment") from None
        return self.segments.get(segment_id)

    # -- chain traversal ----------------------------------------------------------------

    def _chain(
        self, segment_id: str, limit: int | None
    ) -> list[tuple[str, int | None]]:
        """Segments to visit (leaf to root) with their visibility limits.

        Segments reachable by multiple paths (after merges) are visited once,
        at the first -- highest precedence -- position they appear.
        """
        order: list[tuple[str, int | None]] = []
        seen: set[str] = set()

        def visit(current_id: str, current_limit: int | None) -> None:
            if current_id in seen:
                return
            seen.add(current_id)
            order.append((current_id, current_limit))
            segment = self.segments.get(current_id)
            for pointer in segment.parents:
                visit(pointer.segment_id, pointer.limit)

        visit(segment_id, limit)
        return order

    def _walk_chain(
        self, segment_id: str, limit: int | None
    ) -> dict[int, tuple[str, int]]:
        """The chain walk: ``{key: (segment id, ordinal)}`` of each key live
        in the version ``(segment_id, limit)``, built without a row.

        Segments are visited leaf to root (:meth:`_chain`), each up to its
        visibility limit and newest record first, because newer records
        shadow older copies of the same key: a key's first copy, or
        tombstone, hides the rest.  A page gives up only its key column
        (:meth:`RecordCodec.decode_column`) and its records' tombstone flags
        (:meth:`RecordCodec.tombstones`).  A segment shorter than its limit
        (degraded recovery left it short) reads the records it holds.
        """
        pk_position = self.schema.primary_key_index
        seen: set[int] = set()
        live: dict[int, tuple[str, int]] = {}
        for seg_id, seg_limit in self._chain(segment_id, limit):
            heap = self.segments.get(seg_id).heap
            codec = heap.codec
            per_page = heap.records_per_page
            transient = heap.scan_exceeds_pool()
            upto = heap.num_records
            if seg_limit is not None:
                upto = min(seg_limit, upto)
            for page_number in range((upto - 1) // per_page, -1, -1):
                base = page_number * per_page
                count = min(per_page, upto - base)
                raw = heap.page(page_number, transient=transient).raw_data()
                keys = codec.decode_column(raw, pk_position, PAGE_HEADER_SIZE, count)
                tombstones = codec.tombstones(raw, PAGE_HEADER_SIZE, count)
                for slot in range(count - 1, -1, -1):
                    key = keys[slot]
                    if key in seen:
                        continue
                    seen.add(key)
                    if not tombstones[slot]:
                        live[key] = (seg_id, base + slot)
        return live

    # -- read states and diff ---------------------------------------------------------------

    def _state_heap(self, key: str) -> HeapFile:
        return self.segments.get(key).heap

    def _head_state(self, branch: str) -> dict[str, Bitmap]:
        """The live head's segment bitmaps, from the branch's primary-key
        index (the paper's per-record chain walk collapses into one pass
        over the index)."""
        with self.write_mutex:  # writers hold it while they move the index
            located = list(self.pk_index.locations(branch))
        return self._chain_bitmaps(self._head_segment[branch], None, located)

    def _commit_read_state(self, commit_id: str) -> dict[str, Bitmap]:
        """A commit's segment bitmaps.

        A commit whose segment nothing was appended to since (a snapshot's
        pin, say) reads its segment owner's primary-key index, as a live
        head does; any other commit is read by the chain walk up to its
        recorded offset.
        """
        segment_id, limit = self._commit_location(commit_id)
        segment = self.segments.get(segment_id)
        located = None
        with self.write_mutex:
            if segment.record_count == limit:
                located = list(self.pk_index.locations(segment.owner_branch))
        # Every write appends before it moves the index, so a record count
        # still at the limit after the index was read means the index holds
        # the commit's keys.
        if located is None or segment.record_count != limit:
            located = self._walk_chain(segment_id, limit).values()
        return self._chain_bitmaps(segment_id, limit, located)

    def _chain_bitmaps(
        self,
        segment_id: str,
        limit: int | None,
        located: Iterable[tuple[str, int]],
    ) -> dict[str, Bitmap]:
        """``{segment id: bitmap}`` of the ``(segment id, ordinal)``
        locations, for every segment of the chain of ``(segment_id,
        limit)``, in chain order.  A bitmap spans its segment's records
        visible through the chain, which the column scans read whole
        (:attr:`reads_whole_heaps`)."""
        by_segment: dict[str, list[int]] = {}
        for seg_id, ordinal in located:
            ordinals = by_segment.get(seg_id)
            if ordinals is None:
                by_segment[seg_id] = [ordinal]
            else:
                ordinals.append(ordinal)
        bitmaps = {}
        for seg_id, seg_limit in self._chain(segment_id, limit):
            visible = self.segments.get(seg_id).record_count
            if seg_limit is not None:
                visible = min(seg_limit, visible)
            bitmaps[seg_id] = Bitmap.from_indices(by_segment.get(seg_id, ()), visible)
        return bitmaps

    def _commit_location(self, commit_id: str) -> tuple[str, int]:
        """``(segment id, offset)``: the commit's recorded segment offset."""
        location = self.graph.commit_state(commit_id)
        if location is None:
            raise CommitNotFoundError(
                f"commit {commit_id!r} has no recorded segment offset"
            )
        segment_id, offset = location
        return segment_id, offset

    def _live_count(self, branch: str) -> int:
        # The primary-key index holds exactly the live keys.
        return self.pk_index.live_count(branch)

    def _diff_states(
        self,
        state_a: dict[str, Bitmap],
        state_b: dict[str, Bitmap],
        version_a: str = "",
        version_b: str = "",
    ) -> DiffResult:
        """Compare two states by materializing both.

        Version-first has no incremental structure tracking differences from a
        common ancestor, so both states are read in full and joined by key --
        the multiple passes the paper calls out in its Query 2 discussion.
        """
        return self._merge_diff()(state_a, state_b, version_a, version_b)

    def _merge_diff(self) -> Callable[..., DiffResult]:
        """A diff whose calls map each state once.

        A merge reads both heads and, for three-way, the whole LCA commit,
        which it must to determine conflicts (paper Section 5.4) -- why
        version-first underperforms most in the three-way mode.  A
        three-way merge passes the LCA's state to two calls; it is read once.
        """
        pk_position = self.schema.primary_key_index
        #: id(state) -> (state, its key map); holding the state pins its id.
        maps: dict[int, tuple[dict, dict[int, Record]]] = {}

        def key_map(state: dict[str, Bitmap]) -> dict[int, Record]:
            held = maps.get(id(state))
            if held is None:
                held = maps[id(state)] = (
                    state,
                    {
                        record.values[pk_position]: record
                        for record in self._scan_state(state, None)
                    },
                )
            return held[1]

        def diff(state_a, state_b, version_a="", version_b="") -> DiffResult:
            return DiffResult.from_record_maps(
                version_a, version_b, key_map(state_a), key_map(state_b)
            )

        return diff

    def _merge_changes(self) -> Callable[..., tuple[MergeChanges, int]]:
        """A merge diffs full scans of the versions (:meth:`_merge_diff`),
        as the paper's does: it applies by copying, and has no key-copy
        index to share copies with.  Every changed key is returned, with
        decoded records for its copies."""
        diff = self._merge_diff()
        pk_position = self.schema.primary_key_index

        def changed(head, base, keys=None) -> tuple[MergeChanges, int]:
            result = diff(head, base)
            changes = {r.values[pk_position]: (r, None) for r in result.positive}
            for record in result.negative:
                key = record.values[pk_position]
                changes[key] = (changes.get(key, (None, None))[0], record)
            return changes, len(changes)

        return changed

    # -- sizes -------------------------------------------------------------------------------------

    def data_size_bytes(self) -> int:
        return self.segments.total_size_bytes()

    def commit_metadata_bytes(self) -> int:
        return sum(
            len(commit.commit_id) + len(location[0]) + 8
            for commit in self.graph.commits()
            if (location := self.graph.commit_state(commit.commit_id))
        )

    def segment_count(self) -> int:
        """Number of segment files (exposed for tests and benchmarks)."""
        return len(self.segments)
