"""The version-first storage engine.

Each branch's modifications are stored in that branch's own segment file,
chained to ancestor segments by branch-point offsets (paper Section 3.3).
A version holds the newest copy of each key along the chain from the
branch's own segment back towards the root: a key's first copy (or
tombstone) hides the older ones.  Because data of one branch is clustered in
its lineage, single-branch scans are cheap; operations that compare many
branches (diff, Query 4) must resolve whole chains into per-branch key
tables, which is the weakness the evaluation exposes.

In memory, version-first keeps hybrid's key structures (paper Section 3.4
builds hybrid from this layout plus tuple-first's live bitmaps;
:class:`~repro.storage.segments.SegmentedEngine`): one key-copy index of
every stored copy, tombstones included, and per segment the live bits of
each branch whose chain holds it.  An insert sets a bit; an update sets the
new copy's and clears the old one's, which may sit in an ancestor segment; a
delete clears one and still appends its tombstone, which no live bit ever
selects.  A pk lookup tests the live bit of each of the key's copies.
Neither structure is on disk.  The *chain walk* (:meth:`_walk_chain`), which
visits the chain leaf to root, newest record first, and decodes only each
page's key column and record headers, is the reference: it builds a
reopened branch's live bits on the branch's first touch, and a fork's off a
historical commit.

A version reads as in the other two engines (:mod:`repro.storage.base`): as
one bitmap of live ordinals per segment of its chain.  A live head's are
its live bits, as are a commit's still at its segment's head (a snapshot's
pin, say); any other commit's come from the chain walk.  The bitmaps only
select rows: each spans its segment's records visible through the chain,
and a column scan reads those whole, superseded copies included, as the
paper's version-first scan does (:attr:`reads_whole_heaps`), so its cost
grows with the data on the chain (Figure 11).

Commits map a commit id to the byte position -- here, the record ordinal -- of
the latest record active in the committing branch's segment file, stored in an
external structure (paper Section 3.3, *Commit*): the commit's own event in
the version-graph log.
"""

from __future__ import annotations

from typing import Callable

from repro.bitmap.bitmap import Bitmap
from repro.core.buffer_pool import BufferPool
from repro.core.page import DEFAULT_PAGE_SIZE, PAGE_HEADER_SIZE
from repro.core.record import Record
from repro.core.schema import Schema
from repro.errors import CommitNotFoundError, CorruptionError, StorageError
from repro.storage.base import (
    MergeChanges,
    StorageEngineKind,
    check_stored_records,
)
from repro.storage.segments import ParentPointer, SegmentedEngine
from repro.versioning.diff import DiffResult
from repro.versioning.version_graph import MASTER_BRANCH


class VersionFirstEngine(SegmentedEngine):
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
        #: Branches whose live bits wait for their build from the chain
        #: walk: after a reopen, each branch until its first touch.
        self._unbuilt: set[str] = set()

    # -- engine hooks -------------------------------------------------------------

    def _prepare_master(self) -> None:
        self.key_index.start_empty()
        self._head_segment[MASTER_BRANCH] = self._new_head_segment(MASTER_BRANCH)
        self.index_hook.branch_created(MASTER_BRANCH)

    def _materialize_branch(
        self, name: str, parent_branch: str, from_commit: str, at_head: bool
    ) -> int | None:
        """Give the branch a segment chained to the parent's records, and
        live bits in every segment of that chain.

        Returns an at-head fork's limit, the parent head's record count now,
        which the graph cannot derive; a fork off an older commit takes the
        commit's recorded offset."""
        if at_head:
            head = self._head(parent_branch)
            pointer = ParentPointer(head.segment_id, head.record_count)
            # Every parent copy is visible through the branch point, so the
            # child's live bits are a straight clone.
            self._require_live(parent_branch)
            for segment_id, _ in self._chain(head.segment_id, None):
                self._local_bitmaps[segment_id].add_branch(
                    name, clone_from=parent_branch
                )
            self.index_hook.branch_created(name, clone_from=parent_branch)
        else:
            pointer = ParentPointer(*self._commit_location(from_commit))
            self._restore_live_bits(
                name, self._walk_chain(pointer.segment_id, pointer.limit)
            )
            self.index_hook.branch_rebuilt(name)
        self._head_segment[name] = self._new_head_segment(name, parents=(pointer,))
        return pointer.limit if at_head else None

    def _record_commit_state(
        self, branch: str, commit_id: str
    ) -> tuple[int, int]:
        """``(segment number, record offset)`` of ``branch``'s head."""
        segment_id = self._head_segment[branch]
        return (
            self._segment_numbers[segment_id],
            self.segments.get(segment_id).record_count,
        )

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
        Records a floor keeps above a branch's head commit are rolled back
        for that branch by the records :meth:`_roll_back_to_head` appends.
        """
        self.segments.check_layout()
        self._head_segment[MASTER_BRANCH] = self._new_head_segment(
            MASTER_BRANCH, reopen=True
        )
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
            self._head_segment[branch.name] = self._new_head_segment(
                branch.name, reopen=True, parents=(pointer,)
            )
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
                if location is not None
                and location[0] == self._segment_numbers[segment_id]
                else 0
            )
            floor = needed[segment_id] = max(committed, needed.get(segment_id, 0))
            segment = self.segments.get(segment_id)
            if segment.record_count > floor:
                segment.heap.truncate_records(floor)
        for segment in self.segments.all():
            check_stored_records(segment.heap, needed.get(segment.segment_id, 0))
        for branch_name in self._head_segment:
            self._roll_back_to_head(branch_name)
        # Live bits are built lazily, on a branch's first touch, by the
        # chain walk; the key index on the first pk lookup.
        self._unbuilt = set(self.graph.branch_names())

    def _roll_back_to_head(self, branch: str) -> None:
        """Make ``branch``'s chain read as its head commit does.

        A child's branch point can keep records that were written, and
        never committed, before the fork: in the parent's head segment
        above its head commit, and reachable from the child's chain.  Both
        branches reopen at their head commits, so the branch's head segment
        gets a copy of each key's committed record, or a tombstone, where
        the chain walk would read another; its own later records shadow the
        kept ones.  Nothing is appended when the chain reaches exactly the
        head commit's records, as it does unless a fork kept some.
        """
        head = self._head_segment[branch]
        committed = self._commit_location(self.graph.head(branch))
        if self._visible_chain(head, None) == self._visible_chain(*committed):
            return
        pk_position = self.schema.primary_key_index

        def rows(state: dict[str, Bitmap]) -> dict[int, Record]:
            return {
                record.values[pk_position]: record
                for record in self._scan_state(state, None)
            }

        wanted = rows(self._walk_chain(*committed))
        current = rows(self._walk_chain(head, None))
        segment = self.segments.get(head)
        for key in sorted(current.keys() - wanted.keys()):
            segment.append(Record.deleted(self.schema, key))
        for key, record in sorted(wanted.items()):
            held = current.get(key)
            if held is None or held.values != record.values:
                segment.append(record)

    def _visible_chain(self, segment_id: str, limit: int | None) -> list:
        """:meth:`_chain` without its segments that show no record."""
        return [entry for entry in self._chain(segment_id, limit) if entry[1]]

    # -- live bits ------------------------------------------------------------------

    def live_bits_built(self, branch: str) -> bool:
        """False while ``branch``'s live bits wait for their first-touch
        build (:meth:`_build_live_bits`)."""
        return branch not in self._unbuilt

    def chain_state(self, branch: str) -> dict[str, Bitmap]:
        """``branch``'s live head as the chain walk reads it
        (:meth:`_walk_chain`): the reference its live bits must equal."""
        return self._walk_chain(self._head_segment[branch], None)

    def _require_live(self, branch: str) -> None:
        """Build ``branch``'s live bits if they wait for their first touch."""
        if branch in self._unbuilt:
            self._build_live_bits(branch)

    def _build_live_bits(self, branch: str) -> None:
        """Set ``branch``'s live bits to its chain walk.  Writers hold the
        write mutex, so no copy is appended to the chain while it is read."""
        with self.write_mutex:
            if branch in self._unbuilt:  # unless another thread built it
                self._restore_live_bits(branch, self.chain_state(branch))
                self._unbuilt.discard(branch)

    def _restore_live_bits(self, branch: str, state: dict[str, Bitmap]) -> None:
        """Give ``branch`` the live bits of a read state, per segment."""
        for segment_id, bitmap in state.items():
            local = self._local_bitmaps[segment_id]
            if not local.has_branch(branch):
                local.add_branch(branch)
            local.restore_branch(branch, bitmap)

    def key_location(self, branch: str, key: int) -> tuple[str, int] | None:
        self._require_live(branch)
        return super().key_location(branch, key)

    # -- data operations -------------------------------------------------------------

    def insert(self, branch: str, record: Record) -> None:
        key = record.key(self.schema)
        self._append(branch, key, record, live=True)
        self.index_hook.applied(branch, key, record)
        self.stats.records_inserted += 1

    def update(self, branch: str, record: Record) -> None:
        # Updates append a new copy with the same primary key; scans ignore
        # the earlier copy (paper Section 3.3, *Data Modification*).  The
        # new copy's append comes first: a record the schema rejects raises
        # there, before the old copy's live bit is touched.
        key = record.key(self.schema)
        previous = self.key_location(branch, key)
        self._append(branch, key, record, live=True)
        if previous is not None:
            segment_id, ordinal = previous
            self._local_bitmaps[segment_id].clear(ordinal, branch)
        self.index_hook.applied(branch, key, record)
        self.stats.records_updated += 1

    def delete(self, branch: str, key: int) -> None:
        self.schema.validate_key(key)
        previous = self.key_location(branch, key)
        if previous is None:
            raise StorageError(f"key {key} is not live in branch {branch!r}")
        self._append(branch, key, Record.deleted(self.schema, key), live=False)
        segment_id, ordinal = previous
        self._local_bitmaps[segment_id].clear(ordinal, branch)
        self.index_hook.removed(branch, key)
        self.stats.records_deleted += 1

    def _append(self, branch: str, key: int, record: Record, live: bool) -> None:
        """Append a stored copy of ``key`` to ``branch``'s head segment and
        index it; a ``live`` copy gets its live bit, a tombstone none.

        Every write appends before it moves a live bit, which
        :meth:`_commit_read_state` relies on."""
        self._require_live(branch)
        segment = self._head(branch)
        ordinal = segment.append(record)
        self.key_index.add(key, self._location_base(segment.segment_id) | ordinal)
        if live:
            self._local_bitmaps[segment.segment_id].set(ordinal, branch)

    def _head(self, branch: str):
        try:
            segment_id = self._head_segment[branch]
        except KeyError:
            raise StorageError(f"branch {branch!r} has no head segment") from None
        return self.segments.get(segment_id)

    # -- chain traversal ----------------------------------------------------------------

    def _chain(self, segment_id: str, limit: int | None) -> list[tuple[str, int]]:
        """Segments to visit (leaf to root), each with its number of records
        visible through the chain: those below its limit, or all it holds
        (fewer where degraded recovery left it short of its limit).

        Segments reachable by multiple paths (after merges) are visited once,
        at the first -- highest precedence -- position they appear.
        """
        order: list[tuple[str, int]] = []
        seen: set[str] = set()

        def visit(current_id: str, current_limit: int | None) -> None:
            if current_id in seen:
                return
            seen.add(current_id)
            segment = self.segments.get(current_id)
            visible = segment.record_count
            if current_limit is not None:
                visible = min(current_limit, visible)
            order.append((current_id, visible))
            for pointer in segment.parents:
                visit(pointer.segment_id, pointer.limit)

        visit(segment_id, limit)
        return order

    def _walk_chain(self, segment_id: str, limit: int | None) -> dict[str, Bitmap]:
        """The chain walk: the read state of the version ``(segment_id,
        limit)``, built without a row.

        Segments are visited leaf to root (:meth:`_chain`), each up to its
        visible records and newest record first, because newer records
        shadow older copies of the same key: a key's first copy, or
        tombstone, hides the rest.  A page gives up only its key column
        (:meth:`RecordCodec.decode_column`) and its records' tombstone flags
        (:meth:`RecordCodec.tombstones`).  Each segment of the chain gets a
        bitmap of its live ordinals spanning its visible records.
        """
        pk_position = self.schema.primary_key_index
        seen: set[int] = set()
        state: dict[str, Bitmap] = {}
        for seg_id, upto in self._chain(segment_id, limit):
            heap = self.segments.get(seg_id).heap
            codec = heap.codec
            per_page = heap.records_per_page
            transient = heap.scan_exceeds_pool()
            live: list[int] = []
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
                        live.append(base + slot)
            state[seg_id] = Bitmap.from_indices(live, upto)
        return state

    # -- read states and diff ---------------------------------------------------------------

    def live_state(self, branch: str) -> dict[str, Bitmap]:
        """``branch``'s live bits per segment of its chain, in chain order,
        each spanning the segment's records visible through the chain,
        which the column scans read whole (:attr:`reads_whole_heaps`): its
        live head's read state."""
        with self.write_mutex:  # an update moves two bits
            self._require_live(branch)
            return {
                segment_id: self._local_bitmaps[segment_id]
                .branch_bitmap(branch)
                .prefix(visible)
                for segment_id, visible in self._chain(
                    self._head_segment[branch], None
                )
            }

    _head_state = live_state

    def _commit_read_state(self, commit_id: str) -> dict[str, Bitmap]:
        """A commit's segment bitmaps.

        A commit whose segment nothing was appended to since (a snapshot's
        pin, say) reads its segment owner's live bits, as a live head does;
        any other commit is read by the chain walk up to its recorded
        offset.
        """
        segment_id, limit = self._commit_location(commit_id)
        segment = self.segments.get(segment_id)
        state = None
        with self.write_mutex:
            if segment.record_count == limit:
                state = self._head_state(segment.owner_branch)
        # Every write appends before it moves a live bit, so a record count
        # still at the limit after the bits were read means they are the
        # commit's.
        if state is None or segment.record_count != limit:
            state = self._walk_chain(segment_id, limit)
        return state

    def _commit_location(self, commit_id: str) -> tuple[str, int]:
        """``(segment id, offset)``: the commit's recorded segment offset."""
        location = self.graph.commit_state(commit_id)
        if location is None:
            raise CommitNotFoundError(
                f"commit {commit_id!r} has no recorded segment offset"
            )
        number, offset = location
        return self._numbered_segments[number][0], offset

    def _live_count(self, branch: str) -> int:
        # Popcounts of the branch's live bits, read in place.
        self._require_live(branch)
        local_bitmaps = self._local_bitmaps
        return sum(
            local_bitmaps[segment_id].live_count(branch)
            for segment_id, _ in self._chain(self._head_segment[branch], None)
        )

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
        as the paper's does, and applies them by copying.  Every changed key
        is returned, with decoded records for its copies."""
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

    def commit_metadata_bytes(self) -> int:
        """24 bytes per commit: its sequence, segment number and record
        offset, 8 bytes each."""
        return 24 * sum(
            1
            for commit in self.graph.commits()
            if self.graph.commit_state(commit.commit_id) is not None
        )
