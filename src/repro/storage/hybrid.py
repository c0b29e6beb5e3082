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
segments are created, one for the parent and one for the child.  A parent
head that holds no record is not frozen: the parent keeps writing to it and
only the child gets a new head.  The child has no bit column there, so the
parent's later appends stay invisible to it.  The branch's graph event
records that the head was kept (:data:`KEPT_HEAD`), since a reopen sees the
head's final record count, not the count at the fork.

Commits snapshot each (branch, segment) local bitmap into its own
delta-compressed commit history.  The paper keeps these histories as many
small files, which is why its hybrid commit metadata is split across them
(Section 5.3).  Here a commit's deltas ride in its version-graph event instead,
one per segment whose bitmap the commit changed, so that one graph frame is
the commit's only metadata write; a reopen rebuilds the histories from the
graph.  The segments a commit covers are those whose history holds an entry
at or before it.  A commit compares only the segments where the branch's
bits changed since its previous commit (its *dirty* segments), not its
whole scope.

The segment numbering, the key-copy index and the pk lookups that test
live bits are version-first's too
(:class:`~repro.storage.segments.SegmentedEngine`).
"""

from __future__ import annotations

from repro.bitmap import CommitHistory
from repro.bitmap.bitmap import Bitmap
from repro.core.buffer_pool import BufferPool
from repro.core.page import DEFAULT_PAGE_SIZE
from repro.core.record import Record
from repro.core.schema import Schema
from repro.errors import StorageError
from repro.storage.base import (
    StorageEngineKind,
    VersionedStorageEngine,
    stored_bitmap,
)
from repro.storage.segments import ORDINAL_BITS, ORDINAL_MASK, SegmentedEngine
from repro.versioning.version_graph import MASTER_BRANCH

#: The state a branch event carries when the fork kept its parent's empty
#: head (:meth:`HybridEngine._fork_segments`): the head's record count at
#: the fork.  An event with no state froze the head.
KEPT_HEAD = 0


class HybridEngine(SegmentedEngine):
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
        self.commit_layer_interval = commit_layer_interval
        #: The branch-segment index: branch -> set of segment ids with records
        #: live in that branch.
        self._branch_segments: dict[str, set[str]] = {}
        #: branch -> segment id -> commit history of that local bitmap column.
        self._histories: dict[str, dict[str, CommitHistory]] = {}
        #: branch -> the segments where its live bits changed since its
        #: previous commit: the only ones its next commit compares.
        self._dirty: dict[str, set[str]] = {}

    # -- engine hooks --------------------------------------------------------------

    def _prepare_master(self) -> None:
        self.key_index.start_empty()
        self._fork_segments(MASTER_BRANCH, None)
        self._branch_segments[MASTER_BRANCH] = set()
        self._dirty[MASTER_BRANCH] = set()
        self.index_hook.branch_created(MASTER_BRANCH)

    def _fork_segments(
        self,
        name: str,
        parent_branch: str | None,
        *,
        keep_parent_head: bool = False,
        reopen: bool = False,
    ) -> None:
        """The segments a branch operation creates (paper Section 3.4): a
        fork off ``parent_branch``'s head freezes it and gives the parent a
        fresh head, unless ``keep_parent_head``, when the parent goes on
        writing to it; the new branch always gets one.  The graph's branch
        events name every argument, so a reopen replays them."""
        if parent_branch is not None and not keep_parent_head:
            self.segments.get(self._head_segment[parent_branch]).freeze()
            self._head_segment[parent_branch] = self._new_head_segment(
                parent_branch, reopen
            )
        self._head_segment[name] = self._new_head_segment(name, reopen)

    def _materialize_branch(
        self, name: str, parent_branch: str, from_commit: str, at_head: bool
    ) -> int | None:
        """Returns :data:`KEPT_HEAD` for a fork at a head that holds no
        record (an uncommitted append counts as one): freezing it would
        keep no record local to a lineage, only add a segment."""
        self._branch_segments[name] = set()
        self._dirty[name] = set()
        if not at_head:
            self._restore_branch(name, from_commit)
            self._fork_segments(name, None)
            self.index_hook.branch_rebuilt(name)
            return None
        keep = not self.segments.get(self._head_segment[parent_branch]).record_count
        self._fork_bitmaps(name, parent_branch)
        self._fork_segments(name, parent_branch, keep_parent_head=keep)
        self.index_hook.branch_created(name, clone_from=parent_branch)
        return KEPT_HEAD if keep else None

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
                self._dirty[name].add(segment_id)

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
                self._dirty[branch].add(segment_id)

    def _record_commit_state(
        self, branch: str, commit_id: str
    ) -> dict[int, tuple[int, bytes]] | None:
        """``{segment number: delta}`` for the segments whose bitmap of
        ``branch`` changed since its previous commit, or None if none did.

        Only the dirty segments are compared: every other segment of the
        branch's scope holds the bits its history last recorded.  A dirty
        segment whose bits changed back records nothing."""
        sequence = self.graph.get_commit(commit_id).sequence
        histories = self._histories.setdefault(branch, {})
        dirty, self._dirty[branch] = self._dirty[branch], set()
        deltas: dict[int, tuple[int, bytes]] = {}
        for segment_id in sorted(dirty):
            # Every write that marks a segment dirty gives the branch a bit
            # column there first.
            snapshot = self._local_bitmaps[segment_id].branch_bitmap(branch)
            history = histories.get(segment_id)
            if history is None:
                history = CommitHistory(self.commit_layer_interval)
            delta = history.record_commit(sequence, snapshot)
            if delta is not None:
                histories[segment_id] = history
                deltas[self._segment_numbers[segment_id]] = delta
        return deltas or None

    def _load_storage(self) -> None:
        """Replay segments from the graph's branch events, rebuild histories
        from its commit events, and restore each branch's local bitmaps.

        Each branch event, in creation order, recreates the segments its
        branch operation made (:meth:`_fork_segments`); a fork whose event
        carries :data:`KEPT_HEAD` kept its parent's head, and one with no
        state froze it.  Visibility in hybrid is bitmap-governed, so head
        segments are *not* truncated on recovery: records appended by an
        uncommitted transaction may survive as dead bytes in the head
        segment, but no restored bitmap references them, making them
        invisible to every scan.  A segment too short for a restored bitmap
        lost committed records: strict recovery refuses to open.
        """
        self.segments.check_layout()
        for branch in self.graph.branches():
            self._fork_segments(
                branch.name,
                branch.parent_branch if branch.at_head else None,
                keep_parent_head=branch.state == KEPT_HEAD,
                reopen=True,
            )
            self._branch_segments[branch.name] = set()
            self._dirty[branch.name] = set()
        # Rebuild every (branch, segment) history from the deltas the graph's
        # commit events carry, in commit order.
        numbered = self._numbered_segments
        for commit in self.graph.commits():
            deltas = self.graph.commit_state(commit.commit_id) or {}
            histories = self._histories.setdefault(commit.branch, {})
            for number, delta in deltas.items():
                segment_id = numbered[number][0]
                if segment_id not in histories:
                    histories[segment_id] = CommitHistory(self.commit_layer_interval)
                histories[segment_id].replay(commit.sequence, delta)
        # Restore each branch's local bitmaps at its head commit.  The head
        # commit may live on an ancestor branch (for a branch with no commits
        # of its own); the snapshots come from the owning branch's histories.
        # A head commit of the branch's own is where its histories end, so
        # the restored bits leave no segment dirty.
        for name in self.graph.branch_names():
            head = self.graph.head(name)
            self._restore_branch(name, head)
            if self.graph.get_commit(head).branch == name:
                self._dirty[name].clear()
        # The key index stays unbuilt: the first pk lookup reads it from
        # the segments.

    def _branch_scope(self, branch: str) -> list[str]:
        """The segments ``branch``'s state can reference, in id order: its
        head and every segment where a record is live in it.  Each write
        that sets a live bit (insert, a fork's or a restore's bitmaps, a
        merge sharing a source copy) adds the bit's segment."""
        return sorted(self._branch_segments[branch] | {self._head_segment[branch]})

    def _flush_storage(self, branch: str | None = None) -> None:
        self.segments.flush(None if branch is None else self._branch_scope(branch))

    # -- data operations ----------------------------------------------------------------

    def insert(self, branch: str, record: Record) -> None:
        # A head segment's local bitmaps hold its branch from its creation.
        segment_id = self._head_segment[branch]
        ordinal = self.segments.get(segment_id).append(record)
        self._local_bitmaps[segment_id].set(ordinal, branch)
        self._branch_segments[branch].add(segment_id)
        self._dirty[branch].add(segment_id)
        key = record.key(self.schema)
        self.key_index.add(
            key, self._segment_numbers[segment_id] << ORDINAL_BITS | ordinal
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
            self._dirty[branch].add(old_segment_id)
        self.stats.records_inserted -= 1
        self.stats.records_updated += 1

    def delete(self, branch: str, key: int) -> None:
        self.schema.validate_key(key)
        previous = self.key_location(branch, key)
        if previous is None:
            raise StorageError(f"key {key} is not live in branch {branch!r}")
        segment_id, ordinal = previous
        self._local_bitmaps[segment_id].clear(ordinal, branch)
        self._dirty[branch].add(segment_id)
        self.index_hook.removed(branch, key)
        self.stats.records_deleted += 1

    # -- read states ---------------------------------------------------------------------

    # perf/trace.py patches these names through the class's own __dict__
    # (ROADMAP item 9), so the base classes' methods are bound here too.
    records_for_keys = SegmentedEngine.records_for_keys
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

    def _live_count(self, branch: str) -> int:
        # Sum of per-segment local bitmap popcounts, read in place; no
        # segment I/O.
        local_bitmaps = self._local_bitmaps
        return sum(
            local_bitmaps[segment_id].live_count(branch)
            for segment_id in self._branch_segments.get(branch, ())
            if local_bitmaps[segment_id].has_branch(branch)
        )

    # -- merge application -----------------------------------------------------------------------

    def _share_copy(
        self, target_branch: str, key: int, location: int, held: int | None
    ) -> None:
        """Share the source branch's (segment, ordinal) instead of copying.

        The target's copy (if any) loses its live bit, and the target
        gains one in the source copy's segment (creating a bitmap column
        for the target in that segment if needed); the branch-segment index
        is updated, and a secondary index built for the target learns the
        copy's indexed value.
        """
        dirty = self._dirty[target_branch]
        if held is not None:
            held_segment, local = self._numbered_segments[held >> ORDINAL_BITS]
            ordinal = held & ORDINAL_MASK
            if local.has_branch(target_branch) and local.is_set(ordinal, target_branch):
                local.clear(ordinal, target_branch)
                dirty.add(held_segment)
            else:
                # The target holds a copy with the same content elsewhere.
                target_location = self.key_location(target_branch, key)
                if target_location is not None:
                    old_segment, old_ordinal = target_location
                    self._local_bitmaps[old_segment].clear(old_ordinal, target_branch)
                    dirty.add(old_segment)
        # The shared copy is already in the key index; only the target's
        # live bits move.
        segment_id, local = self._numbered_segments[location >> ORDINAL_BITS]
        if not local.has_branch(target_branch):
            local.add_branch(target_branch)
        local.set(location & ORDINAL_MASK, target_branch)
        self._branch_segments[target_branch].add(segment_id)
        dirty.add(segment_id)
        self.index_hook.applied_stored(
            target_branch, key, lambda: self._stored_bytes(location), self.codec
        )

    # -- sizes ----------------------------------------------------------------------------------

    def commit_metadata_bytes(self) -> int:
        return sum(
            history.size_bytes()
            for histories in self._histories.values()
            for history in histories.values()
        )

    def bitmap_index_bytes(self) -> int:
        """Combined footprint of all local bitmap indexes."""
        return sum(index.size_bytes() for index in self._local_bitmaps.values())

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
