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
graph.  A commit compares only the segments where the branch's bits changed
since its previous commit (its *dirty* segments), not its whole scope.

A branch's histories start at its *fork state*: the read state of the commit
it was created from (:attr:`~repro.versioning.version_graph.Branch.created_from`),
so a child records only the segments it changed, not every segment it
inherited.  A fork at a head copies the parent's dirty set, the segments
where the parent's live bits differ from that commit; a fork from an older
commit starts clean.  A commit's state is therefore a chain walk: each
segment reads from the first history along the branch, its fork commit's
branch, and so on, that holds it, checked out at that branch's sequence.
Each branch event marks this form (``fork_relative``).  A branch whose event
lacks the mark, written before histories started at the fork, keeps
histories that start empty, as they were recorded.

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
    fork_relative_histories = True

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
        #: branch -> the commit whose read state its histories start at
        #: (its fork commit), or None where they start empty: master's, and
        #: those of a branch an older log created.
        self._history_base: dict[str, str | None] = {}

    # -- engine hooks --------------------------------------------------------------

    def _prepare_master(self) -> None:
        self.key_index.start_empty()
        self._fork_segments(MASTER_BRANCH, None)
        self._branch_segments[MASTER_BRANCH] = set()
        self._dirty[MASTER_BRANCH] = set()
        self._history_base[MASTER_BRANCH] = None
        self.index_hook.branch_created(MASTER_BRANCH)

    def _discard_master(self) -> None:
        super()._discard_master()
        self._branch_segments.clear()
        self._histories.clear()
        self._dirty.clear()
        self._history_base.clear()

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
        self._history_base[name] = from_commit
        if not at_head:
            self._restore_branch(name, self._commit_read_state(from_commit))
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
        in every segment that holds records live in the parent's ancestry.

        The child's bits differ from its fork state, the parent's head
        commit, where the parent's do: the child takes the parent's dirty
        segments."""
        parent_dirty = self._dirty[parent_branch]
        for segment_id in self._branch_segments[parent_branch]:
            local = self._local_bitmaps[segment_id]
            if local.has_branch(name):
                continue
            local.add_branch(name, clone_from=parent_branch)
            if local.live_count(name):
                self._branch_segments[name].add(segment_id)
            if segment_id in parent_dirty:
                self._dirty[name].add(segment_id)

    def _restore_branch(self, branch: str, state: dict[str, Bitmap]) -> None:
        """Set ``branch``'s local bitmaps to the snapshots of a read state."""
        for segment_id, snapshot in state.items():
            snapshot = stored_bitmap(self.segments.get(segment_id).heap, snapshot)
            local = self._local_bitmaps[segment_id]
            if not local.has_branch(branch):
                local.add_branch(branch)
            local.restore_branch(branch, snapshot)
            if snapshot.any():
                self._branch_segments[branch].add(segment_id)

    def _base_bits(self, branch: str, segment_id: str) -> Bitmap | None:
        """``branch``'s bits in ``segment_id`` at its history base, by the
        chain walk: the first history of the segment along the fork
        commits, checked out at the fork; None when none holds it."""
        commit_id = self._history_base[branch]
        while commit_id is not None:
            commit = self.graph.get_commit(commit_id)
            history = self._histories.get(commit.branch, {}).get(segment_id)
            if history is not None:
                return history.checkout(commit.sequence)
            commit_id = self._history_base[commit.branch]
        return None

    def _record_commit_state(
        self, branch: str, commit_id: str
    ) -> dict[int, tuple[int, bytes]] | None:
        """``{segment number: delta}`` for the segments whose bitmap of
        ``branch`` changed since its previous commit, or None if none did.

        Only the dirty segments are compared: every other segment of the
        branch's scope holds the bits of its previous commit, or of its fork
        state before the first.  A segment's first delta is taken against
        its fork state (:meth:`_base_bits`), so a child's first commit
        records only the segments it changed.  A dirty segment whose bits
        changed back records nothing."""
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
                history = CommitHistory(
                    self.commit_layer_interval, self._base_bits(branch, segment_id)
                )
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
        state froze it.  Histories are replayed in commit order, each from
        its branch's fork state.  The replay keeps the read state of every
        commit a branch was created from as it passes it, built from the
        forking branch's fork state and its histories' latest states, so
        each fork state is built once and the replay costs the deltas
        recorded.  Each branch is restored from its head commit's state,
        built the same way.

        Visibility in hybrid is bitmap-governed, so head segments are *not*
        truncated on recovery: records appended by an uncommitted
        transaction may survive as dead bytes in the head segment, but no
        restored bitmap references them, making them invisible to every
        scan.  A segment too short for a restored bitmap lost committed
        records: strict recovery refuses to open.
        """
        self.segments.check_layout()
        forks = set()
        for branch in self.graph.branches():
            self._fork_segments(
                branch.name,
                branch.parent_branch if branch.at_head else None,
                keep_parent_head=branch.state == KEPT_HEAD,
                reopen=True,
            )
            self._branch_segments[branch.name] = set()
            self._dirty[branch.name] = set()
            self._history_base[branch.name] = (
                branch.created_from if branch.fork_relative else None
            )
            forks.add(branch.created_from)
        #: commit id -> read state, for the commits a branch was created from.
        states: dict[str | None, dict[str, Bitmap]] = {None: {}}
        numbered = self._numbered_segments
        for commit in self.graph.commits():
            base = states[self._history_base[commit.branch]]
            histories = self._histories.setdefault(commit.branch, {})
            deltas = self.graph.commit_state(commit.commit_id) or {}
            for number, delta in deltas.items():
                segment_id = numbered[number][0]
                history = histories.get(segment_id)
                if history is None:
                    history = histories[segment_id] = CommitHistory(
                        self.commit_layer_interval, base.get(segment_id)
                    )
                history.replay(commit.sequence, delta)
            if commit.commit_id in forks:
                states[commit.commit_id] = self._latest_state(commit.branch, base)
        # A branch's head is its latest commit, or the commit it was created
        # from.  Either way its restored bits are where its histories end
        # (or start), so no segment is dirty -- except on a branch an older
        # log created that has no commit yet: its first records them all.
        for name in self.graph.branch_names():
            head = self.graph.get_commit(self.graph.head(name))
            if head.branch == name:
                state = self._latest_state(name, states[self._history_base[name]])
            else:
                state = states[head.commit_id]
                if self._history_base[name] is None:
                    self._dirty[name].update(state)
            self._restore_branch(name, state)
        # The key index stays unbuilt: the first pk lookup reads it from
        # the segments.

    def _latest_state(
        self, branch: str, base: dict[str, Bitmap]
    ) -> dict[str, Bitmap]:
        """The read state at ``branch``'s latest commit: ``base``, its fork
        state, under its histories' latest states."""
        state = dict(base)
        for segment_id, history in self._histories.get(branch, {}).items():
            state[segment_id] = history.latest_snapshot()
        return {
            segment_id: bitmap
            for segment_id, bitmap in sorted(state.items())
            if bitmap.any()
        }

    def _branch_scope(self, branch: str) -> list[str]:
        """The segments ``branch``'s state can reference, in id order: its
        head and every segment where a record is live in it.  Each write
        that sets a live bit (insert, a fork's or a restore's bitmaps, a
        merge sharing a source copy) adds the bit's segment."""
        return sorted(self._branch_segments[branch] | {self._head_segment[branch]})

    def _flush_storage(self, branch: str | None = None) -> None:
        """A branch's records outside its dirty segments and head were
        flushed by the commit that made them live in it (or in the commit
        it forked from), so only those are written."""
        if branch is None:
            self.segments.flush()
        else:
            self.segments.flush(self._dirty[branch] | {self._head_segment[branch]})

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
        non-empty state its histories hold at it, by a chain walk.

        The committing branch's histories answer at the commit's sequence;
        every other segment holds what it held at the branch's fork, which
        the fork commit's branch answers the same way, up to a branch whose
        histories start empty.  A segment reads from the first history
        that holds it.  The walk visits the histories along one fork chain,
        not the segments' deltas."""
        commit = self.graph.get_commit(commit_id)
        branch, sequence = commit.branch, commit.sequence
        result: dict[str, Bitmap] = {}
        seen: set[str] = set()
        while True:
            # A copy: a concurrent commit may add a history.
            for segment_id, history in list(self._histories.get(branch, {}).items()):
                if segment_id not in seen:
                    seen.add(segment_id)
                    bitmap = history.checkout(sequence)
                    if bitmap.any():
                        result[segment_id] = bitmap
            fork_id = self._history_base[branch]
            if fork_id is None:
                return dict(sorted(result.items()))
            fork = self.graph.get_commit(fork_id)
            branch, sequence = fork.branch, fork.sequence

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
        relevant (branch, segment) history along the commit's fork chain
        replays its delta chain up to the commit or the fork, without
        touching any segment heap file.
        """
        return self._commit_read_state(commit_id)
