"""The version-first storage engine.

Each branch's modifications are stored in that branch's own segment file,
chained to ancestor segments by branch-point offsets (paper Section 3.3).
Reading a branch traverses the chain from the branch's own segment back
towards the root, newest records first, suppressing keys that were already
emitted (or tombstoned) by a nearer segment.  Because data of one branch is
clustered in its lineage, single-branch scans are cheap; operations that
compare many branches (diff, Query 4) must scan whole chains and keep
in-memory key tables, which is the weakness the evaluation exposes.

Commits map a commit id to the byte position -- here, the record ordinal -- of
the latest record active in the committing branch's segment file, stored in an
external structure (paper Section 3.3, *Commit*): the commit's own event in
the version-graph log.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator

from repro.core.buffer_pool import BufferPool
from repro.core.columns import (
    ColumnBatch,
    column_container,
    concat_batches,
    regroup_column_batches,
)
from repro.core.heapfile import HeapFile
from repro.core.page import DEFAULT_PAGE_SIZE
from repro.core.predicates import (
    Predicate,
    compile_column_filter,
    compile_predicate,
)
from repro.core.record import Record
from repro.core.schema import Schema
from repro.errors import CommitNotFoundError, CorruptionError, StorageError
from repro.storage.base import (
    StorageEngineKind,
    VersionedStorageEngine,
    check_stored_records,
    heap_page_column_hits,
)
from repro.storage.pk_index import PrimaryKeyIndex
from repro.storage.segments import ParentPointer, SegmentSet
from repro.versioning.diff import DiffResult
from repro.versioning.version_graph import MASTER_BRANCH


class VersionFirstEngine(VersionedStorageEngine):
    """One segment file per branch, chained by branch points."""

    kind = StorageEngineKind.VERSION_FIRST

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
        #: has no index): it lets multi-branch locate passes and columnar
        #: single-branch scans become bulk index probes instead of
        #: per-record chain walks, while :meth:`_scan_state` remains the
        #: chain-walking reference implementation.  Version-first has no
        #: live bitmaps, so unlike tuple-first and hybrid it keeps the
        #: paper's per-branch map; reopened branches rebuild it lazily on
        #: first touch.
        self.pk_index: PrimaryKeyIndex[tuple[str, int]] = PrimaryKeyIndex()
        #: Columnar scan acceleration: segment id -> (record count at build
        #: time, per-column containers concatenated over the segment's pages
        #: in ordinal order).  Staleness-checked against the segment heap's
        #: record count and dropped with the page caches.
        self._segment_column_cache: dict[str, tuple[int, tuple]] = {}

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
            pointer = ParentPointer(*self._commit_read_state(from_commit))
            pk_position = self.schema.primary_key_index
            entries = {
                record.values[pk_position]: (seg_id, ordinal)
                for seg_id, ordinal, record in self._locate_chain(
                    pointer.segment_id, pointer.limit
                )
            }
            self.pk_index.replace_branch(name, entries)
            self.index_hook.branch_rebuilt(name)
        segment = self.segments.create(owner_branch=name, parents=(pointer,))
        self._head_segment[name] = segment.segment_id
        return pointer.limit if at_head else None

    def _record_commit_state(
        self, branch: str, commit_id: str
    ) -> tuple[str, int]:
        segment_id = self._head_segment[branch]
        return segment_id, self.segments.get(segment_id).record_count

    def _flush_storage(self) -> None:
        self.segments.flush()

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
                pointer = ParentPointer(*self._commit_read_state(branch.created_from))
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
        # the chain walk below (which must see tombstones).
        self.pk_index.register_lazy(
            self.graph.branch_names(), self._pk_entries_for_branch
        )

    def _pk_entries_for_branch(self, branch: str) -> dict[int, tuple[str, int]]:
        """Derive a branch's full pk map by chain walk (index rebuild)."""
        segment_id = self._head_segment.get(branch)
        if segment_id is None:
            return {}
        pk_position = self.schema.primary_key_index
        return {
            record.values[pk_position]: (seg_id, ordinal)
            for seg_id, ordinal, record in self._locate_chain(segment_id, None)
        }

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

    def _scan_state(
        self,
        state: tuple[str, int | None],
        predicate: Predicate | None,
        segment_cache: dict[str, list[Record]] | None = None,
    ) -> Iterator[Record]:
        """The reference row scan of a state: the chain walk from its
        segment, emitting each live key's newest record."""
        schema = self.schema
        for _, _, record in self._locate_chain(*state, segment_cache):
            if predicate is None or predicate.evaluate(record, schema):
                yield record

    def _segment_records(
        self, segment_id: str, cache: dict[str, list[Record]] | None
    ) -> list[Record]:
        if cache is not None and segment_id in cache:
            return cache[segment_id]
        records = list(self.segments.get(segment_id).heap.scan_records())
        if cache is not None:
            cache[segment_id] = records
        return records

    def _locate_chain(
        self,
        segment_id: str,
        limit: int | None,
        segment_cache: dict[str, list[Record]] | None = None,
    ) -> Iterator[tuple[str, int, Record]]:
        """Yield ``(segment id, ordinal, record)`` of each live key's newest copy.

        The chain walk: segments are visited leaf to root, each read in
        reverse because newer records shadow older copies of the same key,
        and a key's first copy (or tombstone) hides the rest.
        """
        pk_position = self.schema.primary_key_index
        emitted: set[int] = set()
        for seg_id, seg_limit in self._chain(segment_id, limit):
            records = self._segment_records(seg_id, segment_cache)
            upto = len(records) if seg_limit is None else min(seg_limit, len(records))
            for ordinal in range(upto - 1, -1, -1):
                record = records[ordinal]
                self.stats.records_scanned += 1
                key = record.values[pk_position]
                if key in emitted:
                    continue
                emitted.add(key)
                if record.tombstone:
                    continue
                yield seg_id, ordinal, record

    def _state_locations(
        self, state: tuple[str, int | None]
    ) -> Iterable[tuple[str, int]]:
        """The ``(segment id, ordinal)`` of each live key's newest copy in
        ``state``.

        A live head ``(segment, None)`` is a bulk probe of the segment
        owner's primary-key index (the paper's per-record chain walks
        collapse into it), in no particular order; a recorded offset is the
        chain walk up to it (:meth:`_locate_chain`).
        """
        segment_id, limit = state
        if limit is None:
            owner = self.segments.get(segment_id).owner_branch
            return self.pk_index.locations(owner)
        return (
            (seg_id, ordinal)
            for seg_id, ordinal, _ in self._locate_chain(segment_id, limit)
        )

    # -- scans -----------------------------------------------------------------------------

    def _segment_columns(self, segment_id: str) -> tuple:
        """One segment's values as per-column containers, ordinal-indexed.

        Pages decode straight into typed arrays (:meth:`Page.columns_view`)
        and are concatenated in page order; since every page but the tail is
        full, position ``i`` of each container is the segment's ordinal ``i``
        -- the same addressing the primary-key index uses.  Cached per
        segment until the segment grows (segments are append-only, so a
        record-count match means the prefix is unchanged).
        """
        heap = self.segments.get(segment_id).heap
        cached = self._cached_segment_columns(segment_id)
        if cached is not None:
            return cached
        combined = [
            column_container(column.type) for column in self.schema.columns
        ]
        transient = heap.scan_exceeds_pool()
        for page_number in range(heap.num_pages):
            page_columns = heap.page(
                page_number, transient=transient
            ).columns_view()
            for accumulator, values in zip(combined, page_columns):
                accumulator.extend(values)
        columns = tuple(combined)
        self._segment_column_cache[segment_id] = (heap.num_records, columns)
        return columns

    def _cached_segment_columns(self, segment_id: str) -> tuple | None:
        """:meth:`_segment_columns` if they are cached and current."""
        cached = self._segment_column_cache.get(segment_id)
        heap = self.segments.get(segment_id).heap
        if cached is not None and cached[0] == heap.num_records:
            return cached[1]
        return None

    def _scan_state_columns(
        self,
        state: tuple[str, int | None],
        predicate: Predicate | None,
        batch_size: int,
        columns: tuple[str, ...] | None,
    ) -> Iterator[ColumnBatch]:
        """Locate, then gather columns.

        The state's live locations (:meth:`_state_locations`) are grouped
        by segment; segments are visited in chain order and each one's
        ordinals gathered newest-first, which reproduces the row scan's
        order.  For a live head the key-shadowing chain walk collapses to
        one bulk index probe, touching only live records (shadowed copies
        and tombstones are never read); a recorded offset's chain walk
        visits, and counts, the same records the row scan does.
        """
        segment_id, limit = state

        def located() -> Iterator[tuple[str, list[int]]]:
            by_segment: dict[str, list[int]] = {}
            for seg_id, ordinal in self._state_locations(state):
                ordinals = by_segment.get(seg_id)
                if ordinals is None:
                    by_segment[seg_id] = [ordinal]
                else:
                    ordinals.append(ordinal)
            for seg_id, _ in self._chain(segment_id, limit):
                ordinals = by_segment.get(seg_id)
                if ordinals:
                    ordinals.sort(reverse=True)
                    if limit is None:
                        self.stats.records_scanned += len(ordinals)
                    yield seg_id, ordinals

        return self._gather_columns(located(), predicate, batch_size, columns)

    def _gather_columns(
        self,
        located: Iterable[tuple[str, list[int]]],
        predicate: Predicate | None,
        batch_size: int,
        columns: tuple[str, ...] | None = None,
    ) -> Iterator[ColumnBatch]:
        """Gather ``(segment id, live ordinals)`` runs into column batches.

        Ordinals are read in the order given, out of the cached per-segment
        column containers (:meth:`_segment_columns`) or, for a cold segment
        under a predicate, out of its pages (:meth:`_select_located`); no
        :class:`Record` is ever built.  With ``columns`` (projection
        pushdown) only the named columns are gathered into the output
        batches.
        """
        out_schema = (
            self.schema if columns is None else self.schema.project(list(columns))
        )
        return regroup_column_batches(
            (
                batch
                for _, batch, _ in self._select_located(
                    located, predicate, columns
                )
            ),
            batch_size,
            out_schema,
        )

    def _select_located(
        self,
        located: Iterable[tuple[str, list[int]]],
        predicate: Predicate | None,
        columns: tuple[str, ...] | None = None,
    ) -> Iterator[tuple[str, ColumnBatch, list[int]]]:
        """Per ``(segment id, ordinals)`` run, ``(segment id, rows, hits)``:
        the ordinals ``predicate`` selects, in the order given, and their
        rows as a batch of ``columns`` (all columns when ``None``).

        Predicates run as compiled column selections where possible.  A
        segment whose columns are cached selects over them; a cold one
        under a column selection runs the heap scans' page loop
        (:func:`heap_page_column_hits`), which decodes a cold page's
        predicate columns and then only the selected records, so a
        selective scan -- a join probe under its build-key filter -- does
        not decode the whole segment.
        """
        schema = self.schema
        select = compile_column_filter(predicate, schema)
        matches = compile_predicate(predicate, schema) if select is None else None
        positions = projected = None
        if columns is not None:
            positions = [schema.index_of(name) for name in columns]
            projected = schema.project(list(columns))
        for seg_id, ordinals in located:
            containers = self._cached_segment_columns(seg_id)
            if select is not None and containers is None:
                cold = self._select_cold(
                    seg_id, ordinals, predicate, positions, projected
                )
                if cold is not None:
                    yield seg_id, *cold
                continue
            if containers is None:
                containers = self._segment_columns(seg_id)
            if select is not None:
                # Run the compiled selection over the full cached segment
                # columns first and intersect with the live ordinals, so
                # each segment costs one column gather instead of two.
                selected = set(select(containers, len(containers[0])))
                hits = [o for o in ordinals if o in selected]
            elif predicate is None:
                hits = ordinals
            else:
                gathered = ColumnBatch(schema, containers).take(ordinals)
                hits = [
                    ordinal
                    for ordinal, values in zip(ordinals, gathered.rows())
                    if matches(values)
                ]
            if hits:
                rows = ColumnBatch(schema, containers)
                if positions is not None:
                    rows = rows.select_columns(positions, projected)
                yield seg_id, rows.take(hits), hits

    def _select_cold(
        self,
        seg_id: str,
        ordinals: list[int],
        predicate: Predicate,
        positions: list[int] | None,
        projected: Schema | None,
    ) -> tuple[ColumnBatch, list[int]] | None:
        """The rows of ``ordinals`` that ``predicate`` selects from an
        uncached segment, read through the heap page loop, and their
        ordinals, both in the order given; ``None`` when none match."""
        heap = self.segments.get(seg_id).heap
        per_page = heap.records_per_page
        words: dict[int, int] = {}
        for ordinal in ordinals:
            page_number, slot = divmod(ordinal, per_page)
            words[page_number] = words.get(page_number, 0) | 1 << slot
        parts: list[ColumnBatch] = []
        row_of: dict[int, int] = {}
        pages = sorted(words.items())
        for batch, found in heap_page_column_hits(
            heap, pages, self.schema, predicate, positions, projected
        ):
            parts.append(batch)
            for ordinal in found:
                row_of[ordinal] = len(row_of)
        if not row_of:
            return None
        hits = [ordinal for ordinal in ordinals if ordinal in row_of]
        rows = concat_batches(parts).take([row_of[ordinal] for ordinal in hits])
        return rows, hits

    def drop_caches(self) -> None:
        """Drop page caches and the per-segment column cache."""
        super().drop_caches()
        self._segment_column_cache.clear()

    def _live_count(self, branch: str) -> int:
        # The primary-key index holds exactly the live keys.
        return self.pk_index.live_count(branch)

    def _count_state(self, state: tuple[str, int | None]) -> int | None:
        """A commit whose segment nothing was appended to since (a
        snapshot's pin, say) counts from the segment owner's primary-key
        index; any other state takes a scan."""
        segment_id, limit = state
        segment = self.segments.get(segment_id)
        count = self.pk_index.live_count(segment.owner_branch)
        # A write appends before it updates the index, so a record count
        # still at the limit after the index was read means the count is
        # the commit's.
        if segment.record_count == limit:
            return count
        return None

    def _scan_state_copies(
        self,
        states: dict[str, tuple[str, int | None]],
        predicate: Predicate | None,
    ) -> Iterator[tuple[ColumnBatch, list[frozenset]]]:
        """Two-pass multi-branch scan (paper Section 3.3).

        The first pass builds in-memory tables of the (segment, ordinal)
        locations of the records live in each branch
        (:meth:`_locate_branch_records`).  The second pass reads the
        relevant segments' columns and gathers each located copy, annotated
        with the branches it belongs to.  The second pass over the files is
        the extra work the paper attributes to version-first multi-branch
        scans.
        """
        located, members_of = self._locate_branch_records(states)
        runs = []
        for seg_id in sorted(located):
            ordinals = sorted(located[seg_id])
            self.stats.records_scanned += len(ordinals)
            runs.append((seg_id, ordinals))
        for seg_id, batch, hits in self._select_located(runs, predicate):
            masks = located[seg_id]
            yield batch, [members_of[masks[ordinal]] for ordinal in hits]

    def _locate_branch_records(
        self, states: dict[str, tuple[str, int | None]]
    ) -> tuple[dict[str, dict[int, int]], dict[int, frozenset[str]]]:
        """Pass one of the multi-branch scan: locate each branch's live
        records (:meth:`_state_locations`).

        Membership is tracked as a bitmask over the branches of ``states``
        (one shared ``frozenset`` per distinct combination, via the
        returned lookup table) instead of allocating a set per located
        record.
        """
        located: dict[str, dict[int, int]] = {}
        for branch_bit, state in enumerate(states.values()):
            bit = 1 << branch_bit
            for seg_id, ordinal in self._state_locations(state):
                by_ordinal = located.get(seg_id)
                if by_ordinal is None:
                    located[seg_id] = {ordinal: bit}
                else:
                    by_ordinal[ordinal] = by_ordinal.get(ordinal, 0) | bit
        masks = {
            mask
            for by_ordinal in located.values()
            for mask in by_ordinal.values()
        }
        members_of = {
            mask: frozenset(
                branch
                for branch_bit, branch in enumerate(states)
                if (mask >> branch_bit) & 1
            )
            for mask in masks
        }
        return located, members_of

    # -- read states and diff ---------------------------------------------------------------

    def _head_state(self, branch: str) -> tuple[str, None]:
        """``(segment id, None)``: the live head's segment, read in full."""
        return self._head_segment[branch], None

    def _diff_states(
        self,
        state_a: tuple[str, int | None],
        state_b: tuple[str, int | None],
        version_a: str = "",
        version_b: str = "",
    ) -> DiffResult:
        """Compare two states by materializing both.

        Version-first has no incremental structure tracking differences from a
        common ancestor, so both chains are scanned in full (sharing segment
        reads) and joined by key -- the multiple passes the paper calls out in
        its Query 2 discussion.
        """
        return self._merge_diff()(state_a, state_b, version_a, version_b)

    def _merge_diff(self) -> Callable[..., DiffResult]:
        """A diff whose calls share one segment cache and map each chain once.

        A merge scans both heads and, for three-way, the whole LCA commit,
        which it must to determine conflicts (paper Section 5.4) -- why
        version-first underperforms most in the three-way mode.
        """
        pk_position = self.schema.primary_key_index
        segment_cache: dict[str, list[Record]] = {}
        maps: dict[tuple[str, int | None], dict[int, Record]] = {}

        def chain_map(state: tuple[str, int | None]) -> dict[int, Record]:
            if state not in maps:
                maps[state] = {
                    record.values[pk_position]: record
                    for record in self._scan_state(state, None, segment_cache)
                }
            return maps[state]

        def diff(state_a, state_b, version_a="", version_b="") -> DiffResult:
            return DiffResult.from_record_maps(
                version_a, version_b, chain_map(state_a), chain_map(state_b)
            )

        return diff

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

    # -- commit locations -----------------------------------------------------------------------------

    def _commit_read_state(self, commit_id: str) -> tuple[str, int]:
        """``(segment id, offset)``: the commit's recorded segment offset."""
        location = self.graph.commit_state(commit_id)
        if location is None:
            raise CommitNotFoundError(
                f"commit {commit_id!r} has no recorded segment offset"
            )
        segment_id, offset = location
        return segment_id, offset
