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
    regroup_column_batches,
)
from repro.core.page import DEFAULT_PAGE_SIZE
from repro.core.predicates import (
    Predicate,
    compile_column_filter,
    compile_predicate,
)
from repro.core.durable import add_recovery_note, strict_recovery
from repro.core.record import Record
from repro.core.schema import Schema
from repro.errors import CommitNotFoundError, CorruptionError, StorageError
from repro.storage.base import (
    DEFAULT_SCAN_BATCH_SIZE,
    StorageEngineKind,
    VersionedStorageEngine,
    check_stored_records,
    merge_branch_copies,
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
        #: per-record chain walks, while :meth:`scan_branch` remains the
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
    ) -> None:
        if at_head:
            parent_segment_id = self._head_segment[parent_branch]
            limit = self.segments.get(parent_segment_id).record_count
            # Every parent location is visible through the branch point, so
            # the child's index is a straight clone.
            self.pk_index.add_branch(name, clone_from=parent_branch)
            self.index_hook.branch_created(name, clone_from=parent_branch)
        else:
            parent_segment_id, limit = self._commit_read_state(from_commit)
            pk_position = self.schema.primary_key_index
            entries = {
                record.values[pk_position]: (seg_id, ordinal)
                for seg_id, ordinal, record in self._locate_chain(
                    parent_segment_id, limit
                )
            }
            self.pk_index.replace_branch(name, entries)
            self.index_hook.branch_rebuilt(name)
        segment = self.segments.create(
            owner_branch=name,
            parents=(ParentPointer(parent_segment_id, limit),),
        )
        self._head_segment[name] = segment.segment_id

    def _record_commit_state(
        self, branch: str, commit_id: str
    ) -> tuple[str, int]:
        segment_id = self._head_segment[branch]
        return segment_id, self.segments.get(segment_id).record_count

    def _flush_storage(self) -> None:
        self.segments.flush()
        self.segments.save_metadata()

    def _load_storage(self) -> None:
        """Rebuild segment topology, then roll each branch back to its head.

        Visibility in version-first is physical -- a branch's state is its
        segment's content -- so recovery *truncates* each branch's segment to
        the record offset its head commit recorded.  The truncation floor is
        raised by any persisted child branch point into the segment: a child
        created off this branch durably references the parent's records below
        its pointer limit, so those records must survive even if the parent
        itself never committed past them.  A segment holding fewer records
        than its floor lost committed ones: strict recovery refuses to open.
        """
        self.segments.load_metadata()
        for segment in self.segments.all():
            if segment.owner_branch is not None and not segment.frozen:
                self._head_segment[segment.owner_branch] = segment.segment_id
        # Records each segment must hold: up to its child branch points'
        # limits and, for a head segment, its head commit's offset.
        needed: dict[str, int] = {}
        for segment in self.segments.all():
            for pointer in segment.parents:
                needed[pointer.segment_id] = max(
                    needed.get(pointer.segment_id, 0), pointer.limit
                )
        for branch in self.graph.branch_names():
            segment_id = self._head_segment.get(branch)
            if segment_id is None:
                error = CorruptionError(
                    os.path.join(self.segments.directory, "segments.json"),
                    f"no head segment recorded for branch {branch!r}",
                )
                if strict_recovery():
                    raise error
                add_recovery_note(f"branch {branch!r} unrecoverable: {error}")
                continue
            location = self.graph.commit_state(self.graph.head(branch))
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
        """Index-scan fetch: each touched page is fetched once, in key order."""
        out: list[Record] = []
        heaps: dict[str, object] = {}
        pages: dict[tuple[str, int], object] = {}
        for key in keys:
            location = self.pk_index.get(branch, key)
            if location is None:
                continue
            segment_id, ordinal = location
            heap = heaps.get(segment_id)
            if heap is None:
                heap = heaps[segment_id] = self.segments.get(segment_id).heap
            page_number, slot = divmod(ordinal, heap.records_per_page)
            page = pages.get((segment_id, page_number))
            if page is None:
                if len(pages) > 64:
                    pages.clear()  # bound decoded-page references per fetch
                page = pages[(segment_id, page_number)] = heap.page(page_number)
            out.append(page.record_at(slot))
        return out

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

    def _scan_chain(
        self,
        segment_id: str,
        limit: int | None,
        predicate: Predicate | None = None,
        segment_cache: dict[str, list[Record]] | None = None,
    ) -> Iterator[Record]:
        """Scan a segment chain, emitting each live key's newest record."""
        schema = self.schema
        for _, _, record in self._locate_chain(segment_id, limit, segment_cache):
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

    def _branch_segment_ordinals(self, branch: str) -> dict[str, list[int]]:
        """The branch's live locations grouped by segment (a bulk index probe)."""
        by_segment: dict[str, list[int]] = {}
        for seg_id, ordinal in self.pk_index.locations(branch):
            ordinals = by_segment.get(seg_id)
            if ordinals is None:
                by_segment[seg_id] = [ordinal]
            else:
                ordinals.append(ordinal)
        return by_segment

    # -- scans -----------------------------------------------------------------------------

    def scan_branch(
        self, branch: str, predicate: Predicate | None = None
    ) -> Iterator[Record]:
        segment_id = self._head_segment[branch]
        yield from self._scan_chain(segment_id, None, predicate)

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
        cached = self._segment_column_cache.get(segment_id)
        if cached is not None and cached[0] == heap.num_records:
            return cached[1]
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

    def scan_branch_columns(
        self,
        branch: str,
        predicate: Predicate | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH_SIZE,
        columns: tuple[str, ...] | None = None,
    ) -> Iterator[ColumnBatch]:
        """Columnar :meth:`scan_branch`: bulk index probe, column gather.

        The primary-key index already knows each live key's newest
        ``(segment, ordinal)`` location, so the key-shadowing chain walk
        collapses to one bulk index probe: segments are visited in chain
        order and each segment's located ordinals are gathered newest-first,
        which reproduces :meth:`scan_branch`'s row order while touching only
        live records (shadowed copies and tombstones are never read).
        """

        def located() -> Iterator[tuple[str, list[int]]]:
            by_segment = self._branch_segment_ordinals(branch)
            for seg_id, _ in self._chain(self._head_segment[branch], None):
                ordinals = by_segment.get(seg_id)
                if ordinals:
                    ordinals.sort(reverse=True)
                    self.stats.records_scanned += len(ordinals)
                    yield seg_id, ordinals

        return self._gather_columns(located(), predicate, batch_size, columns)

    def scan_commit_columns(
        self,
        commit_id: str,
        predicate: Predicate | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH_SIZE,
        columns: tuple[str, ...] | None = None,
    ) -> Iterator[ColumnBatch]:
        """Columnar :meth:`scan_commit`: the commit's chain walk locates each
        live key's newest copy (visiting, and counting, the same records the
        row scan does), then the located ordinals gather out of the cached
        segment columns in the row scan's order."""

        def located() -> Iterator[tuple[str, list[int]]]:
            segment_id, offset = self._commit_read_state(commit_id)
            by_segment: dict[str, list[int]] = {}
            for seg_id, ordinal, _ in self._locate_chain(segment_id, offset):
                by_segment.setdefault(seg_id, []).append(ordinal)
            yield from by_segment.items()

        return self._gather_columns(located(), predicate, batch_size, columns)

    def _gather_columns(
        self,
        located: Iterable[tuple[str, list[int]]],
        predicate: Predicate | None,
        batch_size: int,
        columns: tuple[str, ...] | None = None,
    ) -> Iterator[ColumnBatch]:
        """Gather ``(segment id, live ordinals)`` runs into column batches.

        Ordinals are read straight out of the cached per-segment column
        containers (:meth:`_segment_columns`) in the order given; no
        :class:`Record` is ever built.  With ``columns`` (projection
        pushdown) only the named columns are gathered into the output
        batches.
        """
        schema = self.schema
        names = schema.column_names if columns is None else list(columns)
        positions = [schema.index_of(name) for name in names]
        out_schema = schema if columns is None else schema.project(names)
        return regroup_column_batches(
            (
                ColumnBatch(
                    out_schema, [containers[i] for i in positions]
                ).take(hits)
                for _, containers, hits in self._select_located(
                    located, predicate
                )
            ),
            batch_size,
            out_schema,
        )

    def _select_located(
        self, located: Iterable[tuple[str, list[int]]], predicate: Predicate | None
    ) -> Iterator[tuple[str, tuple, list[int]]]:
        """Per ``(segment id, ordinals)`` run, the segment's cached columns
        and the ordinals ``predicate`` selects, in the order given.

        Predicates run as compiled column selections where possible.
        """
        schema = self.schema
        select = compile_column_filter(predicate, schema)
        matches = compile_predicate(predicate, schema) if select is None else None
        for seg_id, ordinals in located:
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
                yield seg_id, containers, hits

    def drop_caches(self) -> None:
        """Drop page caches and the per-segment column cache."""
        super().drop_caches()
        self._segment_column_cache.clear()

    def count_branch(self, branch: str, predicate: Predicate | None = None) -> int:
        if predicate is None:
            # The primary-key index holds exactly the live keys.
            return self.pk_index.live_count(branch)
        return super().count_branch(branch, predicate)

    def scan_commit(
        self, commit_id: str, predicate: Predicate | None = None
    ) -> Iterator[Record]:
        segment_id, offset = self._commit_read_state(commit_id)
        yield from self._scan_chain(segment_id, offset, predicate)

    def scan_branches_batched(
        self,
        branches: list[str] | None,
        predicate: Predicate | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH_SIZE,
        pins: dict[str, str] | None = None,
    ) -> Iterator[ColumnBatch]:
        """Two-pass multi-branch scan (paper Section 3.3).

        The first pass builds in-memory tables of the (segment, ordinal)
        locations of the records live in each branch
        (:meth:`_locate_branch_records`).  The second pass reads the
        relevant segments' columns and gathers each located copy, annotated
        with the branches it belongs to.  The second pass over the files is
        the extra work the paper attributes to version-first multi-branch
        scans.
        """
        targets = self._scan_targets(branches, pins)

        def copies() -> Iterator[tuple[ColumnBatch, list[frozenset]]]:
            located, members_of = self._locate_branch_records(targets, pins)
            runs = []
            for seg_id in sorted(located):
                ordinals = sorted(located[seg_id])
                self.stats.records_scanned += len(ordinals)
                runs.append((seg_id, ordinals))
            for seg_id, containers, hits in self._select_located(runs, predicate):
                masks = located[seg_id]
                yield ColumnBatch(self.schema, containers).take(hits), [
                    members_of[masks[ordinal]] for ordinal in hits
                ]

        yield from merge_branch_copies(self.schema, copies(), batch_size)

    def _locate_branch_records(
        self, branches: list[str], pins: dict[str, str] | None
    ) -> tuple[dict[str, dict[int, int]], dict[int, frozenset[str]]]:
        """Pass one of the multi-branch scan: locate each branch's live records.

        A live head's locations are a bulk probe of its primary-key index
        (the paper's per-record chain walks collapse into it); a pinned
        commit's come from the chain walk up to its recorded offset
        (:meth:`_locate_chain`).  Membership is tracked as a bitmask over
        ``branches`` (one shared ``frozenset`` per distinct combination, via
        the returned lookup table) instead of allocating a set per located
        record.
        """
        located: dict[str, dict[int, int]] = {}
        for branch_bit, branch in enumerate(branches):
            bit = 1 << branch_bit
            if pins is None:
                locations: Iterable[tuple[str, int]] = self.pk_index.locations(
                    branch
                )
            else:
                locations = (
                    (seg_id, ordinal)
                    for seg_id, ordinal, _ in self._locate_chain(
                        *self._branch_state(branch, pins)
                    )
                )
            for seg_id, ordinal in locations:
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
                for branch_bit, branch in enumerate(branches)
                if (mask >> branch_bit) & 1
            )
            for mask in masks
        }
        return located, members_of

    # -- diff --------------------------------------------------------------------------------

    def _branch_state(
        self, branch: str, pins: dict[str, str] | None = None
    ) -> tuple[str, int | None]:
        """``(segment id, limit)``: the live head's segment read in full, or
        with ``pins`` the pinned commit's recorded offset."""
        if pins is None:
            return self._head_segment[branch], None
        return self._commit_read_state(self.pinned_commit(branch, pins))

    def diff(
        self, branch_a: str, branch_b: str, pins: dict[str, str] | None = None
    ) -> DiffResult:
        """Query 2 over the two branches' chains: the live heads', or with
        ``pins`` the pinned commits'."""
        self.stats.diffs += 1
        return self._diff_states(
            self._branch_state(branch_a, pins),
            self._branch_state(branch_b, pins),
            branch_a,
            branch_b,
        )

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
                    for record in self._scan_chain(*state, None, segment_cache)
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
