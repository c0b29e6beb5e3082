"""The interface shared by all versioned storage engines.

Every engine supports the paper's core operations (Section 2.2.3): init,
branch, commit, checkout, data modification on branch heads, single- and
multi-branch scans, diff, and merge with either whole-record precedence
("two-way") or field-level three-way conflict resolution.

The merge algorithm differs across engines only in how the *inputs* are
gathered -- which records changed on each side relative to the lowest common
ancestor, and what the ancestor records were.  The application of those
changes to the target branch is identical everywhere, so :meth:`merge` is a
template method here and each engine implements
:meth:`_collect_merge_inputs` with its characteristic I/O pattern (bitmap
intersections for tuple-first and hybrid, full segment scans for
version-first), which is exactly the cost difference Table 3 measures.
"""

from __future__ import annotations

import enum
import os
import shutil
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Iterator

from repro.core.buffer_pool import BufferPool
from repro.core.columns import ColumnBatch, regroup_column_batches
from repro.core.page import DEFAULT_PAGE_SIZE, PAGE_HEADER_SIZE
from repro.core.predicates import (
    Predicate,
    column_filter_columns,
    compile_column_filter,
    compile_predicate,
)
from repro.core.record import Record
from repro.core.schema import Schema
from repro.errors import VersionError
from repro.index.maintenance import IndexMaintenance
from repro.versioning.conflicts import (
    MergePolicy,
    PrecedencePolicy,
    RecordConflict,
    ThreeWayPolicy,
    detect_record_conflict,
)
from repro.versioning.diff import DiffResult
from repro.versioning.version_graph import MASTER_BRANCH, VersionGraph


class StorageEngineKind(enum.Enum):
    """The physical layouts evaluated in the paper, plus the git baseline."""

    TUPLE_FIRST = "tuple-first"
    VERSION_FIRST = "version-first"
    HYBRID = "hybrid"
    GIT = "git"


@dataclass
class EngineStats:
    """Operation counters kept by every engine (useful in tests and benches)."""

    records_inserted: int = 0
    records_updated: int = 0
    records_deleted: int = 0
    records_scanned: int = 0
    commits: int = 0
    branches_created: int = 0
    merges: int = 0
    diffs: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        for name in vars(self):
            setattr(self, name, 0)


@dataclass
class MergeResult:
    """Outcome of merging one branch into another."""

    target_branch: str
    source_branch: str
    commit_id: str
    policy: str
    lca_commit: str | None
    conflicts: list[RecordConflict] = field(default_factory=list)
    records_applied: int = 0
    diff_bytes: int = 0

    @property
    def num_conflicts(self) -> int:
        """Number of keys that required conflict resolution."""
        return len(self.conflicts)


#: A "changed record" map: primary key -> new record, or None for a delete.
ChangeMap = dict[int, "Record | None"]

#: Rows per batch yielded by the engines' column and multi-branch scans.
DEFAULT_SCAN_BATCH_SIZE = 1024


def fetch_bitmap_ordinals(heap, bitmap, out: list, stats: EngineStats) -> None:
    """Append the records at the bitmap's set ordinals, page at a time.

    Ascending ordinals mostly share pages, so the page is fetched once per
    run instead of once per record (the diff-path record fetch).
    """
    per_page = heap.records_per_page
    current_page = -1
    records: list = []
    append = out.append
    for ordinal in bitmap.iter_set_bits():
        page_number = ordinal // per_page
        if page_number != current_page:
            records = heap.page(page_number).records_view()
            current_page = page_number
        append(records[ordinal % per_page])
        stats.records_scanned += 1


def regroup_chunks(chunks, batch_size: int):
    """Regroup an iterator of lists (e.g. per-page hits) into batches.

    Batches are at least ``batch_size`` long when enough input remains --
    ``batch_size`` is a flush threshold, not an exact size -- and no element
    is ever copied more than once (no slicing).  Flattening the output
    reproduces the input order exactly.
    """
    batch: list = []
    for chunk in chunks:
        if not batch and len(chunk) >= batch_size:
            yield chunk
            continue
        batch.extend(chunk)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def _live_page_masks(bitmap, per_page: int) -> Iterator[tuple[int, int]]:
    """Yield ``(page number, liveness word)`` for every page with a set bit.

    Bit ``i`` of the word is slot ``i`` of the page.  Each page's word is
    sliced from the byte range covering its bit span (bits of the
    neighbouring pages are shifted/masked off), so the whole extraction is
    O(total bits) rather than the O(pages x bits) a rolling whole-bitmap
    shift would cost, and a page with no live slot is never fetched.
    """
    data = bitmap.to_bytes()
    page_mask = (1 << per_page) - 1
    for page_number in range((len(data) * 8 + per_page - 1) // per_page):
        start = page_number * per_page
        chunk = int.from_bytes(
            data[start >> 3 : (start + per_page + 7) >> 3], "little"
        )
        live = (chunk >> (start & 7)) & page_mask
        if live:
            yield page_number, live


def stored_pk_ordinals(heap, pk_position: int) -> Iterator[tuple[int, int]]:
    """Yield ``(primary key, ordinal)`` for every record stored in ``heap``.

    The key-copy index build shared by tuple-first and hybrid (the first
    pk lookup after a reopen).  Only the key column is read: a page still
    in its on-disk image decodes that one column
    (:meth:`RecordCodec.decode_column`), a page with an in-memory row array
    (the heap tail, appended pages) reads it from the rows.  Nothing is
    decoded into the page's caches, so a build does not grow the buffer
    pool's footprint.
    """
    per_page = heap.records_per_page
    codec = heap.codec
    transient = heap.scan_exceeds_pool()
    for page_number in range(heap.num_pages):
        page = heap.page(page_number, transient=transient)
        raw = page.raw_data()
        if raw is not None:
            keys = codec.decode_column(
                raw, pk_position, PAGE_HEADER_SIZE, page.num_records
            )
        else:
            keys = [record.values[pk_position] for record in page.records_view()]
        start = page_number * per_page
        for slot, key in enumerate(keys):
            yield key, start + slot


def scan_heap_bitmap_columns(
    heap,
    bitmap,
    schema: Schema,
    predicate: Predicate | None,
    batch_size: int,
    stats: EngineStats,
    columns: tuple[str, ...] | None = None,
):
    """Columnar scan of one heap file's live ordinals (shared hot path).

    The bitmap is consumed page-mask-at-a-time: each page's liveness word is
    sliced out of the bitmap bytes, and a zero word skips the page entirely
    (never touching the buffer pool).  Pages decode straight into typed
    column arrays (:meth:`Page.columns_view`, no record object is ever
    constructed), fully-live unfiltered pages pass their column containers
    through zero-copy, and predicates run as compiled column selections.
    Flattening the batches row-wise reproduces the record scan of the same
    bitmap exactly.

    With ``columns`` (projection pushdown) only the named columns appear in
    the output batches -- and on the raw late-materialization path, only
    those columns (plus the predicate's) are ever decoded at all.
    """
    out_positions = out_schema = None
    if columns is not None:
        out_positions = [schema.index_of(name) for name in columns]
        out_schema = schema.project(list(columns))
    yield from regroup_column_batches(
        _heap_bitmap_page_column_hits(
            heap, bitmap, schema, predicate, stats, out_positions, out_schema
        ),
        batch_size,
        out_schema if out_schema is not None else schema,
    )


def _heap_bitmap_page_column_hits(
    heap, bitmap, schema, predicate, stats, out_positions=None, out_schema=None
):
    """Per-page :class:`ColumnBatch`es for :func:`scan_heap_bitmap_columns`."""
    select = compile_column_filter(predicate, schema)
    matches = compile_predicate(predicate, schema) if select is None else None
    needed = column_filter_columns(predicate, schema)
    codec = heap.codec
    record_size = codec.record_size
    per_page = heap.records_per_page
    # A one-pass scan of a heap bigger than the whole pool bypasses pool
    # admission so it cannot evict the hot set (scan-resistant reads).
    transient = heap.scan_exceeds_pool()
    if out_schema is None:
        out_positions = list(range(len(schema.columns)))
        out_schema = schema

    def project(containers):
        # Zero-copy column pruning: pick the requested containers out of
        # the page's decoded column list.
        return [containers[position] for position in out_positions]

    for page_number, live in _live_page_masks(bitmap, per_page):
        page = heap.page(page_number, transient=transient)
        num_records = page.num_records
        stats.records_scanned += live.bit_count()
        fully_live = live == (1 << num_records) - 1
        if predicate is None:
            page_batch = ColumnBatch(
                out_schema, project(page.columns_view()), num_records
            )
            if fully_live:
                yield page_batch
                continue
            ordinals = []
            keep = ordinals.append
            while live:
                low = live & -live
                keep(low.bit_length() - 1)
                live ^= low
            yield page_batch.take(ordinals)
            continue
        raw = (
            page.raw_data()
            if select is not None and page.cached_columns is None
            else None
        )
        if raw is not None:
            # Late materialization: decode only the predicate's columns
            # (one padded batch unpack each), run the compiled selection,
            # then decode just the selected records' bytes -- and of those,
            # only the projected columns; everything else never becomes a
            # Python value at all.
            predicate_columns = {
                index: codec.decode_column(
                    raw, index, PAGE_HEADER_SIZE, num_records
                )
                for index in needed
            }
            selection = select(predicate_columns, num_records)
            if not fully_live:
                selection = [i for i in selection if live >> i & 1]
            if not selection:
                continue
            if len(selection) == num_records:
                yield ColumnBatch(
                    out_schema, project(page.columns_view()), num_records
                )
                continue
            filtered = b"".join(
                [
                    raw[
                        PAGE_HEADER_SIZE
                        + ordinal * record_size : PAGE_HEADER_SIZE
                        + (ordinal + 1) * record_size
                    ]
                    for ordinal in selection
                ]
            )
            if len(out_positions) < len(schema.columns):
                yield ColumnBatch(
                    out_schema,
                    [
                        codec.decode_column(filtered, index, 0, len(selection))
                        for index in out_positions
                    ],
                    len(selection),
                )
            else:
                yield ColumnBatch(
                    out_schema,
                    codec.decode_batch_columns(filtered, 0, len(selection)),
                    len(selection),
                )
            continue
        # Evaluate the predicate over the whole page, then intersect with
        # the live mask: dead slots hold well-typed decoded values, so
        # running the selection on them is safe, and a partially-live page
        # costs one gather instead of two.
        containers = page.columns_view()
        if select is not None:
            selection = select(containers, num_records)
        else:
            selection = [
                i
                for i, values in enumerate(
                    ColumnBatch(schema, containers, num_records).rows()
                )
                if matches(values)
            ]
        if not fully_live:
            selection = [i for i in selection if live >> i & 1]
        if not selection:
            continue
        page_batch = ColumnBatch(out_schema, project(containers), num_records)
        if len(selection) == num_records:
            yield page_batch
        else:
            yield page_batch.take(selection)


def _record_column_batches(
    schema: Schema,
    records: Iterable[Record],
    batch_size: int,
    columns: tuple[str, ...] | None = None,
) -> Iterator[ColumnBatch]:
    """Pivot a record scan into column batches of ``batch_size`` rows,
    keeping only ``columns`` when given (the engines' default column scan)."""
    rows = iter(records)
    if columns is None:
        while chunk := list(islice(rows, batch_size)):
            yield ColumnBatch.from_records(schema, chunk)
        return
    positions = [schema.index_of(name) for name in columns]
    out_schema = schema.project(list(columns))
    while chunk := list(islice(rows, batch_size)):
        yield ColumnBatch.from_records(schema, chunk).select_columns(
            positions, out_schema
        )


class VersionedStorageEngine(ABC):
    """Base class for the tuple-first, version-first and hybrid engines."""

    kind: StorageEngineKind

    def __init__(
        self,
        directory: str,
        schema: Schema,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pool: BufferPool | None = None,
    ):
        self.directory = directory
        self.schema = schema
        self.page_size = page_size
        self.buffer_pool = buffer_pool if buffer_pool is not None else BufferPool()
        self.graph = VersionGraph()
        self.stats = EngineStats()
        #: The versioned index subsystem facade: every mutation path must
        #: notify it (lint rule REPRO011); it owns the declared secondary
        #: indexes and answers the optimizer's :class:`IndexScan` questions,
        #: asking this engine about primary keys.
        self.index_hook = IndexMaintenance(schema, self)
        #: Serializes concurrent *physical* mutation of shared structures
        #: (heap tail pages, branch bitmaps, indexes).  Branch locks give
        #: logical isolation; this mutex only makes interleaved apply phases
        #: memory-safe.  Reentrant so merge/commit paths can nest.
        self.write_mutex = threading.RLock()
        #: Held across "move branch head + record commit snapshot" so a
        #: snapshot acquirer never observes a head commit whose bitmap
        #: snapshot has not been recorded yet.
        self.commit_gate = threading.RLock()
        os.makedirs(directory, exist_ok=True)

    # -- lifecycle --------------------------------------------------------------

    def init(self, records: Iterable[Record] = (), message: str = "init") -> str:
        """Create the master branch, load ``records`` into it, and commit.

        Returns the id of the initial commit (paper Section 2.2.3, *Init*).
        """
        if self.graph.initialized:
            raise VersionError("engine is already initialized")
        self._prepare_master()
        commit = self.graph.init(message=message)
        for record in records:
            self.insert(MASTER_BRANCH, record)
        self._commit_durably(MASTER_BRANCH, commit.commit_id)
        return commit.commit_id

    def has_persistent_state(self) -> bool:
        """True if this engine's directory holds a persisted version graph."""
        return os.path.exists(self._graph_path())

    def load_persistent_state(self) -> None:
        """Reload the engine from disk (graph, storage, commit snapshots).

        Loading is opt-in rather than automatic in ``__init__`` so that a
        fresh engine object over a reused directory (benchmarks re-``init``)
        keeps its current semantics; reopen paths
        (:meth:`repro.db.database.Decibel.open`) call this explicitly.  The
        engine comes back positioned at every branch's *head commit*: writes
        that were never committed are invisible or physically discarded,
        which is exactly the loser-rollback recovery needs.
        """
        self.graph = VersionGraph.load(self._graph_path())
        self._load_storage()

    def flush(self) -> None:
        """Persist any buffered pages and metadata."""
        # Gated: a commit's graph event is never saved before its state is set.
        with self.commit_gate:
            self._flush_storage()
            self._persist_graph()

    def close(self) -> None:
        """Flush and release cached pages."""
        self.flush()
        self.buffer_pool.clear()

    def drop_caches(self) -> None:
        """Drop cached pages to approximate a cold start (paper Section 5)."""
        self.buffer_pool.clear()

    def destroy(self) -> None:
        """Delete all on-disk state of this engine."""
        self.buffer_pool.clear()
        if os.path.isdir(self.directory):
            shutil.rmtree(self.directory)

    # -- versioning operations ---------------------------------------------------

    def create_branch(
        self,
        name: str,
        from_branch: str | None = None,
        from_commit: str | None = None,
    ) -> None:
        """Create a branch off a branch head or any historical commit."""
        if from_branch is None and from_commit is None:
            from_branch = MASTER_BRANCH
        with self.commit_gate:
            if from_commit is not None:
                parent_branch = self.graph.get_commit(from_commit).branch
                at_head = self.graph.head(parent_branch) == from_commit
            else:
                parent_branch = from_branch
                from_commit = self.graph.head(parent_branch)
                at_head = True
            self.graph.create_branch(
                name, from_commit=from_commit, from_branch=parent_branch
            )
            self._materialize_branch(name, parent_branch, from_commit, at_head)
            self.stats.branches_created += 1
            self._flush_storage()
            self._persist_graph()

    def commit(self, branch: str, message: str = "") -> str:
        """Create a commit capturing the current state of ``branch``'s head.

        The head move and the snapshot recording happen under the commit
        gate: a concurrent snapshot acquisition either sees the old head
        (with its already-recorded snapshot) or the new head after its
        snapshot exists -- never the half-open state in between.
        """
        with self.commit_gate:
            commit = self.graph.commit(branch, message=message)
            self._commit_durably(branch, commit.commit_id)
        return commit.commit_id

    def _commit_durably(self, branch: str, commit_id: str) -> None:
        """Make a just-created commit durable, in crash-safe order.

        1. flush storage -- record data reaches the disk first, so a commit
           snapshot can never reference bytes that were lost with the page
           cache;
        2. record the commit snapshot (fsynced history appends); the state
           the engine returns (a segment offset, segment ids) rides in the
           commit's graph event;
        3. append the version-graph frame -- the commit point.  A crash
           before it leaves history tails that reload truncates
           (``rebind_commit_ids``), never a graph naming state that is
           missing.

        Indexes take no part: pk indexes are derived data, rebuilt from the
        recovered storage on first use after a reopen.
        """
        self._flush_storage()
        self.graph.set_commit_state(
            commit_id, self._record_commit_state(branch, commit_id)
        )
        self.stats.commits += 1
        self._persist_graph()

    def checkout(self, commit_id: str) -> list[Record]:
        """Materialize the full contents of a historical commit."""
        return list(self.scan_commit(commit_id))

    def merge(
        self,
        target_branch: str,
        source_branch: str,
        *,
        policy: MergePolicy | None = None,
        three_way: bool = True,
        message: str = "",
    ) -> MergeResult:
        """Merge ``source_branch`` into ``target_branch``.

        With ``three_way=True`` (the default) field-level conflicts are
        detected against the lowest common ancestor and resolved by
        ``policy`` (default: :class:`ThreeWayPolicy` preferring the target).
        With ``three_way=False`` the merge uses whole-record precedence and
        never consults the ancestor, matching the paper's two-way mode.
        """
        if policy is None:
            policy = ThreeWayPolicy(prefer="a") if three_way else PrecedencePolicy(prefer="a")
        target_head = self.graph.head(target_branch)
        source_head = self.graph.head(source_branch)
        lca = self.graph.lowest_common_ancestor(target_head, source_head)
        changed_target, changed_source, ancestors = self._collect_merge_inputs(
            target_branch, source_branch, lca, three_way=three_way
        )
        record_width = self.schema.record_width + 1
        result = MergeResult(
            target_branch=target_branch,
            source_branch=source_branch,
            commit_id="",
            policy=policy.name,
            lca_commit=lca if three_way else None,
            diff_bytes=(len(changed_target) + len(changed_source)) * record_width,
        )
        for key, source_record in changed_source.items():
            if key in changed_target:
                conflict = detect_record_conflict(
                    self.schema,
                    key,
                    changed_target.get(key),
                    source_record,
                    ancestors.get(key),
                )
                if conflict.has_conflicts:
                    result.conflicts.append(conflict)
                    resolved, _ = policy.resolve(self.schema, conflict)
                else:
                    # Both sides changed the key compatibly; a three-way merge
                    # of the field updates is still needed to combine them.
                    resolved, _ = ThreeWayPolicy(prefer=policy.prefer if hasattr(policy, "prefer") else "a").resolve(
                        self.schema, conflict
                    )
                self._apply_merge_change(target_branch, source_branch, key, resolved)
                result.records_applied += 1
            else:
                self._apply_merge_change(target_branch, source_branch, key, source_record)
                result.records_applied += 1
        with self.commit_gate:
            merge_commit = self.graph.merge(
                target_branch, source_branch, message=message, precedence=target_branch
            )
            self._commit_durably(target_branch, merge_commit.commit_id)
        self.stats.merges += 1
        result.commit_id = merge_commit.commit_id
        return result

    def _apply_merge_change(
        self, target_branch: str, source_branch: str, key: int, record: Record | None
    ) -> None:
        """Apply one resolved change to the target branch.

        The default implementation copies the record into the target's head
        (a new physical copy).  The bitmap-based engines override this to
        *share* the source branch's existing tuple when the resolved record is
        identical to it, as the paper's merge procedures do -- without the
        sharing, bitmap diffs would report physically distinct but logically
        identical copies as differences.
        """
        if record is None:
            if self.branch_contains_key(target_branch, key):
                self.delete(target_branch, key)
            return
        if self.branch_contains_key(target_branch, key):
            self.update(target_branch, record)
        else:
            self.insert(target_branch, record)

    # -- data operations (branch heads only) --------------------------------------

    @abstractmethod
    def insert(self, branch: str, record: Record) -> None:
        """Insert a new record into ``branch``'s head."""

    @abstractmethod
    def update(self, branch: str, record: Record) -> None:
        """Replace the record with the same primary key in ``branch``'s head."""

    @abstractmethod
    def delete(self, branch: str, key: int) -> None:
        """Delete the record with primary key ``key`` from ``branch``'s head."""

    @abstractmethod
    def branch_contains_key(self, branch: str, key: int) -> bool:
        """True if ``key`` is live in ``branch``'s head."""

    def record_for_key(self, branch: str, key: int) -> Record | None:
        """The live record with primary key ``key`` in ``branch``'s head.

        Returns ``None`` when the key is absent.  WAL redo uses this to make
        replayed writes idempotent.  This default scans; the concrete engines
        override it with primary-key-index lookups.
        """
        pk_position = self.schema.primary_key_index
        for record in self.scan_branch(branch):
            if record.values[pk_position] == key:
                return record
        return None

    def records_for_keys(
        self, branch: str, keys: Iterable[int]
    ) -> list[Record]:
        """The live records for ``keys`` in ``branch``, skipping absent keys.

        The index-scan fetch path: only the matched keys' records are ever
        decoded (late materialization), in the order ``keys`` arrive.
        """
        out: list[Record] = []
        for key in keys:
            record = self.record_for_key(branch, key)
            if record is not None:
                out.append(record)
        return out

    # -- scans ---------------------------------------------------------------------

    @abstractmethod
    def scan_branch(
        self, branch: str, predicate: Predicate | None = None
    ) -> Iterator[Record]:
        """Yield the live records of ``branch``'s head (benchmark Query 1)."""

    def scan_branch_columns(
        self,
        branch: str,
        predicate: Predicate | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH_SIZE,
        columns: tuple[str, ...] | None = None,
    ) -> Iterator[ColumnBatch]:
        """Yield ``scan_branch``'s rows as :class:`ColumnBatch`es.

        Row-flattening the batches always reproduces :meth:`scan_branch`
        exactly (same rows, same order).  With ``columns`` (projection
        pushdown) only the named columns appear in the output batches.
        This default pivots the row scan; the concrete engines override it
        with page-decode columnar paths that never build records and decode
        only the projected columns.
        """
        return _record_column_batches(
            self.schema, self.scan_branch(branch, predicate), batch_size, columns
        )

    def count_branch(self, branch: str, predicate: Predicate | None = None) -> int:
        """Number of live records of ``branch`` matching ``predicate``.

        The count-only companion of :meth:`scan_branch_columns`: with no
        predicate the concrete engines answer from their index structures
        (bitmap popcounts, primary-key index sizes) without touching record
        data; with a predicate this default sums the column scan's batch
        lengths.
        """
        return sum(
            batch.num_rows for batch in self.scan_branch_columns(branch, predicate)
        )

    @abstractmethod
    def scan_commit(
        self, commit_id: str, predicate: Predicate | None = None
    ) -> Iterator[Record]:
        """Yield the records of a historical commit."""

    def scan_commit_columns(
        self,
        commit_id: str,
        predicate: Predicate | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH_SIZE,
        columns: tuple[str, ...] | None = None,
    ) -> Iterator[ColumnBatch]:
        """Yield ``scan_commit``'s rows as :class:`ColumnBatch`es.

        Row-flattening the batches reproduces :meth:`scan_commit` exactly;
        ``columns`` prunes the output as in :meth:`scan_branch_columns`.
        This default pivots the row scan; the concrete engines override it
        with the column scan their branch heads use, applied to the
        commit's recorded state.
        """
        return _record_column_batches(
            self.schema, self.scan_commit(commit_id, predicate), batch_size, columns
        )

    def count_commit(self, commit_id: str, predicate: Predicate | None = None) -> int:
        """Number of records of a historical commit matching ``predicate``."""
        return sum(
            batch.num_rows
            for batch in self.scan_commit_columns(commit_id, predicate)
        )

    @abstractmethod
    def scan_branches(
        self, branches: list[str], predicate: Predicate | None = None
    ) -> Iterator[tuple[Record, frozenset[str]]]:
        """Yield ``(record, branches containing it)`` over several branches.

        Used by multi-branch queries, including Query 4's full scan over all
        branch heads.
        """

    def scan_branches_batched(
        self,
        branches: list[str],
        predicate: Predicate | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH_SIZE,
    ) -> Iterator[list[tuple[Record, frozenset[str]]]]:
        """Yield ``scan_branches``'s annotated records grouped into lists.

        Flattening the batches reproduces :meth:`scan_branches` exactly; the
        concrete engines override this with page-batch paths.
        """
        pairs = self.scan_branches(branches, predicate)
        while batch := list(islice(pairs, batch_size)):
            yield batch

    def scan_heads(
        self, predicate: Predicate | None = None, active_only: bool = False
    ) -> Iterator[tuple[Record, frozenset[str]]]:
        """Scan the heads of all (or all active) branches (benchmark Query 4)."""
        return self.scan_branches(
            self.graph.branch_names(active_only=active_only), predicate
        )

    def scan_heads_batched(
        self,
        predicate: Predicate | None = None,
        active_only: bool = False,
        batch_size: int = DEFAULT_SCAN_BATCH_SIZE,
    ) -> Iterator[list[tuple[Record, frozenset[str]]]]:
        """Batched :meth:`scan_heads` (the vectorized Query 4 path)."""
        return self.scan_branches_batched(
            self.graph.branch_names(active_only=active_only),
            predicate,
            batch_size,
        )

    def branch_record_map(self, branch: str) -> dict[int, Record]:
        """Materialize ``branch``'s head as ``{primary key -> record}``."""
        pk_index = self.schema.primary_key_index
        return {record.values[pk_index]: record for record in self.scan_branch(branch)}

    def commit_record_map(self, commit_id: str) -> dict[int, Record]:
        """Materialize a historical commit as ``{primary key -> record}``."""
        pk_index = self.schema.primary_key_index
        return {record.values[pk_index]: record for record in self.scan_commit(commit_id)}

    # -- diff ------------------------------------------------------------------------

    @abstractmethod
    def diff(self, branch_a: str, branch_b: str) -> DiffResult:
        """Positive/negative difference of two branch heads (benchmark Query 2)."""

    # -- merge inputs (engine-specific I/O pattern) ------------------------------------

    @abstractmethod
    def _collect_merge_inputs(
        self, target_branch: str, source_branch: str, lca_commit: str, three_way: bool
    ) -> tuple[ChangeMap, ChangeMap, dict[int, Record]]:
        """Gather the records changed on each side since the LCA.

        Returns ``(changed_in_target, changed_in_source, ancestor_records)``
        where the change maps send a primary key to its new record (or None
        for deletes) and ``ancestor_records`` holds the LCA-version record of
        every key present in either change map (empty for two-way merges).
        """

    # -- engine-specific hooks -----------------------------------------------------------

    @abstractmethod
    def _prepare_master(self) -> None:
        """Create engine-side structures for the master branch before init."""

    @abstractmethod
    def _materialize_branch(
        self, name: str, parent_branch: str, from_commit: str, at_head: bool
    ) -> None:
        """Create engine-side structures for a new branch."""

    @abstractmethod
    def _record_commit_state(self, branch: str, commit_id: str) -> Any:
        """Snapshot whatever per-branch state a commit must preserve.

        Returns the JSON-serializable state the graph stores with the commit.
        """

    @abstractmethod
    def _flush_storage(self) -> None:
        """Flush engine-specific files."""

    def _load_storage(self) -> None:
        """Reload engine-specific storage state from disk.

        Called by :meth:`load_persistent_state` after the version graph is
        loaded; implementations restore every branch to its head-commit
        snapshot and leave their pk indexes to rebuild lazily.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support reopening from disk"
        )

    # -- sizes ----------------------------------------------------------------------------

    @abstractmethod
    def data_size_bytes(self) -> int:
        """Bytes of record data stored on disk."""

    @abstractmethod
    def commit_metadata_bytes(self) -> int:
        """Bytes used by commit histories / commit metadata."""

    # -- shared helpers ---------------------------------------------------------------------

    def _graph_path(self) -> str:
        return os.path.join(self.directory, "version_graph.log")

    def _persist_graph(self) -> None:
        self.graph.save(self._graph_path())

    def _changes_between(
        self, ancestor_map: dict[int, Record], head_map: dict[int, Record]
    ) -> ChangeMap:
        """Keys whose record differs between an ancestor map and a head map."""
        changes: ChangeMap = {}
        for key, record in head_map.items():
            old = ancestor_map.get(key)
            if old is None or old.values != record.values:
                changes[key] = record
        for key in ancestor_map:
            if key not in head_map:
                changes[key] = None
        return changes

    def _two_way_changes(
        self, target_map: dict[int, Record], source_map: dict[int, Record]
    ) -> tuple[ChangeMap, ChangeMap]:
        """Each side's contribution for a two-way (no-ancestor) merge.

        Without the LCA, a key missing from one side cannot be distinguished
        between "deleted there" and "added here", so two-way merges never
        propagate deletions: each side's change map contains only the records
        it holds that the other side lacks or holds differently.
        """
        changed_target: ChangeMap = {
            key: record
            for key, record in target_map.items()
            if key not in source_map or source_map[key].values != record.values
        }
        changed_source: ChangeMap = {
            key: record
            for key, record in source_map.items()
            if key not in target_map or target_map[key].values != record.values
        }
        return changed_target, changed_source
