"""The interface shared by all versioned storage engines.

Every engine supports the paper's core operations (Section 2.2.3): init,
branch, commit, checkout, data modification on branch heads, single- and
multi-branch scans, diff, and merge with either whole-record precedence
("two-way") or field-level three-way conflict resolution.

An engine reads a version through its *read state*: a bitmap for
tuple-first, per-segment bitmaps for hybrid, a segment and a record limit
for version-first.  Read states serve every read.  This base class is the
one place that resolves a version to its state -- a branch's live head, a
snapshot's pinned commit (:meth:`~VersionedStorageEngine._branch_state`),
or a commit (:meth:`~VersionedStorageEngine._commit_read_state`) -- and the
scans, counts and diff here resolve it once, then hand the state to a few
per-engine primitives: a reference row scan, a column scan, a scan of
branch-annotated copies, a count, and a diff.  A branch the version graph
does not hold fails the same way on every engine, with
:class:`~repro.errors.BranchNotFoundError`.

Each engine has one diff, over two read states and by content
(:meth:`~VersionedStorageEngine._diff_states`), and every comparison of two
versions runs through it: Query 2 over live heads or pinned commits, and
merge, which the paper defines in terms of diff.  A three-way merge diffs
each head against the lowest common ancestor, a two-way merge the target
against the source, so a merge gathers its inputs with the engine's diff
I/O: bitmap differences that fetch only the changed tuples, page at a
time, for tuple-first and hybrid; for version-first, full scans of both
heads and the whole LCA commit, sharing one segment cache -- the cost
difference Table 3 measures.  Applying the changes to the target is the
same everywhere, so :meth:`~VersionedStorageEngine.merge` is a template
method here.
"""
from __future__ import annotations

import enum
import os
import shutil
import threading
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Callable, Iterable, Iterator

from repro.bitmap.bitmap import Bitmap
from repro.core.buffer_pool import BufferPool
from repro.core.cancel import checkpoint
from repro.core.columns import (
    ColumnBatch,
    branch_annotated_schema,
    regroup_column_batches,
)
from repro.core.durable import add_recovery_note, strict_recovery
from repro.core.page import DEFAULT_PAGE_SIZE, PAGE_HEADER_SIZE
from repro.core.predicates import (
    Predicate,
    column_filter_columns,
    compile_column_filter,
    compile_predicate,
)
from repro.core.record import Record
from repro.core.schema import Schema
from repro.errors import (
    BranchNotFoundError,
    CorruptionError,
    StorageError,
    VersionError,
)
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


def _values(record: Record | None) -> tuple | None:
    """A record's values, or None for an absent record."""
    return None if record is None else record.values


def diff_heap_bitmaps(
    pairs: Iterable[tuple[Any, Bitmap, Bitmap]],
    result: DiffResult,
    pk_position: int,
    stats: EngineStats,
) -> DiffResult:
    """The bitmap diff shared by tuple-first and hybrid.

    ``pairs`` yields ``(heap, bitmap a, bitmap b)``.  Only the records live
    in exactly one of a heap's two bitmaps are fetched, page at a time, to
    the positive side (live in a) or the negative side (live in b).  Two
    stored copies of one record differ in the bitmaps but not in content,
    so each such pair is dropped again after the fetch.
    """
    scratch = Bitmap()  # one buffer reused for every one-sided difference
    for heap, bitmap_a, bitmap_b in pairs:
        for ours, theirs, side in (
            (bitmap_a, bitmap_b, result.positive),
            (bitmap_b, bitmap_a, result.negative),
        ):
            records = list(live_heap_records(heap, ours.and_not_into(theirs, scratch)))
            stats.records_scanned += len(records)
            side.extend(records)
    _drop_identical_pairs(result, pk_position)
    return result


def _drop_identical_pairs(result: DiffResult, pk_position: int) -> None:
    """Remove each positive/negative pair with the same key and values.

    A bitmap diff compares stored copies, so a record both sides hold in
    two copies with one content lands on both sides; by content it is no
    difference at all.  A state holds at most one copy of a key, so each
    side has at most one record per key.
    """
    negative = {r.values[pk_position]: r.values for r in result.negative}
    same = {
        key
        for r in result.positive
        if negative.get(key := r.values[pk_position]) == r.values
    }
    if same:
        result.positive = [
            r for r in result.positive if r.values[pk_position] not in same
        ]
        result.negative = [
            r for r in result.negative if r.values[pk_position] not in same
        ]


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
    pk lookup after a reopen).  Only the key column is read, decoded from
    each page's image (:meth:`RecordCodec.decode_column`).  Nothing is
    decoded into the page's caches, so a build does not grow the buffer
    pool's footprint.
    """
    per_page = heap.records_per_page
    codec = heap.codec
    transient = heap.scan_exceeds_pool()
    for page_number in range(heap.num_pages):
        page = heap.page(page_number, transient=transient)
        keys = codec.decode_column(
            page.raw_data(), pk_position, PAGE_HEADER_SIZE, page.num_records
        )
        start = page_number * per_page
        for slot, key in enumerate(keys):
            yield key, start + slot


def check_stored_records(heap, needed: int) -> bool:
    """True if ``heap`` holds at least its first ``needed`` records.

    Engines call this with the records a restored commit references.
    Every one of them was made durable by its commit's flush, so a shorter
    heap lost committed records (a truncated or damaged file).  Strict
    recovery raises :class:`CorruptionError`; degraded recovery returns
    False with a note, and the caller drops the references.
    """
    if heap.num_records >= needed:
        return True
    error = CorruptionError(
        heap.path,
        "heap holds fewer records than its commits reference",
        expected=needed,
        actual=heap.num_records,
    )
    if strict_recovery():
        raise error
    add_recovery_note(f"committed records missing from a heap: {error}")
    return False


def stored_bitmap(heap, bitmap: Bitmap) -> Bitmap:
    """A restored commit bitmap, checked to set only records ``heap`` holds.

    In degraded recovery a heap too short for it keeps the bits of the
    records that remain, so the loss never surfaces as a failed read.
    """
    if check_stored_records(heap, bitmap.end()):
        return bitmap
    return bitmap.prefix(heap.num_records)


def live_heap_records(heap, bitmap) -> Iterator[Record]:
    """The records at a bitmap's set ordinals, in ordinal order.

    The engines' reference row scans, and their diffs (so merges and
    Query 2).  A bitmap-governed heap interleaves many branches' tuples, so
    a branch scan visits every page holding one of its live tuples --
    typically all of them, the behaviour the paper's Query 1 measurements
    expose for tuple-first.  The live slots' bytes are gathered across
    pages and decoded a page's worth at a time, as the column scans'
    selections are (:func:`heap_page_column_hits`): one batch unpack per
    page's worth of records, and the only rows are the ones this yields.
    """
    codec = heap.codec
    record_size = codec.record_size
    per_page = heap.records_per_page
    gathered: list[bytes] = []
    count = 0
    for page_number, live in _live_page_masks(bitmap, per_page):
        page = heap.page(page_number)
        raw = page.raw_data()
        num_records = page.num_records
        if live >> num_records:
            raise StorageError(
                f"bitmap sets records past the end of page {page_number} "
                f"of {heap.path}"
            )
        if live == (1 << num_records) - 1:
            end = PAGE_HEADER_SIZE + num_records * record_size
            gathered.append(raw[PAGE_HEADER_SIZE:end])
            count += num_records
        else:
            count += live.bit_count()
            while live:
                low = live & -live
                live ^= low
                offset = PAGE_HEADER_SIZE + (low.bit_length() - 1) * record_size
                gathered.append(raw[offset : offset + record_size])
        if count >= per_page:
            yield from codec.decode_batch(b"".join(gathered), 0, count)
            gathered.clear()
            count = 0
    if count:
        yield from codec.decode_batch(b"".join(gathered), 0, count)


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
    hits = heap_page_column_hits(
        heap,
        _counted_pages(_live_page_masks(bitmap, heap.records_per_page), stats),
        schema,
        predicate,
        out_positions,
        out_schema,
    )
    yield from regroup_column_batches(
        (batch for batch, _ in hits),
        batch_size,
        out_schema if out_schema is not None else schema,
    )


def scan_heap_member_columns(
    heap,
    bitmaps: dict[str, Bitmap],
    schema: Schema,
    predicate: Predicate | None,
    stats: EngineStats,
) -> Iterator[tuple[ColumnBatch, list[frozenset]]]:
    """``(batch, members)`` of the copies live in any of ``bitmaps``.

    The multi-branch sibling of :func:`scan_heap_bitmap_columns`: one pass
    over the pages the branch bitmaps touch, with the same page filter and
    late materialization.  ``members`` lists, row for row, the branches of
    ``bitmaps`` whose bitmap holds the copy, one shared frozenset per
    membership pattern.  Membership comes from each branch's liveness word
    of the page: a page whose live slots all share one pattern (the common
    case, since runs of inserts are live in the same branches) costs one
    lookup, and otherwise only selected rows are resolved.
    """
    per_page = heap.records_per_page
    names = list(bitmaps)
    words: dict[int, list[int]] = {}
    for index, name in enumerate(names):
        for page_number, live in _live_page_masks(bitmaps[name], per_page):
            words.setdefault(page_number, [0] * len(names))[index] = live
    # Per page, its union liveness word and the membership mask all its
    # live slots share, or None when they differ.
    pages: dict[int, tuple[int, int | None]] = {}
    for page_number, row in words.items():
        union = 0
        for word in row:
            union |= word
        mask = 0
        for index, word in enumerate(row):
            if word == union:
                mask |= 1 << index
            elif word:
                pages[page_number] = (union, None)
                break
        else:
            pages[page_number] = (union, mask)
    held_by: dict[int, frozenset] = {}

    def members(mask: int) -> frozenset:
        held = held_by.get(mask)
        if held is None:
            held = held_by[mask] = frozenset(
                name for index, name in enumerate(names) if mask >> index & 1
            )
        return held

    def member_of(ordinal: int) -> frozenset:
        page_number, slot = divmod(ordinal, per_page)
        shared = pages[page_number][1]
        if shared is not None:
            return members(shared)
        mask = 0
        for index, word in enumerate(words[page_number]):
            if word >> slot & 1:
                mask |= 1 << index
        return members(mask)

    live_pages = ((number, pages[number][0]) for number in sorted(pages))
    for batch, ordinals in heap_page_column_hits(
        heap, _counted_pages(live_pages, stats), schema, predicate
    ):
        if isinstance(ordinals, range):
            shared = pages[ordinals.start // per_page][1]
            if shared is not None:
                yield batch, [members(shared)] * batch.num_rows
                continue
        yield batch, [member_of(ordinal) for ordinal in ordinals]


def _count_rows(batches: Iterable[ColumnBatch]) -> int:
    """The rows of ``batches``, with a cancellation checkpoint per batch,
    as a query's scan has (:class:`~repro.core.operators.SeqScan`)."""
    total = 0
    for batch in batches:
        checkpoint()
        total += batch.num_rows
    return total


def _counted_pages(
    live_pages: Iterable[tuple[int, int]], stats: EngineStats
) -> Iterator[tuple[int, int]]:
    """``live_pages``, adding each page's live records to
    ``stats.records_scanned`` as it is visited."""
    for page_number, live in live_pages:
        stats.records_scanned += live.bit_count()
        yield page_number, live


def heap_page_column_hits(
    heap, live_pages, schema, predicate, out_positions=None, out_schema=None
):
    """The page loop of the heap column scans.

    ``live_pages`` yields ``(page number, liveness word)``.  This yields
    ``(batch, ordinals)``, where ``ordinals`` iterates the heap ordinals of
    the batch's rows in order (a ``range`` when the batch is one whole
    page).  The records a predicate selects from cold pages are gathered as
    raw bytes and decoded together, a page's worth at a time, so a
    selective scan of wide rows pays one decode per page's worth of
    selected records rather than one per page, and no decode holds more
    values than a whole-page decode does.  A hash join's build-key filter
    (:class:`~repro.core.predicates.KeySetPredicate`) is such a predicate:
    a probe decodes the key column of each cold page and then only the
    records that match.
    """
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
    #: Selected raw records waiting to be decoded, and their ordinals.
    gathered: list[bytes] = []
    gathered_ordinals: list[int] = []

    def project(containers):
        # Zero-copy column pruning: pick the requested containers out of
        # the page's decoded column list.
        return [containers[position] for position in out_positions]

    def decode_gathered() -> tuple[ColumnBatch, list[int]]:
        data = b"".join(gathered)
        count = len(gathered_ordinals)
        if len(out_positions) < len(schema.columns):
            columns = [
                codec.decode_column(data, index, 0, count) for index in out_positions
            ]
        else:
            columns = codec.decode_batch_columns(data, 0, count)
        hit = ColumnBatch(out_schema, columns, count), gathered_ordinals.copy()
        gathered.clear()
        gathered_ordinals.clear()
        return hit

    for page_number, live in live_pages:
        page = heap.page(page_number, transient=transient)
        num_records = page.num_records
        base = page_number * per_page
        fully_live = live == (1 << num_records) - 1
        raw = (
            page.raw_data()
            if select is not None and page.cached_columns is None
            else None
        )
        if raw is not None:
            # Late materialization: decode only the predicate's columns
            # (one padded batch unpack each), run the compiled selection,
            # and gather just the selected records' bytes; of those, only
            # the projected columns are ever decoded.
            predicate_columns = {
                index: codec.decode_column(
                    raw, index, PAGE_HEADER_SIZE, num_records
                )
                for index in needed
            }
            selection = select(predicate_columns, num_records)
            if not fully_live:
                selection = [i for i in selection if live >> i & 1]
            if len(selection) < num_records:
                for slot in selection:
                    offset = PAGE_HEADER_SIZE + slot * record_size
                    gathered.append(raw[offset : offset + record_size])
                    gathered_ordinals.append(base + slot)
                if len(gathered_ordinals) >= per_page:
                    yield decode_gathered()
                continue
        if gathered_ordinals:
            yield decode_gathered()
        if raw is not None or (predicate is None and fully_live):
            yield ColumnBatch(
                out_schema, project(page.columns_view()), num_records
            ), range(base, base + num_records)
            continue
        containers = page.columns_view()
        if predicate is None:
            selection = []
            keep = selection.append
            while live:
                low = live & -live
                keep(low.bit_length() - 1)
                live ^= low
        else:
            # Evaluate the predicate over the whole page, then intersect
            # with the live mask: dead slots hold well-typed decoded values,
            # so running the selection on them is safe, and a
            # partially-live page costs one gather instead of two.
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
            yield page_batch, range(base, base + num_records)
        else:
            yield page_batch.take(selection), map(base.__add__, selection)
    if gathered_ordinals:
        yield decode_gathered()


def merge_branch_copies(
    schema: Schema,
    copies: Iterable[tuple[ColumnBatch, list[frozenset]]],
    batch_size: int,
) -> Iterator[ColumnBatch]:
    """Query 4's content merge over an engine's annotated stored copies.

    ``copies`` yields ``(batch, members)``: selected stored copies and, row
    for row, the requested branches holding each.  Two stored copies can
    hold one record (two branches wrote the same values independently, or
    a merge copied a row), so copies are grouped by primary key, and value
    tuples are built only for keys that occur more than once: equal ones
    collapse into the first copy, annotated with the union of their
    branches.  The copies are buffered; the result is materialized anyway.
    Batches carry the schema plus the trailing
    :data:`~repro.core.columns.BRANCH_COLUMN`.
    """
    chunks = [(batch, members) for batch, members in copies if batch.num_rows]
    pk_position = schema.primary_key_index
    counts: Counter = Counter()
    for batch, _ in chunks:
        counts.update(batch.columns[pk_position])
    if sum(batch.num_rows for batch, _ in chunks) > len(counts):
        shared = {key for key, count in counts.items() if count > 1}
        chunks = _collapse_equal_copies(chunks, shared, pk_position)
    out_schema = branch_annotated_schema(schema)
    return regroup_column_batches(
        (
            ColumnBatch(out_schema, batch.columns + (members,), batch.num_rows)
            for batch, members in chunks
        ),
        batch_size,
        out_schema,
    )


def _collapse_equal_copies(chunks, shared: set, pk_position: int) -> list:
    """Drop every copy whose values an earlier copy holds, moving its
    branches onto that earlier copy's annotation."""
    first: dict[tuple, tuple[list, int]] = {}
    drops: dict[int, set[int]] = {}
    for index, (batch, members) in enumerate(chunks):
        columns = batch.columns
        keys = columns[pk_position]
        for row in compress(range(batch.num_rows), map(shared.__contains__, keys)):
            values = tuple(column[row] for column in columns)
            owner = first.get(values)
            if owner is None:
                first[values] = (members, row)
                continue
            owner_members, owner_row = owner
            owner_members[owner_row] = owner_members[owner_row] | members[row]
            drops.setdefault(index, set()).add(row)
    for index, dropped in drops.items():
        batch, members = chunks[index]
        keep = [row for row in range(batch.num_rows) if row not in dropped]
        chunks[index] = (batch.take(keep), [members[row] for row in keep])
    return chunks


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
            else:
                parent_branch = from_branch
                from_commit = self.graph.head(parent_branch)
            branch = self.graph.create_branch(
                name, from_commit=from_commit, from_branch=parent_branch
            )
            state = self._materialize_branch(
                name, parent_branch, from_commit, branch.at_head
            )
            self.graph.set_branch_state(name, state)
            self.stats.branches_created += 1
            # The graph frame is the branch's commit point.
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
        2. record the commit snapshot in memory; the state the engine
           returns (a segment offset, the changed bitmaps' deltas) rides in
           the commit's graph event;
        3. append the version-graph frame -- the commit point, and the
           commit's only metadata write.  A crash before it leaves nothing
           a reopen must reconcile: the commit and its state are both absent.

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
            # A key the target left alone still holds its ancestor content.
            # In a two-way merge such a key is absent from the target: a
            # record the target held for it would differ, and be a change.
            current = (
                changed_target[key] if key in changed_target else ancestors.get(key)
            )
            resolved = source_record
            if key in changed_target:
                conflict = detect_record_conflict(
                    self.schema, key, current, source_record, ancestors.get(key)
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
            result.records_applied += 1
            if _values(resolved) != _values(current):
                self._apply_merge_change(
                    target_branch,
                    source_branch,
                    key,
                    resolved,
                    in_target=current is not None,
                    shared=resolved is not None
                    and resolved.values == _values(source_record),
                )
        with self.commit_gate:
            merge_commit = self.graph.merge(
                target_branch, source_branch, message=message, precedence=target_branch
            )
            self._commit_durably(target_branch, merge_commit.commit_id)
        self.stats.merges += 1
        result.commit_id = merge_commit.commit_id
        return result

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
        """Apply one resolved change to the target branch.

        ``record`` differs from what the target holds for ``key``;
        ``in_target`` says whether the target holds the key at all, and
        ``shared`` whether ``record`` is the source branch's record.  Both
        come from the merge inputs, so no record is read here.  The default
        implementation copies the record into the target's head (a new
        physical copy).  The bitmap-based engines override this to *share*
        the source branch's existing tuple when ``shared`` is set, as the
        paper's merge procedures do.
        """
        if record is None:
            self.delete(target_branch, key)
        elif in_target:
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

    @abstractmethod
    def record_for_key(self, branch: str, key: int) -> Record | None:
        """The live record with primary key ``key`` in ``branch``'s head.

        Returns ``None`` when the key is absent.  WAL redo uses this to make
        replayed writes idempotent.
        """

    @abstractmethod
    def records_for_keys(
        self, branch: str, keys: Iterable[int]
    ) -> list[Record]:
        """The live records for ``keys`` in ``branch``, skipping absent keys.

        The index-scan fetch path: only the matched keys' records are ever
        decoded (late materialization), in the order ``keys`` arrive
        (:meth:`_fetch_located`).
        """

    def _fetch_located(
        self,
        branch: str,
        keys: Iterable[int],
        locate: Callable[[int], tuple[Any, int] | None],
    ) -> list[Record]:
        """The records ``locate`` finds for ``keys``, each touched page
        fetched once.

        ``locate`` maps a key to the ``(heap, ordinal)`` of its copy live in
        ``branch``, or None.  Runs of keys on one page share the fetch; at
        most 64 page references are held at a time.
        """
        self._require_branch(branch)
        out: list[Record] = []
        pages: dict[tuple[Any, int], Any] = {}
        for key in keys:
            location = locate(key)
            if location is None:
                continue
            heap, ordinal = location
            page_number, slot = divmod(ordinal, heap.records_per_page)
            page = pages.get((heap, page_number))
            if page is None:
                if len(pages) > 64:
                    pages.clear()  # bound page references per fetch
                page = pages[(heap, page_number)] = heap.page(page_number)
            out.append(page.record_at(slot))
        return out

    # -- reads -----------------------------------------------------------------------
    #
    # Every read resolves its version's state once (a branch through
    # _branch_state, a commit through _commit_read_state) and hands it to
    # the engine's primitives below.  With ``pins`` (branch -> commit id, a
    # snapshot's pinned heads) a branch read reads the pinned commit.

    def scan_branch(
        self,
        branch: str,
        predicate: Predicate | None = None,
        pins: dict[str, str] | None = None,
    ) -> Iterator[Record]:
        """Yield the live records of ``branch``'s head (benchmark Query 1)."""
        return self._scan_state(self._branch_state(branch, pins), predicate)

    def scan_commit(
        self, commit_id: str, predicate: Predicate | None = None
    ) -> Iterator[Record]:
        """Yield the records of a historical commit."""
        return self._scan_state(self._commit_read_state(commit_id), predicate)

    def scan_branch_columns(
        self,
        branch: str,
        predicate: Predicate | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH_SIZE,
        columns: tuple[str, ...] | None = None,
        pins: dict[str, str] | None = None,
    ) -> Iterator[ColumnBatch]:
        """Yield ``scan_branch``'s rows as :class:`ColumnBatch`es.

        Row-flattening the batches always reproduces :meth:`scan_branch`
        exactly (same rows, same order).  With ``columns`` (projection
        pushdown) only the named columns appear in the output batches.  The
        engines decode pages straight into columns, never building records,
        and decode only the projected columns.
        """
        return self._scan_state_columns(
            self._branch_state(branch, pins), predicate, batch_size, columns
        )

    def scan_commit_columns(
        self,
        commit_id: str,
        predicate: Predicate | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH_SIZE,
        columns: tuple[str, ...] | None = None,
    ) -> Iterator[ColumnBatch]:
        """Yield ``scan_commit``'s rows as :class:`ColumnBatch`es (as
        :meth:`scan_branch_columns` does for a branch)."""
        return self._scan_state_columns(
            self._commit_read_state(commit_id), predicate, batch_size, columns
        )

    def count_branch(
        self,
        branch: str,
        predicate: Predicate | None = None,
        pins: dict[str, str] | None = None,
    ) -> int:
        """Number of live records of ``branch`` matching ``predicate``.

        The count-only companion of :meth:`scan_branch_columns`.  A live
        head's unfiltered count is read in place from the engine's index
        structures (:meth:`_live_count`) without resolving its state: the
        planner asks on every pk point lookup.  A pinned branch's comes from
        its state (:meth:`_count_state`) where the engine can tell;
        otherwise the column scan's rows are counted, decoding only the key
        column of the records it selects.
        """
        if predicate is None:
            if pins is None:
                self._require_branch(branch)
                return self._live_count(branch)
            count = self._count_state(self._branch_state(branch, pins))
            if count is not None:
                return count
        return _count_rows(
            self.scan_branch_columns(
                branch, predicate, columns=(self.schema.primary_key,), pins=pins
            )
        )

    def count_commit(self, commit_id: str, predicate: Predicate | None = None) -> int:
        """Number of records of a historical commit matching ``predicate``
        (counted as :meth:`count_branch` counts a pinned branch)."""
        if predicate is None:
            count = self._count_state(self._commit_read_state(commit_id))
            if count is not None:
                return count
        return _count_rows(
            self.scan_commit_columns(
                commit_id, predicate, columns=(self.schema.primary_key,)
            )
        )

    def scan_branches_batched(
        self,
        branches: list[str] | None,
        predicate: Predicate | None = None,
        batch_size: int = DEFAULT_SCAN_BATCH_SIZE,
        pins: dict[str, str] | None = None,
    ) -> Iterator[ColumnBatch]:
        """The multi-branch scan: Query 4's ``HEAD(R.Version) = true``.

        Yields column batches of the schema plus the trailing
        :data:`~repro.core.columns.BRANCH_COLUMN`, a list column holding
        each row's frozenset of branches.  The answer is defined by
        content, so every engine gives the same one: each distinct record
        (values tuple) matching ``predicate`` and held by at least one of
        ``branches`` is emitted once, annotated with every requested branch
        that holds it -- however many stored copies hold it
        (:func:`merge_branch_copies`).  Row order is the engine's.

        ``branches=None`` reads every branch head, or with ``pins`` every
        pinned branch.
        """
        if branches is None:
            branches = sorted(pins) if pins is not None else self.graph.branch_names()
        states = {branch: self._branch_state(branch, pins) for branch in branches}
        return merge_branch_copies(
            self.schema, self._scan_state_copies(states, predicate), batch_size
        )

    def diff(
        self, branch_a: str, branch_b: str, pins: dict[str, str] | None = None
    ) -> DiffResult:
        """Positive/negative difference of two branch heads (benchmark Query 2)."""
        self.stats.diffs += 1
        return self._diff_states(
            self._branch_state(branch_a, pins),
            self._branch_state(branch_b, pins),
            branch_a,
            branch_b,
        )

    @staticmethod
    def pinned_commit(branch: str, pins: dict[str, str]) -> str:
        """``branch``'s commit in a snapshot's ``pins`` (branch -> commit id).

        Raises :class:`BranchNotFoundError` for a branch the snapshot does
        not hold.
        """
        commit_id = pins.get(branch)
        if commit_id is None:
            raise BranchNotFoundError(
                f"branch {branch!r} is not part of this snapshot "
                f"(created after it was taken?)"
            )
        return commit_id

    def _require_branch(self, branch: str) -> None:
        """Raise :class:`BranchNotFoundError` unless the graph holds ``branch``."""
        self.graph.branch(branch)

    # -- read states and their primitives ----------------------------------------

    def _branch_state(self, branch: str, pins: dict[str, str] | None = None) -> Any:
        """The read state of ``branch``: its live head's
        (:meth:`_head_state`), or with ``pins`` its pinned commit's
        (:meth:`pinned_commit`)."""
        if pins is not None:
            return self._commit_read_state(self.pinned_commit(branch, pins))
        self._require_branch(branch)
        return self._head_state(branch)

    @abstractmethod
    def _head_state(self, branch: str) -> Any:
        """The read state of ``branch``'s live head."""

    @abstractmethod
    def _commit_read_state(self, commit_id: str) -> Any:
        """The read state a commit recorded."""

    @abstractmethod
    def _scan_state(
        self, state: Any, predicate: Predicate | None
    ) -> Iterator[Record]:
        """The reference row scan of a read state, adding each record it
        visits to ``stats.records_scanned``."""

    @abstractmethod
    def _scan_state_columns(
        self,
        state: Any,
        predicate: Predicate | None,
        batch_size: int,
        columns: tuple[str, ...] | None,
    ) -> Iterator[ColumnBatch]:
        """The column scan of a read state: :meth:`_scan_state`'s rows and
        order, as batches of ``columns`` (all columns when ``None``)."""

    @abstractmethod
    def _scan_state_copies(
        self, states: dict[str, Any], predicate: Predicate | None
    ) -> Iterator[tuple[ColumnBatch, list[frozenset]]]:
        """``(batch, members)`` of the stored copies matching ``predicate``
        that any of ``states`` (branch -> read state) holds, ``members``
        listing, row for row, the branches holding each copy; the input of
        :func:`merge_branch_copies`."""

    @abstractmethod
    def _live_count(self, branch: str) -> int:
        """The live record count of ``branch``'s head, read in place from
        the engine's index structures: no bitmap copy, no page read."""

    @abstractmethod
    def _count_state(self, state: Any) -> int | None:
        """The record count of a read state from the engine's structures,
        or None when only a scan can tell."""

    @abstractmethod
    def _diff_states(
        self, state_a: Any, state_b: Any, version_a: str = "", version_b: str = ""
    ) -> DiffResult:
        """The content difference of two read states.

        A record is on the positive side when ``state_a`` holds it and
        ``state_b`` holds no record with the same key and values, and on the
        negative side the other way round.
        """

    # -- merge inputs --------------------------------------------------------------

    def _merge_diff(self) -> Callable[..., DiffResult]:
        """The state diff one merge gathers its inputs with."""
        return self._diff_states

    def _collect_merge_inputs(
        self, target_branch: str, source_branch: str, lca_commit: str, three_way: bool
    ) -> tuple[ChangeMap, ChangeMap, dict[int, Record]]:
        """Gather the records changed on each side, from the engine's diff.

        Returns ``(changed_in_target, changed_in_source, ancestor_records)``
        where the change maps send a primary key to its new record (or None
        for deletes) and ``ancestor_records`` holds the LCA-version record of
        every key present in either change map (empty for two-way merges).

        A three-way merge diffs each head against the LCA commit: a key on
        the positive side changed to that record, a key only on the negative
        side was deleted, and the negative sides are the ancestor records.
        A two-way merge diffs the target against the source: without the
        LCA, a key missing from one side cannot be told apart between
        "deleted there" and "added here", so deletions never propagate, and
        each side's changes are the records it holds that the other lacks
        or holds differently.
        """
        diff = self._merge_diff()
        pk_position = self.schema.primary_key_index
        target = self._branch_state(target_branch)
        source = self._branch_state(source_branch)
        if not three_way:
            both = diff(target, source)
            return (
                {record.values[pk_position]: record for record in both.positive},
                {record.values[pk_position]: record for record in both.negative},
                {},
            )
        lca = self._commit_read_state(lca_commit)
        changes: list[ChangeMap] = []
        ancestors: dict[int, Record] = {}
        for head in (target, source):
            result = diff(head, lca)
            changed: ChangeMap = {
                record.values[pk_position]: record for record in result.positive
            }
            for record in result.negative:
                key = record.values[pk_position]
                ancestors[key] = record
                changed.setdefault(key, None)
            changes.append(changed)
        return changes[0], changes[1], ancestors

    # -- engine-specific hooks -----------------------------------------------------------

    @abstractmethod
    def _prepare_master(self) -> None:
        """Create engine-side structures for the master branch before init."""

    @abstractmethod
    def _materialize_branch(
        self, name: str, parent_branch: str, from_commit: str, at_head: bool
    ) -> Any:
        """Create engine-side structures for a new branch; returns the
        JSON-serializable state (or None) its graph event must carry."""

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
        loaded; implementations rebuild their storage layout from the
        graph's events, restore every branch to its head-commit snapshot
        and leave their pk indexes to rebuild lazily.
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
        """Bytes of commit metadata (for tuple-first and hybrid, the
        recorded bitmap delta payloads)."""

    # -- shared helpers ---------------------------------------------------------------------

    def _graph_path(self) -> str:
        return os.path.join(self.directory, "version_graph.log")

    def _persist_graph(self) -> None:
        self.graph.save(self._graph_path())
