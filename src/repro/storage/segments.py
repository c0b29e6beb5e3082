"""Segment files.

The version-first and hybrid layouts store records in *segments*: append-only
heap files, each holding the local modifications of one branch over some span
of its life, chained to ancestor segments by branch points (paper Sections
3.3 and 3.4).  A branch point is recorded as the ancestor segment's record
count at the moment of branching, so records appended to the ancestor after
the branch are invisible to the child.

A segment is a *head* segment while a branch is still writing to it and
becomes *internal* (frozen) once superseded -- in hybrid this happens on every
fork at a head that holds records; in version-first a branch writes to the
same segment for its whole life.

Only heap files live on disk.  The topology -- which segments exist, their
owners, frozen flags and branch points -- follows from the branch events of
the version-graph log, so no file records it: each engine replays those events
on reopen, and since segment ids come from a counter, the replay allocates the
same ids in the same order.

Both engines also keep the same in-memory key structure
(:class:`SegmentedEngine`): per segment a local bitmap index of each
branch's live bits, and one engine-wide key-copy index of every stored
copy's packed location.  A pk lookup walks the key's copies and tests each
one's live bit in place.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.bitmap.branch_bitmap import BranchOrientedBitmapIndex
from repro.core.buffer_pool import BufferPool
from repro.core.durable import fsync_dir
from repro.core.heapfile import HeapFile
from repro.core.page import DEFAULT_PAGE_SIZE
from repro.core.record import Record, RecordCodec
from repro.core.schema import Schema
from repro.errors import CorruptionError, StorageError
from repro.storage.base import VersionedStorageEngine, stored_pk_ordinals
from repro.storage.pk_index import KeyCopyIndex

#: Low bits of a packed key-index location that hold the ordinal.
ORDINAL_BITS = 32
ORDINAL_MASK = (1 << ORDINAL_BITS) - 1


@dataclass(frozen=True)
class ParentPointer:
    """A branch point: the parent segment and how much of it is visible."""

    segment_id: str
    limit: int  # records with ordinal < limit are visible through this pointer


@dataclass
class Segment:
    """One segment: a heap file plus its branch-point metadata."""

    segment_id: str
    heap: HeapFile
    owner_branch: str | None
    parents: tuple[ParentPointer, ...] = ()
    frozen: bool = False

    @property
    def record_count(self) -> int:
        """Number of records (including tombstones and stale copies)."""
        return self.heap.num_records

    def append(self, record: Record) -> int:
        """Append a record and return its ordinal within this segment."""
        if self.frozen:
            raise StorageError(
                f"segment {self.segment_id} is frozen and cannot accept writes"
            )
        return self.heap.append(record)

    def freeze(self) -> None:
        """Seal the segment against further writes."""
        self.heap.flush()
        self.frozen = True

    def size_bytes(self) -> int:
        """On-disk size of the segment's heap file."""
        return self.heap.size_bytes()


class SegmentSet:
    """All segments of one engine, with id allocation and heap flushing."""

    def __init__(
        self,
        directory: str,
        schema: Schema,
        buffer_pool: BufferPool,
        page_size: int = DEFAULT_PAGE_SIZE,
        *,
        codec: RecordCodec | None = None,
    ):
        self.directory = directory
        self.schema = schema
        #: The one record codec every segment's heap shares.
        self.codec = codec if codec is not None else RecordCodec(schema)
        self.buffer_pool = buffer_pool
        self.page_size = page_size
        self._segments: dict[str, Segment] = {}
        self._next_id = 0
        #: Segments whose files were created (or recreated by a reopen)
        #: since the directory's last fsync.
        self._unsynced: set[str] = set()
        os.makedirs(directory, exist_ok=True)

    # -- creation and lookup -----------------------------------------------------

    def create(
        self,
        owner_branch: str | None,
        parents: tuple[ParentPointer, ...] = (),
        *,
        reopen: bool = False,
    ) -> Segment:
        """Create a new, empty segment owned by ``owner_branch``.

        A file left under the new id (by an earlier engine over a reused
        directory, or by a branch whose graph frame never became durable) is
        emptied: a fresh segment never inherits records.  With ``reopen``
        the creation is a replay of one made before a reopen, and the
        segment's file is kept as it stands.
        """
        segment_id = f"seg{self._next_id:05d}"
        self._next_id += 1
        heap = HeapFile(
            os.path.join(self.directory, f"{segment_id}.seg"),
            self.schema,
            self.buffer_pool,
            page_size=self.page_size,
            codec=self.codec,
        )
        if not reopen:
            heap.truncate_records(0)
        self._unsynced.add(segment_id)
        segment = Segment(
            segment_id=segment_id,
            heap=heap,
            owner_branch=owner_branch,
            parents=parents,
        )
        self._segments[segment_id] = segment
        return segment

    def get(self, segment_id: str) -> Segment:
        """Fetch a segment by id."""
        try:
            return self._segments[segment_id]
        except KeyError:
            raise StorageError(f"unknown segment: {segment_id!r}") from None

    def __contains__(self, segment_id: str) -> bool:
        return segment_id in self._segments

    def __len__(self) -> int:
        return len(self._segments)

    def all(self) -> list[Segment]:
        """All segments in creation order."""
        return [self._segments[sid] for sid in sorted(self._segments)]

    # -- maintenance ----------------------------------------------------------------

    def flush(self, segment_ids: Iterable[str] | None = None) -> None:
        """Flush the heap files of ``segment_ids`` (default: every segment).
        A segment left out keeps its unflushed records in memory.

        The directory is fsynced only when a flushed segment holds records
        and was created since the directory's last fsync.  An empty segment
        needs no durable directory entry: a reopen recreates a missing file
        empty, so a fork, which creates empty heads, costs no directory
        fsync until its first flushed write.
        """
        if segment_ids is None:
            segment_ids = self._segments
        unsynced = self._unsynced
        new_records = False
        for segment_id in segment_ids:
            heap = self._segments[segment_id].heap
            heap.flush()
            if segment_id in unsynced and heap.num_records:
                new_records = True
        if new_records:
            fsync_dir(self.directory)
            unsynced.clear()

    def discard_all(self) -> None:
        """Empty and forget every segment and restart the ids, as a failed
        init requires: the next :meth:`create` reuses the first id, whose
        file it empties anyway."""
        for segment in self._segments.values():
            segment.heap.truncate_records(0)
        self._segments.clear()
        self._unsynced.clear()
        self._next_id = 0

    def check_layout(self) -> None:
        """Refuse a directory holding any file but segment heaps, such as an
        older layout's topology file: its branch events do not describe it."""
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".seg"):
                raise CorruptionError(
                    os.path.join(self.directory, name),
                    "not a segment heap; topology replays from the graph log",
                )

    def total_size_bytes(self) -> int:
        """Combined on-disk size of all segments."""
        return sum(segment.size_bytes() for segment in self._segments.values())


class SegmentedEngine(VersionedStorageEngine):
    """The key structures version-first and hybrid share.

    Segments are numbered in creation order, each with a local bitmap
    index of the live bits of the branches that can see it.  The key index
    stores a copy at ``ordinal`` of segment number ``n`` as the one int
    ``n << 32 | ordinal``, which takes a third of the memory of a
    ``(segment id, ordinal)`` tuple.
    """

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
            codec=self.codec,
        )
        #: branch -> id of the segment the branch currently writes to.
        self._head_segment: dict[str, str] = {}
        #: Per-segment local bitmap indexes: segment id -> (branch -> bitmap).
        self._local_bitmaps: dict[str, BranchOrientedBitmapIndex] = {}
        #: Segments in number order, with their local bitmaps.
        self._numbered_segments: list[tuple[str, BranchOrientedBitmapIndex]] = []
        self._segment_numbers: dict[str, int] = {}
        #: Every stored copy of each key as a packed location, for all
        #: branches; a branch's copy is the one live in its local bitmaps.
        self.key_index: KeyCopyIndex = KeyCopyIndex(
            self._stored_copies, self.write_mutex
        )

    def _new_head_segment(
        self,
        branch: str,
        reopen: bool = False,
        parents: tuple[ParentPointer, ...] = (),
    ) -> str:
        """Create a head segment for ``branch``, with a live-bit column for
        it; returns the segment's id."""
        segment = self.segments.create(
            owner_branch=branch, parents=parents, reopen=reopen
        )
        self._add_local_bitmaps(segment.segment_id).add_branch(branch)
        return segment.segment_id

    def _add_local_bitmaps(self, segment_id: str) -> BranchOrientedBitmapIndex:
        """Create a segment's (empty) local bitmap index and number it."""
        local = self._local_bitmaps[segment_id] = BranchOrientedBitmapIndex()
        self._segment_numbers[segment_id] = len(self._numbered_segments)
        self._numbered_segments.append((segment_id, local))
        return local

    def _discard_master(self) -> None:
        self.segments.discard_all()
        self._head_segment.clear()
        self._local_bitmaps.clear()
        self._numbered_segments.clear()
        self._segment_numbers.clear()
        self.key_index.drop()

    def _stored_copies(self) -> Iterator[tuple[array, int]]:
        """``(key column, first packed location)`` of every page of every
        segment (see :func:`stored_pk_ordinals`)."""
        pk_position = self.schema.primary_key_index
        for segment in self.segments.all():
            base = self._segment_numbers[segment.segment_id] << ORDINAL_BITS
            for keys, first in stored_pk_ordinals(segment.heap, pk_position):
                yield keys, base | first

    def key_location(self, branch: str, key: int) -> tuple[str, int] | None:
        """The ``(segment id, ordinal)`` of ``key``'s copy live in ``branch``.

        Walks the key's stored copies, newest first, and tests each one's
        live bit in its segment's local bitmap in place; at most one copy of
        a key is live in a branch.  The cost is the key's copy count, not
        the number of segments the branch spans.
        """
        numbered = self._numbered_segments
        for packed in reversed(self.key_index.copies(key)):
            segment_id, local = numbered[packed >> ORDINAL_BITS]
            ordinal = packed & ORDINAL_MASK
            if local.has_branch(branch) and local.is_set(ordinal, branch):
                return segment_id, ordinal
        return None

    def _live_copy(self, branch: str, key: int) -> tuple[HeapFile, int] | None:
        location = self.key_location(branch, key)
        if location is None:
            return None
        segment_id, ordinal = location
        return self.segments.get(segment_id).heap, ordinal

    def close(self) -> None:
        """Flush, release cached pages and drop the derived key index,
        which the next lookup rebuilds from storage."""
        super().close()
        self.key_index.drop()

    def _state_heap(self, key: str) -> HeapFile:
        return self.segments.get(key).heap

    def _located(self, location: int) -> tuple[str, int]:
        return (
            self._numbered_segments[location >> ORDINAL_BITS][0],
            location & ORDINAL_MASK,
        )

    def _location_base(self, state_key: str) -> int:
        return self._segment_numbers[state_key] << ORDINAL_BITS

    def data_size_bytes(self) -> int:
        return self.segments.total_size_bytes()

    def segment_count(self) -> int:
        """Number of segment files (exposed for tests and benchmarks)."""
        return len(self.segments)
