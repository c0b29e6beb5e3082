"""Segment files.

The version-first and hybrid layouts store records in *segments*: append-only
heap files, each holding the local modifications of one branch over some span
of its life, chained to ancestor segments by branch points (paper Sections
3.3 and 3.4).  A branch point is recorded as the ancestor segment's record
count at the moment of branching, so records appended to the ancestor after
the branch are invisible to the child.

A segment is a *head* segment while a branch is still writing to it and
becomes *internal* (frozen) once superseded -- in hybrid this happens on every
branch operation; in version-first a branch writes to the same segment for its
whole life.

Only heap files live on disk.  The topology -- which segments exist, their
owners, frozen flags and branch points -- follows from the branch events of
the version-graph log, so no file records it: each engine replays those events
on reopen, and since segment ids come from a counter, the replay allocates the
same ids in the same order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.buffer_pool import BufferPool
from repro.core.durable import fsync_dir
from repro.core.heapfile import HeapFile
from repro.core.page import DEFAULT_PAGE_SIZE
from repro.core.record import Record
from repro.core.schema import Schema
from repro.errors import CorruptionError, StorageError


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

    def record_at(self, ordinal: int) -> Record:
        """Fetch the record at ``ordinal``."""
        return self.heap.record_by_ordinal(ordinal)

    def records(self, limit: int | None = None) -> Iterator[tuple[int, Record]]:
        """Iterate ``(ordinal, record)`` pairs, optionally up to ``limit``."""
        for ordinal, record in enumerate(self.heap.scan_records()):
            if limit is not None and ordinal >= limit:
                return
            yield ordinal, record

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
    ):
        self.directory = directory
        self.schema = schema
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
