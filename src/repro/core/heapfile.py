"""Append-only heap files of fixed-width records.

Heap files are the on-disk unit shared by all three storage layouts: the
tuple-first engine keeps a single heap file for all branches, while the
version-first and hybrid engines keep one heap file per segment.  Records are
packed into fixed-size pages (:mod:`repro.core.page`) and appended in arrival
order, so a record's ordinal position (its *tuple index*) is stable and can be
referenced by bitmap indexes and byte offsets alike.

On disk every page but the last is a full ``page_size`` image.  The last,
partially filled page -- the *tail* -- is stored compact, as its record count
and its records with no padding, so a file is ``full pages x page_size + 4 +
tail records x record size`` bytes long.  The tail is append-only, like the
tail of the WAL and the version-graph log: a flush writes just the records
appended since the previous flush, then the tail's new count, and pads only a
page that has filled.  Record bytes already on disk are never rewritten.

A record is encoded once, when it is appended; the encode is also its
schema check (:meth:`repro.core.record.RecordCodec.encode`).  A record the
schema rejects raises before the heap changes, so it leaves no trace.  The
bytes of an accepted record go straight into the tail page's image, which
is kept compact (its header and records, no free space), and a flush writes
the image's new records as they are.  An append returns the record's
ordinal, its position in append order.  The heap never holds a decoded
row: readers decode the slots they ask for (:mod:`repro.core.page`), and a
page that fills joins the buffer pool as its encoded image.

A crash can tear a flush, leaving the tail's length out of step with its
count.  Opening the file cuts the tail back to its whole records, up to the
count, with a recovery note -- in strict and degraded mode alike, since the
torn records were never part of a commit.  (Each engine checks on reopen that
its heaps still hold every record its commits reference.)  A tail padded to
the full page size, as older files stored it, opens the same way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

from repro.core.buffer_pool import BufferPool
from repro.core.durable import add_recovery_note, strict_recovery
from repro.core.page import (
    DEFAULT_PAGE_SIZE,
    PAGE_HEADER,
    Page,
    PageId,
    page_capacity,
)
from repro.core.record import Record, RecordCodec
from repro.core.schema import Schema
from repro.errors import CorruptionError, PageError, StorageError
from repro.testing.faults import check_crashed, crashpoint


@dataclass(frozen=True, order=True)
class RecordId:
    """Physical identity of a record within a heap file."""

    page_number: int
    slot: int

    def ordinal(self, records_per_page: int) -> int:
        """The record's zero-based position in append order."""
        return self.page_number * records_per_page + self.slot


class HeapFile:
    """A single append-only file of pages of fixed-width records.

    Parameters
    ----------
    path:
        Filesystem path backing the heap file.  Created (empty) if missing.
    schema:
        Relation schema; determines the record codec and page capacity.
    buffer_pool:
        Shared :class:`BufferPool` used for reads.  Appends go to an
        in-memory tail page whose new records are written out when the page
        fills or on :meth:`flush`; a page that fills joins the pool.
    page_size:
        Page size in bytes.
    codec:
        The schema's record codec, when the caller shares one between its
        heaps (a codec holds no per-file state); else the heap builds one.
    """

    def __init__(
        self,
        path: str,
        schema: Schema,
        buffer_pool: BufferPool,
        page_size: int = DEFAULT_PAGE_SIZE,
        *,
        codec: RecordCodec | None = None,
    ):
        #: Also the buffer-pool key of the file's pages: one pool serves
        #: every relation, and their directories hold files of the same
        #: names.
        self.path = path
        self.schema = schema
        self.codec = codec if codec is not None else RecordCodec(schema)
        self.page_size = page_size
        #: Number of records that fit on one page.
        self.records_per_page = page_capacity(page_size, self.codec.record_size)
        self.buffer_pool = buffer_pool
        self._tail_page: Page | None = None
        self._num_full_pages = 0
        self._num_records = 0
        #: How many of the tail page's records are on disk.
        self._tail_written = 0
        #: True when pages were written since the last fsync; lets
        #: :meth:`flush` skip the fsync for files nothing touched.
        self._os_dirty = False
        if os.path.exists(path):
            self._load_existing()
        else:
            with open(path, "wb"):
                pass

    # -- bookkeeping ----------------------------------------------------------

    def _load_existing(self) -> None:
        full_pages, tail_length = divmod(os.path.getsize(self.path), self.page_size)
        if full_pages and not tail_length:
            # A page-sized last page is full, or a tail padded to the page
            # size as older files stored it.
            with open(self.path, "rb") as handle:
                handle.seek((full_pages - 1) * self.page_size)
                (count,) = PAGE_HEADER.unpack(handle.read(PAGE_HEADER.size))
            if count != self.records_per_page:
                full_pages -= 1
                tail_length = self.page_size
        self._num_full_pages = full_pages
        self._num_records = full_pages * self.records_per_page
        if tail_length:
            self._load_tail(full_pages * self.page_size, tail_length)

    def _load_tail(self, start: int, length: int) -> None:
        """Reopen the tail page at byte ``start`` for further appends,
        cutting a torn tail back to its whole records."""
        with open(self.path, "rb") as handle:
            handle.seek(start)
            data = handle.read(length)
        header, record_size = PAGE_HEADER.size, self.codec.record_size
        count = PAGE_HEADER.unpack_from(data)[0] if length >= header else 0
        if count > self.records_per_page:
            error = CorruptionError(
                self.path,
                "heap tail record count exceeds the page capacity",
                offset=start,
                expected=self.records_per_page,
                actual=count,
            )
            if strict_recovery():
                raise error
            self._cut(start)
            add_recovery_note(f"quarantined corrupt heap tail: {error}")
            return
        whole = min(count, max(length - header, 0) // record_size)
        end = header + whole * record_size
        # A page that filled is padded to the page size.
        expected = (
            self.page_size
            if count == self.records_per_page
            else header + count * record_size
        )
        if length != expected:
            # A torn flush.  A page-sized tail whose bytes past its records
            # are all zero is an older padded tail, not a torn one.
            if length != self.page_size or any(data[end:]):
                error = CorruptionError(
                    self.path,
                    "heap tail length does not match its record count",
                    offset=start,
                    expected=expected,
                    actual=length,
                )
                add_recovery_note(f"truncated torn heap tail: {error}")
            if whole == self.records_per_page:
                # A page that filled, with its padding torn off: pad it
                # again, and it is a full page.
                self._cut(start + self.page_size, (start, PAGE_HEADER.pack(whole)))
                self._num_full_pages += 1
                self._num_records += whole
                return
            if whole:
                self._cut(start + end, (start, PAGE_HEADER.pack(whole)))
            else:
                self._cut(start)
        if not whole:
            return
        self._num_records += whole
        self._tail_page = Page(
            PageId(self.path, self._num_full_pages),
            self.codec,
            self.page_size,
            data=bytearray(PAGE_HEADER.pack(whole) + data[header:end]),
        )
        self._tail_written = whole

    @property
    def num_records(self) -> int:
        """Total number of records ever appended (including tombstones)."""
        return self._num_records

    @property
    def num_pages(self) -> int:
        """Number of pages, counting the in-memory tail page."""
        return self._num_full_pages + (1 if self._tail_page is not None else 0)

    def size_bytes(self) -> int:
        """On-disk size of the heap file in bytes (after a flush)."""
        return os.path.getsize(self.path)

    # -- writes ---------------------------------------------------------------

    def append(self, record: Record) -> int:
        """Append ``record`` and return its ordinal.

        The record is encoded here, before anything changes, so a record
        the schema rejects raises :class:`~repro.errors.SchemaError` and
        leaves the heap as it was.  The bytes go into the tail page's image
        and wait there for the next flush (or for the page to fill).
        """
        data = self.codec.encode(record)
        tail = self._tail_page
        if tail is None:
            tail = self._tail_page = Page(
                PageId(self.path, self._num_full_pages),
                self.codec,
                self.page_size,
            )
        tail.append_encoded(data)
        ordinal = self._num_records
        self._num_records += 1
        if tail.is_full:
            fd = os.open(self.path, os.O_WRONLY)
            try:
                self._write_tail(tail, fd)
            finally:
                os.close(fd)
            self.buffer_pool.put_page(tail)
            self._num_full_pages += 1
            self._tail_page = None
            self._tail_written = 0
        return ordinal

    def append_many(self, records: list[Record]) -> list[int]:
        """Append a batch of records, returning their ordinals in order."""
        return [self.append(record) for record in records]

    def flush(self) -> None:
        """Write the tail's new records (if any) and fsync everything
        written so far, through one descriptor.

        Engine commits flush the heaps a branch's state can reference
        *before* recording its commit snapshot, so the fsync here is what
        guarantees a snapshot never references records still sitting in
        memory or in the OS page cache.  Files with no writes since the last
        flush skip the open and the fsync.
        """
        tail = self._tail_page
        if tail is not None and tail.num_records == self._tail_written:
            tail = None  # nothing new to write
        if tail is None and not self._os_dirty:
            return
        fd = os.open(self.path, os.O_WRONLY)
        try:
            if tail is not None:
                self._write_tail(tail, fd)
            crashpoint("heap-flush-pre-fsync", path=self.path)
            os.fsync(fd)
        finally:
            os.close(fd)
        self._os_dirty = False

    def truncate_records(self, count: int) -> None:
        """Physically discard every record after the first ``count``.

        Crash recovery uses this to roll a heap back to its last durable
        commit snapshot: appends that reached the disk after that snapshot
        are removed so record ordinals line up with the recovered metadata
        again.  A re-``init`` uses it to start over with an empty heap.
        """
        if count < 0:
            raise StorageError(f"cannot truncate {self.path} to {count} records")
        if count >= self._num_records:
            return
        full_pages, tail_count = divmod(count, self.records_per_page)
        # The surviving records of the new tail page, as the image bytes
        # they already are.
        end = PAGE_HEADER.size + tail_count * self.codec.record_size
        survivors = (
            self._get_page(full_pages).raw_data()[:end] if tail_count else b""
        )
        # The survivors of a page that was full are all on disk; of the
        # tail, only those it had written.
        written = (
            tail_count
            if full_pages < self._num_full_pages
            else min(tail_count, self._tail_written)
        )
        self.buffer_pool.invalidate_file(self.path)
        start = full_pages * self.page_size
        if written:
            self._cut(
                start + PAGE_HEADER.size + written * self.codec.record_size,
                (start, PAGE_HEADER.pack(written)),
            )
        else:
            self._cut(start)
        self._num_full_pages = full_pages
        self._num_records = count
        self._tail_page = None
        self._tail_written = 0
        if tail_count:
            image = bytearray(survivors)
            PAGE_HEADER.pack_into(image, 0, tail_count)
            self._tail_page = Page(
                PageId(self.path, full_pages), self.codec, self.page_size, data=image
            )
            self._tail_written = written
        self.flush()

    # -- reads ----------------------------------------------------------------

    def record_at(self, record_id: RecordId) -> Record:
        """Fetch one record by its id."""
        page = self._get_page(record_id.page_number)
        return page.record_at(record_id.slot)

    def record_by_ordinal(self, ordinal: int) -> Record:
        """Fetch the ``ordinal``-th record in append order."""
        page_number, slot = divmod(ordinal, self.records_per_page)
        return self._get_page(page_number).record_at(slot)

    def page(self, page_number: int, transient: bool = False) -> Page:
        """Fetch a whole page (through the buffer pool).

        Scans that touch many records of the same page should fetch the page
        once and read slots from it rather than calling
        :meth:`record_by_ordinal` per record.  ``transient=True`` reads a
        non-resident page without admitting it to the pool (scan-resistant
        one-pass reads); resident pages are served from the pool either way.
        """
        return self._get_page(page_number, transient=transient)

    def scan_exceeds_pool(self) -> bool:
        """True if a full scan of this file cannot fit in the buffer pool.

        One-pass sequential scans of such files bypass pool admission: the
        frames could never all stay resident, so inserting them would only
        evict the pool's hot set page by page.
        """
        return self.num_pages * self.page_size > self.buffer_pool.capacity_bytes

    def scan(self) -> Iterator[tuple[RecordId, Record]]:
        """Iterate over every record in append order, with its id."""
        per_page = self.records_per_page
        for ordinal, record in enumerate(self.scan_records()):
            yield RecordId(*divmod(ordinal, per_page)), record

    def scan_records(self) -> Iterator[Record]:
        """Iterate over every record in append order, decoding a page at
        a time."""
        transient = self.scan_exceeds_pool()
        for page_number in range(self.num_pages):
            yield from self._get_page(page_number, transient=transient).records()

    # -- page I/O -------------------------------------------------------------

    def _get_page(self, page_number: int, transient: bool = False) -> Page:
        if self._tail_page is not None and (
            page_number == self._tail_page.page_id.page_number
        ):
            return self._tail_page
        if page_number >= self._num_full_pages:
            raise StorageError(
                f"page {page_number} out of range in {self.path}"
            )
        page_id = PageId(self.path, page_number)
        return self.buffer_pool.get_page(
            page_id,
            loader=lambda: self._read_page(page_number),
            transient=transient,
        )

    def _read_page(self, page_number: int) -> Page:
        with open(self.path, "rb") as handle:
            handle.seek(page_number * self.page_size)
            data = handle.read(self.page_size)
        if len(data) != self.page_size:
            raise StorageError(
                f"short read of page {page_number} from {self.path}"
            )
        page_id = PageId(self.path, page_number)
        try:
            return Page(page_id, self.codec, self.page_size, data=data)
        except PageError as exc:
            # The page header is corrupt (e.g. a bit flip in the record
            # count).  Strict recovery surfaces it; degraded mode quarantines
            # the page as empty and keeps the rest of the file scannable.
            error = CorruptionError(
                self.path,
                f"corrupt page header: {exc}",
                offset=page_number * self.page_size,
            )
            if strict_recovery():
                raise error from exc
            add_recovery_note(f"quarantined corrupt heap page: {error}")
            return Page(page_id, self.codec, self.page_size)

    def _write_tail(self, page: Page, fd: int) -> None:
        """Write the tail ``page``'s records not on disk yet -- its image
        from the first unwritten record on, which for a page that has
        filled runs to the page size -- then its record count, through the
        open descriptor ``fd``."""
        check_crashed()
        count = page.num_records
        first = PAGE_HEADER.size + self._tail_written * self.codec.record_size
        start = page.page_id.page_number * self.page_size
        os.pwrite(fd, page.raw_data()[first:], start + first)
        os.pwrite(fd, PAGE_HEADER.pack(count), start)
        self._tail_written = count
        self._os_dirty = True

    def _cut(self, size: int, *writes: tuple[int, bytes]) -> None:
        """Cut (or zero-pad) the file to ``size`` bytes, apply ``(offset,
        bytes)`` writes, and make the result durable."""
        check_crashed()
        os.truncate(self.path, size)
        fd = os.open(self.path, os.O_WRONLY)
        try:
            for offset, data in writes:
                os.pwrite(fd, data, offset)
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Flush outstanding data and drop cached pages for this file."""
        self.flush()
        self.buffer_pool.invalidate_file(self.path)
