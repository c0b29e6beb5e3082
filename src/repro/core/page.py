"""Fixed-size pages holding fixed-width records.

The original Decibel prototype uses 4 MB pages in a conventional buffer-pool
architecture (paper Section 2.1).  Pages here are byte arrays of a configurable
size (the benchmark default is much smaller since datasets are scaled down)
holding a packed array of fixed-width encoded records after a small header.

Page layout::

    [u32 record_count][record 0][record 1]...[record n-1][free space]

In memory a page is always ``page_size`` bytes.  On disk only full pages
are: a heap file stores its last, partial page without the free space and
appends to it in place (:mod:`repro.core.heapfile`), so record bytes that
reached the disk are never rewritten.

Pages loaded from disk decode lazily, into whichever representation a scan
first asks for: :meth:`Page.records_view` materializes the row array (one
batch unpack sweep), :meth:`Page.columns_view` decodes straight into typed
column arrays without ever constructing a :class:`Record`.  Columnar scans
over cold data therefore skip per-row object construction entirely -- the
core of the columnar execution path's speedup.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.columns import column_payload_bytes, columns_from_rows
from repro.core.record import Record, RecordCodec
from repro.errors import PageError

#: The page header: the page's record count.
PAGE_HEADER = struct.Struct("<I")

#: Bytes of page header before the packed record array (the record count).
PAGE_HEADER_SIZE = PAGE_HEADER.size

#: Default page size in bytes.  The paper uses 4 MB pages over 100 GB of data;
#: this reproduction scales datasets down by ~1000x so the default page keeps
#: roughly the same records-per-page ratio.
DEFAULT_PAGE_SIZE = 64 * 1024


@dataclass(frozen=True)
class PageId:
    """Identity of a page: the owning file's name and the page's ordinal."""

    file_name: str
    page_number: int

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.file_name}#{self.page_number}"


class Page:
    """An in-memory image of one on-disk page.

    Pages are created either empty (for appends) or from raw bytes read from
    disk.  The buffer pool tracks dirtiness and pin counts; the page itself
    only manages its record array and cached column view.
    """

    def __init__(
        self,
        page_id: PageId,
        codec: RecordCodec,
        page_size: int = DEFAULT_PAGE_SIZE,
        data: bytes | None = None,
    ):
        if page_size <= PAGE_HEADER.size + codec.record_size:
            raise PageError(
                f"page size {page_size} cannot hold even one record "
                f"of size {codec.record_size}"
            )
        self.page_id = page_id
        self.page_size = page_size
        self._codec = codec
        self._records: list[Record] | None = []
        self._data: bytes | None = None
        self._disk_count = 0
        self._columns: tuple | None = None
        self._columns_bytes = 0
        if data is not None:
            if len(data) != page_size:
                raise PageError(
                    f"expected {page_size} bytes for page {page_id}, got {len(data)}"
                )
            (count,) = PAGE_HEADER.unpack_from(data, 0)
            if count > self.capacity:
                raise PageError(f"corrupt page {page_id}: count {count}")
            # Decode lazily: row scans and column scans want different
            # representations, and eagerly building rows would make every
            # columnar page load pay for record objects it never touches.
            self._data = data
            self._disk_count = count
            self._records = None

    # -- capacity -------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of records this page can hold."""
        return (self.page_size - PAGE_HEADER.size) // self._codec.record_size

    @property
    def num_records(self) -> int:
        """Number of records currently stored on the page."""
        if self._records is not None:
            return len(self._records)
        return self._disk_count

    @property
    def is_full(self) -> bool:
        """True when no further record fits on this page."""
        return self.num_records >= self.capacity

    def _decoded(self) -> list[Record]:
        """The row array, decoding from raw bytes on first access."""
        if self._records is None:
            data = self._data
            if data is None:  # pragma: no cover - empty pages start decoded
                self._records = []
            else:
                # One unpack sweep for the whole record array instead of one
                # decode call per slot.
                self._records = self._codec.decode_batch(
                    data, PAGE_HEADER.size, self._disk_count
                )
        return self._records

    # -- record access --------------------------------------------------------

    def append(self, record: Record) -> int:
        """Append ``record`` and return its slot number within the page."""
        if self.is_full:
            raise PageError(f"page {self.page_id} is full")
        records = self._decoded()
        records.append(record)
        # The raw image and the column view no longer match the record array.
        self._data = None
        self._columns = None
        self._columns_bytes = 0
        return len(records) - 1

    def record_at(self, slot: int) -> Record:
        """The record stored in ``slot``."""
        try:
            return self._decoded()[slot]
        except IndexError:
            raise PageError(
                f"slot {slot} out of range on page {self.page_id}"
            ) from None

    def records(self) -> list[Record]:
        """All records on the page, in slot order."""
        return list(self._decoded())

    def records_view(self) -> list[Record]:
        """The page's record array itself, without copying.

        Callers must treat the list as read-only; batched scans use it to
        index many slots of one page without a per-page copy.
        """
        return self._decoded()

    # -- column access --------------------------------------------------------

    def columns_view(self) -> tuple:
        """The page's values as one container per column, without copying.

        Disk-loaded pages decode straight from the raw image
        (:meth:`RecordCodec.decode_batch_columns` -- no :class:`Record` is
        ever built); pages with an in-memory record array (the heap tail
        page, pages touched by ``append``) pivot their rows instead.  The
        view is cached until the page mutates.  Callers must treat the
        containers as read-only; columnar scans slice and gather from them
        but never write.
        """
        if self._columns is None:
            data = self._data
            if self._records is None and data is not None:
                self._columns = self._codec.decode_batch_columns(
                    data, PAGE_HEADER.size, self._disk_count
                )
            else:
                self._columns = columns_from_rows(
                    self._codec.schema,
                    [record.values for record in self._decoded()],
                )
            self._columns_bytes = column_payload_bytes(
                self._codec.schema, self._columns
            )
        return self._columns

    @property
    def cached_columns(self) -> tuple | None:
        """The column view if one is already decoded, without decoding."""
        return self._columns

    def raw_data(self) -> bytes | None:
        """The on-disk image when no record array was materialized.

        ``None`` for pages with in-memory rows (the heap tail, appended
        pages); those decode through :meth:`columns_view` instead.  Scan
        paths use the raw image for late materialization: decode the
        predicate's columns only, then just the selected records.
        """
        if self._records is None:
            return self._data
        return None

    def memory_footprint(self) -> int:
        """Bytes this page pins in memory: the page image plus any cached
        column payload.  The buffer pool charges this (not a flat
        ``page_size``) so the byte budget stays meaningful when columnar
        scans cache decoded column arrays alongside the raw image."""
        return self.page_size + self._columns_bytes

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the page to exactly ``page_size`` bytes."""
        if self._records is None and self._data is not None:
            return self._data
        records = self._decoded()
        parts = [PAGE_HEADER.pack(len(records))]
        parts.extend(self._codec.encode(record) for record in records)
        payload = b"".join(parts)
        return payload + b"\x00" * (self.page_size - len(payload))
