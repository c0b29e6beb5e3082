"""Fixed-size pages holding fixed-width records.

The original Decibel prototype uses 4 MB pages in a conventional buffer-pool
architecture (paper Section 2.1).  Pages here hold up to a configurable
``page_size`` bytes (the benchmark default is much smaller since datasets
are scaled down): a packed array of fixed-width encoded records after a
small header.

Page layout::

    [u32 record_count][record 0][record 1]...[record n-1][free space]

A page is its bytes.  It holds exactly one representation of its records,
the encoded image, plus at most one cached column view; rows are decoded
for the call that asks for them (:meth:`Page.record_at` decodes one slot,
:meth:`Page.records` the whole array) and never stored on the page.  A page
read from disk keeps the ``page_size`` bytes it was read as.  A page being
filled -- a heap file's tail -- keeps a compact image, the header and its
records with no free space, and appends encoded records to it in place
(:mod:`repro.core.heapfile`); once full, its image is the on-disk one.
:meth:`Page.memory_footprint` is therefore the bytes the page really
holds, which is what the buffer pool charges.

:meth:`Page.columns_view` decodes the image straight into typed column
arrays without ever constructing a :class:`Record`, and :meth:`Page.raw_data`
hands every scan the image for late materialization: decode the predicate's
columns, then just the selected records.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from repro.core.columns import column_payload_bytes
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


def page_capacity(page_size: int, record_size: int) -> int:
    """How many records of ``record_size`` bytes fit on one page."""
    return (page_size - PAGE_HEADER.size) // record_size


@dataclass(frozen=True)
class PageId:
    """Identity of a page: the owning file's name and the page's ordinal."""

    file_name: str
    page_number: int

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.file_name}#{self.page_number}"


class Page:
    """An in-memory page: its encoded image and at most one column view.

    Pages are created either empty (for appends) or from an image read from
    disk.  The buffer pool tracks dirtiness and pin counts; the page itself
    only manages its image and cached column view, and reports a change of
    its footprint to :attr:`on_resize`.
    """

    def __init__(
        self,
        page_id: PageId,
        codec: RecordCodec,
        page_size: int = DEFAULT_PAGE_SIZE,
        data: bytes | bytearray | None = None,
    ):
        if page_size <= PAGE_HEADER.size + codec.record_size:
            raise PageError(
                f"page size {page_size} cannot hold even one record "
                f"of size {codec.record_size}"
            )
        self.page_id = page_id
        self.page_size = page_size
        #: Maximum number of records this page can hold.
        self.capacity = page_capacity(page_size, codec.record_size)
        self._codec = codec
        self._columns: tuple | None = None
        self._columns_bytes = 0
        #: Called with the page whenever its footprint changes; the buffer
        #: pool sets it on the pages it holds to keep its charge exact.
        self.on_resize: Callable[[Page], None] | None = None
        if data is None:
            self._image: bytes | bytearray = bytearray(PAGE_HEADER.pack(0))
            self._count = 0
            return
        if not PAGE_HEADER.size <= len(data) <= page_size:
            raise PageError(
                f"image of {len(data)} bytes does not fit page {page_id} "
                f"of {page_size} bytes"
            )
        (count,) = PAGE_HEADER.unpack_from(data, 0)
        if count > self.capacity:
            raise PageError(f"corrupt page {page_id}: count {count}")
        if len(data) < PAGE_HEADER.size + count * codec.record_size:
            raise PageError(
                f"image of {len(data)} bytes is too short for the {count} "
                f"records of page {page_id}"
            )
        self._image = data
        self._count = count

    # -- capacity -------------------------------------------------------------

    @property
    def num_records(self) -> int:
        """Number of records currently stored on the page."""
        return self._count

    @property
    def is_full(self) -> bool:
        """True when no further record fits on this page."""
        return self._count >= self.capacity

    # -- record access --------------------------------------------------------

    def append(self, record: Record) -> int:
        """Append ``record`` and return its slot number within the page."""
        return self.append_encoded(self._codec.encode(record))

    def append_encoded(self, data: bytes) -> int:
        """Append one record already encoded by the page's codec and return
        its slot number.

        The bytes extend the image in place.  A page that fills freezes its
        image into its on-disk form, ``bytes`` padded to the page size: it
        takes no more appends, and the buffer pool holds it from then on
        just as a read from disk would.
        """
        slot = self._count
        if slot >= self.capacity:
            raise PageError(f"page {self.page_id} is full")
        image = self._image
        if not isinstance(image, bytearray):
            end = PAGE_HEADER.size + slot * self._codec.record_size
            image = self._image = bytearray(image[:end])
        image += data
        count = self._count = slot + 1
        PAGE_HEADER.pack_into(image, 0, count)
        if count == self.capacity:
            image += bytes(self.page_size - len(image))
            self._image = bytes(image)
        # The column view no longer matches the image.
        self._columns = None
        self._columns_bytes = 0
        self._resized()
        return slot

    def record_at(self, slot: int) -> Record:
        """Decode the record stored in ``slot``."""
        if not 0 <= slot < self._count:
            raise PageError(f"slot {slot} out of range on page {self.page_id}")
        return self._codec.decode(
            self._image, PAGE_HEADER.size + slot * self._codec.record_size
        )

    def records(self) -> list[Record]:
        """Decode all records on the page, in slot order (one batch unpack
        sweep per call; nothing is kept)."""
        return self._codec.decode_batch(self._image, PAGE_HEADER.size, self._count)

    # -- column access --------------------------------------------------------

    def columns_view(self) -> tuple:
        """The page's values as one container per column, without copying.

        Decoded straight from the image
        (:meth:`RecordCodec.decode_batch_columns` -- no :class:`Record` is
        ever built) and cached until the page mutates.  Callers must treat
        the containers as read-only; columnar scans slice and gather from
        them but never write.
        """
        if self._columns is None:
            self._columns = self._codec.decode_batch_columns(
                self._image, PAGE_HEADER.size, self._count
            )
            self._columns_bytes = column_payload_bytes(
                self._codec.schema, self._columns
            )
            self._resized()
        return self._columns

    @property
    def cached_columns(self) -> tuple | None:
        """The column view if one is already decoded, without decoding."""
        return self._columns

    def raw_data(self) -> bytes | bytearray:
        """The page image: the header, then the packed record array.

        Scan paths use it for late materialization: decode the predicate's
        columns only, then just the selected records.  Callers must treat
        it as read-only; a page being filled extends it in place past its
        current records.
        """
        return self._image

    def memory_footprint(self) -> int:
        """Bytes this page holds: its image plus any cached column payload.

        The buffer pool charges this (not a flat ``page_size``), so its
        byte budget counts what the pages really keep in memory."""
        return len(self._image) + self._columns_bytes

    def _resized(self) -> None:
        if self.on_resize is not None:
            self.on_resize(self)

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The image padded to exactly ``page_size`` bytes (the on-disk
        form of a full page)."""
        return bytes(self._image).ljust(self.page_size, b"\x00")
