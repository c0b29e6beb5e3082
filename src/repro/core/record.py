"""Records and their fixed-width binary encoding.

A :class:`Record` is an immutable tuple of values conforming to a
:class:`~repro.core.schema.Schema`.  Records are identified across versions by
their primary key (paper Section 2.2.1): updating a record produces a new
physical copy with the same key, and deleting one leaves a tombstone in
layouts that need it.

The :class:`RecordCodec` packs records into the fixed-width byte layout used
by pages, heap files and segment files.  A one-byte header precedes the
payload; bit 0 marks tombstones (used by the version-first layout for
deletes).

Encoding is also where a record is validated.  A heap file encodes each
record once, when it is appended (:meth:`repro.core.heapfile.HeapFile.append`),
and every engine's ``insert``/``update`` makes that append its first change
of state, so a value the schema rejects raises
:class:`~repro.errors.SchemaError` at the write call and leaves no trace in
pages, bitmaps or key indexes.  Transactions run the same check when they
buffer a write, before it can reach the write-ahead log.
"""

from __future__ import annotations

import struct
from array import array
from typing import Callable
from dataclasses import dataclass

from repro.core.schema import ColumnType, Schema
from repro.errors import RecordError

_HEADER_TOMBSTONE = 0x01

#: Every compiled record layout of the process, keyed by ``(unit, count)``.
_COMPILED: dict[tuple[str, int], struct.Struct] = {}


def compiled_format(unit: str, count: int = 1) -> struct.Struct:
    """The process's one compiled little-endian ``struct`` of ``unit``
    repeated ``count`` times.

    Every codec of a layout shares it, so the compiled formats held scale
    with the distinct layouts, not with the heap files that use them.
    Codecs only ask for power-of-two counts (see
    :meth:`RecordCodec._unpack_chunks`), which bounds the memo to layouts x
    log2(records per page) x (1 + columns) entries.  Two threads compiling
    the same format at once both compile it; ``setdefault`` keeps the first
    and drops the other.
    """
    key = (unit, count)
    layout = _COMPILED.get(key)
    if layout is None:
        layout = _COMPILED.setdefault(key, struct.Struct("<" + unit * count))
    return layout


@dataclass(frozen=True)
class Record:
    """A single relational record.

    Parameters
    ----------
    values:
        Tuple of column values in schema order.
    tombstone:
        True if this record marks the deletion of its primary key (only the
        key column is meaningful for tombstones).
    """

    values: tuple
    tombstone: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))

    def key(self, schema: Schema) -> int:
        """The primary key value of this record under ``schema``."""
        return self.values[schema.primary_key_index]

    def value(self, schema: Schema, column: str):
        """The value of ``column`` under ``schema``."""
        return self.values[schema.index_of(column)]

    def replace(self, schema: Schema, **updates) -> "Record":
        """A copy of this record with the named columns replaced."""
        values = list(self.values)
        for name, new_value in updates.items():
            values[schema.index_of(name)] = new_value
        return Record(tuple(values), tombstone=self.tombstone)

    def as_dict(self, schema: Schema) -> dict:
        """The record as a ``{column name: value}`` mapping."""
        return dict(zip(schema.column_names, self.values))

    @classmethod
    def deleted(cls, schema: Schema, key: int) -> "Record":
        """A tombstone record for ``key``: payload columns are zeroed."""
        values = []
        for i, column in enumerate(schema.columns):
            if i == schema.primary_key_index:
                values.append(key)
            elif column.type is ColumnType.STRING:
                values.append("")
            else:
                values.append(0)
        return cls(tuple(values), tombstone=True)


class RecordCodec:
    """Fixed-width binary encoder/decoder for records of one schema.

    A codec compiles nothing itself: its single-record, batch and column
    formats come from :func:`compiled_format`, so every heap file, page and
    transaction whose schema has the same layout decodes with the same
    compiled objects.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        fmt = ["B"]  # header byte
        fmt.extend(self._column_fmt(column) for column in schema.columns)
        #: Format of one record, without byte-order prefix (repeatable for
        #: batch decoding).
        self._record_fmt = "".join(fmt)
        self._struct = compiled_format(self._record_fmt)
        #: Fields per record in unpacked output: header plus one per column.
        self._fields_per_record = 1 + len(schema.columns)
        #: Positions (within a values tuple) of STRING columns needing
        #: NUL-strip + UTF-8 decode after a raw unpack.
        self._string_positions = tuple(
            i
            for i, column in enumerate(schema.columns)
            if column.type is ColumnType.STRING
        )
        #: True when every column is INT or INT32, so a record of plain ints
        #: can be packed without validating it first.
        self._ints_only = all(
            column.type in (ColumnType.INT, ColumnType.INT32)
            for column in schema.columns
        )
        #: Per column, the record format with every other field padded
        #: over, so a repeat of it unpacks that column alone.
        units = []
        position = 1  # header byte
        for column in schema.columns:
            fmt = self._column_fmt(column)
            width = struct.calcsize("<" + fmt)
            post = self.record_size - position - width
            units.append(f"{position}x{fmt}{post}x")
            position += width
        self._column_units = tuple(units)

    @staticmethod
    def _column_fmt(column) -> str:
        if column.type is ColumnType.INT:
            return "q"
        if column.type is ColumnType.INT32:
            return "i"
        return f"{column.width}s"

    @property
    def record_size(self) -> int:
        """Encoded size in bytes of one record, including the header byte."""
        return self._struct.size

    def encode(self, record: Record) -> bytes:
        """Encode ``record`` to its fixed-width byte representation.

        Raises :class:`~repro.errors.SchemaError` for a record the schema
        rejects.  A record of plain ints over an integer schema is packed
        straight away: ``struct``'s own range check is the int validation,
        so the per-value Python checks of :meth:`Schema.validate_values` run
        only on the error path, where they raise the one statement of the
        rules.  Other records (STRING columns, ``bool`` or ``int``
        subclass values) are validated first, then packed.
        """
        values = record.values
        header = _HEADER_TOMBSTONE if record.tombstone else 0
        if self._ints_only and set(map(type, values)) == {int}:
            try:
                return self._struct.pack(header, *values)
            except struct.error:
                pass  # out of range or wrong arity: validate_values says which
        self.schema.validate_values(values)
        packed_values = []
        for column, value in zip(self.schema.columns, values):
            if column.type is ColumnType.STRING:
                packed_values.append(value.encode("utf-8"))
            else:
                packed_values.append(value)
        try:
            return self._struct.pack(header, *packed_values)
        except struct.error as exc:  # pragma: no cover - guarded by validate
            raise RecordError(f"cannot encode record {record!r}: {exc}") from exc

    def decode(self, data: bytes, offset: int = 0) -> Record:
        """Decode one record from ``data`` starting at ``offset``."""
        try:
            unpacked = self._struct.unpack_from(data, offset)
        except struct.error as exc:
            raise RecordError(
                f"cannot decode record at offset {offset}: {exc}"
            ) from exc
        header, raw_values = unpacked[0], unpacked[1:]
        values = []
        for column, raw in zip(self.schema.columns, raw_values):
            if column.type is ColumnType.STRING:
                values.append(raw.rstrip(b"\x00").decode("utf-8"))
            else:
                values.append(raw)
        return Record(tuple(values), tombstone=bool(header & _HEADER_TOMBSTONE))

    def _batch_struct(self, count: int) -> struct.Struct:
        """The process-wide format of ``count`` whole records."""
        return compiled_format(self._record_fmt, count)

    def _unpack_chunks(
        self, make: Callable[[int], struct.Struct], data, offset: int, count: int
    ) -> list[tuple]:
        """Unpack ``count`` consecutive records with the formats ``make``
        compiles, as one flat value tuple per chunk.

        The run is unpacked in power-of-two chunks (800 records are 512 +
        256 + 32), so the process compiles at most one format per layout
        per power of two, shared by every heap file of that layout,
        whatever counts they decode: a compiled format grows with its count
        (one of 800 wide records holds hundreds of KB), and pages decoded
        at every fill level would otherwise each compile their own.
        """
        size = self.record_size
        chunks = []
        while count:
            chunk = 1 << (count.bit_length() - 1)
            chunks.append(make(chunk).unpack_from(data, offset))
            offset += chunk * size
            count -= chunk
        return chunks

    def _unpack_flat(
        self, make: Callable[[int], struct.Struct], data, offset: int, count: int
    ) -> tuple | list:
        """:meth:`_unpack_chunks` joined into one flat sequence of values."""
        chunks = self._unpack_chunks(make, data, offset, count)
        if len(chunks) == 1:
            return chunks[0]
        flat: list = []
        for chunk in chunks:
            flat += chunk
        return flat

    def decode_batch(
        self, data: bytes, offset: int = 0, count: int | None = None
    ) -> list[Record]:
        """Decode ``count`` consecutive records in one unpack sweep.

        The whole run is unpacked with precompiled ``struct`` formats (the
        record format repeated, see :meth:`_unpack_chunks`), so per-record
        Python work is limited to slicing the flat value tuple -- the
        page-batch decode path of the vectorized scan pipeline.  With
        ``count=None`` the rest of the buffer is decoded.
        """
        size = self.record_size
        if count is None:
            count = (len(data) - offset) // size
        if count <= 0:
            return []
        try:
            chunks = self._unpack_chunks(self._batch_struct, data, offset, count)
        except struct.error as exc:
            raise RecordError(
                f"cannot decode {count} records at offset {offset}: {exc}"
            ) from exc
        fields = self._fields_per_record
        strings = self._string_positions
        records = []
        append = records.append
        for flat in chunks:
            if not strings:
                for base in range(0, len(flat), fields):
                    append(
                        Record(
                            flat[base + 1 : base + fields],
                            tombstone=bool(flat[base] & _HEADER_TOMBSTONE),
                        )
                    )
                continue
            for base in range(0, len(flat), fields):
                values = list(flat[base + 1 : base + fields])
                for position in strings:
                    values[position] = (
                        values[position].rstrip(b"\x00").decode("utf-8")
                    )
                append(
                    Record(
                        tuple(values), tombstone=bool(flat[base] & _HEADER_TOMBSTONE)
                    )
                )
        return records

    def decode_batch_columns(
        self, data: bytes, offset: int = 0, count: int | None = None
    ) -> tuple:
        """Decode ``count`` consecutive records straight into typed columns.

        A precompiled batch unpack produces the flat field tuple, then each
        column is extracted with a single C-level strided slice
        (``flat[1 + j :: fields]``) -- no per-record tuple or object is ever
        built.  Integer columns come back as ``array('q')``/``array('i')``,
        STRING columns as lists of decoded ``str``.  Returns one container
        per schema column, in schema order.

        Tombstone headers are not surfaced (:meth:`tombstones` reads
        them): columnar scan paths only ever see live ordinals, selected
        through the bitmaps before gathering.
        """
        size = self.record_size
        if count is None:
            count = (len(data) - offset) // size
        if count <= 0:
            return tuple(
                [] if column.type is ColumnType.STRING else array(
                    column.type.typecode or "q"
                )
                for column in self.schema.columns
            )
        try:
            flat = self._unpack_flat(self._batch_struct, data, offset, count)
        except struct.error as exc:
            raise RecordError(
                f"cannot decode {count} records at offset {offset}: {exc}"
            ) from exc
        fields = self._fields_per_record
        columns = []
        for j, column in enumerate(self.schema.columns):
            raw = flat[1 + j :: fields]
            typecode = column.type.typecode
            if typecode is None:
                columns.append(
                    [value.rstrip(b"\x00").decode("utf-8") for value in raw]
                )
            else:
                columns.append(array(typecode, raw))
        return tuple(columns)

    def _column_struct(self, index: int, count: int) -> struct.Struct:
        """The process-wide format of column ``index`` of ``count`` records."""
        return compiled_format(self._column_units[index], count)

    def decode_column(
        self, data: bytes, index: int, offset: int = 0, count: int | None = None
    ):
        """Decode a single column of ``count`` consecutive records.

        A batch unpack whose format pads over every other field, so only
        column ``index``'s values are materialized -- the late-material-
        ization half of the columnar predicate scan: the predicate column
        decodes alone, and the remaining columns are decoded only for the
        records the selection keeps.  Returns the same container shape as
        one element of :meth:`decode_batch_columns`.
        """
        size = self.record_size
        if count is None:
            count = (len(data) - offset) // size
        column = self.schema.columns[index]
        typecode = column.type.typecode
        if count <= 0:
            return [] if typecode is None else array(typecode)
        try:
            raw = self._unpack_flat(
                lambda chunk: self._column_struct(index, chunk), data, offset, count
            )
        except struct.error as exc:
            raise RecordError(
                f"cannot decode column {index} of {count} records at "
                f"offset {offset}: {exc}"
            ) from exc
        if typecode is None:
            return [value.rstrip(b"\x00").decode("utf-8") for value in raw]
        return array(typecode, raw)

    def tombstones(self, data: bytes, offset: int, count: int) -> list[bool]:
        """The tombstone flags of ``count`` consecutive records, read from
        their header bytes alone (bit 0); no value is decoded."""
        size = self.record_size
        headers = data[offset : offset + count * size : size]
        return [bool(header & _HEADER_TOMBSTONE) for header in headers]

    def decode_many(self, data: bytes) -> list[Record]:
        """Decode a buffer that is an exact concatenation of records."""
        size = self.record_size
        if len(data) % size != 0:
            raise RecordError(
                f"buffer length {len(data)} is not a multiple of record size {size}"
            )
        return self.decode_batch(data, 0, len(data) // size)
