"""Tests for records and the fixed-width record codec."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffer_pool import BufferPool
from repro.core.heapfile import HeapFile
from repro.core.record import Record, RecordCodec
from repro.core.schema import Column, ColumnType, Schema
from repro.errors import RecordError, SchemaError


@pytest.fixture
def mixed_schema():
    return Schema(
        (
            Column("id", ColumnType.INT),
            Column("count", ColumnType.INT32),
            Column("name", ColumnType.STRING, width=8),
        )
    )


class TestRecord:
    def test_values_coerced_to_tuple(self):
        record = Record([1, 2, 3])
        assert record.values == (1, 2, 3)

    def test_key_uses_primary_key_index(self, schema):
        record = Record((5, 1, 2, 3))
        assert record.key(schema) == 5

    def test_value_by_column(self, schema):
        record = Record((5, 1, 2, 3))
        assert record.value(schema, "c2") == 2

    def test_replace_creates_new_record(self, schema):
        record = Record((5, 1, 2, 3))
        updated = record.replace(schema, c1=99)
        assert updated.values == (5, 99, 2, 3)
        assert record.values == (5, 1, 2, 3)

    def test_as_dict(self, schema):
        record = Record((5, 1, 2, 3))
        assert record.as_dict(schema) == {"id": 5, "c1": 1, "c2": 2, "c3": 3}

    def test_deleted_record_is_tombstone(self, schema):
        tombstone = Record.deleted(schema, 42)
        assert tombstone.tombstone
        assert tombstone.key(schema) == 42
        assert tombstone.values[1:] == (0, 0, 0)

    def test_deleted_record_mixed_schema(self, mixed_schema):
        tombstone = Record.deleted(mixed_schema, 9)
        assert tombstone.values == (9, 0, "")


class TestRecordCodec:
    def test_roundtrip_int_schema(self, schema):
        codec = RecordCodec(schema)
        record = Record((1, -2, 3, 2**40))
        assert codec.decode(codec.encode(record)) == record

    def test_roundtrip_mixed_schema(self, mixed_schema):
        codec = RecordCodec(mixed_schema)
        record = Record((7, -3, "hello"))
        assert codec.decode(codec.encode(record)) == record

    def test_roundtrip_tombstone(self, schema):
        codec = RecordCodec(schema)
        tombstone = Record.deleted(schema, 11)
        decoded = codec.decode(codec.encode(tombstone))
        assert decoded.tombstone
        assert decoded.key(schema) == 11

    def test_record_size_includes_header(self, schema):
        codec = RecordCodec(schema)
        assert codec.record_size == 1 + schema.record_width

    def test_encode_validates_schema(self, schema):
        codec = RecordCodec(schema)
        with pytest.raises(SchemaError):
            codec.encode(Record((1, 2, 3)))  # wrong arity

    def test_string_padding_stripped(self, mixed_schema):
        codec = RecordCodec(mixed_schema)
        decoded = codec.decode(codec.encode(Record((1, 2, "ab"))))
        assert decoded.values[2] == "ab"

    def test_decode_at_offset(self, schema):
        codec = RecordCodec(schema)
        buffer = codec.encode(Record((1, 1, 1, 1))) + codec.encode(Record((2, 2, 2, 2)))
        assert codec.decode(buffer, codec.record_size).values[0] == 2

    def test_decode_truncated_buffer(self, schema):
        codec = RecordCodec(schema)
        with pytest.raises(RecordError):
            codec.decode(b"\x00\x01")

    def test_decode_many_roundtrip(self, schema):
        codec = RecordCodec(schema)
        records = [Record((i, i, i, i)) for i in range(5)]
        buffer = b"".join(codec.encode(r) for r in records)
        assert codec.decode_many(buffer) == records

    def test_decode_many_rejects_partial_buffer(self, schema):
        codec = RecordCodec(schema)
        with pytest.raises(RecordError):
            codec.decode_many(b"\x00" * (codec.record_size + 1))

    def test_negative_values_roundtrip(self, schema):
        codec = RecordCodec(schema)
        record = Record((-1, -(2**40), 0, -7))
        assert codec.decode(codec.encode(record)) == record


# -- encode accepts exactly what validate_values accepts ----------------------


class Count(int):
    """An ``int`` subclass: valid in integer columns, packed by value."""


#: Schemas of every shape the codec packs: all INT, all INT32, mixed
#: widths, and with a STRING column.
CODEC_SCHEMAS = [
    Schema.of_ints(4),
    Schema.of_ints(3, width_bytes=4),
    Schema(
        (
            Column("id", ColumnType.INT),
            Column("small", ColumnType.INT32),
            Column("big", ColumnType.INT),
        )
    ),
    Schema(
        (
            Column("id", ColumnType.INT),
            Column("name", ColumnType.STRING, width=5),
            Column("small", ColumnType.INT32),
        )
    ),
]

#: Each integer bound, and one past it.
BOUNDS = [
    sign * (1 << bits) + offset
    for bits in (31, 63)
    for sign in (1, -1)
    for offset in (-1, 0, 1)
]

any_value = st.one_of(
    st.integers(min_value=-(2**64), max_value=2**64),
    st.sampled_from(BOUNDS),
    st.sampled_from(BOUNDS).map(Count),
    st.integers(min_value=-5, max_value=5).map(Count),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.none(),
)


def column_value(column):
    """Values that mostly fit ``column``, and sometimes any value at all."""
    if column.type is ColumnType.STRING:
        fitting = st.text(max_size=column.width)
    else:
        bits = 8 * column.byte_width
        fitting = st.integers(min_value=-(1 << bits - 1), max_value=(1 << bits - 1) - 1)
    return st.one_of(fitting, fitting, any_value)


@st.composite
def schema_and_record(draw):
    schema = draw(st.sampled_from(CODEC_SCHEMAS))
    values = [draw(column_value(column)) for column in schema.columns]
    arity = draw(st.sampled_from(["exact"] * 8 + ["short", "long"]))
    if arity == "short":
        values = values[: draw(st.integers(0, len(values) - 1))]
    elif arity == "long":
        values.append(draw(any_value))
    return schema, Record(tuple(values), tombstone=draw(st.booleans()))


def reference_encode(schema, record):
    """The reference rule: validate every value, then pack column by column."""
    schema.validate_values(record.values)
    parts = [struct.pack("<B", 1 if record.tombstone else 0)]
    for column, value in zip(schema.columns, record.values):
        if column.type is ColumnType.INT:
            parts.append(struct.pack("<q", value))
        elif column.type is ColumnType.INT32:
            parts.append(struct.pack("<i", value))
        else:
            parts.append(value.encode("utf-8").ljust(column.width, b"\x00"))
    return b"".join(parts)


@settings(max_examples=400, deadline=None)
@given(case=schema_and_record())
def test_encode_accepts_exactly_what_validate_values_accepts(case):
    schema, record = case
    codec = RecordCodec(schema)
    try:
        expected = reference_encode(schema, record)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as caught:
            codec.encode(record)
        assert str(caught.value) == str(exc)
    else:
        assert codec.encode(record) == expected


@pytest.mark.parametrize(
    ("width", "values", "message"),
    [
        (8, (2**63, 0, 0, 0), "value 9223372036854775808 out of range for column 'id'"),
        (8, (0, -(2**63) - 1, 0, 0), "out of range for column 'c1'"),
        (4, (0, 2**31, 0, 0), "value 2147483648 out of range for column 'c1'"),
        (4, (0, 0, -(2**31) - 1, 0), "out of range for column 'c2'"),
        (8, (0, 1, True, 0), "column 'c2' expects int, got bool"),
        (8, (0, 1, 2, 1.0), "column 'c3' expects int, got float"),
        (8, (0, "1", 2, 3), "column 'c1' expects int, got str"),
        (8, (0, 1, 2), "expected 4 values, got 3"),
        (8, (0, 1, 2, 3, 4), "expected 4 values, got 5"),
    ],
)
def test_encode_rejects_with_the_validate_values_message(width, values, message):
    codec = RecordCodec(Schema.of_ints(4, width_bytes=width))
    with pytest.raises(SchemaError, match=message):
        codec.encode(Record(values))


# -- heap bytes are those of the per-column reference encode ------------------

#: (schema, record factory, SHA-256 of the heap file the appends below give).
#: The digests were taken from the codec that validated every value and
#: packed at flush; encoding at append must not change one byte.
GOLDEN_CASES = {
    "int": (
        Schema.of_ints(4),
        lambda i: Record(
            (i, -(2**63) + i, 2**63 - 1 - i, i * i - 500), tombstone=i % 5 == 2
        ),
        "5adda6982af965731271d23af698d3a7b0da650d051187d71a6bcc19cb1c61e7",
    ),
    "int32": (
        Schema.of_ints(3, width_bytes=4),
        lambda i: Record((i, -(2**31) + i, 2**31 - 1 - 3 * i)),
        "fc793c9ecfac6d9e58d238238a0b71d89496862c3f30c420e5969253b44d0d70",
    ),
    "string": (
        Schema(
            (
                Column("id", ColumnType.INT),
                Column("count", ColumnType.INT32),
                Column("name", ColumnType.STRING, width=6),
            )
        ),
        lambda i: Record((i, -i, "\u00e9" * (i % 4)), tombstone=i % 7 == 3),
        "5df532d47ee8c760303f67139fb2ffde24b58e601dbdffaebfe9abc8d45d9d42",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_heap_file_bytes_are_unchanged(tmp_path, case):
    """49 appends in six flushed batches on 512-byte pages: full pages, a
    page that fills inside a batch, and a compact tail."""
    schema, make, digest = GOLDEN_CASES[case]
    path = tmp_path / "golden.heap"
    heap = HeapFile(str(path), schema, BufferPool(), page_size=512)
    appended = 0
    for batch in (1, 3, 9, 14, 2, 20):
        heap.append_many([make(i) for i in range(appended, appended + batch)])
        appended += batch
        heap.flush()
    heap.close()
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    reopened = HeapFile(str(path), schema, BufferPool(), page_size=512)
    assert list(reopened.scan_records()) == [make(i) for i in range(appended)]
