"""A page is its bytes: page images, their round trip, and the pool budget.

Pages hold their encoded image and at most one column view, never decoded
rows.  These tests pin the three consequences: a page built by appends
reads exactly like the same page reread from disk; the buffer pool's
charge is the bytes its pages hold and stays inside the budget as column
views are cached; and no :class:`Record` a read decodes outlives the call
that returned it.  The formats pages decode with are compiled once per
process and layout, whatever the number of heap files that share it.
"""

from __future__ import annotations

import gc
import struct
import sys
import threading

import pytest

from repro import Decibel
from repro.core.buffer_pool import BufferPool
from repro.core.heapfile import HeapFile
from repro.core.page import Page, PageId
from repro.core.record import _COMPILED, Record, RecordCodec
from repro.core.schema import Column, ColumnType, Schema
from tests.conftest import ENGINE_CLASSES

SCHEMA = Schema(
    (
        Column("id", ColumnType.INT),
        Column("qty", ColumnType.INT32),
        Column("name", ColumnType.STRING, 6),
    ),
    primary_key="id",
)
PAGE_SIZE = 256


def make_record(key: int) -> Record:
    return Record((key, key % 7, f"n{key % 1000}"))


def page_views(page: Page) -> tuple:
    """Everything a reader can get from a page."""
    return (
        page.num_records,
        [page.record_at(slot) for slot in range(page.num_records)],
        page.records(),
        tuple(list(column) for column in page.columns_view()),
        bytes(page.raw_data()),
    )


def heap_views(heap: HeapFile) -> list[tuple]:
    return [page_views(heap.page(number)) for number in range(heap.num_pages)]


class TestAppendedPagesReadAsReread:
    """A page built by appends and the same page reread from disk agree on
    ``record_at``, ``records()``, ``columns_view()`` and ``raw_data()``."""

    def reread(self, path: str) -> list[tuple]:
        return heap_views(HeapFile(path, SCHEMA, BufferPool(), PAGE_SIZE))

    def test_full_pages_and_tail_across_flush_and_reopen(self, tmp_path):
        path = str(tmp_path / "r.heap")
        heap = HeapFile(path, SCHEMA, BufferPool(), PAGE_SIZE)
        per_page = heap.records_per_page
        for key in range(3 * per_page + per_page // 2):
            heap.append(make_record(key))
        heap.flush()
        built = heap_views(heap)
        assert len(built) == 4
        assert self.reread(path) == built
        # Appends to a reopened tail carry on in place.
        reopened = HeapFile(path, SCHEMA, BufferPool(), PAGE_SIZE)
        for key in range(1000, 1000 + per_page):
            reopened.append(make_record(key))
        reopened.flush()
        assert self.reread(path) == heap_views(reopened)

    def test_tail_with_unflushed_records(self, tmp_path):
        path = str(tmp_path / "r.heap")
        heap = HeapFile(path, SCHEMA, BufferPool(), PAGE_SIZE)
        for key in range(5):
            heap.append(make_record(key))
        heap.flush()
        for key in range(5, 9):
            heap.append(make_record(key))
        unflushed = heap_views(heap)
        heap.flush()
        assert self.reread(path) == unflushed

    @pytest.mark.parametrize("keep", [0, 3, 1, 2, 5])
    def test_truncate_records(self, tmp_path, keep):
        path = str(tmp_path / "r.heap")
        heap = HeapFile(path, SCHEMA, BufferPool(), PAGE_SIZE)
        per_page = heap.records_per_page
        for key in range(4 * per_page + 2):
            heap.append(make_record(key))
        heap.flush()
        heap.append(make_record(99_999))  # an unflushed record, cut too
        heap.truncate_records(keep * per_page // 2 + 1)
        truncated = heap_views(heap)
        assert [r for view in truncated for r in view[2]] == [
            make_record(key) for key in range(keep * per_page // 2 + 1)
        ]
        assert self.reread(path) == truncated
        heap.append(make_record(5000))
        heap.flush()
        assert self.reread(path) == heap_views(heap)

    def test_full_page_image_is_the_disk_image(self):
        codec = RecordCodec(SCHEMA)
        page = Page(PageId("f", 0), codec, PAGE_SIZE)
        while not page.is_full:
            page.append(make_record(page.num_records))
        assert page.raw_data() == page.to_bytes()
        assert len(page.raw_data()) == page.memory_footprint() == PAGE_SIZE
        reread = Page(PageId("f", 0), codec, PAGE_SIZE, data=page.to_bytes())
        assert page_views(reread) == page_views(page)

    def test_tail_image_is_compact(self):
        codec = RecordCodec(SCHEMA)
        page = Page(PageId("f", 0), codec, PAGE_SIZE)
        for key in range(3):
            page.append(make_record(key))
        assert page.memory_footprint() == 4 + 3 * codec.record_size
        columns = page.columns_view()
        assert page.memory_footprint() > 4 + 3 * codec.record_size
        page.append(make_record(3))
        assert page.cached_columns is None
        assert page.columns_view() is not columns
        assert page.memory_footprint() > 4 + 4 * codec.record_size


class TestDecodeStructs:
    def test_every_count_decodes_with_power_of_two_formats(self):
        # A layout no other test uses: the memo is process-wide, so the
        # formats compiled below are exactly the ones this test asks for.
        schema = Schema(
            (
                Column("id", ColumnType.INT),
                Column("qty", ColumnType.INT32),
                Column("name", ColumnType.STRING, 23),
            ),
            primary_key="id",
        )
        codec = RecordCodec(schema)
        assert compiled_counts(codec._record_fmt) == {1}
        assert not any(compiled_counts(unit) for unit in codec._column_units)
        records = [Record((key, key % 7, f"n{key}")) for key in range(300)]
        data = b"".join(codec.encode(record) for record in records)
        for count in range(301):
            assert codec.decode_batch(data, 0, count) == records[:count]
            columns = codec.decode_batch_columns(data, 0, count)
            assert list(zip(*columns)) == [r.values for r in records[:count]]
            assert list(codec.decode_column(data, 2, 0, count)) == [
                r.values[2] for r in records[:count]
            ]
        # One compiled format per power of two up to 256, not one per count,
        # and only the column that was decoded alone has column formats.
        powers = {1 << k for k in range(9)}
        assert compiled_counts(codec._record_fmt) == powers
        assert compiled_counts(codec._column_units[2]) == powers
        assert compiled_counts(codec._column_units[0]) == set()
        assert compiled_counts(codec._column_units[1]) == set()


def compiled_counts(unit: str) -> set[int]:
    """The counts the process has compiled ``unit`` repeated at."""
    return {count for compiled_unit, count in _COMPILED if compiled_unit == unit}


def layout_units(schema: Schema) -> tuple[str, ...]:
    """The record format and each padded column format of ``schema``."""
    codec = RecordCodec(schema)
    probes = [codec._batch_struct(1)] + [
        codec._column_struct(index, 1) for index in range(len(schema.columns))
    ]
    return tuple(probe.format[1:] for probe in probes)


def live_layout_formats(units: tuple[str, ...]) -> list[str]:
    """The format of every live compiled ``struct`` that repeats one of
    ``units``, one entry per object."""
    gc.collect()
    formats = []
    for obj in gc.get_objects():
        if type(obj) is not struct.Struct:
            continue
        body = obj.format[1:]
        repeats = any(body == unit * (len(body) // len(unit)) for unit in units)
        if body and repeats:
            formats.append(obj.format)
    return formats


def copy_of(schema: Schema) -> Schema:
    """An equal schema built from scratch."""
    return Schema(
        tuple(
            Column(column.name, column.type, column.width)
            for column in schema.columns
        ),
        primary_key=schema.primary_key,
    )


class TestSharedFormats:
    """Every codec of a layout decodes with the same compiled formats."""

    def test_equal_schemas_share_compiled_formats(self, tmp_path):
        first = RecordCodec(copy_of(SCHEMA))
        second = HeapFile(
            str(tmp_path / "r.heap"), copy_of(SCHEMA), BufferPool(), PAGE_SIZE
        ).codec
        assert first.schema is not second.schema
        assert first._struct is second._struct
        assert first._batch_struct(64) is second._batch_struct(64)
        assert first._column_struct(2, 16) is second._column_struct(2, 16)

    def test_formats_do_not_grow_with_hybrid_branches(self, tmp_path):
        """Each hybrid branch decodes its own head segment, a heap file of
        its own; thirty branches hold the formats one branch holds."""
        units = layout_units(SCHEMA)

        def scan_branches(directory: str, branches: int) -> list[str]:
            db = Decibel(directory, engine="hybrid", page_size=1024)
            relation = db.create_relation("R", SCHEMA)
            relation.init([make_record(key) for key in range(300)])
            for number in range(branches):
                branch = f"b{number}"
                relation.branch(branch, from_branch="master")
                for key in range(1000, 1020):
                    relation.insert(branch, make_record(key))
                relation.commit(branch, "rows")
            for number in range(branches):
                scan = db.query(f"SELECT * FROM R WHERE R.Version = 'b{number}'")
                assert len(scan) == 320
                picked = db.query(
                    f"SELECT * FROM R WHERE R.Version = 'b{number}' AND R.qty = 3"
                )
                assert len(picked) == 43 + 3
            formats = live_layout_formats(units)
            db.close()
            return formats

        alone = scan_branches(str(tmp_path / "one"), 1)
        many = scan_branches(str(tmp_path / "many"), 30)
        assert len(set(many)) == len(many)
        assert len(many) == len(alone)

    def test_concurrent_first_decodes_share_one_format_each(self, tmp_path):
        """Threads decoding distinct heaps of a layout nobody has decoded
        yet get the serial answers and the same compiled objects."""
        schema = Schema(
            (
                Column("id", ColumnType.INT),
                Column("qty", ColumnType.INT32),
                Column("tag", ColumnType.STRING, 29),
            ),
            primary_key="id",
        )
        rows = [Record((key, key % 7, f"t{key}")) for key in range(61)]
        paths = [str(tmp_path / f"h{number}.heap") for number in range(6)]
        for path in paths:
            heap = HeapFile(path, schema, BufferPool(), 1024)
            for row in rows:
                heap.append(row)
            heap.flush()

        def decode(heap: HeapFile) -> tuple:
            pages = [heap.page(number) for number in range(heap.num_pages)]
            return (
                [page.records() for page in pages],
                [
                    tuple(list(column) for column in page.columns_view())
                    for page in pages
                ],
                [
                    list(
                        heap.codec.decode_column(
                            page.raw_data(), 2, 4, page.num_records
                        )
                    )
                    for page in pages
                ],
            )

        heaps = [HeapFile(path, schema, BufferPool(), 1024) for path in paths]
        assert compiled_counts(heaps[0].codec._record_fmt) == {1}
        barrier = threading.Barrier(len(heaps))
        results: dict[int, tuple] = {}
        held: dict[int, list] = {}
        errors: list[BaseException] = []
        # 61 records are pages of 24, 24 and 13: chunks of 16, 8, 4 and 1.
        counts = (16, 8, 4, 1)

        def reader(number: int) -> None:
            try:
                barrier.wait(timeout=30)
                codec = heaps[number].codec
                results[number] = decode(heaps[number])
                held[number] = [codec._struct] + [
                    make(count)
                    for count in counts
                    for make in (
                        codec._batch_struct,
                        lambda count: codec._column_struct(2, count),
                    )
                ]
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(number,))
                for number in range(len(heaps))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        serial = decode(HeapFile(paths[0], schema, BufferPool(), 1024))
        assert all(results[number] == serial for number in range(len(heaps)))
        for number in range(1, len(heaps)):
            assert all(
                mine is first for mine, first in zip(held[number], held[0])
            )
        formats = live_layout_formats(layout_units(schema))
        assert len(formats) == len(set(formats))


class TestPoolBudget:
    def disk_page(self, codec, number, rows=8, page_size=1024):
        staging = Page(PageId("f", number), codec, page_size)
        for key in range(rows):
            staging.append(make_record(key))
        image = staging.to_bytes()
        return Page(PageId("f", number), codec, page_size, data=image)

    def test_growing_view_evicts_other_frames(self):
        codec = RecordCodec(SCHEMA)
        pool = BufferPool(capacity_bytes=3 * 1024 + 100)
        pages = [self.disk_page(codec, number) for number in range(3)]
        for page in pages:
            pool.get_page(page.page_id, lambda page=page: page)
        assert len(pool) == 3
        pages[2].columns_view()
        # The growth evicted the least recently used frame, and the charge
        # is the footprints of the pages that stayed.
        assert len(pool) == 2
        assert pool.stats.evictions == 1
        assert pool.resident_bytes <= pool.capacity_bytes
        assert pool.resident_bytes == sum(
            page.memory_footprint() for page in pages[1:]
        )

    def test_view_of_an_evicted_page_charges_nothing(self):
        codec = RecordCodec(SCHEMA)
        pool = BufferPool(capacity_pages=1)
        first, second = self.disk_page(codec, 0), self.disk_page(codec, 1)
        pool.get_page(first.page_id, lambda: first)
        pool.get_page(second.page_id, lambda: second)
        first.columns_view()
        assert pool.resident_bytes == second.memory_footprint()

    def test_pinned_frames_are_not_evicted_for_a_view(self):
        codec = RecordCodec(SCHEMA)
        pool = BufferPool(capacity_bytes=2 * 1024 + 100)
        first, second = self.disk_page(codec, 0), self.disk_page(codec, 1)
        pool.get_page(first.page_id, lambda: first)
        pool.get_page(second.page_id, lambda: second)
        pool.pin(first.page_id)
        second.columns_view()
        assert len(pool) == 2
        assert pool.resident_bytes == (
            first.memory_footprint() + second.memory_footprint()
        )

    def test_concurrent_loads_and_views_keep_the_charge(self):
        """Reader threads loading pages and caching their views, with a
        budget that forces evictions, leave the charge exact."""
        codec = RecordCodec(SCHEMA)
        images = [self.disk_page(codec, number).to_bytes() for number in range(16)]
        pool = BufferPool(capacity_bytes=6 * 1024)
        errors: list[BaseException] = []

        def reader(seed: int) -> None:
            try:
                for step in range(400):
                    number = (seed * 7 + step * 5) % len(images)
                    page = pool.get_page(
                        PageId("f", number),
                        lambda: Page(
                            PageId("f", number), codec, 1024, data=images[number]
                        ),
                    )
                    if step % 3:
                        page.columns_view()
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert pool.stats.evictions > 0
        assert pool.resident_bytes <= pool.capacity_bytes
        assert pool.resident_bytes == sum(
            frame.page.memory_footprint() for frame in pool._frames.values()
        )

    @pytest.mark.parametrize("engine", sorted(ENGINE_CLASSES))
    def test_wide_scan_keeps_the_budget(self, tmp_path, engine):
        db = Decibel(str(tmp_path / "db"), engine=engine, page_size=1024)
        relation = db.create_relation("R", SCHEMA)
        relation.init([make_record(key) for key in range(2000)])
        # The page images fit the budget, their column views do not.
        pool = db.buffer_pool
        pool.capacity_bytes = 40 * 1024
        pool.clear()
        result = db.query("SELECT * FROM R WHERE R.Version = 'master'")
        assert len(result) == 2000
        assert pool.stats.evictions > 0
        assert pool.resident_bytes <= pool.capacity_bytes
        assert pool.resident_bytes == sum(
            frame.page.memory_footprint() for frame in pool._frames.values()
        )


def live_records() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Record)


@pytest.mark.parametrize("engine", sorted(ENGINE_CLASSES))
def test_no_row_outlives_its_call(tmp_path, engine):
    """Point lookup, Q2 diff, merge and Q1 leave no decoded row behind."""
    db = Decibel(str(tmp_path / "db"), engine=engine, page_size=1024)
    relation = db.create_relation("R", SCHEMA)
    relation.init([make_record(key) for key in range(600)])
    relation.branch("dev", from_branch="master")
    for key in range(0, 600, 7):
        relation.update("dev", Record((key, 99, "upd")))
    for key in range(600, 640):
        relation.insert("dev", make_record(key))
    relation.commit("dev", "edits")
    relation.insert("master", make_record(5000))
    relation.commit("master", "one more")
    # Reopen, so every page the reads touch comes from disk.
    db.close()
    db = Decibel.open(str(tmp_path / "db"), engine=engine, page_size=1024)
    relation = db.relation("R")
    before = live_records()

    point = db.query("SELECT * FROM R WHERE R.Version = 'dev' AND R.id = 14")
    assert point.rows == [(14, 99, "upd")]
    diff = relation.diff("dev", "master")
    assert len(diff.positive) == 86 + 40
    merged = relation.merge("master", "dev", message="merge dev")
    assert merged.records_applied > 0
    scan = db.query("SELECT * FROM R WHERE R.Version = 'master'")
    assert len(scan) == 641
    del point, diff, merged, scan

    assert live_records() == before
