"""A page is its bytes: page images, their round trip, and the pool budget.

Pages hold their encoded image and at most one column view, never decoded
rows.  These tests pin the three consequences: a page built by appends
reads exactly like the same page reread from disk; the buffer pool's
charge is the bytes its pages hold and stays inside the budget as column
views are cached; and no :class:`Record` a read decodes outlives the call
that returned it.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro import Decibel
from repro.core.buffer_pool import BufferPool
from repro.core.heapfile import HeapFile
from repro.core.page import Page, PageId
from repro.core.record import Record, RecordCodec
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
        codec = RecordCodec(SCHEMA)
        records = [make_record(key) for key in range(300)]
        data = b"".join(codec.encode(record) for record in records)
        for count in range(301):
            assert codec.decode_batch(data, 0, count) == records[:count]
            columns = codec.decode_batch_columns(data, 0, count)
            assert list(zip(*columns)) == [r.values for r in records[:count]]
            assert list(codec.decode_column(data, 2, 0, count)) == [
                r.values[2] for r in records[:count]
            ]
        # One compiled format per power of two up to 256, not one per count.
        assert sorted(codec._batch_structs) == [1 << k for k in range(9)]
        assert len(codec._column_structs) == 9


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
