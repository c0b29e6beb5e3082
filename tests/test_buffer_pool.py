"""Tests for the buffer pool (LRU, pinning, dirty write-back)."""

import pytest

from repro.core.buffer_pool import BufferPool
from repro.core.page import Page, PageId
from repro.core.record import Record, RecordCodec
from repro.errors import StorageError


@pytest.fixture
def codec(schema):
    return RecordCodec(schema)


def make_page(codec, number, file_name="f.heap"):
    page = Page(PageId(file_name, number), codec, page_size=512)
    page.append(Record((number, 0, 0, 0)))
    return page


class TestBufferPool:
    def test_get_page_calls_loader_on_miss(self, codec):
        pool = BufferPool(capacity_pages=4)
        calls = []

        def loader():
            calls.append(1)
            return make_page(codec, 0)

        page_id = PageId("f.heap", 0)
        pool.get_page(page_id, loader)
        pool.get_page(page_id, loader)
        assert len(calls) == 1
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_hit_rate(self, codec):
        pool = BufferPool(capacity_pages=4)
        page_id = PageId("f.heap", 0)
        pool.get_page(page_id, lambda: make_page(codec, 0))
        pool.get_page(page_id, lambda: make_page(codec, 0))
        assert pool.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self, codec):
        pool = BufferPool(capacity_pages=2)
        for number in range(3):
            pool.put_page(make_page(codec, number))
        assert len(pool) == 2
        assert pool.stats.evictions == 1

    def test_eviction_prefers_least_recent(self, codec):
        pool = BufferPool(capacity_pages=2)
        pool.put_page(make_page(codec, 0))
        pool.put_page(make_page(codec, 1))
        # Touch page 0 so page 1 becomes the LRU victim.
        pool.get_page(PageId("f.heap", 0), lambda: make_page(codec, 0))
        pool.put_page(make_page(codec, 2))
        pool.get_page(PageId("f.heap", 0), lambda: make_page(codec, 0))
        assert pool.stats.misses == 0

    def test_pinned_pages_not_evicted(self, codec):
        pool = BufferPool(capacity_pages=2)
        pool.put_page(make_page(codec, 0))
        pool.put_page(make_page(codec, 1))
        pool.pin(PageId("f.heap", 0))
        pool.pin(PageId("f.heap", 1))
        pool.put_page(make_page(codec, 2))
        # Both pinned pages remain; the pool grows instead of failing.
        assert len(pool) == 3

    def test_unpin_requires_pin(self, codec):
        pool = BufferPool(capacity_pages=2)
        pool.put_page(make_page(codec, 0))
        with pytest.raises(StorageError):
            pool.unpin(PageId("f.heap", 0))

    def test_pin_nonresident_rejected(self):
        pool = BufferPool(capacity_pages=2)
        with pytest.raises(StorageError):
            pool.pin(PageId("f.heap", 0))

    def test_dirty_page_flushed_on_eviction(self, codec):
        flushed = []
        pool = BufferPool(capacity_pages=1)
        pool.put_page(make_page(codec, 0), dirty=True, flusher=flushed.append)
        pool.put_page(make_page(codec, 1))
        assert len(flushed) == 1
        assert pool.stats.flushes == 1

    def test_flush_all(self, codec):
        flushed = []
        pool = BufferPool(capacity_pages=4)
        pool.put_page(make_page(codec, 0), dirty=True, flusher=flushed.append)
        pool.put_page(make_page(codec, 1), dirty=False, flusher=flushed.append)
        pool.flush_all()
        assert len(flushed) == 1

    def test_mark_dirty_then_clear_flushes(self, codec):
        flushed = []
        pool = BufferPool(capacity_pages=4)
        pool.put_page(make_page(codec, 0), flusher=flushed.append)
        pool.mark_dirty(PageId("f.heap", 0))
        pool.clear()
        assert len(flushed) == 1
        assert len(pool) == 0

    def test_mark_dirty_nonresident_rejected(self):
        pool = BufferPool(capacity_pages=4)
        with pytest.raises(StorageError):
            pool.mark_dirty(PageId("f.heap", 0))

    def test_invalidate_file_drops_only_that_file(self, codec):
        pool = BufferPool(capacity_pages=8)
        pool.put_page(make_page(codec, 0, "a.heap"))
        pool.put_page(make_page(codec, 0, "b.heap"))
        pool.invalidate_file("a.heap")
        assert len(pool) == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(StorageError):
            BufferPool(capacity_pages=0)

    def test_stats_reset(self, codec):
        pool = BufferPool(capacity_pages=2)
        pool.get_page(PageId("f.heap", 0), lambda: make_page(codec, 0))
        pool.stats.reset()
        assert pool.stats.misses == 0


class TestByteBudget:
    def test_evicts_by_bytes(self, codec):
        # A page is charged the bytes of its image; a budget of two and a
        # half pages holds two of them.
        footprint = make_page(codec, 0).memory_footprint()
        pool = BufferPool(capacity_bytes=footprint * 5 // 2)
        for number in range(4):
            pool.put_page(make_page(codec, number))
        assert len(pool) == 2
        assert pool.resident_bytes == 2 * footprint
        assert pool.stats.evictions == 2

    def test_resident_bytes_track_drops(self, codec):
        footprint = make_page(codec, 0).memory_footprint()
        pool = BufferPool(capacity_bytes=10_000)
        pool.put_page(make_page(codec, 0, "a.heap"))
        pool.put_page(make_page(codec, 0, "b.heap"))
        assert pool.resident_bytes == 2 * footprint
        pool.invalidate_file("a.heap")
        assert pool.resident_bytes == footprint
        pool.clear()
        assert pool.resident_bytes == 0

    def test_zero_byte_budget_rejected(self):
        with pytest.raises(StorageError):
            BufferPool(capacity_bytes=0)


class TestTransientReads:
    def test_transient_miss_is_not_admitted(self, codec):
        pool = BufferPool(capacity_bytes=10_000)
        page_id = PageId("f.heap", 0)
        page = pool.get_page(
            page_id, lambda: make_page(codec, 0), transient=True
        )
        assert page.num_records == 1
        assert len(pool) == 0
        assert pool.stats.bypasses == 1

    def test_transient_hit_served_from_pool(self, codec):
        pool = BufferPool(capacity_bytes=10_000)
        pool.put_page(make_page(codec, 0))
        loads = []
        pool.get_page(
            PageId("f.heap", 0),
            lambda: loads.append(1) or make_page(codec, 0),
            transient=True,
        )
        assert not loads
        assert pool.stats.hits == 1

    def test_big_heap_scan_bypasses_pool(self, tmp_path, codec, schema):
        from repro.core.heapfile import HeapFile
        from repro.core.record import Record

        pool = BufferPool(capacity_bytes=1200)
        heap = HeapFile(str(tmp_path / "big.heap"), schema, pool, page_size=512)
        for key in range(200):
            heap.append(Record((key, 0, 0, 0)))
        heap.flush()
        pool.clear()
        assert heap.scan_exceeds_pool()
        records = list(heap.scan_records())
        assert len(records) == 200
        # The one-pass scan read through the pool without filling it.
        assert len(pool) == 0
        assert pool.stats.bypasses > 0

    def test_small_heap_scan_is_cached(self, tmp_path, codec, schema):
        from repro.core.heapfile import HeapFile
        from repro.core.record import Record

        pool = BufferPool(capacity_bytes=1 << 20)
        heap = HeapFile(str(tmp_path / "small.heap"), schema, pool, page_size=512)
        for key in range(50):
            heap.append(Record((key, 0, 0, 0)))
        heap.flush()
        pool.clear()
        assert not heap.scan_exceeds_pool()
        list(heap.scan_records())
        assert len(pool) > 0
        assert pool.stats.bypasses == 0
