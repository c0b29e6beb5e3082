"""Tests for the fixed-size page layout."""

import pytest

from repro.core.page import Page, PageId
from repro.core.record import Record, RecordCodec
from repro.core.schema import Schema
from repro.errors import PageError


@pytest.fixture
def codec(schema):
    return RecordCodec(schema)


@pytest.fixture
def page(codec):
    return Page(PageId("test.heap", 0), codec, page_size=512)


class TestPage:
    def test_capacity_accounts_for_header(self, page, codec):
        assert page.capacity == (512 - 4) // codec.record_size

    def test_append_returns_slot(self, page):
        assert page.append(Record((1, 1, 1, 1))) == 0
        assert page.append(Record((2, 2, 2, 2))) == 1

    def test_record_at(self, page):
        page.append(Record((1, 2, 3, 4)))
        assert page.record_at(0).values == (1, 2, 3, 4)

    def test_record_at_bad_slot(self, page):
        with pytest.raises(PageError):
            page.record_at(0)

    def test_is_full(self, page):
        for i in range(page.capacity):
            page.append(Record((i, 0, 0, 0)))
        assert page.is_full
        with pytest.raises(PageError):
            page.append(Record((99, 0, 0, 0)))

    def test_too_small_page_rejected(self, codec):
        with pytest.raises(PageError):
            Page(PageId("x", 0), codec, page_size=8)

    def test_serialization_roundtrip(self, page, codec):
        records = [Record((i, i * 2, i * 3, i * 4)) for i in range(5)]
        for record in records:
            page.append(record)
        data = page.to_bytes()
        assert len(data) == 512
        restored = Page(page.page_id, codec, page_size=512, data=data)
        assert restored.records() == records

    def test_roundtrip_preserves_tombstones(self, page, codec, schema):
        page.append(Record.deleted(schema, 3))
        restored = Page(page.page_id, codec, page_size=512, data=page.to_bytes())
        assert restored.record_at(0).tombstone

    def test_empty_page_roundtrip(self, page, codec):
        restored = Page(page.page_id, codec, page_size=512, data=page.to_bytes())
        assert restored.num_records == 0

    def test_wrong_size_data_rejected(self, page, codec):
        # An image may be compact, but never longer than the page nor
        # shorter than the records its count claims.
        with pytest.raises(PageError):
            Page(PageId("x", 0), codec, page_size=512, data=b"\x00" * 513)
        for i in range(3):
            page.append(Record((i, 0, 0, 0)))
        image = bytes(page.raw_data())
        with pytest.raises(PageError):
            Page(PageId("x", 0), codec, page_size=512, data=image[:-1])
        assert Page(PageId("x", 0), codec, page_size=512, data=image).num_records == 3

    def test_records_returns_copy(self, page):
        page.append(Record((1, 1, 1, 1)))
        listing = page.records()
        listing.append(Record((2, 2, 2, 2)))
        assert page.num_records == 1
