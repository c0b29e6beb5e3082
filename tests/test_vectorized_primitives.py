"""Property tests for the word-level bitmap primitives, the multi-branch
membership scan, the batch record codec and the compiled-predicate path,
each checked against its naive tuple-at-a-time counterpart."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.bitmap import Bitmap
from repro.core.buffer_pool import BufferPool
from repro.core.heapfile import HeapFile
from repro.core.predicates import (
    And,
    ColumnPredicate,
    ModuloPredicate,
    Not,
    Or,
    TruePredicate,
    compile_predicate,
)
from repro.core.record import Record, RecordCodec
from repro.core.schema import Column, ColumnType, Schema
from repro.storage.base import (
    EngineStats,
    _live_page_masks,
    _word_slots,
    scan_heap_member_columns,
)

index_sets = st.sets(st.integers(min_value=0, max_value=2000), max_size=200)


def naive_bits(bitmap: Bitmap) -> set[int]:
    """Per-bit probing reference for the word-level iterators."""
    return {i for i in range(len(bitmap)) if bitmap.get(i)}


class TestWordPrimitives:
    @given(index_sets)
    def test_iter_words_reconstructs_bits(self, indices):
        bitmap = Bitmap.from_indices(indices)
        rebuilt = set()
        for word_index, word in bitmap.iter_words():
            assert word != 0
            base = word_index * 64
            for bit in range(64):
                if word >> bit & 1:
                    rebuilt.add(base + bit)
        assert rebuilt == indices == naive_bits(bitmap)

    @given(index_sets)
    def test_set_many_matches_repeated_set(self, indices):
        bulk = Bitmap()
        bulk.set_many(indices)
        naive = Bitmap()
        for index in indices:
            naive.set(index)
        assert set(bulk.iter_set_bits()) == set(naive.iter_set_bits()) == indices

    @given(index_sets, index_sets)
    def test_inplace_ops_match_operators(self, left, right):
        a, b = Bitmap.from_indices(left), Bitmap.from_indices(right)
        assert set(a.copy().union_update(b).iter_set_bits()) == left | right
        assert set(a.copy().intersection_update(b).iter_set_bits()) == left & right
        assert set(a.copy().difference_update(b).iter_set_bits()) == left - right

    @given(index_sets, index_sets)
    def test_and_not_into_reuses_out_buffer(self, left, right):
        a, b = Bitmap.from_indices(left), Bitmap.from_indices(right)
        out = Bitmap.from_indices({5000})  # stale contents must be overwritten
        returned = a.and_not_into(b, out)
        assert returned is out
        assert set(out.iter_set_bits()) == left - right
        assert out == a.and_not(b)

    @given(index_sets, st.sets(st.integers(min_value=0, max_value=2000), max_size=30))
    def test_count_cache_survives_mutation(self, initial, flips):
        bitmap = Bitmap.from_indices(initial)
        assert bitmap.count() == len(initial)
        state = set(initial)
        for index in flips:
            if index in state:
                bitmap.clear(index)
                state.discard(index)
            else:
                bitmap.set(index)
                state.add(index)
            assert bitmap.count() == len(state)

    def test_from_bytes_rejects_oversized_num_bits(self):
        bitmap = Bitmap.from_indices([0, 9])
        data = bitmap.to_bytes()
        with pytest.raises(ValueError):
            Bitmap.from_bytes(data, num_bits=8 * len(data) + 1)

    def test_from_bytes_roundtrip_still_works(self):
        bitmap = Bitmap.from_indices([1, 8, 63, 64, 200])
        restored = Bitmap.from_bytes(bitmap.to_bytes(), len(bitmap))
        assert restored == bitmap


int_schema = Schema.of_ints(4)

mixed_schema = Schema(
    (
        Column("id", ColumnType.INT),
        Column("count", ColumnType.INT32),
        Column("name", ColumnType.STRING, width=12),
    ),
    primary_key="id",
)


class TestDecodeBatch:
    def test_empty(self):
        codec = RecordCodec(int_schema)
        assert codec.decode_batch(b"", 0, 0) == []
        assert codec.decode_batch(b"") == []

    @given(
        st.lists(
            st.tuples(
                st.integers(-(2**40), 2**40),
                st.integers(-(2**40), 2**40),
                st.integers(-(2**40), 2**40),
                st.integers(-(2**40), 2**40),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_int_schema_matches_per_record_decode(self, rows):
        codec = RecordCodec(int_schema)
        records = [Record(values) for values in rows]
        buffer = b"".join(codec.encode(record) for record in records)
        batch = codec.decode_batch(buffer, 0, len(records))
        singles = [
            codec.decode(buffer, offset)
            for offset in range(0, len(buffer), codec.record_size)
        ]
        assert batch == singles == records

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**30),
                st.integers(-(2**20), 2**20),
                st.text(
                    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                    max_size=12,
                ),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_mixed_schema_matches_per_record_decode(self, rows):
        codec = RecordCodec(mixed_schema)
        records = [Record(values) for values in rows]
        buffer = b"".join(codec.encode(record) for record in records)
        batch = codec.decode_batch(buffer, 0, len(records))
        singles = [
            codec.decode(buffer, offset)
            for offset in range(0, len(buffer), codec.record_size)
        ]
        assert batch == singles

    def test_tombstones_and_offset(self):
        codec = RecordCodec(int_schema)
        live = Record((1, 2, 3, 4))
        dead = Record.deleted(int_schema, 9)
        buffer = b"\xff" * 3 + codec.encode(live) + codec.encode(dead)
        batch = codec.decode_batch(buffer, 3, 2)
        assert batch[0] == live
        assert batch[1].tombstone and batch[1].values[0] == 9


payload_predicates = st.recursive(
    st.one_of(
        st.just(TruePredicate()),
        st.builds(
            ColumnPredicate,
            st.sampled_from(["id", "c1", "c2", "c3"]),
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
            st.integers(-50, 50),
        ),
        st.builds(
            ModuloPredicate,
            st.sampled_from(["id", "c1", "c2", "c3"]),
            st.integers(2, 9),
        ),
    ),
    lambda inner: st.one_of(
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Not, inner),
    ),
    max_leaves=6,
)


class TestCompiledPredicates:
    @given(
        payload_predicates,
        st.lists(
            st.tuples(
                st.integers(-60, 60),
                st.integers(-60, 60),
                st.integers(-60, 60),
                st.integers(-60, 60),
            ),
            max_size=30,
        ),
    )
    def test_compiled_matches_evaluate(self, predicate, rows):
        compiled = compile_predicate(predicate, int_schema)
        for values in rows:
            record = Record(values)
            assert compiled(record.values) == predicate.evaluate(record, int_schema)

    def test_compile_is_memoized(self):
        predicate = ColumnPredicate("c1", ">", 3)
        assert compile_predicate(predicate, int_schema) is compile_predicate(
            ColumnPredicate("c1", ">", 3), int_schema
        )

    def test_none_compiles_to_none(self):
        assert compile_predicate(None, int_schema) is None


class TestMemberColumns:
    """``scan_heap_member_columns`` against per-branch set membership."""

    @staticmethod
    def scan(named_sets, predicate):
        size = max(set().union(*named_sets.values()), default=-1) + 1
        with tempfile.TemporaryDirectory() as directory:
            pool = BufferPool()
            heap = HeapFile(
                os.path.join(directory, "t.heap"), int_schema, pool, page_size=4096
            )
            for key in range(size):
                heap.append(Record((key, key, 0, 0)))
            heap.flush()
            pool.clear()  # pages reload as raw images: late materialization
            bitmaps = {
                name: Bitmap.from_indices(indices)
                for name, indices in named_sets.items()
            }
            return [
                (values[0], members)
                for batch, held in scan_heap_member_columns(
                    heap, bitmaps, int_schema, predicate, EngineStats()
                )
                for values, members in zip(batch.rows(), held)
            ]

    @staticmethod
    def naive(named_sets, predicate):
        return [
            (ordinal, {name for name, held in named_sets.items() if ordinal in held})
            for ordinal in sorted(set().union(*named_sets.values()))
            if predicate is None or ordinal % 3 != 0
        ]

    @given(
        st.dictionaries(st.sampled_from("abcd"), index_sets, max_size=4),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_members_match_naive(self, named_sets, filtered):
        predicate = ModuloPredicate("c1", 3) if filtered else None
        assert self.scan(named_sets, predicate) == self.naive(named_sets, predicate)

    def test_selected_rows_of_many_pages_decode_together(self):
        # Several pages' worth of selected rows, all from partly selected
        # pages, so gathered decodes flush mid-scan and at the end.
        named_sets = {"a": set(range(0, 4000, 2)), "b": set(range(0, 4000, 3))}
        predicate = ModuloPredicate("c1", 3)
        got = self.scan(named_sets, predicate)
        assert len(got) > 1000
        assert got == self.naive(named_sets, predicate)


def reference_page_masks(bitmap: Bitmap, per_page: int, whole: bool = False):
    """The page-by-page loop ``_live_page_masks`` replaced: every page the
    bitmap's bytes (or, with ``whole``, its length) span, one slice each."""
    data = bitmap.to_bytes()
    page_mask = (1 << per_page) - 1
    num_bits = len(bitmap) if whole else len(data) * 8
    for page_number in range((num_bits + per_page - 1) // per_page):
        start = page_number * per_page
        chunk = int.from_bytes(data[start >> 3 : (start + per_page + 7) >> 3], "little")
        live = (chunk >> (start & 7)) & page_mask
        if live or whole:
            yield page_number, live


def bitmaps_of(indices: st.SearchStrategy) -> st.SearchStrategy:
    """Bitmaps setting ``indices``, some longer than their last set bit."""
    return st.builds(
        lambda bits, tail: Bitmap.from_indices(bits, max(bits, default=-1) + 1 + tail),
        indices,
        st.integers(min_value=0, max_value=300),
    )


class TestLivePageMasks:
    """The span-skipping page walk yields exactly the reference loop's
    ``(page, word)`` pairs."""

    @given(
        st.one_of(
            # sparse: a few bits over a long bitmap, as a merge's one-sided
            # differences are
            bitmaps_of(st.sets(st.integers(0, 30_000), max_size=12)),
            # dense: most bits of a short bitmap set
            bitmaps_of(st.sets(st.integers(0, 600), min_size=300, max_size=600)),
            # runs: whole pages set with dead spans between them
            bitmaps_of(
                st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 200)), max_size=6)
                .map(lambda runs: {s + i for s, n in runs for i in range(n)})
            ),
            bitmaps_of(st.just(set())),  # empty, possibly with a length
        ),
        st.sampled_from([1, 3, 7, 8, 9, 50, 64, 65, 809]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loop(self, bitmap, per_page, whole):
        assert list(_live_page_masks(bitmap, per_page, whole)) == list(
            reference_page_masks(bitmap, per_page, whole)
        )

    def test_empty_bitmap_yields_no_page(self):
        assert list(_live_page_masks(Bitmap(), 50)) == []
        assert list(_live_page_masks(Bitmap(), 50, whole=True)) == []


class TestWordSlots:
    @given(st.sets(st.integers(0, 900), max_size=900))
    def test_slots_are_the_set_bits(self, bits):
        word = sum(1 << bit for bit in bits)
        assert list(_word_slots(word)) == sorted(bits)
