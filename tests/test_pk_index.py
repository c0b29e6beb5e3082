"""The key-copy index (:mod:`repro.storage.pk_index`) on its own.

* **Model** -- a hypothesis-driven sequence of writes, drops, lookups and
  length checks against a plain ``{key: [locations]}`` dict, over a stub
  storage of segments and pages: negative, INT32 and int64-extreme keys,
  keys with many copies, builds from ``int64`` and ``int32`` key columns.
* **Memory** -- a built index holds at most 20 traced bytes per copy.
* **Races** -- readers that run beside writers and repeated builds never
  see a key's copies torn from its locations.
* **Engines** -- an INT32 primary key reopens and answers through the
  index on all three engines.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.record import Record
from repro.core.schema import Column, ColumnType, Schema
from repro.db.database import Decibel
from repro.storage.pk_index import KeyCopyIndex

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1

#: Records per stub page, small so a few writes span several pages.
PAGE = 3
#: Bits of a stub location that hold the ordinal within its segment.
ORDINAL_BITS = 32


class StubStorage:
    """Stored keys in numbered segments; a copy's location is its segment
    number packed above its ordinal, as in the segmented engines."""

    def __init__(self, segments: int, typecode: str = "q"):
        self.segments: list[list[int]] = [[] for _ in range(segments)]
        self.typecode = typecode

    def append(self, segment: int, key: int) -> int:
        keys = self.segments[segment]
        keys.append(key)
        return segment << ORDINAL_BITS | (len(keys) - 1)

    def key_at(self, location: int) -> int:
        return self.segments[location >> ORDINAL_BITS][
            location & ((1 << ORDINAL_BITS) - 1)
        ]

    def stored_copies(self):
        """One ``(key column, first location)`` chunk per page."""
        for number, keys in enumerate(self.segments):
            for first in range(0, len(keys), PAGE):
                column = array(self.typecode, keys[first : first + PAGE])
                yield column, number << ORDINAL_BITS | first

    def model(self) -> dict[int, list[int]]:
        """What a build must hold: each key's copies in storage order."""
        copies: dict[int, list[int]] = {}
        for number, keys in enumerate(self.segments):
            for ordinal, key in enumerate(keys):
                copies.setdefault(key, []).append(number << ORDINAL_BITS | ordinal)
        return copies


def key_strategy(low: int, high: int):
    """Few distinct small keys (so many copies per key), the type's
    extremes, and anything else in range."""
    return st.one_of(
        st.integers(-3, 3),
        st.sampled_from([low, low + 1, -1, 0, high - 1, high]),
        st.integers(low, high),
    )


@st.composite
def workloads(draw):
    typecode = draw(st.sampled_from(["q", "i"]))
    keys = key_strategy(
        *((INT64_MIN, INT64_MAX) if typecode == "q" else (INT32_MIN, INT32_MAX))
    )
    segments = draw(st.integers(1, 3))
    fresh = draw(st.booleans())
    stored = [] if fresh else draw(
        st.lists(st.tuples(st.integers(0, segments - 1), keys), max_size=40)
    )
    operations = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("write"), st.integers(0, segments - 1), keys),
                st.tuples(st.just("lookup"), keys),
                st.just(("drop",)),
                st.just(("len",)),
            ),
            max_size=60,
        )
    )
    return typecode, segments, fresh, stored, operations


@settings(max_examples=300, deadline=None)
@given(workloads())
def test_index_agrees_with_a_dict_of_lists(workload):
    """Lookups return exactly the model's copies, oldest first, whether
    they come from a build, from adds since it, or from both."""
    typecode, segments, fresh, stored, operations = workload
    storage = StubStorage(segments, typecode)
    for segment, key in stored:
        storage.append(segment, key)
    index = KeyCopyIndex(storage.stored_copies, threading.Lock())
    model: dict[int, list[int]] | None = None
    builds = 0
    if fresh:
        index.start_empty()
        model = {}
    seen_keys = {key for _, key in stored}
    for operation in operations:
        kind = operation[0]
        if kind == "write":
            _, segment, key = operation
            location = storage.append(segment, key)
            index.add(key, location)
            seen_keys.add(key)
            if model is not None:
                model.setdefault(key, []).append(location)
        elif kind == "drop":
            index.drop()
            model = None
        elif kind == "len":
            expected = 0 if model is None else sum(map(len, model.values()))
            assert len(index) == expected
        else:
            if model is None:
                model = storage.model()
                builds += 1
            assert list(index.copies(operation[1])) == model.get(operation[1], [])
        assert index.built == (model is not None)
    if model is None:
        model = storage.model()
        builds += 1
    for key in seen_keys | {INT64_MIN, INT64_MAX, 7}:
        assert list(index.copies(key)) == model.get(key, [])
    assert len(index) == sum(map(len, model.values()))
    assert index.builds == builds


def test_key_with_many_copies_spans_pages_and_recent_adds():
    """One key stored 500 times across pages of two segments, interleaved
    with other keys, then updated twice more after the build."""
    storage = StubStorage(2)
    expected = []
    for ordinal in range(1000):
        segment = ordinal % 2
        key = 42 if ordinal % 2 == 0 else INT64_MIN + ordinal
        location = storage.append(segment, key)
        if key == 42:
            expected.append(location)
    # Segment 0 is read first: the build keeps storage order.
    expected.sort()
    index = KeyCopyIndex(storage.stored_copies, threading.Lock())
    assert list(index.copies(42)) == expected
    for _ in range(2):
        location = storage.append(1, 42)
        index.add(42, location)
        expected.append(location)
    assert list(index.copies(42)) == expected
    assert list(index.copies(INT64_MIN + 1)) == [1 << ORDINAL_BITS]
    assert index.copies(41) == ()
    assert len(index) == 1002
    assert index.builds == 1


def test_build_reads_nothing_until_the_first_lookup():
    reads = []

    def stored_copies():
        reads.append(1)
        yield array("q", [5, 3, 5]), 10

    index = KeyCopyIndex(stored_copies, threading.Lock())
    index.add(9, 99)  # skipped while unbuilt: a build reads storage only
    assert not index.built and reads == [] and len(index) == 0
    assert list(index.copies(5)) == [10, 12]
    assert list(index.copies(3)) == [11]
    assert index.copies(9) == ()
    assert reads == [1] and index.builds == 1
    # A key no stored key can equal misses, as a dict lookup would.
    assert index.copies("5") == () and index.copies(None) == ()
    assert list(index.copies(5.0)) == [10, 12] and index.copies(2**70) == ()


# -- memory -------------------------------------------------------------------

COPIES = 20_000


def test_built_index_costs_at_most_20_bytes_per_copy():
    """A build from 20k stored copies (5,000 of the 15,000 keys stored
    twice, in no particular order) keeps at most 20 traced bytes per copy:
    two 8-byte arrays hold 16."""
    keys = [(i * 7919) % 15_000 + 10**12 for i in range(COPIES)]
    pages = [
        (array("q", keys[first : first + 64]), first)
        for first in range(0, COPIES, 64)
    ]
    index = KeyCopyIndex(lambda: iter(pages), threading.Lock())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(index.copies(keys[0])) >= 1
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index) == COPIES
    assert held <= 20 * COPIES, f"{held / COPIES:.1f} bytes per copy"


# -- races --------------------------------------------------------------------

def test_readers_never_see_torn_keys_and_locations():
    """Readers take no lock.  While writers add copies under the lock, and
    the index is dropped and rebuilt, every copy a reader gets is a stored
    copy of the key it asked for, and none stored before it asked is
    missing."""
    storage = StubStorage(2)
    lock = threading.Lock()
    for ordinal in range(3000):
        storage.append(ordinal % 2, ordinal % 997)
    index = KeyCopyIndex(storage.stored_copies, lock)
    errors: list[BaseException] = []
    stop = threading.Event()

    def writer(base):
        try:
            for key in range(base, base + 200):
                with lock:
                    index.add(key % 997, storage.append(key % 2, key % 997))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def reader(offset):
        try:
            while not stop.is_set():
                for key in range(offset, 997, 13):
                    copies = index.copies(key)
                    assert all(storage.key_at(place) == key for place in copies)
                    assert len(copies) >= 3
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def dropper():
        try:
            for _ in range(5):
                index.drop()
                index.copies(0)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    readers = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
    others = [
        threading.Thread(target=writer, args=(1000 * (i + 1),)) for i in range(3)
    ] + [threading.Thread(target=dropper)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers + others:
            thread.start()
        for thread in others:
            thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers + others)
    assert errors == []
    model = storage.model()
    for key in range(997):
        assert list(index.copies(key)) == model[key]
    assert len(index) == 3600


# -- engines ------------------------------------------------------------------

INT32_SCHEMA = Schema(
    (
        Column("id", ColumnType.INT32),
        Column("v", ColumnType.INT),
    ),
    primary_key="id",
)


@pytest.mark.parametrize("engine", ["tuple-first", "version-first", "hybrid"])
def test_int32_primary_key_reopens_through_the_index(tmp_path, engine):
    keys = [INT32_MIN, -7, 0, 7, INT32_MAX]
    db = Decibel(str(tmp_path), engine=engine)
    relation = db.create_relation("R", INT32_SCHEMA, indexes=())
    relation.init([Record((key, 1)) for key in keys])
    relation.branch("dev", from_branch="master")
    txn = db.transactions("R").begin()
    txn.update("dev", Record((INT32_MIN, 2)))
    txn.commit()
    db.close()
    reopened = Decibel.open(str(tmp_path), engine=engine)
    storage = reopened.relation("R").engine
    for key in keys:
        assert storage.record_for_key("master", key).values == (key, 1)
        expected = 2 if key == INT32_MIN else 1
        assert storage.record_for_key("dev", key).values == (key, expected)
    assert storage.record_for_key("master", 8) is None
    assert reopened.query(
        f"SELECT * FROM R WHERE R.Version = 'master' AND R.id = {2**70}"
    ).rows == []
    assert len(storage.key_index.copies(INT32_MIN)) == 2
    assert storage.key_index.builds == 1
