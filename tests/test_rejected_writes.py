"""Writes the schema rejects fail at the call and leave no trace.

Every engine encodes a record when its heap appends it, and that append is
the first change an ``insert`` or ``update`` makes, so a value the schema
rejects raises :class:`SchemaError` before a page, a bitmap or a key index
moves.  Transactions check each write when they buffer it, so a bad value
never reaches the write-ahead log.  Later commits, ``close`` and
``Decibel.open`` then work, with the branch exactly as it was.  An ``init``
is all or nothing: a record it rejects leaves the relation uninitialized,
with none of the records before it stored, so the init can be retried.
"""

from __future__ import annotations

import pytest

from repro.core.record import Record
from repro.core.schema import Column, ColumnType, Schema
from repro.db.database import Decibel
from repro.errors import SchemaError
from repro.server import DecibelClient, ServerConfig, ServerThread

ENGINES = ["tuple-first", "version-first", "hybrid"]

SCHEMA = Schema(
    (
        Column("id", ColumnType.INT),
        Column("a", ColumnType.INT),
        Column("b", ColumnType.INT32),
    )
)

BASELINE = [(i, i * 10, i) for i in range(8)]

#: (column, bad value): each one the schema rejects.  A float key equal to a
#: live key (3.0 == 3) must not touch key 3's row either.
BAD_VALUES = [
    ("a", 1 << 70),
    ("b", 1 << 31),
    ("a", True),
    ("a", 1.5),
    ("b", "x"),
    ("id", 3.0),
]

#: ``insert`` writes a new key, ``update`` replaces live key 3.
OPERATIONS = ["insert", "update", "txn-insert", "txn-update"]


def bad_record(operation, column, value):
    values = {"id": 50 if operation.endswith("insert") else 3, "a": 0, "b": 0}
    values[column] = value
    return Record(tuple(values[c.name] for c in SCHEMA.columns))


def stored_records(engine):
    """Records the engine's heaps hold, committed or not."""
    if hasattr(engine, "heap"):
        return engine.heap.num_records
    return sum(segment.record_count for segment in engine.segments.all())


def state(db):
    engine = db.relation("t").engine
    rows = sorted(tuple(r.values) for r in engine.scan_branch("master"))
    keys = {key: engine.record_for_key("master", key) for key in (3, 50)}
    return rows, keys, stored_records(engine)


def rows(db):
    return sorted(tuple(r.values) for r in db.relation("t").scan("master"))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("operation", OPERATIONS)
@pytest.mark.parametrize(("column", "value"), BAD_VALUES)
def test_rejected_write_leaves_no_trace(tmp_path, engine, operation, column, value):
    db = Decibel(str(tmp_path), engine=engine)
    rel = db.create_relation("t", SCHEMA)
    rel.init([Record(values) for values in BASELINE])
    before = state(db)
    record = bad_record(operation, column, value)
    if operation.startswith("txn"):
        txn = db.transactions("t").begin()
        txn.insert("master", Record((60, 6, 6)))
        with pytest.raises(SchemaError):
            getattr(txn, operation[4:])("master", record)
        assert txn.pending_writes == 1
        assert state(db) == before
        txn.commit("the valid write")
        expected = sorted(BASELINE + [(60, 6, 6)])
    else:
        with pytest.raises(SchemaError):
            getattr(rel, operation)("master", record)
        assert state(db) == before
        # After a rejected update the old row is still the live one.
        assert rel.engine.record_for_key("master", 3).values == (3, 30, 3)
        rel.insert("master", Record((70, 7, 7)))
        rel.commit("master")
        expected = sorted(BASELINE + [(70, 7, 7)])
    assert rows(db) == expected
    db.close()
    reopened = Decibel.open(str(tmp_path), engine=engine)
    assert rows(reopened) == expected
    assert reopened.last_recovery.needs_redo == set()
    reopened.relation("t").insert("master", Record((80, 8, 8)))
    reopened.relation("t").commit("master")
    reopened.close()
    again = Decibel.open(str(tmp_path), engine=engine)
    assert rows(again) == sorted(expected + [(80, 8, 8)])
    again.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_rejected_tombstone_key_leaves_no_trace(tmp_path, engine):
    """A transactional delete of a key the primary-key column rejects is
    refused when it is buffered."""
    db = Decibel(str(tmp_path), engine=engine)
    db.create_relation("t", SCHEMA).init([Record(values) for values in BASELINE])
    txn = db.transactions("t").begin()
    with pytest.raises(SchemaError):
        txn.delete("master", 3.0)
    assert txn.pending_writes == 0
    txn.commit()
    assert rows(db) == BASELINE
    db.close()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(("column", "value"), BAD_VALUES[:2] + BAD_VALUES[4:])
@pytest.mark.parametrize("before", [5, 600])
def test_rejected_init_leaves_the_relation_uninitialized(
    tmp_path, engine, column, value, before
):
    """``before`` good rows (600 fill pages), then one the schema rejects:
    nothing of that init survives a retry, a commit or a reopen."""
    db = Decibel(str(tmp_path), engine=engine)
    rel = db.create_relation("t", SCHEMA)
    good = [(1000 + i, i, i) for i in range(before)]
    with pytest.raises(SchemaError):
        rel.init(iter(good + [bad_record("insert", column, value).values]))
    assert not rel.graph.initialized
    assert stored_records(rel.engine) == 0
    # A retry, with plain tuples from a generator, as ``insert`` takes them.
    rel.init(values for values in BASELINE)
    rel.insert("master", (70, 7, 7))
    rel.commit("master")
    rel.branch("dev", from_branch="master")
    expected = sorted(BASELINE + [(70, 7, 7)])
    assert rows(db) == expected
    count = "SELECT COUNT(*) FROM t WHERE t.Version = '{}'"
    assert db.query(count.format("master")).rows == [(len(expected),)]
    assert db.query(count.format("dev")).rows == [(len(expected),)]
    assert db.relation("t").engine.record_for_key("master", 1000) is None
    db.close()
    reopened = Decibel.open(str(tmp_path), engine=engine)
    assert rows(reopened) == expected
    assert sorted(r.values for r in reopened.relation("t").scan("dev")) == expected
    assert reopened.relation("t").engine.record_for_key("master", 1000) is None
    reopened.close()


def test_server_rejects_a_float_at_the_call(tmp_path):
    """A float sent through the client is refused on that call; another
    client's commit then succeeds, and the database closes and reopens
    with exactly the committed rows."""
    directory = str(tmp_path / "data")
    db = Decibel(directory)
    db.create_relation("t", SCHEMA).init([Record(values) for values in BASELINE])
    server = ServerThread(db, ServerConfig(worker_threads=2), own_db=True)
    host, port = server.start()
    try:
        with DecibelClient(host, port, max_attempts=1) as bad, DecibelClient(
            host, port, max_attempts=1
        ) as good:
            bad.connect()
            good.connect()
            with pytest.raises(SchemaError):
                bad.insert("t", [40, 1.5, 0])
            assert bad.commit("nothing buffered") == {"t": {}}
            good.insert("t", [41, 41, 41])
            assert list(good.commit("the valid write")["t"]) == ["master"]
            bad.insert("t", [42, 42, 42])
            assert list(bad.commit("a later write")["t"]) == ["master"]
    finally:
        server.stop()
    reopened = Decibel.open(directory)
    assert rows(reopened) == sorted(BASELINE + [(41, 41, 41), (42, 42, 42)])
    assert reopened.last_recovery.needs_redo == set()
    reopened.close()
