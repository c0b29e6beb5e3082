"""Tests for transactions over branches."""

import pytest

from repro.core.locks import LockManager
from repro.core.record import Record
from repro.core.schema import Schema
from repro.core.transactions import TransactionManager, TransactionState
from repro.db.database import Decibel
from repro.errors import StorageError, TransactionError
from repro.testing.faults import FaultSchedule, InjectedCrash, inject

from tests.conftest import make_records


@pytest.fixture
def manager(loaded_engine):
    # A short lock timeout keeps the lock-contention test fast.
    return TransactionManager(loaded_engine, lock_manager=LockManager(timeout=0.2))


class TestTransaction:
    def test_commit_applies_buffered_writes(self, manager, loaded_engine, schema):
        txn = manager.begin()
        txn.insert("master", Record((100, 1, 2, 3)))
        txn.update("master", Record((5, 9, 9, 9)))
        txn.delete("master", 3)
        assert txn.pending_writes == 3
        # Nothing is visible until commit.
        keys_before = {r.key(schema) for r in loaded_engine.scan_branch("master")}
        assert 100 not in keys_before and 3 in keys_before
        commits = txn.commit("batch of changes")
        assert "master" in commits
        keys_after = {r.key(schema) for r in loaded_engine.scan_branch("master")}
        assert 100 in keys_after and 3 not in keys_after
        assert txn.state is TransactionState.COMMITTED

    def test_abort_discards_writes(self, manager, loaded_engine, schema):
        txn = manager.begin()
        txn.insert("master", Record((200, 0, 0, 0)))
        txn.abort()
        keys = {r.key(schema) for r in loaded_engine.scan_branch("master")}
        assert 200 not in keys
        assert txn.state is TransactionState.ABORTED

    def test_operations_after_commit_rejected(self, manager):
        txn = manager.begin()
        txn.insert("master", Record((300, 0, 0, 0)))
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("master", Record((301, 0, 0, 0)))
        with pytest.raises(TransactionError):
            txn.commit()

    def test_commit_becomes_atomically_visible_as_one_version(
        self, manager, loaded_engine
    ):
        before_commits = len(loaded_engine.graph.commits())
        txn = manager.begin()
        for record in make_records(5, start=500):
            txn.insert("master", record)
        txn.commit("five inserts")
        # Exactly one new commit despite five writes.
        assert len(loaded_engine.graph.commits()) == before_commits + 1

    def test_concurrent_commits_to_same_branch_blocked(self, manager):
        first = manager.begin()
        second = manager.begin()
        first.insert("master", Record((700, 0, 0, 0)))
        with pytest.raises(TransactionError):
            second.insert("master", Record((701, 0, 0, 0)))
        first.commit()
        # After the first commit releases its locks the second can proceed.
        second.insert("master", Record((701, 0, 0, 0)))
        second.commit()

    def test_transaction_across_branches(self, manager, loaded_engine, schema):
        loaded_engine.create_branch("dev", from_branch="master")
        txn = manager.begin()
        txn.insert("master", Record((800, 0, 0, 0)))
        txn.insert("dev", Record((801, 0, 0, 0)))
        commits = txn.commit()
        assert set(commits) == {"master", "dev"}
        assert 800 in {r.key(schema) for r in loaded_engine.scan_branch("master")}
        assert 801 in {r.key(schema) for r in loaded_engine.scan_branch("dev")}

    def test_wal_records_lifecycle(self, manager):
        txn = manager.begin()
        txn.insert("master", Record((900, 0, 0, 0)))
        txn.commit()
        types = [record.type.value for record in manager.wal.records()]
        assert types == ["begin", "write", "commit", "applied"]

    def test_abort_logged(self, manager):
        txn = manager.begin()
        txn.insert("master", Record((901, 0, 0, 0)))
        txn.abort()
        assert manager.wal.records()[-1].type.value == "abort"


@pytest.mark.parametrize("engine", ["tuple-first", "version-first", "hybrid"])
def test_embedded_commit_fsyncs_the_wal_once(tmp_path, engine):
    """A 10-write embedded transaction costs one WAL fsync: its COMMIT."""
    db = Decibel(str(tmp_path), engine=engine)
    db.create_relation("t", Schema.of_ints(4)).init(make_records(10))
    txn = db.transactions("t").begin()
    for record in make_records(10, start=1000):
        txn.insert("master", record)
    before = db.wal.fsync_count
    txn.commit("ten inserts")
    assert db.wal.fsync_count == before + 1
    db.close()


@pytest.mark.parametrize("engine", ["tuple-first", "version-first", "hybrid"])
def test_failed_commit_leaves_the_head_unchanged(tmp_path, engine):
    """A transaction whose delete misses fails before it applies anything:
    its earlier insert never reaches the head, and neither the next commit
    nor a reopen brings it back."""
    db = Decibel(str(tmp_path), engine=engine)
    db.create_relation("t", Schema.of_ints(4)).init(make_records(10))
    manager = db.transactions("t")

    def rows(database):
        return {r.values for r in database.relation("t").scan("master")}

    baseline = rows(db)
    txn = manager.begin()
    txn.insert("master", Record((100, 1, 1, 1)))
    txn.delete("master", 999)
    with pytest.raises(StorageError):
        txn.commit()
    assert txn.state is TransactionState.ABORTED
    assert rows(db) == baseline
    assert not db.relation("t").engine.branch_contains_key("master", 100)
    # A delete of a key the transaction itself inserted is not a miss.
    txn = manager.begin()
    txn.insert("master", Record((200, 2, 2, 2)))
    txn.delete("master", 200)
    txn.delete("master", 3)
    txn.commit()
    expected = {values for values in baseline if values[0] != 3}
    assert rows(db) == expected
    db.close()
    assert rows(Decibel.open(str(tmp_path), engine=engine)) == expected


def two_relation_database(directory, engine="hybrid"):
    """Relations ``a`` and ``b`` sharing one database WAL, each seeded
    with keys 0..4."""
    db = Decibel(str(directory), engine=engine)
    for name in ("a", "b"):
        db.create_relation(name, Schema.of_ints(4)).init(make_records(5))
    return db


def test_transaction_ids_are_unique_across_relations(tmp_path):
    """Interleaved begins on two relations sharing the log get distinct
    ids: one id is one lock owner and one WAL identity."""
    db = two_relation_database(tmp_path)
    first = db.transactions("a").begin()
    first.insert("master", Record((100, 1, 1, 1)))
    first.commit()
    ids = [
        db.transactions(name).begin().transaction_id
        for name in ("b", "a", "b", "a")
    ]
    assert len(set(ids + [first.transaction_id])) == 5
    db.close()


def test_relations_lock_their_own_branches(tmp_path):
    """Transactions of two relations on a branch of the same name hold
    distinct ids and do not wait for each other's branch lock."""
    db = two_relation_database(tmp_path)
    txn_a = db.transactions("a").begin()
    txn_b = db.transactions("b").begin()
    txn_a.insert("master", Record((100, 1, 1, 1)))
    txn_b.insert("master", Record((200, 2, 2, 2)))
    txn_b.commit()
    txn_a.commit()
    for name, key in (("a", 100), ("b", 200)):
        assert db.relation(name).engine.branch_contains_key("master", key)
    db.close()


@pytest.mark.parametrize("engine", ["tuple-first", "version-first", "hybrid"])
def test_recovery_redoes_only_the_committed_relation(
    tmp_path, monkeypatch, engine
):
    """Relation ``a``'s transaction commits and dies before it is applied,
    while relation ``b``'s is in flight (its BEGIN and WRITE frames are in
    the log, its COMMIT never).  Recovery redoes ``a``'s writes, once, and
    none of ``b``'s."""
    db = two_relation_database(tmp_path, engine)
    db.relation("b").branch("dev", from_branch="master")
    txn_a = db.transactions("a").begin()
    txn_b = db.transactions("b").begin()
    txn_a.insert("master", Record((100, 1, 1, 1)))
    txn_b.insert("dev", Record((200, 2, 2, 2)))
    txn_b.insert("dev", Record((201, 2, 2, 2)))
    engine_b = db.relation("b").engine
    insert_b = engine_b.insert

    def interleaved_insert(branch, record):
        # Stands in for a second thread: ``a`` commits while ``b`` is
        # between its first WRITE frame and its COMMIT.
        if record.values[0] == 201:
            txn_a.commit("committed, never applied")
        insert_b(branch, record)

    monkeypatch.setattr(engine_b, "insert", interleaved_insert)
    with inject(FaultSchedule("graph-persist-pre-fsync")):
        with pytest.raises(InjectedCrash):
            txn_b.commit("in flight")
    reopened = Decibel.open(str(tmp_path), engine=engine)
    report = reopened.last_recovery
    assert report.needs_redo == {txn_a.transaction_id}
    assert txn_b.transaction_id in report.in_flight
    keys_a = [r.values[0] for r in reopened.relation("a").scan("master")]
    assert sorted(keys_a) == [0, 1, 2, 3, 4, 100]
    for branch in ("master", "dev"):
        keys_b = {r.values[0] for r in reopened.relation("b").scan(branch)}
        assert keys_b == {0, 1, 2, 3, 4}
    reopened.close()
    again = Decibel.open(str(tmp_path), engine=engine)
    assert again.last_recovery.needs_redo == set()
    keys_a = [r.values[0] for r in again.relation("a").scan("master")]
    assert sorted(keys_a) == [0, 1, 2, 3, 4, 100]
    again.close()
