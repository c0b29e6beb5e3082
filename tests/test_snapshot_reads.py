"""Snapshot and server reads, diffs and joins match embedded ones.

Query 4 (``HEAD(R.Version) = true``), Query 2 (the ``NOT IN`` diff) and
Query 3 (a primary-key join of two versions under a predicate) reach the
engine three ways: an embedded ``db.query`` over the live heads,
``db.snapshot()`` over the pinned head commits, and a
:class:`DecibelClient` against a running server, which answers from a
snapshot.  Once every branch is committed the three must give the same
rows (Query 4 with the same branch annotations), on all three engines.
Query 3 runs for every branch pair with the predicate on either side, so
both build sides and their build-key probe filters read pinned commits
through the snapshot view.  The datasets hold the cases where stored
copies and content disagree: a record two branches wrote identically, and
rows a merge copied.  A snapshot's diff is the engine's diff of the
pinned commits.  A pk point query plans an index scan through a snapshot
too, and answers as the scan does at the pinned commits, for keys updated,
deleted and inserted after the pin; a literal of the wrong type is
rejected the same way embedded and served.
"""

from __future__ import annotations

import pytest

from repro.core.predicates import ColumnPredicate
from repro.core.record import Record
from repro.core.schema import Schema
from repro.db.database import Decibel
from repro.errors import BranchNotFoundError, LiteralTypeError
from repro.query.executor import explain_query
from repro.query.optimizer import set_index_selection
from repro.server import DecibelClient, ServerConfig, ServerThread
from tests.conftest import ENGINE_CLASSES, SMALL_PAGE_SIZE, heads_oracle

Q4 = "SELECT * FROM R WHERE HEAD(R.Version) = true"
PREDICATE = ColumnPredicate("c1", "<", 5)
QUERIES = [(Q4, None), (Q4 + " AND c1 < 5", PREDICATE)]
Q2 = (
    "SELECT * FROM R WHERE R.Version = '{}' AND R.id NOT IN "
    "(SELECT id FROM R WHERE R.Version = '{}')"
)
Q3 = (
    "SELECT * FROM R AS a, R AS b WHERE a.Version = '{}' AND b.Version = '{}' "
    "AND a.id = b.id AND {}.c1 < 5"
)


def identical_writes(relation) -> None:
    """Two branches insert the same record and update a key to the same values."""
    relation.branch("a", from_branch="master")
    relation.branch("b", from_branch="master")
    for branch in ("a", "b"):
        relation.insert(branch, Record((100, 1, 1)))
        relation.update(branch, Record((2, 7, 7)))


def two_way_merge(relation) -> None:
    """A two-way merge of a branch that inserted, updated and kept rows."""
    relation.branch("dev", from_branch="master")
    relation.insert("dev", Record((50, 3, 5)))
    relation.update("dev", Record((1, 9, 9)))
    relation.update("master", Record((3, 4, 8)))
    relation.commit("dev")
    relation.commit("master")
    relation.merge("master", "dev", three_way=False)


def normalized(rows, annotations) -> list[tuple]:
    return sorted(
        (tuple(row), tuple(sorted(branches)))
        for row, branches in zip(rows, annotations)
    )


@pytest.fixture(params=sorted(ENGINE_CLASSES))
def database(request, tmp_path):
    db = Decibel(str(tmp_path / "db"), engine=request.param, page_size=SMALL_PAGE_SIZE)
    yield db
    db.close()


@pytest.mark.parametrize("scenario", [identical_writes, two_way_merge])
def test_snapshot_and_server_q4_match_embedded(database, scenario):
    relation = database.create_relation("R", Schema.of_ints(3))
    relation.init([Record((key, key, key)) for key in range(4)])
    scenario(relation)
    for branch in relation.graph.branch_names():
        relation.commit(branch)
    server = ServerThread(database, ServerConfig(worker_threads=2))
    host, port = server.start()
    try:
        with DecibelClient(host, port) as client:
            client.connect()
            for sql, predicate in QUERIES:
                embedded = database.query(sql)
                expected = normalized(
                    embedded.rows, embedded.branch_annotations
                )
                with database.snapshot() as snap:
                    pinned = snap.database.query(sql)
                assert (
                    normalized(pinned.rows, pinned.branch_annotations) == expected
                ), sql
                served = client.query(sql)
                assert normalized(served.rows, served.branches) == expected, sql
                oracle = heads_oracle(relation.engine, predicate=predicate)
                assert expected == normalized(oracle, oracle.values()), sql
            branches = relation.graph.branch_names()
            for a in branches:
                for b in branches:
                    sql = Q2.format(a, b)
                    b_keys = {record.values[0] for record in relation.scan(b)}
                    expected = sorted(
                        record.values
                        for record in relation.scan(a)
                        if record.values[0] not in b_keys
                    )
                    assert sorted(map(tuple, database.query(sql).rows)) == expected
                    with database.snapshot() as snap:
                        pinned = snap.database.query(sql)
                    assert sorted(map(tuple, pinned.rows)) == expected, sql
                    assert sorted(client.query(sql).rows) == expected, sql
    finally:
        server.stop()


@pytest.mark.parametrize("scenario", [identical_writes, two_way_merge])
def test_snapshot_and_server_q3_match_embedded(database, scenario):
    relation = database.create_relation("R", Schema.of_ints(3))
    relation.init([Record((key, key, key)) for key in range(8)])
    scenario(relation)
    for branch in relation.graph.branch_names():
        relation.commit(branch)
    server = ServerThread(database, ServerConfig(worker_threads=2))
    host, port = server.start()
    try:
        with DecibelClient(host, port) as client:
            client.connect()
            branches = relation.graph.branch_names()
            for a in branches:
                for b in branches:
                    for side in ("a", "b"):
                        sql = Q3.format(a, b, side)
                        left = [r.values for r in relation.scan(a)]
                        right = [r.values for r in relation.scan(b)]
                        expected = sorted(
                            x + y
                            for x in left
                            for y in right
                            if x[0] == y[0] and (x if side == "a" else y)[1] < 5
                        )
                        assert expected, sql
                        embedded = database.query(sql)
                        assert sorted(map(tuple, embedded.rows)) == expected, sql
                        with database.snapshot() as snap:
                            pinned = snap.database.query(sql)
                        assert sorted(map(tuple, pinned.rows)) == expected, sql
                        served = client.query(sql)
                        assert sorted(map(tuple, served.rows)) == expected, sql
    finally:
        server.stop()


def test_identical_writes_are_one_row_each(database):
    relation = database.create_relation("R", Schema.of_ints(3))
    relation.init([Record((key, key, key)) for key in range(4)])
    identical_writes(relation)
    for branch in relation.graph.branch_names():
        relation.commit(branch)
    result = database.query(Q4)
    everywhere = ("a", "b", "master")
    assert normalized(result.rows, result.branch_annotations) == [
        ((0, 0, 0), everywhere),
        ((1, 1, 1), everywhere),
        ((2, 2, 2), ("master",)),
        ((2, 7, 7), ("a", "b")),
        ((3, 3, 3), everywhere),
        ((100, 1, 1), ("a", "b")),
    ]
    with database.snapshot() as snap:
        assert snap.database.relation("R").engine.diff("a", "b").is_empty
    assert relation.diff("a", "b").is_empty


def sides(diff) -> tuple[list, list]:
    return sorted(r.values for r in diff.positive), sorted(
        r.values for r in diff.negative
    )


def test_snapshot_diff_is_the_pinned_engine_diff(database):
    relation = database.create_relation("R", Schema.of_ints(3))
    relation.init([Record((key, key, key)) for key in range(6)])
    identical_writes(relation)
    relation.insert("a", Record((60, 6, 6)))
    relation.update("b", Record((4, 0, 0)))
    relation.delete("b", 5)
    for branch in relation.graph.branch_names():
        relation.commit(branch)
    engine = relation.engine
    at_pin = {pair: sides(engine.diff(*pair)) for pair in [("a", "b"), ("b", "master")]}
    with database.snapshot() as snap:
        view = snap.database.relation("R").engine
        for pair, expected in at_pin.items():
            before = engine.stats.diffs
            assert sides(view.diff(*pair)) == expected
            assert engine.stats.diffs == before + 1
        relation.update("a", Record((0, 5, 5)))
        relation.delete("b", 1)
        relation.insert("master", Record((70, 7, 7)))
        for branch in relation.graph.branch_names():
            relation.commit(branch)
        relation.branch("c", from_branch="master")
        for pair, expected in at_pin.items():
            assert sides(engine.diff(*pair)) != expected
            assert sides(view.diff(*pair)) == expected
        with pytest.raises(BranchNotFoundError):
            view.diff("a", "c")


POINT = "SELECT * FROM R WHERE R.Version = '{}' AND R.id = {}"


def scan_answer(db, sql):
    """``sql``'s rows with index selection off: the sequential scan's."""
    set_index_selection(False)
    try:
        return db.query(sql).rows
    finally:
        set_index_selection(True)


def test_snapshot_point_lookups_use_the_index(database):
    relation = database.create_relation("R", Schema.of_ints(3))
    relation.init([Record((key, key, key)) for key in range(30)])
    relation.branch("dev", from_branch="master")
    relation.update("dev", Record((4, 40, 40)))
    relation.delete("dev", 6)
    relation.insert("dev", Record((31, 1, 1)))
    for branch in relation.graph.branch_names():
        relation.commit(branch)
    pinned = {
        branch: {r.values[0]: r.values for r in relation.scan(branch)}
        for branch in ("master", "dev")
    }
    with database.snapshot() as snap:
        # After the pin: an update, a delete and an insert on each branch,
        # committed on dev and left uncommitted on master.
        for branch in ("dev", "master"):
            relation.update(branch, Record((3, 33, 33)))
            relation.update(branch, Record((4, 44, 44)))
            relation.delete(branch, 5)
            relation.insert(branch, Record((32, 2, 2)))
        relation.commit("dev")
        for branch, rows in pinned.items():
            plan = explain_query(snap.database, POINT.format(branch, 3))
            assert "IndexScan" in plan and "[index]" in plan, plan
            for key in range(-1, 34):
                sql = POINT.format(branch, key)
                expected = [rows[key]] if key in rows else []
                assert snap.database.query(sql).rows == expected, sql
                assert scan_answer(snap.database, sql) == expected, sql
        assert snap.database.query(POINT.format("dev", 3)).rows != (
            database.query(POINT.format("dev", 3)).rows
        )
    # A later snapshot pins the new head.
    with database.snapshot() as snap:
        for key in (3, 4, 5, 6, 31, 32):
            sql = POINT.format("dev", key)
            assert snap.database.query(sql).rows == database.query(sql).rows, sql


def test_served_point_lookups_match_embedded(database):
    relation = database.create_relation("R", Schema.of_ints(3))
    relation.init([Record((key, key, key)) for key in range(10)])
    relation.branch("dev", from_branch="master")
    relation.update("dev", Record((2, 7, 7)))
    relation.delete("dev", 3)
    relation.commit("dev")
    server = ServerThread(database, ServerConfig(worker_threads=2))
    host, port = server.start()
    try:
        with DecibelClient(host, port) as client:
            client.connect()
            for branch in ("master", "dev"):
                for key in range(-1, 11):
                    sql = POINT.format(branch, key)
                    assert client.query(sql).rows == database.query(sql).rows, sql
            mistyped = "SELECT * FROM R WHERE R.Version = 'master' AND R.id = 'x'"
            with pytest.raises(LiteralTypeError) as served:
                client.query(mistyped)
            with pytest.raises(LiteralTypeError) as embedded:
                database.query(mistyped)
            assert str(served.value) == str(embedded.value)
            assert served.value.column == "id"
            assert served.value.literal == "x"
    finally:
        server.stop()


def test_secondary_index_columns_keep_the_scan_through_a_snapshot(database):
    """A secondary index follows the live head, so a snapshot does not use
    it: the pinned answer stays the pinned commit's."""
    relation = database.create_relation("R", Schema.of_ints(3), indexes=("c1",))
    relation.init([Record((key, key % 10, key)) for key in range(100)])
    relation.commit("master")
    sql = "SELECT * FROM R WHERE R.Version = 'master' AND R.c1 = 3"
    assert "[index]" in database.explain(sql)
    expected = database.query(sql).rows
    with database.snapshot() as snap:
        relation.update("master", Record((3, 4, 3)))
        relation.insert("master", Record((200, 3, 3)))
        plan = explain_query(snap.database, sql)
        assert "[index]" not in plan and "VersionScan" in plan, plan
        assert snap.database.query(sql).rows == expected
    assert database.query(sql).rows != expected


def test_pinned_states_are_resolved_once_per_pinned_commit(database, monkeypatch):
    """A point query counts, tests and fetches its key; through a snapshot
    the three share one resolution of the pinned commit's read state, and
    so do later snapshots while the branch's head has not moved."""
    relation = database.create_relation("R", Schema.of_ints(3))
    relation.init([Record((key, key, key)) for key in range(30)])
    relation.update("master", Record((3, 33, 33)))  # uncommitted
    engine = relation.engine
    resolved: list[str] = []
    resolve = engine._commit_read_state

    def counted(commit_id):
        resolved.append(commit_id)
        return resolve(commit_id)

    monkeypatch.setattr(engine, "_commit_read_state", counted)
    sql = POINT.format("master", 3)
    with database.snapshot() as snap:
        assert snap.database.query(sql).rows == [(3, 3, 3)]
        assert snap.database.query(sql).rows == [(3, 3, 3)]
    with database.snapshot() as snap:
        assert snap.database.query(sql).rows == [(3, 3, 3)]
    assert len(resolved) == 1
    relation.commit("master")
    with database.snapshot() as snap:
        assert snap.database.query(sql).rows == [(3, 33, 33)]
    assert len(resolved) == 2 and resolved[1] != resolved[0]
