"""Snapshot and server reads match embedded reads.

Query 4 (``HEAD(R.Version) = true``) reaches the engine three ways: an
embedded ``db.query`` over the live heads, ``db.snapshot()`` over the pinned
head commits, and a :class:`DecibelClient` against a running server, which
answers from a snapshot.  Once every branch is committed the three must give
the same rows with the same branch annotations, on all three engines.  The
datasets hold the cases where stored copies and content disagree: a record
two branches wrote identically, and rows a merge copied.
"""

from __future__ import annotations

import pytest

from repro.core.predicates import ColumnPredicate
from repro.core.record import Record
from repro.core.schema import Schema
from repro.db.database import Decibel
from repro.server import DecibelClient, ServerConfig, ServerThread
from tests.conftest import ENGINE_CLASSES, SMALL_PAGE_SIZE, heads_oracle

Q4 = "SELECT * FROM R WHERE HEAD(R.Version) = true"
PREDICATE = ColumnPredicate("c1", "<", 5)
QUERIES = [(Q4, None), (Q4 + " AND c1 < 5", PREDICATE)]


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
