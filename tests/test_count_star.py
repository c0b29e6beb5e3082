"""SQL ``COUNT(*)`` runs in the operators' count mode.

An ungrouped ``COUNT(*)`` is answered by the scan's count: with no
predicate that is the engine's own counter (a bitmap popcount or a
primary-key index size), which reads no page; with one, a scan of the
key column.  Either way the answer is the row scan's count, embedded, in
a snapshot and through the server, on every engine.
"""

from __future__ import annotations

import pytest

from repro.core.record import Record
from repro.core.schema import Schema
from repro.db.database import Decibel
from repro.server import DecibelClient, ServerConfig, ServerThread
from tests.conftest import ENGINE_CLASSES


@pytest.fixture(params=sorted(ENGINE_CLASSES))
def loaded(request, tmp_path):
    """A database whose ``R`` has a master and a ``dev`` branch, and the
    ids of master's init commit and dev's latest commit."""
    db = Decibel(str(tmp_path / "db"), engine=request.param, page_size=1024)
    relation = db.create_relation("R", Schema.of_ints(4))
    init = relation.init([Record((key, key % 5, 0, 0)) for key in range(300)])
    relation.branch("dev", from_branch="master")
    for key in range(0, 300, 4):
        relation.update("dev", Record((key, 9, 1, 1)))
    for key in range(0, 300, 10):
        relation.delete("dev", key + 1)
    for key in range(300, 340):
        relation.insert("dev", Record((key, key % 5, 2, 2)))
    dev = relation.commit("dev", "edits")
    yield db, {"master": init, "dev": dev}
    db.close()


def expected_counts(db, versions) -> dict[str, tuple[int, int]]:
    """``version -> (all rows, rows with c1 >= 3)`` from the row scans."""
    engine = db.relation("R").engine
    counts = {}
    for branch, commit in versions.items():
        for version, records in (
            (branch, list(engine.scan_branch(branch))),
            (commit, list(engine.scan_commit(commit))),
        ):
            counts[version] = (
                len(records),
                sum(1 for record in records if record.values[1] >= 3),
            )
    return counts


def count_queries(version: str) -> tuple[str, str]:
    base = f"SELECT COUNT(*) FROM R WHERE R.Version = '{version}'"
    return base, base + " AND R.c1 >= 3"


def pool_lookups(db) -> int:
    stats = db.buffer_pool.stats
    return stats.hits + stats.misses


def check_counts(db, versions, run) -> None:
    """``run(sql)`` answers every count; bare counts read no page."""
    for version, (total, matching) in expected_counts(db, versions).items():
        bare, filtered = count_queries(version)
        before = pool_lookups(db)
        assert run(bare) == [(total,)]
        assert pool_lookups(db) == before, f"COUNT(*) of {version} read pages"
        assert run(filtered) == [(matching,)]


def test_embedded(loaded):
    db, versions = loaded
    check_counts(db, versions, lambda sql: db.query(sql).rows)


def test_snapshot(loaded):
    db, versions = loaded
    with db.snapshot() as snapshot:
        check_counts(db, versions, lambda sql: snapshot.database.query(sql).rows)


def test_served(loaded):
    db, versions = loaded
    server = ServerThread(db, ServerConfig(worker_threads=2))
    host, port = server.start()
    try:
        with DecibelClient(host, port) as client:
            client.connect()
            check_counts(
                db, versions, lambda sql: [tuple(r) for r in client.query(sql).rows]
            )
    finally:
        server.stop()


def test_count_matches_grouped_and_multi_aggregate_forms(loaded):
    db, versions = loaded
    total, matching = expected_counts(db, versions)["dev"]
    result = db.query("SELECT COUNT(*), COUNT(*) FROM R WHERE R.Version = 'dev'")
    assert result.rows == [(total, total)]
    # Anything but bare count(*) still folds the rows.
    result = db.query(
        "SELECT COUNT(*), MAX(R.c1) FROM R WHERE R.Version = 'dev' AND R.c1 >= 3"
    )
    assert result.rows == [(matching, 9)]
    result = db.query(
        "SELECT R.c1, COUNT(*) FROM R WHERE R.Version = 'dev' AND R.c1 >= 9 "
        "GROUP BY R.c1"
    )
    assert result.rows == [(9, 75)]


def test_empty_branch_counts_zero(tmp_path):
    db = Decibel(str(tmp_path / "db"))
    relation = db.create_relation("R", Schema.of_ints(2))
    relation.init([])
    try:
        assert db.query(
            "SELECT COUNT(*) FROM R WHERE R.Version = 'master'"
        ).rows == [(0,)]
    finally:
        db.close()


def test_filtered_count_scans_only_the_key_column(loaded, monkeypatch):
    db, versions = loaded
    engine = db.relation("R").engine
    projections = []
    for name in ("scan_branch_columns", "scan_commit_columns"):
        scan = getattr(engine, name)

        def spy(*args, scan=scan, **kwargs):
            projections.append(kwargs.get("columns"))
            return scan(*args, **kwargs)

        monkeypatch.setattr(engine, name, spy)
    for version in ("dev", versions["dev"]):
        db.query(count_queries(version)[1])
    assert projections == [("id",), ("id",)]
