"""Tests for the Decibel facade (catalog, relations, dataset-wide operations)."""

import pytest

from repro.core.record import Record
from repro.core.schema import Schema
from repro.db.database import Decibel
from repro.errors import StorageError
from repro.storage.base import StorageEngineKind
from repro.storage.hybrid import HybridEngine
from repro.storage.tuple_first import TupleFirstEngine

from tests.conftest import make_records


@pytest.fixture
def db(tmp_path):
    return Decibel(str(tmp_path / "db"), engine="hybrid", page_size=4096)


class TestRelationManagement:
    def test_create_and_reopen_relation(self, db, schema, tmp_path):
        relation = db.create_relation("R", schema)
        relation.init(make_records(5))
        db.flush()
        reopened = Decibel(str(tmp_path / "db"), page_size=4096)
        assert reopened.relations() == ["R"]
        info = reopened.catalog.relation("R")
        assert info.engine_kind == "hybrid"

    def test_engine_kind_per_relation(self, db, schema):
        hybrid_relation = db.create_relation("H", schema)
        tf_relation = db.create_relation("T", schema, engine="tuple-first")
        assert isinstance(hybrid_relation.engine, HybridEngine)
        assert isinstance(tf_relation.engine, TupleFirstEngine)

    def test_duplicate_relation_rejected(self, db, schema):
        db.create_relation("R", schema)
        with pytest.raises(StorageError):
            db.create_relation("R", schema)

    def test_drop_relation(self, db, schema):
        db.create_relation("R", schema)
        db.drop_relation("R")
        assert db.relations() == []
        with pytest.raises(StorageError):
            db.relation("R")

    def test_engine_kind_accepts_enum(self, tmp_path):
        db = Decibel(str(tmp_path / "enum"), engine=StorageEngineKind.VERSION_FIRST)
        assert db.default_engine_kind is StorageEngineKind.VERSION_FIRST

    def test_context_manager_flushes_to_disk(self, tmp_path, schema):
        with Decibel(str(tmp_path / "ctx"), page_size=4096) as db:
            relation = db.create_relation("R", schema)
            relation.init(make_records(3))
            data_dir = relation.engine.directory
        # Exiting flushed data files and the version graph to disk.
        import os

        assert os.path.exists(os.path.join(data_dir, "version_graph.log"))
        assert any(
            name.endswith(".seg") or name.endswith(".heap")
            for root, _, files in os.walk(data_dir)
            for name in files
        )
        # The catalog can be re-opened and still knows the relation's schema.
        reopened = Decibel(str(tmp_path / "ctx"), page_size=4096)
        assert reopened.catalog.relation("R").schema == schema


class TestVersionedRelationAPI:
    def test_full_workflow(self, db, schema):
        relation = db.create_relation("R", schema)
        relation.init(make_records(10))
        relation.branch("dev")
        relation.insert("dev", (100, 1, 2, 3))  # plain tuples are accepted
        relation.update("dev", Record((2, 9, 9, 9)))
        relation.delete("dev", 3)
        commit_id = relation.commit("dev", "dev work")
        assert relation.graph.head("dev") == commit_id
        diff = relation.diff("dev", "master")
        assert {r.values[0] for r in diff.positive} >= {100, 2}
        merge = relation.merge("master", "dev")
        assert merge.commit_id == relation.graph.head("master")
        master_keys = {r.values[0] for r in relation.scan("master")}
        assert 100 in master_keys and 3 not in master_keys

    def test_checkout(self, db, schema):
        relation = db.create_relation("R", schema)
        relation.init(make_records(4))
        commit_id = relation.commit("master")
        relation.insert("master", (50, 0, 0, 0))
        relation.commit("master")
        assert len(relation.checkout(commit_id)) == 4

    def test_session_integration(self, db, schema):
        relation = db.create_relation("R", schema)
        relation.init(make_records(4))
        session = relation.session("master")
        session.insert(Record((99, 0, 0, 0)))
        session.commit()
        assert 99 in {r.values[0] for r in relation.scan("master")}

    def test_scan_heads(self, db, schema):
        relation = db.create_relation("R", schema)
        relation.init(make_records(4))
        relation.branch("dev")
        relation.insert("dev", (77, 0, 0, 0))
        result = db.query("SELECT * FROM R WHERE HEAD(R.Version) = true")
        annotated = {
            row[0]: branches
            for row, branches in zip(result.rows, result.branch_annotations)
        }
        assert annotated[77] == {"dev"}
        assert annotated[0] == {"master", "dev"}


class TestDatasetWideOperations:
    def test_branch_and_commit_all(self, db, schema):
        first = db.create_relation("R", schema)
        second = db.create_relation("S", schema)
        first.init(make_records(3))
        second.init(make_records(3, start=10))
        db.branch_all("analysis", from_branch="master")
        first.insert("analysis", (100, 0, 0, 0))
        second.insert("analysis", (200, 0, 0, 0))
        commits = db.commit_all("analysis", "joint commit")
        assert set(commits) == {"R", "S"}
        assert 100 in {r.values[0] for r in first.scan("analysis")}
        assert 200 in {r.values[0] for r in second.scan("analysis")}
        # Master is untouched in both relations.
        assert 100 not in {r.values[0] for r in first.scan("master")}

    def test_shared_buffer_pool(self, db, schema):
        first = db.create_relation("R", schema)
        second = db.create_relation("S", schema)
        assert first.engine.buffer_pool is second.engine.buffer_pool

    @pytest.mark.parametrize("engine", ["tuple-first", "version-first", "hybrid"])
    def test_relations_never_read_each_others_pages(self, tmp_path, schema, engine):
        """Each relation's heap files share names with the other's (one
        directory per relation) and their pages share one pool: a full page
        of one must never be served for the other's."""
        db = Decibel(str(tmp_path / "db"), engine=engine, page_size=512)
        first = db.create_relation("R", schema)
        second = db.create_relation("S", schema)
        first.init(make_records(100, payload=1))
        second.init(make_records(100, payload=2))
        for relation, payload in ((first, 1), (second, 2)):
            rows = [r.values for r in relation.scan("master")]
            assert len(rows) == 100
            assert {values[3] for values in rows} == {payload}


class TestCloseProtocol:
    """Decibel.close(): idempotent, drain-safe, and strict afterwards."""

    def test_double_close_is_a_noop(self, db, schema):
        relation = db.create_relation("R", schema)
        relation.init(make_records(3))
        db.close()
        assert db.closed
        db.close()  # second close must not raise or re-close engines
        assert db.closed

    def test_operations_after_close_raise_database_closed(self, db, schema):
        from repro.errors import DatabaseClosedError

        relation = db.create_relation("R", schema)
        relation.init(make_records(3))
        db.close()
        with pytest.raises(DatabaseClosedError) as excinfo:
            db.query("SELECT COUNT(*) FROM R WHERE R.Version = 'master'")
        assert excinfo.value.code == "database-closed"
        with pytest.raises(DatabaseClosedError):
            db.snapshot()

    def test_close_drains_in_flight_queries(self, db, schema):
        import threading
        import time

        relation = db.create_relation("R", schema)
        relation.init(make_records(2000))
        results = []
        release = threading.Event()

        def slow_query():
            # Hold an operation open across the close() call.
            snap = db.snapshot()
            results.append("acquired")
            release.wait(timeout=10)
            result = snap.database.query(
                "SELECT COUNT(*) FROM R WHERE R.Version = 'master'"
            )
            snap.release()
            results.append(result.rows[0][0])

        t = threading.Thread(target=slow_query)
        t.start()
        while "acquired" not in results:
            time.sleep(0.005)
        closer = threading.Thread(target=lambda: db.close(drain_timeout_s=10.0))
        closer.start()
        time.sleep(0.05)
        # close() is waiting on the drain; new work is already refused.
        from repro.errors import DatabaseClosedError

        with pytest.raises(DatabaseClosedError):
            db.query("SELECT 1 FROM R WHERE R.Version = 'master'")
        release.set()
        t.join(timeout=10)
        closer.join(timeout=10)
        assert not closer.is_alive() and not t.is_alive()
        assert results[-1] == 2000
        assert db.closed

    def test_concurrent_closes_converge(self, db, schema):
        import threading

        relation = db.create_relation("R", schema)
        relation.init(make_records(3))
        threads = [threading.Thread(target=db.close) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert db.closed

    def test_context_manager_closes(self, tmp_path, schema):
        with Decibel(str(tmp_path / "cm"), engine="hybrid") as ctx_db:
            ctx_db.create_relation("R", schema).init(make_records(2))
        assert ctx_db.closed
