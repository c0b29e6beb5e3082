"""The versioned index subsystem, end to end.

Four layers under test:

* **Equivalence** -- a hypothesis-driven workload model checks that
  index-backed queries and full scans agree after arbitrary
  insert / update / delete / branch / merge interleavings, on all three
  engines (the index is an access path, never a second source of truth).
* **Persistence** -- pk maps are derived data: nothing is written under
  ``index/``, a reopened branch rebuilds its map on first touch, and lazy
  registration means an untouched branch costs nothing at open.
* **Planning** -- the optimizer rewrites selective scans to
  :class:`IndexScan` (visible as ``[index]`` in EXPLAIN) only when the
  index covers the driving term, and the rewrite is toggleable.
* **Verification** -- seeded violations of the index coverage rules are
  caught by the plan verifier with actionable messages.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import PlanInvariantError, verify_plan
from repro.core.record import Record
from repro.core.schema import Schema
from repro.db.database import Decibel
from repro.errors import SchemaError
from repro.query.executor import explain_query, plan_query
from repro.query.logical import IndexScan
from repro.query.optimizer import (
    INDEX_SELECTIVITY_THRESHOLD,
    index_selection_enabled,
    set_index_selection,
)

SCHEMA = Schema.of_ints(3)  # id, c1, c2


def record(key, c1=0, c2=0):
    return Record((key, c1, c2))


@pytest.fixture
def no_index_selection():
    """Disable the optimizer's index-scan rewrite for one test."""
    set_index_selection(False)
    try:
        yield
    finally:
        set_index_selection(True)


def rows_for(db, sql):
    return sorted(tuple(row) for row in db.query(sql).rows)


def both_arms(db, sql):
    """(full-scan rows, index-enabled rows) for the same SQL."""
    set_index_selection(False)
    try:
        full = rows_for(db, sql)
    finally:
        set_index_selection(True)
    return full, rows_for(db, sql)


def make_db(directory, engine, *, rows=50, distinct=10, indexes=("c1",)):
    db = Decibel(str(directory), engine=engine)
    relation = db.create_relation("R", SCHEMA, indexes=indexes)
    relation.init(
        [record(i, i % distinct, i * 10) for i in range(rows)]
    )
    return db


ENGINES = ["tuple-first", "version-first", "hybrid"]


# -- equivalence: index-backed answers == full scans --------------------------

workload_steps = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "branch", "merge"]),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=8,
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=workload_steps)
@pytest.mark.parametrize("engine", ENGINES)
def test_index_equals_scan_under_workloads(tmp_path_factory, engine, steps):
    """Indexed queries agree with full scans and the engine's own scan API.

    Ground truth comes from :meth:`VersionedRelation.scan` (the raw engine
    scan, no query pipeline), so a bug shared by both query arms cannot
    hide: merge semantics themselves are covered by the engine-equivalence
    and diff/conflict suites.  The checks run after a close and reopen, so
    every pk map they use is one rebuilt from storage.
    """
    directory = tmp_path_factory.mktemp("db")
    db = Decibel(str(directory), engine=engine)
    rel = db.create_relation("R", SCHEMA, indexes=("c1",))
    rel.init([record(i, i % 4, i * 10) for i in range(10)])
    branches = ["master"]
    manager = db.transactions("R")

    def present(branch, key):
        return any(r.values[0] == key for r in rel.scan(branch))

    for action, key, payload in steps:
        branch = branches[key % len(branches)]
        if action == "branch":
            name = f"b{len(branches)}"
            rel.branch(name, from_branch=branch)
            branches.append(name)
            continue
        if action == "merge":
            source = branches[payload % len(branches)]
            if source != branch:
                rel.merge(branch, source)
            continue
        txn = manager.begin()
        if action == "insert" and not present(branch, key):
            txn.insert(branch, record(key, payload % 4, payload))
        elif action == "update" and present(branch, key):
            txn.update(branch, record(key, payload % 4, payload))
        elif action == "delete" and present(branch, key):
            txn.delete(branch, key)
        txn.commit()

    # Reopen: every pk map below is rebuilt from storage on first touch and
    # must match the engine's reference scan exactly.
    db.close()
    db = Decibel.open(str(directory), engine=engine)
    rel = db.relation("R")
    storage = rel.engine
    for name in branches:
        expected = {r.values[0]: r.values for r in storage.scan_branch(name)}
        assert sorted(storage.pk_index.keys(name)) == sorted(expected)
        for key, values in expected.items():
            assert storage.record_for_key(name, key).values == values

    for name in branches:
        truth = {r.values[0]: tuple(r.values) for r in rel.scan(name)}
        # Primary-key point lookups: every live key answers exactly its
        # row; misses (997 never inserted) answer nothing.
        for key in sorted(set(truth) | {997}):
            sql = (
                f"SELECT * FROM R WHERE R.Version = '{name}' AND R.id = {key}"
            )
            full, indexed = both_arms(db, sql)
            expected = [truth[key]] if key in truth else []
            assert indexed == full == expected
        # Secondary equality and range: arms agree with each other and
        # with the raw scan.
        for op, match in (
            ("=", lambda c1: c1 == 2),
            ("<", lambda c1: c1 < 2),
        ):
            sql = (
                f"SELECT * FROM R WHERE R.Version = '{name}' "
                f"AND R.c1 {op} 2"
            )
            full, indexed = both_arms(db, sql)
            expected = sorted(
                row for row in truth.values() if match(row[1])
            )
            assert indexed == full == expected


# -- persistence: nothing persisted, lazy rebuilds ---------------------------

class TestPersistence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_reopen_writes_no_index_files(self, tmp_path, engine):
        db = make_db(tmp_path, engine)
        db.relation("R").branch("dev", from_branch="master")
        txn = db.transactions("R").begin()
        txn.insert("dev", record(500, 1, 1))
        txn.commit("dev write")
        db.close()
        reopened = Decibel.open(str(tmp_path), engine=engine)
        for branch, key, row in (
            ("master", 7, (7, 7, 70)),
            ("dev", 500, (500, 1, 1)),
        ):
            rows = reopened.query(
                f"SELECT * FROM R WHERE R.Version = '{branch}' AND R.id = {key}"
            ).rows
            assert [tuple(r) for r in rows] == [row]
        reopened.close()
        Decibel.open(str(tmp_path), engine=engine).close()
        assert not os.path.exists(tmp_path / "R" / "index")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_first_touch_rebuilds_once(self, tmp_path, engine):
        db = make_db(tmp_path, engine)
        db.relation("R").branch("dev", from_branch="master")
        db.close()
        reopened = Decibel.open(str(tmp_path), engine=engine)
        pk = reopened.relation("R").engine.index_hook.pk
        rebuilt = []
        hydrate = pk._hydrator

        def counting(branch):
            rebuilt.append(branch)
            return hydrate(branch)

        pk._hydrator = counting
        for key in (7, 8, 49):
            rows = reopened.query(
                f"SELECT * FROM R WHERE R.Version = 'master' AND R.id = {key}"
            ).rows
            assert [tuple(r) for r in rows] == [(key, key % 10, key * 10)]
        assert rebuilt == ["master"], "the rebuilt map was not cached"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_leftover_index_files_are_ignored(self, tmp_path, engine):
        """Index files left by an older layout never feed a pk map."""
        db = make_db(tmp_path, engine)
        db.close()
        index_dir = tmp_path / "R" / "index"
        index_dir.mkdir()
        leftovers = {
            index_dir / "pk_master_0.json": b'{"entries": {"7": 0, "999": 1}}',
            index_dir / "pk_master_0.log": b"garbage!",
        }
        for path, data in leftovers.items():
            path.write_bytes(data)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        rows = reopened.query(
            "SELECT * FROM R WHERE R.Version = 'master' AND R.id = 7"
        ).rows
        assert [tuple(r) for r in rows] == [(7, 7, 70)]
        assert reopened.query(
            "SELECT * FROM R WHERE R.Version = 'master' AND R.id = 999"
        ).rows == []
        storage = reopened.relation("R").engine
        assert sorted(storage.pk_index.keys("master")) == list(range(50))
        reopened.close()
        for path, data in leftovers.items():
            assert path.read_bytes() == data

    @pytest.mark.parametrize("engine", ENGINES)
    def test_open_does_not_hydrate_untouched_branches(self, tmp_path, engine):
        db = make_db(tmp_path, engine)
        db.relation("R").branch("dev", from_branch="master")
        db.close()
        reopened = Decibel.open(str(tmp_path), engine=engine)
        hook = reopened.relation("R").engine.index_hook
        assert not hook.pk.branch_loaded("master")
        assert not hook.pk.branch_loaded("dev")
        # Touching master hydrates master only.
        reopened.query("SELECT * FROM R WHERE R.Version = 'master' AND R.id = 1")
        assert hook.pk.branch_loaded("master")
        assert not hook.pk.branch_loaded("dev")


# -- planning: the [index] rewrite and its gating -----------------------------

class TestPlanning:
    @pytest.fixture
    def db(self, tmp_path):
        # c1 cycles 0..9 over 200 rows: 5% per value, under the threshold;
        # c2 is not indexed.
        database = Decibel(str(tmp_path / "db"), engine="hybrid")
        relation = database.create_relation("R", SCHEMA, indexes=("c1",))
        relation.init([record(i, i % 10, i % 2) for i in range(200)])
        return database

    def test_pk_point_query_uses_index(self, db):
        plan = explain_query(
            db, "SELECT * FROM R WHERE R.Version = 'master' AND R.id = 7"
        )
        assert "[index]" in plan
        assert "IndexScan" in plan

    def test_secondary_equality_and_range_use_index(self, db):
        for op in ("=", "<"):
            plan = explain_query(
                db,
                f"SELECT * FROM R WHERE R.Version = 'master' AND R.c1 {op} 1",
            )
            assert "[index]" in plan, f"c1 {op} 1 lost its index scan"

    def test_non_indexed_column_scans(self, db):
        plan = explain_query(
            db, "SELECT * FROM R WHERE R.Version = 'master' AND R.c2 = 1"
        )
        assert "[index]" not in plan

    def test_unselective_predicate_scans(self, db):
        # Every second row matches c2 = 1; even if c2 were indexed the
        # fraction (0.5) exceeds the threshold.  Index c2 and check the
        # optimizer still declines.
        db.create_index("R", "c2")
        plan = explain_query(
            db, "SELECT * FROM R WHERE R.Version = 'master' AND R.c2 = 1"
        )
        assert "[index]" not in plan
        assert INDEX_SELECTIVITY_THRESHOLD < 0.5

    def test_toggle_disables_rewrite(self, db, no_index_selection):
        assert not index_selection_enabled()
        plan = explain_query(
            db, "SELECT * FROM R WHERE R.Version = 'master' AND R.id = 7"
        )
        assert "[index]" not in plan

    def test_index_scan_results_match_full_scan(self, db):
        for sql in (
            "SELECT * FROM R WHERE R.Version = 'master' AND R.id = 7",
            "SELECT * FROM R WHERE R.Version = 'master' AND R.c1 = 3",
            "SELECT id, c2 FROM R WHERE R.Version = 'master' AND R.c1 < 2",
            "SELECT * FROM R WHERE R.Version = 'master' AND R.c1 = 3 "
            "AND R.c2 = 1",
        ):
            full, indexed = both_arms(db, sql)
            assert indexed == full

    def test_create_index_is_idempotent_and_durable(self, tmp_path):
        db = make_db(tmp_path, "hybrid", indexes=())
        plan = explain_query(
            db, "SELECT * FROM R WHERE R.Version = 'master' AND R.c1 = 3"
        )
        assert "[index]" not in plan
        db.create_index("R", "c1")
        db.create_index("R", "c1")  # second declaration is a no-op
        plan = explain_query(
            db, "SELECT * FROM R WHERE R.Version = 'master' AND R.c1 = 3"
        )
        assert "[index]" in plan
        db.close()
        # The declaration rides in the catalog: a cold open still plans
        # index scans without re-declaring.
        reopened = Decibel.open(str(tmp_path), engine="hybrid")
        plan = explain_query(
            reopened,
            "SELECT * FROM R WHERE R.Version = 'master' AND R.c1 = 3",
        )
        assert "[index]" in plan

    def test_unknown_column_is_rejected(self, tmp_path):
        db = make_db(tmp_path, "hybrid", indexes=())
        with pytest.raises(SchemaError):
            db.create_index("R", "nope")

    def test_unindexable_column_type_is_rejected(self):
        from repro.core.schema import Column, ColumnType
        from repro.index.maintenance import IndexMaintenance

        schema = Schema(
            (Column("id", ColumnType.INT), Column("score", ColumnType.FLOAT))
        )
        hook = IndexMaintenance(schema)
        with pytest.raises(SchemaError):
            hook.declare("score")


# -- verification: seeded violations of the coverage rules --------------------

class TestVerifierCoverage:
    @pytest.fixture
    def db(self, tmp_path):
        database = Decibel(str(tmp_path / "db"), engine="hybrid")
        relation = database.create_relation("R", SCHEMA, indexes=("c1",))
        relation.init([record(i, i % 10, i % 2) for i in range(200)])
        return database

    def _index_plan(self, db, sql):
        plan = plan_query(db, sql)
        node = self._find(plan, IndexScan)
        return plan, node

    @staticmethod
    def _find(plan, node_type):
        if isinstance(plan, node_type):
            return plan
        for child in plan.children:
            try:
                return TestVerifierCoverage._find(child, node_type)
            except LookupError:
                continue
        raise LookupError(f"no {node_type.__name__} in plan")

    def test_clean_index_plans_verify(self, db):
        for sql in (
            "SELECT * FROM R WHERE R.Version = 'master' AND R.id = 7",
            "SELECT * FROM R WHERE R.Version = 'master' AND R.c1 < 2",
        ):
            plan, _ = self._index_plan(db, sql)
            verify_plan(plan)

    def test_scan_on_non_indexed_column_rejected(self, db):
        plan, node = self._index_plan(
            db, "SELECT * FROM R WHERE R.Version = 'master' AND R.c1 = 3"
        )
        node.index_column = "c2"
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "rewrite-legality"
        assert "no index exists" in exc.value.detail

    def test_unsupported_operator_rejected(self, db):
        plan, node = self._index_plan(
            db, "SELECT * FROM R WHERE R.Version = 'master' AND R.id = 7"
        )
        node.op = "<"  # the pk hash index answers equality only
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "rewrite-legality"
        assert "cannot answer operator" in exc.value.detail

    def test_unknown_branch_rejected(self, db):
        plan, node = self._index_plan(
            db, "SELECT * FROM R WHERE R.Version = 'master' AND R.id = 7"
        )
        node.version = "no-such-branch"
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "rewrite-legality"
        assert "not a branch" in exc.value.detail

    def test_driving_term_must_be_a_conjunct(self, db):
        plan, node = self._index_plan(
            db, "SELECT * FROM R WHERE R.Version = 'master' AND R.c1 = 3"
        )
        node.value = 999  # no longer matches any predicate conjunct
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "rewrite-legality"
        assert "driving term" in exc.value.detail


# -- projection pushdown ------------------------------------------------------

class TestProjectionPushdown:
    @pytest.fixture
    def db(self, tmp_path):
        database = Decibel(str(tmp_path / "db"), engine="hybrid")
        relation = database.create_relation("R", Schema.of_ints(5))
        relation.init(
            [Record((i, i % 3, i * 2, i * 3, i * 4)) for i in range(40)]
        )
        return database

    def test_narrow_select_prunes_scan_columns(self, db):
        plan = explain_query(
            db, "SELECT id, c1 FROM R WHERE R.Version = 'master'"
        )
        assert "[project]" in plan

    def test_pruned_results_match_wide_results(self, db):
        narrow = rows_for(
            db,
            "SELECT id, c1 FROM R WHERE R.Version = 'master' AND c2 > 10",
        )
        wide = rows_for(
            db, "SELECT * FROM R WHERE R.Version = 'master' AND c2 > 10"
        )
        assert narrow == sorted((row[0], row[1]) for row in wide)
