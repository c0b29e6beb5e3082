"""The versioned index subsystem, end to end.

Four layers under test:

* **Equivalence** -- a hypothesis-driven workload model checks that
  index-backed queries and full scans agree after arbitrary
  insert / update / delete / branch / merge interleavings, on all three
  engines (the index is an access path, never a second source of truth).
* **Persistence** -- pk indexes are derived data: nothing is written under
  ``index/`` and a cold open builds nothing.  Every engine builds one
  key-copy index on the first pk lookup, whatever branch it names, holding
  one entry per stored copy however many branches exist; version-first
  also builds a branch's live bits on that branch's first touch.
* **Planning** -- the optimizer rewrites selective scans to
  :class:`IndexScan` (visible as ``[index]`` in EXPLAIN) only when the
  index covers the driving term, and the rewrite is toggleable.
* **Verification** -- seeded violations of the index coverage rules are
  caught by the plan verifier with actionable messages.
"""

from __future__ import annotations

import os
import sys
import threading

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


def assert_lookups_match_scan(storage, branch, probes):
    """Every live key of ``branch`` answers its scanned row through the pk
    index (point and batch fetch); every other probe key misses."""
    expected = {r.values[0]: r.values for r in storage.scan_branch(branch)}
    for key, values in expected.items():
        assert storage.branch_contains_key(branch, key)
        assert storage.record_for_key(branch, key).values == values
    for key in set(probes) - set(expected):
        assert not storage.branch_contains_key(branch, key)
        assert storage.record_for_key(branch, key) is None
    fetched = storage.records_for_keys(branch, sorted(set(probes) | set(expected)))
    assert sorted(r.values for r in fetched) == sorted(expected.values())


# -- equivalence: index-backed answers == full scans --------------------------

workload_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "update", "delete", "branch", "branch-old", "merge"]
        ),
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
    and diff/conflict suites.  Point lookups are checked against the scan
    before and after a close and reopen, so both the incrementally
    maintained index and the one rebuilt from storage are covered.
    """
    directory = tmp_path_factory.mktemp("db")
    db = Decibel(str(directory), engine=engine)
    rel = db.create_relation("R", SCHEMA, indexes=("c1",))
    rel.init([record(i, i % 4, i * 10) for i in range(10)])
    branches = ["master"]
    commits = [rel.graph.head("master")]
    manager = db.transactions("R")
    probes = set(range(25)) | {997}

    def present(branch, key):
        return any(r.values[0] == key for r in rel.scan(branch))

    for action, key, payload in steps:
        branch = branches[key % len(branches)]
        if action in ("branch", "branch-old"):
            name = f"b{len(branches)}"
            if action == "branch":
                rel.branch(name, from_branch=branch)
            else:
                # A historical commit: the restored-bitmap branch path.
                rel.branch(name, from_commit=commits[payload % len(commits)])
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
        commits.append(rel.graph.head(branch))

    for name in branches:
        assert_lookups_match_scan(rel.engine, name, probes)
    # Reopen: every pk index below is rebuilt from storage and must match
    # the engine's reference scan exactly.
    db.close()
    db = Decibel.open(str(directory), engine=engine)
    rel = db.relation("R")
    for name in branches:
        assert_lookups_match_scan(rel.engine, name, probes)

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

    def test_first_touch_rebuilds_once(self, tmp_path):
        """Version-first builds a reopened branch's live bits from the
        chain walk on the branch's first touch, and only then."""
        engine = "version-first"
        db = make_db(tmp_path, engine)
        db.relation("R").branch("dev", from_branch="master")
        db.close()
        reopened = Decibel.open(str(tmp_path), engine=engine)
        storage = reopened.relation("R").engine
        rebuilt = []
        build = storage._build_live_bits

        def counting(branch):
            rebuilt.append(branch)
            return build(branch)

        storage._build_live_bits = counting
        for key in (7, 8, 49):
            rows = reopened.query(
                f"SELECT * FROM R WHERE R.Version = 'master' AND R.id = {key}"
            ).rows
            assert [tuple(r) for r in rows] == [(key, key % 10, key * 10)]
        assert rebuilt == ["master"], "the built live bits were not cached"

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
        assert_lookups_match_scan(
            reopened.relation("R").engine, "master", set(range(60)) | {999}
        )
        reopened.close()
        for path, data in leftovers.items():
            assert path.read_bytes() == data

    def test_open_does_not_hydrate_untouched_branches(self, tmp_path):
        engine = "version-first"
        db = make_db(tmp_path, engine)
        db.relation("R").branch("dev", from_branch="master")
        db.close()
        reopened = Decibel.open(str(tmp_path), engine=engine)
        storage = reopened.relation("R").engine
        assert not storage.live_bits_built("master")
        assert not storage.live_bits_built("dev")
        # Touching master builds master's live bits only.
        reopened.query("SELECT * FROM R WHERE R.Version = 'master' AND R.id = 1")
        assert storage.live_bits_built("master")
        assert not storage.live_bits_built("dev")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_first_lookup_builds_key_index_once(self, tmp_path, engine):
        """Open builds nothing; the first lookup builds the key index once,
        and a lookup on another branch builds nothing new."""
        db = make_db(tmp_path, engine)
        db.relation("R").branch("dev", from_branch="master")
        db.close()
        reopened = Decibel.open(str(tmp_path), engine=engine)
        key_index = reopened.relation("R").engine.key_index
        assert not key_index.built and key_index.builds == 0
        for key in (7, 8, 49):
            rows = reopened.query(
                f"SELECT * FROM R WHERE R.Version = 'master' AND R.id = {key}"
            ).rows
            assert [tuple(r) for r in rows] == [(key, key % 10, key * 10)]
        assert key_index.builds == 1
        rows = reopened.query(
            "SELECT * FROM R WHERE R.Version = 'dev' AND R.id = 7"
        ).rows
        assert [tuple(r) for r in rows] == [(7, 7, 70)]
        assert key_index.builds == 1
        assert len(key_index) == 50

    @pytest.mark.parametrize("engine", ENGINES)
    def test_close_drops_key_index(self, tmp_path, engine):
        """A closed engine holds no key copies; a reopen answers the same
        and builds the index once, on its first lookup."""
        db = make_db(tmp_path, engine)
        relation = db.relation("R")
        relation.branch("dev", from_branch="master")
        relation.update("dev", record(7, 3, 777))
        relation.delete("dev", 8)
        relation.insert("dev", record(99, 9, 990))
        relation.commit("dev", "edits")
        queries = [
            f"SELECT * FROM R WHERE R.Version = '{branch}' AND R.id = {key}"
            for branch in ("master", "dev")
            for key in (7, 8, 49, 99)
        ] + ["SELECT * FROM R WHERE R.Version = 'dev'"]

        def answers(database) -> list:
            return [
                sorted(tuple(r) for r in database.query(sql).rows)
                for sql in queries
            ]

        before = answers(db)
        assert before[4:6] == [[(7, 3, 777)], []]  # dev's 7 and 8
        key_index = relation.engine.key_index
        assert key_index.built
        db.close()
        assert not key_index.built
        reopened = Decibel.open(str(tmp_path), engine=engine)
        key_index = reopened.relation("R").engine.key_index
        assert answers(reopened) == before
        assert key_index.builds == 1


# -- the key-copy index -------------------------------------------------------

def stored_copies(storage):
    """Number of records an engine physically stores (tombstones included)."""
    if hasattr(storage, "heap"):
        return storage.heap.num_records
    return sum(segment.record_count for segment in storage.segments.all())


class TestKeyCopyIndex:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_merged_copy_survives_source_update(self, tmp_path, engine):
        """A merge shares the source's copy of key 60 with the target
        (version-first writes a copy of it instead); the source then updates
        60 again, into the same head segment.  Each branch must keep
        answering its own copy, before and after reopen."""
        db = make_db(tmp_path, engine, indexes=())
        rel = db.relation("R")
        rel.branch("dev", from_branch="master")
        manager = db.transactions("R")
        txn = manager.begin()
        txn.insert("dev", record(60, 1, 100))
        txn.commit()
        rel.merge("master", "dev")
        shared = rel.engine.key_location("dev", 60)
        merged = rel.engine.key_location("master", 60)
        assert (merged != shared) if engine == "version-first" else (merged == shared)
        txn = manager.begin()
        txn.update("dev", record(60, 2, 200))
        txn.commit()
        if engine != "tuple-first":
            assert rel.engine.key_location("dev", 60)[0] == shared[0]
        for current in (db, None):
            if current is None:
                db.close()
                current = Decibel.open(str(tmp_path), engine=engine)
            for branch, row in (("master", (60, 1, 100)), ("dev", (60, 2, 200))):
                rows = current.query(
                    f"SELECT * FROM R WHERE R.Version = '{branch}' AND R.id = 60"
                ).rows
                assert [tuple(r) for r in rows] == [row]
                assert current.relation("R").engine.record_for_key(
                    branch, 60
                ).values == row

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_entry_per_stored_copy(self, tmp_path, engine):
        """Forks add no entries, and after a reopen that touches every one
        of 64 branches the index holds exactly one entry per stored copy."""
        db = make_db(tmp_path, engine, rows=2000, indexes=())
        rel = db.relation("R")
        key_index = rel.engine.key_index
        assert len(key_index) == 2000
        branches = [f"b{i}" for i in range(64)]
        for name in branches:
            rel.branch(name, from_branch="master")
        assert len(key_index) == 2000
        # Eight branches update key 0: eight more stored copies of one key.
        for name in branches[:8]:
            txn = db.transactions("R").begin()
            txn.update(name, record(0, 1, -1))
            txn.commit()
        assert len(key_index) == stored_copies(rel.engine) == 2008
        db.close()
        reopened = Decibel.open(str(tmp_path), engine=engine)
        storage = reopened.relation("R").engine
        for i, name in enumerate(["master"] + branches):
            key = i * 31
            rows = reopened.query(
                f"SELECT * FROM R WHERE R.Version = '{name}' AND R.id = {key}"
            ).rows
            assert [tuple(r) for r in rows] == [(key, key % 10, key * 10)]
            assert storage.record_for_key(name, 0).values[2] == (
                -1 if name in branches[:8] else 0
            )
        assert storage.key_index.builds == 1
        assert len(storage.key_index) == stored_copies(storage) == 2008

    @pytest.mark.parametrize("engine", ENGINES)
    def test_lazy_build_races_writers(self, tmp_path, engine):
        """Readers that trigger the first build while writers append (under
        the engine's write mutex) never lose a copy."""
        db = make_db(tmp_path, engine, rows=500, indexes=())
        db.close()
        db = Decibel.open(str(tmp_path), engine=engine)
        storage = db.relation("R").engine
        errors = []

        def writer(base):
            try:
                for key in range(base, base + 40):
                    with storage.write_mutex:
                        storage.insert("master", record(key))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        def reader():
            try:
                for key in range(0, 500, 7):
                    assert storage.branch_contains_key("master", key)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(1000 + 100 * i,))
            for i in range(3)
        ] + [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert storage.key_index.builds == 1
        for i in range(3):
            for key in range(1000 + 100 * i, 1040 + 100 * i):
                assert storage.branch_contains_key("master", key)
        assert len(storage.key_index) == stored_copies(storage) == 620


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
