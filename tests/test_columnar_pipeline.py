"""End-to-end columnar execution, checked against a plain-Python oracle.

Every query runs through one columnar path, so its results are checked
against an independent reference: plain Python over the rows of the
engines' ``scan_branch`` reference scans (grouped by content for HEAD()).  These tests
drive the full planner query suite through all three engines, check the
engine-level column scans (branch heads and commits) against the row scans
directly, and pin the single-path wiring (no mode arguments, no mode tags).
"""

from __future__ import annotations

import inspect
from collections import defaultdict

import pytest

from repro.analysis import PlanInvariantError, verify_plan
from repro.core.operators import Operator
from repro.core.predicates import And, ColumnPredicate, ModuloPredicate
from repro.core.record import Record
from repro.core.schema import Schema
from repro.db.database import Decibel
from repro.query.executor import plan_query
from repro.query.physical import LimitOp, build_physical, execute_plan
from tests.conftest import ENGINE_CLASSES, SMALL_PAGE_SIZE, heads_oracle
from tests.test_engine_equivalence import PLANNER_QUERIES, build_databases

ID, C1, C2, C3 = range(4)


def _grouped(rows, key):
    groups = defaultdict(list)
    for row in rows:
        groups[row[key]].append(row)
    return sorted(groups.items())


def _avg(values):
    return sum(values) / len(values)


#: Plain-Python reference per planner query: ``(reference, ordered)``.  The
#: reference maps the master rows, the dev rows and the annotated head-scan
#: pairs to the expected result rows (``(row, branches)`` pairs for HEAD()
#: queries); ``ordered`` is set when the query's ORDER BY fixes the order.
REFERENCES = {
    PLANNER_QUERIES[0]: (
        lambda master, dev, heads: [
            (
                len(master),
                sum(r[C1] for r in master),
                min(r[C2] for r in master),
                max(r[C2] for r in master),
            )
        ],
        True,
    ),
    PLANNER_QUERIES[1]: (
        lambda master, dev, heads: [
            (key, len(group)) for key, group in _grouped(dev, C1)
        ],
        True,
    ),
    PLANNER_QUERIES[2]: (
        lambda master, dev, heads: sorted(
            (
                (key, _avg([r[C2] for r in group]))
                for key, group in _grouped([r for r in master if r[C2] > 100], C1)
            ),
            key=lambda row: (-row[1], row[0]),
        ),
        True,
    ),
    PLANNER_QUERIES[3]: (
        lambda master, dev, heads: [
            (r[ID], r[C1]) for r in sorted(master, key=lambda r: (-r[C1], r[ID]))
        ][:7],
        True,
    ),
    PLANNER_QUERIES[4]: (
        lambda master, dev, heads: [
            (r[ID],) for r in sorted(dev, key=lambda r: (-r[C1], r[ID]))
        ],
        True,
    ),
    PLANNER_QUERIES[5]: (
        lambda master, dev, heads: [
            (r[ID],) for r in sorted(dev, key=lambda r: (-r[C2], r[ID]))
        ][:9],
        True,
    ),
    PLANNER_QUERIES[6]: (
        lambda master, dev, heads: [(None, None, None, None, 0)],
        True,
    ),
    PLANNER_QUERIES[7]: (
        lambda master, dev, heads: [(c1,) for c1 in sorted({r[C1] for r in dev})],
        True,
    ),
    PLANNER_QUERIES[8]: (
        lambda master, dev, heads: [
            a + b
            for a in dev
            if a[C2] > 50
            for b in master
            if a[ID] == b[ID] and a[C1] == b[C1]
        ],
        False,
    ),
    PLANNER_QUERIES[9]: (
        lambda master, dev, heads: [
            r for r in dev if r[ID] not in {m[ID] for m in master}
        ],
        False,
    ),
    PLANNER_QUERIES[10]: (
        lambda master, dev, heads: [
            ((values[ID],), branches)
            for values, branches in heads
            if values[C1] >= 200
        ],
        False,
    ),
}


def _normalized(pairs):
    """``(row, branches)`` pairs in a canonical order."""
    return sorted((row, tuple(sorted(branches))) for row, branches in pairs)


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    return build_databases(tmp_path_factory.mktemp("planner"))


def _reference_inputs(db):
    engine = db.relation("R").engine
    master = [r.values for r in engine.scan_branch("master")]
    dev = [r.values for r in engine.scan_branch("dev")]
    heads = list(heads_oracle(engine).items())
    return master, dev, heads


class TestPlannerOracle:
    """Every planner query, on every engine, matches plain Python."""

    def test_every_planner_query_has_a_reference(self):
        assert set(REFERENCES) == set(PLANNER_QUERIES)

    @pytest.mark.parametrize("kind", sorted(ENGINE_CLASSES))
    @pytest.mark.parametrize("index", range(len(PLANNER_QUERIES)))
    def test_query_matches_reference(self, databases, kind, index):
        sql = PLANNER_QUERIES[index]
        reference, ordered = REFERENCES[sql]
        db = databases[kind]
        expected = reference(*_reference_inputs(db))
        result = db.query(sql)
        if result.branch_annotations:
            got = list(zip(result.rows, result.branch_annotations))
            assert _normalized(got) == _normalized(expected)
            return
        if ordered:
            assert result.rows == expected
        else:
            assert sorted(result.rows) == sorted(expected)

    @pytest.mark.parametrize("kind", sorted(ENGINE_CLASSES))
    def test_head_annotations_match_head_scan(self, databases, kind):
        db = databases[kind]
        _, _, heads = _reference_inputs(db)
        result = db.query("SELECT id FROM R WHERE HEAD(R.Version) = true")
        assert len(result.branch_annotations) == len(result.rows)
        got = list(zip(result.rows, result.branch_annotations))
        expected = [((values[ID],), branches) for values, branches in heads]
        assert _normalized(got) == _normalized(expected)


class TestEngineColumnScans:
    """scan_branch_columns / scan_commit_columns mirror the row scans."""

    @pytest.fixture
    def branched_engine(self, engine, records):
        engine.init(records, message="initial")
        engine.create_branch("dev", from_branch="master")
        for key in range(100, 112):
            engine.insert("dev", Record((key, key * 10, key * 100, 7)))
        for key in (2, 5, 11):
            engine.update("dev", Record((key, -key, -key, -key)))
        for key in (3, 8):
            engine.delete("dev", key)
        engine.commit("dev", "dev work")
        return engine

    def rows_of(self, batches):
        return [row for batch in batches for row in batch.rows()]

    @pytest.mark.parametrize("branch", ["master", "dev"])
    def test_unfiltered_scan_matches_rows(self, branched_engine, branch):
        expected = [
            record.values for record in branched_engine.scan_branch(branch)
        ]
        got = self.rows_of(branched_engine.scan_branch_columns(branch))
        assert got == expected  # same rows, same order as the row scan

    @pytest.mark.parametrize(
        "predicate",
        [
            None,
            ColumnPredicate("c1", ">", 40),
            And(
                ColumnPredicate("c2", ">=", 0),
                ModuloPredicate("id", 3),
            ),
            ColumnPredicate("id", "=", 100000),  # matches nothing
        ],
        ids=["none", "range", "and-modulo", "empty"],
    )
    @pytest.mark.parametrize("branch", ["master", "dev"])
    def test_predicate_scan_matches_rows(
        self, branched_engine, branch, predicate
    ):
        expected = [
            record.values
            for record in branched_engine.scan_branch(branch, predicate)
        ]
        got = self.rows_of(
            branched_engine.scan_branch_columns(branch, predicate)
        )
        assert got == expected
        assert branched_engine.count_branch(branch, predicate) == len(expected)

    @pytest.mark.parametrize(
        "predicate",
        [None, ColumnPredicate("c1", "<", 60), ModuloPredicate("c2", 3)],
        ids=["none", "range", "modulo"],
    )
    @pytest.mark.parametrize("branch", ["master", "dev"])
    def test_commit_scan_matches_rows(self, branched_engine, branch, predicate):
        commit = branched_engine.graph.head(branch)
        # Uncommitted writes must stay invisible to the commit's scan.
        branched_engine.insert(branch, Record((500, 1, 1, 1)))
        expected = [
            record.values
            for record in branched_engine.scan_commit(commit, predicate)
        ]
        got = self.rows_of(branched_engine.scan_commit_columns(commit, predicate))
        assert got == expected
        assert branched_engine.count_commit(commit, predicate) == len(expected)
        pruned = branched_engine.scan_commit_columns(
            commit, predicate, columns=("id", "c2")
        )
        assert self.rows_of(pruned) == [(row[0], row[2]) for row in expected]

    @pytest.mark.parametrize("batch_size", [1, 3, 1024])
    def test_batch_size_does_not_change_contents(
        self, branched_engine, batch_size
    ):
        expected = [
            record.values for record in branched_engine.scan_branch("dev")
        ]
        got = self.rows_of(
            branched_engine.scan_branch_columns("dev", batch_size=batch_size)
        )
        assert got == expected

    def test_cold_scan_matches_warm(self, branched_engine):
        warm = self.rows_of(branched_engine.scan_branch_columns("dev"))
        branched_engine.drop_caches()
        cold = self.rows_of(branched_engine.scan_branch_columns("dev"))
        assert cold == warm


class TestCommitQueriesRunColumnar:
    """``Version = '<commit id>'`` queries never touch the row scan."""

    @pytest.mark.parametrize("kind", sorted(ENGINE_CLASSES))
    def test_commit_count_bypasses_scan_commit(self, tmp_path, kind, monkeypatch):
        db = Decibel(str(tmp_path / kind), engine=kind, page_size=SMALL_PAGE_SIZE)
        relation = db.create_relation("R", Schema.of_ints(4))
        relation.init(Record((key, key % 97, key, 0)) for key in range(300))
        relation.branch("dev", from_branch="master")
        for key in range(300, 340):
            relation.insert("dev", Record((key, key % 97, key, 1)))
        for key in range(0, 60, 3):
            relation.update("dev", Record((key, 200, key, 2)))
        for key in range(1, 40, 7):
            relation.delete("dev", key)
        commit = relation.commit("dev", "dev work")
        relation.insert("dev", Record((999, 1, 1, 1)))  # after the commit
        engine = db.relation("R").engine
        threshold = 50
        predicate = ColumnPredicate("c1", "<", threshold)

        before = engine.stats.records_scanned
        expected = sum(1 for _ in engine.scan_commit(commit, predicate))
        oracle_scanned = engine.stats.records_scanned - before
        assert 0 < expected < 340

        def row_scan(*args, **kwargs):
            raise AssertionError("commit queries must run the column scan")

        monkeypatch.setattr(engine, "scan_commit", row_scan)
        before = engine.stats.records_scanned
        result = db.query(
            f"SELECT count(*) FROM R WHERE R.Version = '{commit}' "
            f"AND c1 < {threshold}"
        )
        assert result.rows == [(expected,)]
        assert engine.stats.records_scanned - before == oracle_scanned
        # Only the predicate column is decoded for the count.
        assert "columns=[c1]) [project]" in db.explain(
            f"SELECT count(*) FROM R WHERE R.Version = '{commit}' "
            f"AND c1 < {threshold}"
        )


class TestSinglePath:
    def test_explain_carries_no_mode_tags(self, databases):
        out = databases["hybrid"].explain(
            "SELECT c1, count(id) FROM R WHERE R.Version = 'dev' "
            "GROUP BY c1 ORDER BY c1 LIMIT 3"
        )
        for tag in ("[columnar]", "[batched]", "[tuple]"):
            assert tag not in out
        assert "[top-n k=3]" in out

    def test_entry_points_take_no_mode_argument(self):
        assert list(inspect.signature(build_physical).parameters) == ["plan"]
        assert list(inspect.signature(execute_plan).parameters) == [
            "plan",
            "verify",
        ]
        assert list(inspect.signature(verify_plan).parameters) == ["plan"]

    def test_operator_without_column_path_fails_verification(
        self, databases, monkeypatch
    ):
        plan = plan_query(
            databases["hybrid"], "SELECT id FROM R WHERE R.Version = 'master' LIMIT 3"
        )
        monkeypatch.setattr(LimitOp, "column_batches", Operator.column_batches)
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "operator-protocol"
