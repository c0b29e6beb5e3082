"""Tests for the static plan verifier (`repro.analysis.plan_check`).

Each invariant class gets at least one *seeded* violation: a real planner
plan is surgically corrupted the way a future planner/optimizer bug would
corrupt it, and the verifier must catch it with an actionable message
naming the rule and the node.  Clean plans from every query shape must pass
(the rest of the suite exercises that continuously, since the verifier is
default-on under pytest).
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    PlanInvariantError,
    default_verify,
    set_default_verify,
    verify_plan,
)
from repro.core.operators import Operator
from repro.core.predicates import ColumnPredicate
from repro.core.record import Record
from repro.core.schema import Schema
from repro.db.database import Decibel
from repro.errors import LiteralTypeError
from repro.query.executor import plan_query
from repro.query.logical import (
    BRANCH_COLUMN,
    Filter,
    HeadScan,
    Join,
    Limit,
    LogicalNode,
    Project,
    Sort,
    TopN,
    VersionDiff,
    VersionScan,
)
from repro.query.parser import ColumnComparison
from repro.query.physical import LimitOp, execute_plan


@pytest.fixture
def db(tmp_path):
    database = Decibel(str(tmp_path / "db"), engine="hybrid")
    relation = database.create_relation("R", Schema.of_ints(4))
    relation.init([Record((i, i % 5, i * 10, 0)) for i in range(50)])
    relation.branch("dev", from_branch="master")
    return database


def find(plan: LogicalNode, node_type: type) -> LogicalNode:
    """The first node of ``node_type`` in a pre-order walk of ``plan``."""
    if isinstance(plan, node_type):
        return plan
    for child in plan.children:
        try:
            return find(child, node_type)
        except LookupError:
            continue
    raise LookupError(f"no {node_type.__name__} in plan")


class TestCleanPlans:
    """Representative query shapes verify without error."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id, c1 FROM R WHERE R.Version = 'master'",
            "SELECT id FROM R WHERE R.Version = 'master' AND c2 > 100 "
            "ORDER BY c1 DESC LIMIT 5",
            "SELECT count(*), c1 FROM R WHERE R.Version = 'master' "
            "GROUP BY c1",
            "SELECT id FROM R WHERE HEAD(R.Version) = TRUE",
            "SELECT id FROM R WHERE R.Version = 'dev' AND id NOT IN "
            "(SELECT id FROM R WHERE R.Version = 'master')",
            "SELECT DISTINCT c1 FROM R WHERE R.Version = 'master'",
        ],
    )
    def test_planner_output_verifies(self, db, sql):
        verify_plan(plan_query(db, sql))


class TestSchemaPropagation:
    def test_ghost_projection_column(self, db):
        plan = plan_query(db, "SELECT id, c1 FROM R WHERE R.Version = 'master'")
        find(plan, Project).physical_columns[0] = "ghost"
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "schema-propagation"
        assert "'ghost'" in str(exc.value)
        assert "Project" in exc.value.node

    def test_sort_key_not_resolvable(self, db):
        plan = plan_query(
            db,
            "SELECT id FROM R WHERE R.Version = 'master' ORDER BY c1 LIMIT 3",
        )
        top_n = find(plan, TopN)
        top_n.keys[0] = ("missing", False)
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "schema-propagation"
        assert "'missing'" in str(exc.value)

    def test_scan_predicate_ghost_column(self, db):
        plan = plan_query(db, "SELECT id FROM R WHERE R.Version = 'master'")
        find(plan, VersionScan).attach_predicate(
            ColumnPredicate("ghost", "=", 1)
        )
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "schema-propagation"
        assert "ghost" in str(exc.value)

    def test_aggregate_schema_drift(self, db):
        plan = plan_query(
            db,
            "SELECT count(*), c1 FROM R WHERE R.Version = 'master' "
            "GROUP BY c1",
        )
        from repro.query.logical import Aggregate

        aggregate = find(plan, Aggregate)
        # Simulate a planner bug that drops a grouping column from group_by
        # after the schema was built.
        aggregate.group_by.clear()
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "schema-propagation"
        assert "grouping" in str(exc.value)

    def test_limit_negative(self, db):
        plan = plan_query(
            db, "SELECT id FROM R WHERE R.Version = 'master' LIMIT 3"
        )
        # LIMIT over an unsorted scan stays a plain Limit node.
        find(plan, Limit).n = -1
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "schema-propagation"


class TestTypeCompat:
    def test_scan_predicate_type_mismatch(self, db):
        plan = plan_query(db, "SELECT id FROM R WHERE R.Version = 'master'")
        find(plan, VersionScan).attach_predicate(
            ColumnPredicate("c1", "=", "not-a-number")
        )
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "type-compat"
        assert "'not-a-number'" in str(exc.value)
        assert "str" in str(exc.value)

    def test_filter_term_type_mismatch(self, db):
        plan = plan_query(db, "SELECT id, c1 FROM R WHERE R.Version = 'master'")
        project = find(plan, Project)
        scan = project.children[0]
        project.children[0] = Filter(
            scan, [ColumnComparison(None, "c1", "=", "oops")]
        )
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "type-compat"
        assert "Filter" in exc.value.node


MISTYPED = [
    "SELECT * FROM R WHERE R.Version = 'master' AND R.id = 'x'",
    "SELECT * FROM R WHERE R.Version = 'master' AND R.c1 < 'x'",
    "SELECT id FROM R WHERE R.Version = 'master' AND R.c3 = true",
    "SELECT * FROM R WHERE R.Version = 'dev' AND R.id NOT IN "
    "(SELECT id FROM R WHERE R.Version = 'master' AND R.c2 = 'x')",
]


@pytest.mark.parametrize("engine", ["hybrid", "tuple-first", "version-first"])
@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("sql", MISTYPED)
def test_mistyped_literal_is_rejected_while_lowering(tmp_path, engine, verify, sql):
    """Verification on or off, a literal of the wrong type raises one
    structured error before any plan exists (the type-compat check above
    stays the backstop for a planner that builds such a predicate)."""
    database = Decibel(str(tmp_path / "db"), engine=engine)
    relation = database.create_relation("R", Schema.of_ints(4))
    relation.init([Record((i, i % 5, i * 10, 0)) for i in range(50)])
    relation.branch("dev", from_branch="master")
    previous = default_verify()
    set_default_verify(verify)
    try:
        with pytest.raises(LiteralTypeError) as exc:
            database.query(sql)
    finally:
        set_default_verify(previous)
    assert exc.value.column_type == "int"
    assert exc.value.literal in ("x", True)
    assert "cast the literal" in str(exc.value)


class TestRewriteLegality:
    def test_top_n_under_filter_rejected(self, db):
        plan = plan_query(
            db,
            "SELECT id FROM R WHERE R.Version = 'master' ORDER BY c1 LIMIT 3",
        )
        top_n = find(plan, TopN)
        bad = Filter(top_n, [])
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(Project(bad, ["id"]))
        assert exc.value.rule == "rewrite-legality"
        assert "Limit-over-Sort" in str(exc.value)

    def test_sort_over_top_n_rejected(self, db):
        plan = plan_query(
            db,
            "SELECT id FROM R WHERE R.Version = 'master' ORDER BY c1 LIMIT 3",
        )
        top_n = find(plan, TopN)
        doubled = Sort(top_n, [("id", False)])
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(doubled)
        assert exc.value.rule == "rewrite-legality"

    def test_pushdown_must_not_capture_branch_column(self, db):
        plan = plan_query(db, "SELECT id FROM R WHERE HEAD(R.Version) = TRUE")
        find(plan, HeadScan).attach_predicate(
            ColumnPredicate(BRANCH_COLUMN, "=", 1)
        )
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "rewrite-legality"
        assert BRANCH_COLUMN in str(exc.value)

    def test_join_build_side_must_name_one_of_two_keyed_inputs(self, db):
        plan = plan_query(
            db,
            "SELECT * FROM R AS a, R AS b WHERE a.Version = 'master' AND "
            "b.Version = 'dev' AND a.id = b.id AND b.c1 < 2",
        )
        join = find(plan, Join)
        assert join.build == "right"
        verify_plan(plan)
        join.build = "both"
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "rewrite-legality"
        assert "build side 'both'" in str(exc.value)
        join.build = "left"
        join.children.append(join.left)
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "rewrite-legality"
        assert "3 inputs" in str(exc.value)
        join.children.pop()
        join.conditions = [("id", "ghost")]
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "schema-propagation"

    def test_diff_requires_primary_key(self, db):
        plan = plan_query(
            db,
            "SELECT id FROM R WHERE R.Version = 'dev' AND id NOT IN "
            "(SELECT id FROM R WHERE R.Version = 'master')",
        )
        diff = find(plan, VersionDiff)
        diff.key_column = "c1"
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "rewrite-legality"
        assert "primary key" in str(exc.value)

    def test_diff_requires_branch_heads(self, db):
        plan = plan_query(
            db,
            "SELECT id FROM R WHERE R.Version = 'dev' AND id NOT IN "
            "(SELECT id FROM R WHERE R.Version = 'master')",
        )
        diff = find(plan, VersionDiff)
        diff.outer = ("commit", diff.outer[1])
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "rewrite-legality"
        assert "branch heads" in str(exc.value)


class TestOperatorProtocol:
    def test_unmapped_node_rejected(self, db):
        class MysteryNode(LogicalNode):
            def label(self) -> str:
                return "Mystery()"

        plan = plan_query(db, "SELECT id FROM R WHERE R.Version = 'master'")
        scan = find(plan, VersionScan)
        mystery = MysteryNode([], scan.schema)
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(mystery)
        assert exc.value.rule == "operator-protocol"
        assert "NODE_OPERATORS" in str(exc.value)
        assert exc.value.node == "Mystery()"

    def test_operator_without_column_batches_rejected(self, db, monkeypatch):
        plan = plan_query(
            db, "SELECT id FROM R WHERE R.Version = 'master' LIMIT 3"
        )
        # Simulate a refactor deleting an operator's column_batches: the
        # plan would raise after rows started flowing through its children.
        monkeypatch.setattr(LimitOp, "column_batches", Operator.column_batches)
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        assert exc.value.rule == "operator-protocol"
        assert "column_batches" in str(exc.value)
        assert exc.value.node.startswith("Limit")


class TestWiring:
    def test_default_on_under_pytest(self):
        # tests/conftest.py flips the default on for the whole suite.
        assert default_verify() is True

    def test_execute_plan_verifies_by_default(self, db):
        plan = plan_query(db, "SELECT id, c1 FROM R WHERE R.Version = 'master'")
        find(plan, Project).physical_columns[0] = "ghost"
        with pytest.raises(PlanInvariantError):
            execute_plan(plan)

    def test_execute_plan_verify_false_opts_out(self, db):
        # A caller may explicitly skip verification (production hot path).
        plan = plan_query(db, "SELECT id, c1 FROM R WHERE R.Version = 'master'")
        result = execute_plan(plan, verify=False)
        assert len(result.rows) == 50

    def test_explain_always_verifies(self, db, monkeypatch):
        # EXPLAIN runs the verifier even when the ambient default is off.
        set_default_verify(False)
        try:
            monkeypatch.setattr(LimitOp, "column_batches", Operator.column_batches)
            with pytest.raises(PlanInvariantError) as exc:
                db.explain("SELECT id FROM R WHERE R.Version = 'master' LIMIT 3")
            assert exc.value.rule == "operator-protocol"
        finally:
            set_default_verify(True)

    def test_env_var_controls_default(self, monkeypatch):
        set_default_verify(None)
        try:
            monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
            assert default_verify() is False
            monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
            assert default_verify() is True
            monkeypatch.setenv("REPRO_VERIFY_PLANS", "false")
            assert default_verify() is False
        finally:
            set_default_verify(True)

    def test_error_is_structured_and_actionable(self, db):
        plan = plan_query(db, "SELECT id, c1 FROM R WHERE R.Version = 'master'")
        find(plan, Project).physical_columns[0] = "ghost"
        with pytest.raises(PlanInvariantError) as exc:
            verify_plan(plan)
        error = exc.value
        assert error.rule == "schema-propagation"
        assert error.node.startswith("Project")
        assert "ghost" in error.detail
        # The message names the available columns (pruned to the select
        # list by projection pushdown), so the fix is obvious.
        assert "id, c1" in error.detail
