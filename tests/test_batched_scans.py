"""Multi-branch scans and the query pipeline, against an oracle.

The engines' ``scan_branches_batched`` (Query 4's source) must emit each
distinct record of the requested branches once, annotated with exactly the
branches holding it, as computed from per-branch ``scan_branch`` rows
(``scan_commit`` rows for pinned commits).  Every query-pipeline shape --
scans, commit scans, diffs, joins, head scans, grouping, ordering, distinct,
anti-joins -- must return what plain Python computes from the reference row
scans (``scan_branch`` / ``scan_commit``), on all three engines, over
multi-branch, post-merge datasets.
"""

from __future__ import annotations

import pytest

from repro.core.columns import BRANCH_COLUMN
from repro.core.predicates import And, ColumnPredicate, ModuloPredicate
from repro.core.record import Record
from repro.errors import BranchNotFoundError
from repro.query.logical import (
    Aggregate,
    AntiJoin,
    Distinct,
    HeadScan,
    Join,
    Sort,
    VersionDiff,
    VersionScan,
)
from repro.query.optimizer import optimize
from repro.query.parser import SelectItem
from repro.query.physical import build_physical, execute_plan

from tests.conftest import (
    annotated_rows,
    assert_heads_match_oracle,
    engine_factory,
    heads_oracle,
    make_records,
    rows,
)


PREDICATES = [
    None,
    ColumnPredicate("c1", ">", 60),
    ModuloPredicate("c1", 3),
    And(ColumnPredicate("c1", ">=", 20), ColumnPredicate("c2", "<", 1500)),
]


@pytest.fixture
def branched_engine(engine):
    """A multi-branch dataset with updates, deletes, and a merge."""
    engine.init(make_records(30), message="seed")
    engine.create_branch("dev", from_branch="master")
    for key in range(30, 40):
        engine.insert("dev", Record((key, key * 10, key * 100, 1)))
    for key in (3, 7, 11):
        engine.update("dev", Record((key, key * 10 + 5, key * 100 + 5, 2)))
    engine.delete("dev", 5)
    engine.commit("dev", "dev work")
    engine.create_branch("feature", from_branch="dev")
    for key in range(40, 45):
        engine.insert("feature", Record((key, key * 10, key * 100, 3)))
    engine.update("master", Record((2, 25, 250, 4)))
    engine.delete("master", 9)
    engine.commit("master", "master work")
    engine.commit("feature", "feature work")
    engine.merge("master", "feature", message="merge feature")
    return engine


class TestEngineScans:
    def test_column_scan_stats_match_row_scan(self, engine_kind, schema, tmp_path):
        plain = engine_factory(engine_kind, schema, str(tmp_path / "plain"))
        columnar = engine_factory(engine_kind, schema, str(tmp_path / "columnar"))
        for target in (plain, columnar):
            target.init(make_records(25), message="seed")
            target.create_branch("dev", from_branch="master")
            target.delete("dev", 4)
            target.commit("dev", "work")
        predicate = ModuloPredicate("c1", 2)
        list(plain.scan_branch("dev", predicate))
        list(columnar.scan_branch_columns("dev", predicate))
        assert columnar.stats.records_scanned == plain.stats.records_scanned

    def test_empty_branch_scans_clean(self, engine):
        engine.init([], message="empty")
        assert list(engine.scan_branch_columns("master")) == []
        assert engine.count_branch("master") == 0

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_scan_branches_batched_matches_oracle(self, branched_engine, predicate):
        branches = ["master", "dev", "feature"]
        batches = list(
            branched_engine.scan_branches_batched(branches, predicate, batch_size=7)
        )
        assert all(
            batch.schema.column_names[-1] == BRANCH_COLUMN for batch in batches
        )
        assert_heads_match_oracle(
            annotated_rows(batches),
            heads_oracle(branched_engine, branches, predicate),
        )

    def test_scan_branches_annotations_match_membership(self, branched_engine):
        branches = ["master", "dev", "feature"]
        pairs = annotated_rows(branched_engine.scan_branches_batched(branches))
        live = {
            branch: {record.values for record in branched_engine.scan_branch(branch)}
            for branch in branches
        }
        assert pairs
        assert len({values for values, _ in pairs}) == len(pairs)
        for values, members in pairs:
            assert members == {
                branch for branch in branches if values in live[branch]
            }

    @pytest.mark.parametrize("predicate", [None, ColumnPredicate("c1", ">", 60)])
    def test_pinned_scan_reads_the_pinned_commits(self, branched_engine, predicate):
        pins = {
            branch: branched_engine.graph.head(branch)
            for branch in ("master", "dev", "feature")
        }
        # Live heads move on; the pinned scan must not see it.
        branched_engine.insert("dev", Record((90, 900, 9000, 5)))
        branched_engine.update("master", Record((1, 11, 111, 5)))
        branched_engine.delete("feature", 40)
        expected = heads_oracle(branched_engine, predicate=predicate, pins=pins)
        pinned = annotated_rows(
            branched_engine.scan_branches_batched(
                None, predicate, batch_size=5, pins=pins
            )
        )
        assert_heads_match_oracle(pinned, expected)
        live = annotated_rows(branched_engine.scan_branches_batched(None, predicate))
        assert sorted(live) != sorted(pinned)

    def test_pinned_scan_rejects_unpinned_branch(self, branched_engine):
        pins = {"master": branched_engine.graph.head("master")}
        with pytest.raises(BranchNotFoundError):
            list(branched_engine.scan_branches_batched(["dev"], pins=pins))


def branch_rows(engine, branch, predicate=None):
    """The reference scan of one branch head, as value tuples."""
    return [record.values for record in engine.scan_branch(branch, predicate)]


class TestQueryPipelineOracle:
    def _rows(self, plan):
        return rows(build_physical(optimize(plan)))

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_version_scan(self, branched_engine, predicate):
        for branch in ("master", "dev"):
            plan = VersionScan(branched_engine, "R", "R", "branch", branch, predicate)
            assert self._rows(plan) == branch_rows(branched_engine, branch, predicate)

    def test_commit_scan(self, branched_engine):
        commit = branched_engine.graph.head("dev")
        plan = VersionScan(branched_engine, "R", "R", "commit", commit, None)
        assert self._rows(plan) == [
            record.values for record in branched_engine.scan_commit(commit)
        ]

    def test_version_diff(self, branched_engine):
        key = branched_engine.schema.primary_key
        plan = VersionDiff(
            branched_engine,
            "R",
            ("branch", "dev"),
            ("branch", "master"),
            key,
            include_modified=True,
        )
        master = set(branch_rows(branched_engine, "master"))
        expected = [
            row for row in branch_rows(branched_engine, "dev") if row not in master
        ]
        assert sorted(self._rows(plan)) == sorted(expected)

    def test_join(self, branched_engine):
        key = branched_engine.schema.primary_key
        predicate = ModuloPredicate("c1", 4)
        plan = Join(
            VersionScan(branched_engine, "R", "a", "branch", "dev", predicate),
            VersionScan(branched_engine, "R", "b", "branch", "master", None),
            [(key, key)],
        )
        expected = [
            a + b
            for a in branch_rows(branched_engine, "dev", predicate)
            for b in branch_rows(branched_engine, "master")
            if a[0] == b[0]
        ]
        assert sorted(self._rows(plan)) == sorted(expected)

    def test_head_scan_rows_and_annotations(self, branched_engine):
        predicate = ModuloPredicate("c1", 5)
        result = execute_plan(HeadScan(branched_engine, "R", "R", predicate))
        assert_heads_match_oracle(
            zip(result.rows, result.branch_annotations),
            heads_oracle(branched_engine, predicate=predicate),
        )

    def _group_by_plan(self, engine, branch):
        return Aggregate(
            VersionScan(engine, "R", "R", "branch", branch, None),
            ["c3"],
            [
                SelectItem(column="c3"),
                SelectItem(function="count", argument="*"),
                SelectItem(function="sum", argument="c1"),
                SelectItem(function="min", argument="c2"),
                SelectItem(function="avg", argument="c1"),
            ],
        )

    def test_group_by(self, branched_engine):
        for branch in ("master", "dev"):
            groups: dict[int, list[tuple]] = {}
            for row in branch_rows(branched_engine, branch):
                groups.setdefault(row[3], []).append(row)
            expected = [
                (
                    c3,
                    len(group),
                    sum(row[1] for row in group),
                    min(row[2] for row in group),
                    sum(row[1] for row in group) / len(group),
                )
                for c3, group in sorted(groups.items())
            ]
            plan = self._group_by_plan(branched_engine, branch)
            assert self._rows(plan) == expected

    def test_order_by(self, branched_engine):
        plan = Sort(
            VersionScan(branched_engine, "R", "R", "branch", "dev", None),
            [("c3", True), ("id", False)],
        )
        expected = sorted(
            branch_rows(branched_engine, "dev"), key=lambda row: (-row[3], row[0])
        )
        assert self._rows(plan) == expected

    def test_distinct(self, branched_engine):
        plan = Distinct(
            VersionScan(branched_engine, "R", "R", "branch", "master", None)
        )
        expected = list(dict.fromkeys(branch_rows(branched_engine, "master")))
        assert self._rows(plan) == expected

    def test_anti_join(self, branched_engine):
        key = branched_engine.schema.primary_key
        inner_predicate = ModuloPredicate("c1", 2)
        # The inner-side predicate keeps the optimizer from rewriting this
        # shape to an engine diff, so HashAntiJoin itself runs.
        plan = AntiJoin(
            VersionScan(branched_engine, "R", "a", "branch", "dev", None),
            VersionScan(
                branched_engine, "R", "b", "branch", "master", inner_predicate
            ),
            key,
            key,
        )
        inner_keys = {
            row[0] for row in branch_rows(branched_engine, "master", inner_predicate)
        }
        expected = [
            row
            for row in branch_rows(branched_engine, "dev")
            if row[0] not in inner_keys
        ]
        assert self._rows(plan) == expected

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_count_only_path_matches_row_counts(self, branched_engine, predicate):
        key = branched_engine.schema.primary_key
        plans = [
            lambda: VersionScan(
                branched_engine, "R", "R", "branch", "dev", predicate
            ),
            lambda: HeadScan(branched_engine, "R", "R", predicate),
            lambda: Join(
                VersionScan(branched_engine, "R", "a", "branch", "dev", predicate),
                VersionScan(branched_engine, "R", "b", "branch", "master", None),
                [(key, key)],
            ),
            lambda: self._group_by_plan(branched_engine, "master"),
        ]
        for make_plan in plans:
            counted = build_physical(optimize(make_plan())).count()
            assert counted == len(self._rows(make_plan()))

    def test_engine_count_branch_matches_scan(self, branched_engine):
        for branch in ("master", "dev", "feature"):
            for predicate in PREDICATES:
                expected = sum(
                    1 for _ in branched_engine.scan_branch(branch, predicate)
                )
                assert (
                    branched_engine.count_branch(branch, predicate) == expected
                )
