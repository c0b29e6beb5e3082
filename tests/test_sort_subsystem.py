"""Memory-bounded sort + Top-N subsystem tests.

Covers the run/spill/merge machinery in ``repro.core.sort``, the rewritten
``OrderBy`` and new ``TopN`` operators, the optimizer's Limit-over-Sort
fusion (with its EXPLAIN tags), and end-to-end equivalence across all three
storage engines.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import OrderBy, TopN as TopNOp
from repro.core.record import Record
from repro.core.schema import Column, ColumnType, Schema
from repro.core.sort import (
    Descending,
    ExternalRunSorter,
    estimate_record_bytes,
    make_sort_key,
)
from repro.errors import QueryError
from repro.query.logical import (
    Limit,
    Project,
    Sort,
    TopN,
    VersionScan,
    render_plan,
)
from repro.query.optimizer import fuse_top_n, optimize, rewrite_labels
from repro.query.physical import build_physical, execute_plan

from tests.conftest import make_records, rows, scan_of


def reference_sort(records, keys, schema):
    """The pre-subsystem OrderBy semantics: repeated stable sorts."""
    out = list(records)
    for column, descending in reversed(keys):
        index = schema.index_of(column)
        out.sort(key=lambda r, i=index: r.values[i], reverse=descending)
    return out


def values_of(records):
    return [record.values for record in records]


# -- key compilation ----------------------------------------------------------


class TestSortKey:
    def test_descending_wrapper_inverts_order(self):
        assert Descending("b") < Descending("a")
        assert not Descending("a") < Descending("b")
        assert Descending("a") == Descending("a")

    def test_string_descending_key(self, wide_schema):
        records = [Record((i, i, name)) for i, name in enumerate("bca")]
        key = make_sort_key(wide_schema, [("name", True)])
        ordered = sorted(records, key=key)
        assert [r.values[2] for r in ordered] == ["c", "b", "a"]

    def test_mixed_direction_composite_key(self, schema):
        records = [Record((i, i % 2, i, 0)) for i in range(6)]
        key = make_sort_key(schema, [("c1", True), ("id", False)])
        ordered = sorted(records, key=key)
        assert [r.values[0] for r in ordered] == [1, 3, 5, 0, 2, 4]

    def test_unknown_column_rejected(self, schema):
        with pytest.raises(Exception):
            make_sort_key(schema, [("nope", False)])

    def test_null_values_sort_last_ascending(self, schema):
        # SQL NULLs (e.g. empty-input aggregates) must have a total order:
        # last ascending, first descending (the PostgreSQL defaults).
        records = [Record((0, None, 0, 0)), Record((1, 5, 0, 0))]
        ascending = sorted(records, key=make_sort_key(schema, [("c1", False)]))
        assert [r.values[0] for r in ascending] == [1, 0]
        descending = sorted(records, key=make_sort_key(schema, [("c1", True)]))
        assert [r.values[0] for r in descending] == [0, 1]

    def test_null_values_in_composite_key(self, schema):
        records = [
            Record((0, None, 2, 0)),
            Record((1, 5, 1, 0)),
            Record((2, None, 1, 0)),
        ]
        key = make_sort_key(schema, [("c1", True), ("c2", False)])
        assert [r.values[0] for r in sorted(records, key=key)] == [2, 0, 1]

    def test_estimate_is_positive(self, schema):
        assert estimate_record_bytes(Record((1, 2, 3, 4))) > 0


# -- the external run sorter --------------------------------------------------


class TestExternalRunSorter:
    def _sorter(self, schema, keys, budget):
        return ExternalRunSorter(make_sort_key(schema, keys), budget_bytes=budget)

    def test_in_memory_fast_path_spills_nothing(self, schema):
        sorter = self._sorter(schema, [("id", True)], budget=1 << 30)
        sorter.add_batch(make_records(100))
        merged = list(sorter.merged())
        assert sorter.spilled_runs == 0
        assert [r.values[0] for r in merged] == list(range(99, -1, -1))

    def test_tiny_budget_spills_and_merges(self, schema):
        records = make_records(500)[::-1]
        sorter = self._sorter(schema, [("id", False)], budget=1_000)
        for start in range(0, len(records), 64):
            sorter.add_batch(records[start : start + 64])
        merged = list(sorter.merged())
        assert sorter.spilled_runs > 1
        assert merged == make_records(500)

    def test_merged_closes_spill_files(self, schema):
        sorter = self._sorter(schema, [("id", False)], budget=1)
        sorter.add_batch(make_records(50))
        assert sorter.spilled_runs >= 1
        list(sorter.merged())
        assert sorter._run_files == []

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.integers(-50, 50), st.integers(-5, 5)), max_size=200
        ),
        budget=st.integers(1, 50_000),
        descending=st.booleans(),
    )
    def test_spill_matches_plain_sort(self, values, budget, descending):
        schema = Schema.of_ints(4)
        records = [Record((i, c1, c2, 0)) for i, (c1, c2) in enumerate(values)]
        keys = [("c1", descending), ("c2", False)]
        sorter = ExternalRunSorter(
            make_sort_key(schema, keys), budget_bytes=budget
        )
        for start in range(0, len(records), 16):
            sorter.add_batch(records[start : start + 16])
        assert list(sorter.merged()) == reference_sort(records, keys, schema)


# -- the OrderBy operator -----------------------------------------------------


class TestOrderBySpill:
    KEYS = [("c1", False), ("id", True)]

    def _records(self):
        return [Record(((i * 37) % 100, i % 7, -i, 7)) for i in range(700)]

    def test_spill_path_matches_in_memory(self, schema):
        unbounded = rows(OrderBy(scan_of(self._records(), schema), self.KEYS))
        spilled = OrderBy(
            scan_of(self._records(), schema), self.KEYS, budget_bytes=2_000
        )
        assert rows(spilled, batch_size=64) == unbounded
        assert spilled.spilled_runs > 0

    def test_matches_legacy_semantics(self, schema):
        records = self._records()
        assert rows(OrderBy(scan_of(records, schema), self.KEYS)) == values_of(
            reference_sort(records, self.KEYS, schema)
        )

    def test_count_skips_sort(self, schema):
        op = OrderBy(scan_of(make_records(25), schema), [("id", False)])
        assert op.count() == 25


# -- the TopN operator --------------------------------------------------------


class TestTopNOperator:
    def test_equals_full_sort_prefix(self, schema):
        records = [Record(((i * 13) % 40, i, 0, 0)) for i in range(200)]
        keys = [("id", True)]
        full = rows(OrderBy(scan_of(records, schema), keys))
        top = rows(TopNOp(scan_of(records, schema), keys, 9))
        assert top == full[:9]

    def test_zero_k_emits_nothing(self, schema):
        op = TopNOp(scan_of(make_records(10), schema), [("id", False)], 0)
        assert rows(op) == []

    def test_k_beyond_cardinality_is_full_sort(self, schema):
        keys = [("c1", True), ("id", False)]
        records = make_records(15)[::-1]
        top = rows(TopNOp(scan_of(records, schema), keys, 99))
        assert top == values_of(reference_sort(records, keys, schema))

    def test_stability_on_ties(self, schema):
        records = [Record((i, 1, 0, 0)) for i in range(20)]
        top = rows(TopNOp(scan_of(records, schema), [("c1", False)], 5))
        assert [row[0] for row in top] == [0, 1, 2, 3, 4]

    def test_count_caps_at_k(self, schema):
        op = TopNOp(scan_of(make_records(30), schema), [("id", False)], 4)
        assert op.count() == 4

    def test_negative_k_rejected(self, schema):
        with pytest.raises(QueryError):
            TopNOp(scan_of([], schema), [("id", False)], -1)

    def test_empty_keys_rejected(self, schema):
        with pytest.raises(QueryError):
            TopNOp(scan_of([], schema), [], 5)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(-30, 30), max_size=150),
        k=st.integers(0, 20),
        descending=st.booleans(),
        batch_size=st.integers(1, 64),
    )
    def test_property_matches_full_sort(self, values, k, descending, batch_size):
        """Top-N over random batches == sort-everything-then-limit."""
        schema = Schema.of_ints(4)
        records = [Record((i, v, 0, 0)) for i, v in enumerate(values)]
        keys = [("c1", descending)]
        expected = values_of(reference_sort(records, keys, schema)[:k])
        top = TopNOp(scan_of(records, schema, batch_size), keys, k)
        assert rows(top, batch_size) == expected


# -- optimizer fusion ---------------------------------------------------------


@pytest.fixture
def seeded_engine(engine):
    engine.init(make_records(60), message="seed")
    return engine


def _scan(engine):
    return VersionScan(engine, "R", "R", "branch", "master", None)


class TestTopNFusion:
    def test_limit_over_sort_fuses(self, seeded_engine):
        plan = fuse_top_n(Limit(Sort(_scan(seeded_engine), [("c1", True)]), 5))
        assert isinstance(plan, TopN)
        assert plan.n == 5 and plan.keys == [("c1", True)]

    def test_limit_over_projected_sort_pushes_below(self, seeded_engine):
        lowered = Limit(
            Project(Sort(_scan(seeded_engine), [("c1", False)]), ["id"]), 3
        )
        plan = fuse_top_n(lowered)
        assert isinstance(plan, Project)
        assert isinstance(plan.child, TopN)
        assert isinstance(plan.child.child, VersionScan)

    def test_limit_over_sort_over_project_pushes_below(self, seeded_engine):
        lowered = Limit(
            Sort(Project(_scan(seeded_engine), ["id", "c1"]), [("c1", False)]), 3
        )
        plan = fuse_top_n(lowered)
        assert isinstance(plan, Project)
        assert isinstance(plan.child, TopN)
        assert isinstance(plan.child.child, VersionScan)

    def test_bare_limit_and_sort_survive(self, seeded_engine):
        assert isinstance(fuse_top_n(Limit(_scan(seeded_engine), 5)), Limit)
        assert isinstance(
            fuse_top_n(Sort(_scan(seeded_engine), [("c1", False)])), Sort
        )

    def test_rewrite_labels_tag_top_n(self, seeded_engine):
        plan = optimize(Limit(Sort(_scan(seeded_engine), [("c1", True)]), 7))
        labels = rewrite_labels(plan)
        assert list(labels.values()) == ["top-n k=7"]
        rendered = render_plan(plan, labels)
        assert "[top-n k=7]" in rendered


# -- pipeline equivalence across engines ---------------------------------------


class TestPipelineEquivalence:
    def test_top_n_equals_full_sort_prefix(self, seeded_engine):
        keys = [("c1", True), ("id", False)]
        full = execute_plan(optimize(Sort(_scan(seeded_engine), keys)))
        top = execute_plan(optimize(Limit(Sort(_scan(seeded_engine), keys), 8)))
        assert top.rows == full.rows[:8]

    def test_full_sort_matches_reference(self, seeded_engine):
        keys = [("c2", True), ("id", False)]
        result = execute_plan(optimize(Sort(_scan(seeded_engine), keys)))
        expected = reference_sort(
            list(seeded_engine.scan_branch("master")), keys, seeded_engine.schema
        )
        assert result.rows == values_of(expected)

    def test_spill_budget_is_byte_identical(self, seeded_engine):
        keys = [("c2", True)]
        unbounded = execute_plan(optimize(Sort(_scan(seeded_engine), keys)))
        spilled_plan = optimize(
            Sort(_scan(seeded_engine), keys, budget_bytes=500)
        )
        spilled = execute_plan(spilled_plan)
        assert spilled.rows == unbounded.rows

    def test_spill_budget_reaches_physical_operator(self, seeded_engine):
        operator = build_physical(
            Sort(_scan(seeded_engine), [("c2", False)], budget_bytes=500)
        )
        out = rows(operator)
        assert operator.spilled_runs > 0
        assert out == sorted(out, key=lambda v: v[2])

    def test_order_by_then_project_matches_project_then_sort(self, seeded_engine):
        # The lowered shape for ORDER BY on a non-projected column.
        threaded = execute_plan(
            optimize(
                Project(Sort(_scan(seeded_engine), [("c1", True)]), ["id"])
            )
        )
        reference = execute_plan(
            optimize(
                Project(
                    Sort(_scan(seeded_engine), [("c1", True)]), ["id", "c1"]
                )
            )
        )
        assert threaded.rows == [(row[0],) for row in reference.rows]

    @pytest.mark.parametrize("limit", [0, 5, 1000])
    def test_limit_edges_through_top_n(self, seeded_engine, limit):
        plan = optimize(
            Limit(Sort(_scan(seeded_engine), [("id", True)]), limit)
        )
        result = execute_plan(plan)
        assert len(result.rows) == min(limit, 60)
        ids = [row[0] for row in result.rows]
        assert ids == sorted(ids, reverse=True)[: len(ids)]
