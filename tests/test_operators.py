"""Tests for the columnar query operators."""

import pytest

from repro.core.operators import (
    Distinct,
    Filter,
    GroupAggregate,
    HashAntiJoin,
    HashJoin,
    Limit,
    OrderBy,
    Project,
    SeqScan,
    TopN,
)
from repro.core.predicates import ColumnPredicate
from repro.core.record import Record
from repro.core.schema import ColumnType
from repro.errors import QueryError

from tests.conftest import make_records, rows, scan_of


@pytest.fixture
def scan(schema):
    return scan_of(make_records(10), schema)


class TestSeqScanAndFilter:
    def test_seq_scan_yields_all(self, scan):
        assert rows(scan) == [r.values for r in make_records(10)]

    def test_filter_applies_predicate(self, scan):
        filtered = Filter(scan, ColumnPredicate("id", ">=", 5))
        assert [row[0] for row in rows(filtered)] == [5, 6, 7, 8, 9]

    def test_filter_preserves_schema(self, scan):
        assert Filter(scan, ColumnPredicate("id", ">", 0)).schema is scan.schema

    def test_count_source_short_circuits(self, schema):
        def poisoned():
            raise AssertionError("the scan must not be consumed")
            yield  # pragma: no cover

        assert SeqScan(poisoned(), schema, count_source=lambda: 123).count() == 123

    def test_count_without_shortcut_sums_batches(self, schema):
        assert scan_of(make_records(10), schema, batch_size=3).count() == 10


class TestProject:
    def test_projects_columns(self, scan):
        projected = Project(scan, ["c1", "id"])
        assert rows(projected)[3] == (30, 3)
        assert projected.schema.column_names == ("c1", "id")

    def test_duplicate_columns_repeat_values(self, scan):
        projected = Project(scan, ["id", "id"])
        assert rows(projected)[2] == (2, 2)
        assert projected.schema.column_names == ("id", "id_2")

    def test_rejects_unknown_column(self, scan):
        with pytest.raises(Exception):
            Project(scan, ["nope"])


class TestLimit:
    def test_limits_output(self, scan):
        assert len(rows(Limit(scan, 3))) == 3

    def test_zero_limit(self, scan):
        assert rows(Limit(scan, 0)) == []

    def test_negative_limit_rejected(self, scan):
        with pytest.raises(QueryError):
            Limit(scan, -1)

    def test_limit_larger_than_input(self, scan):
        assert len(rows(Limit(scan, 100))) == 10

    def test_count_caps_at_limit(self, schema):
        assert Limit(scan_of(make_records(10), schema), 3).count() == 3

    def test_count_caps_at_child_cardinality(self, schema):
        assert Limit(scan_of(make_records(10), schema), 100).count() == 10

    def test_count_uses_child_shortcut_without_scanning(self, schema):
        def poisoned():
            raise AssertionError("a limited count must not run the scan")
            yield  # pragma: no cover

        scan = SeqScan(poisoned(), schema, count_source=lambda: 50)
        assert Limit(scan, 7).count() == 7


class TestHashJoin:
    def test_self_join_on_key(self, schema):
        left = scan_of(make_records(10), schema)
        right = scan_of(make_records(5), schema)
        joined = rows(HashJoin(left, right, "id", "id"))
        assert len(joined) == 5
        assert all(row[0] == row[4] for row in joined)

    def test_join_renames_duplicate_columns(self, schema):
        joined = HashJoin(scan_of([], schema), scan_of([], schema), "id", "id")
        names = joined.schema.column_names
        assert "id" in names and "id_r" in names
        assert len(names) == 8

    def test_join_with_no_matches(self, schema):
        left = scan_of(make_records(3), schema)
        right = scan_of(make_records(3, start=100), schema)
        assert rows(HashJoin(left, right, "id", "id")) == []

    def test_join_duplicate_build_keys(self, schema):
        left = scan_of([Record((1, 0, 0, 0)), Record((1, 9, 9, 9))], schema)
        right = scan_of([Record((1, 5, 5, 5))], schema)
        assert len(rows(HashJoin(left, right, "id", "id"))) == 2

    def test_composite_key_join(self, schema):
        left = scan_of(
            [Record((1, 10, 0, 0)), Record((2, 20, 0, 0)), Record((3, 30, 0, 0))],
            schema,
        )
        right = scan_of([Record((1, 10, 5, 5)), Record((2, 99, 5, 5))], schema)
        joined = rows(HashJoin(left, right, ["id", "c1"], ["id", "c1"]))
        # Only key 1 matches on both columns; key 2 differs on c1.
        assert [row[0] for row in joined] == [1]

    def test_mismatched_key_counts_rejected(self, schema):
        with pytest.raises(QueryError):
            HashJoin(scan_of([], schema), scan_of([], schema), ["id", "c1"], ["id"])

    def test_right_build_keeps_left_then_right_columns(self, schema):
        left = scan_of([Record((1, 10, 0, 0)), Record((2, 20, 0, 0))], schema)
        right = scan_of([Record((2, 99, 5, 5)), Record((2, 98, 6, 6))], schema)
        joined = rows(HashJoin(left, right, "id", "id", build="right"))
        assert sorted(joined) == [
            (2, 20, 0, 0, 2, 98, 6, 6),
            (2, 20, 0, 0, 2, 99, 5, 5),
        ]

    def test_unknown_build_side_rejected(self, schema):
        with pytest.raises(QueryError):
            HashJoin(
                scan_of([], schema), scan_of([], schema), "id", "id", build="both"
            )

    def test_probe_scan_restricted_to_build_keys(self, schema):
        issued = []

        def restrict(term):
            issued.append(term)
            # The first key column's set is a superset of the matches: key 4
            # passes it, and the join's own lookup rejects it on c2.
            return scan_of([Record((2, 9, 0, 9)), Record((4, 9, 5, 9))], schema)

        probe = SeqScan(iter(()), schema, restrict=restrict)
        left = scan_of([Record((2, 0, 0, 0)), Record((4, 0, 0, 0))], schema)
        joined = rows(HashJoin(left, probe, ["id", "c1"], ["id", "c2"]))
        assert joined == [(2, 0, 0, 0, 2, 9, 0, 9)]
        (term,) = issued
        assert term.column == "id" and set(term.keys) == {2, 4}

    def test_empty_build_reads_no_probe(self, schema):
        def poisoned():
            raise AssertionError("the probe side was read")
            yield

        probe = SeqScan(poisoned(), schema, restrict=lambda term: poisoned())
        assert rows(HashJoin(scan_of([], schema), probe, "id", "id")) == []


class TestHashAntiJoin:
    def test_filters_matching_keys(self, schema):
        outer = scan_of(make_records(5), schema)
        inner = scan_of(make_records(3), schema)
        assert [row[0] for row in rows(HashAntiJoin(outer, inner, "id", "id"))] == [
            3,
            4,
        ]

    def test_schema_is_outer_schema(self, schema):
        anti = HashAntiJoin(scan_of([], schema), scan_of([], schema), "id", "id")
        assert anti.schema is schema


class TestOrderBy:
    def test_sorts_ascending(self, schema):
        records = [Record((i, (7 - i) % 5, 0, 0)) for i in range(5)]
        out = rows(OrderBy(scan_of(records, schema), [("c1", False)]))
        assert [row[1] for row in out] == sorted(r.values[1] for r in records)

    def test_sorts_descending(self, scan):
        out = rows(OrderBy(scan, [("id", True)]))
        assert [row[0] for row in out] == list(range(9, -1, -1))

    def test_secondary_key_breaks_ties(self, schema):
        records = [
            Record((1, 5, 9, 0)),
            Record((2, 5, 3, 0)),
            Record((3, 1, 7, 0)),
        ]
        out = rows(
            OrderBy(scan_of(records, schema), [("c1", False), ("c2", False)])
        )
        assert [row[0] for row in out] == [3, 2, 1]

    def test_empty_keys_rejected(self, scan):
        with pytest.raises(QueryError):
            OrderBy(scan, [])

    def test_unknown_key_rejected(self, scan):
        with pytest.raises(Exception):
            OrderBy(scan, [("nope", False)])


class TestDistinct:
    def test_drops_duplicates_keeping_first(self, schema):
        records = [
            Record((1, 1, 1, 1)),
            Record((1, 1, 1, 1)),
            Record((2, 2, 2, 2)),
            Record((1, 1, 1, 1)),
        ]
        assert [row[0] for row in rows(Distinct(scan_of(records, schema)))] == [1, 2]

    def test_distinct_of_empty(self, schema):
        assert rows(Distinct(scan_of([], schema))) == []


class TestGroupAggregate:
    def test_multiple_aggregates_one_pass(self, schema):
        records = [Record((i, i % 2, i * 10, 0)) for i in range(6)]
        op = GroupAggregate(
            scan_of(records, schema),
            ["c1"],
            [("count_id", "count", "id"), ("sum_c2", "sum", "c2")],
        )
        assert rows(op) == [(0, 3, 60), (1, 3, 90)]
        assert op.schema.column_names == ("c1", "count_id", "sum_c2")

    def test_count_star(self, schema):
        op = GroupAggregate(scan_of(make_records(4), schema), [], [("n", "count", "*")])
        assert rows(op) == [(4,)]

    @pytest.mark.parametrize(
        "function, expected",
        [("count", 4), ("sum", 60), ("min", 0), ("max", 30), ("avg", 15)],
    )
    def test_each_function_ungrouped(self, schema, function, expected):
        # make_records(4) has c1 = 0, 10, 20, 30.
        op = GroupAggregate(
            scan_of(make_records(4), schema), [], [("v", function, "c1")]
        )
        assert rows(op) == [(expected,)]

    @pytest.mark.parametrize(
        "function, expected",
        [
            ("count", [(0, 3), (1, 3)]),
            ("sum", [(0, 6), (1, 9)]),
            ("min", [(0, 0), (1, 1)]),
            ("max", [(0, 4), (1, 5)]),
            ("avg", [(0, 2.0), (1, 3.0)]),
        ],
    )
    def test_each_function_grouped(self, schema, function, expected):
        records = [Record((i, i % 2, i, 0)) for i in range(6)]
        op = GroupAggregate(
            scan_of(records, schema, batch_size=4), ["c1"], [("v", function, "c2")]
        )
        assert rows(op) == expected

    def test_ungrouped_empty_input_follows_sql_semantics(self, schema):
        # SQL: count of nothing is 0, but sum/min/max/avg of nothing is NULL.
        op = GroupAggregate(
            scan_of([], schema),
            [],
            [
                ("n", "count", "id"),
                ("s", "sum", "c1"),
                ("lo", "min", "c1"),
                ("hi", "max", "c1"),
                ("mean", "avg", "c1"),
            ],
        )
        assert rows(op) == [(0, None, None, None, None)]

    def test_grouped_empty_input_yields_nothing(self, schema):
        op = GroupAggregate(scan_of([], schema), ["c1"], [("n", "count", "id")])
        assert rows(op) == []

    def test_avg_is_not_truncated(self, schema):
        records = [Record((0, 0, 0, 0)), Record((1, 1, 0, 0))]
        op = GroupAggregate(scan_of(records, schema), [], [("a", "avg", "c1")])
        assert rows(op) == [(0.5,)]

    def test_grouped_avg_keeps_fractions(self, schema):
        records = [Record((0, 0, 0, 0)), Record((1, 0, 1, 0))]
        op = GroupAggregate(scan_of(records, schema), ["c1"], [("a", "avg", "c2")])
        assert rows(op) == [(0, 0.5)]

    def test_output_column_types(self, schema):
        op = GroupAggregate(
            scan_of([], schema),
            [],
            [("n", "count", "c1"), ("mean", "avg", "c1"), ("s", "sum", "c1")],
        )
        assert op.schema.column("n").type is ColumnType.INT
        assert op.schema.column("mean").type is ColumnType.FLOAT
        assert op.schema.column("s").type is ColumnType.INT

    def test_string_group_key_keeps_type(self, wide_schema):
        records = [
            Record((1, 4, "ada")),
            Record((2, 2, "ada")),
            Record((3, 9, "bob")),
        ]
        op = GroupAggregate(
            scan_of(records, wide_schema), ["name"], [("n", "count", "id")]
        )
        assert rows(op) == [("ada", 2), ("bob", 1)]
        assert op.schema.column("name").type is ColumnType.STRING

    def test_string_min_max_keep_type(self, wide_schema):
        records = [Record((1, 4, "cy")), Record((2, 2, "ada")), Record((3, 9, "bob"))]
        op = GroupAggregate(
            scan_of(records, wide_schema),
            [],
            [("lo", "min", "name"), ("hi", "max", "name")],
        )
        assert rows(op) == [("ada", "cy")]
        assert op.schema.column("lo").type is ColumnType.STRING
        assert op.schema.column("hi").type is ColumnType.STRING

    def test_star_only_valid_for_count(self, schema):
        with pytest.raises(QueryError):
            GroupAggregate(scan_of([], schema), [], [("s", "sum", "*")])

    def test_unknown_function_rejected(self, schema):
        with pytest.raises(QueryError):
            GroupAggregate(scan_of([], schema), [], [("m", "median", "c1")])


class TestBatchSizeInvariance:
    """The batch size changes only how rows are grouped, never which rows
    come out or in what order."""

    PIPELINES = {
        "filter-project-limit": lambda s: Limit(
            Project(Filter(s, ColumnPredicate("c1", ">=", 100)), ["c2", "id", "id"]),
            17,
        ),
        "hash-join": lambda s: HashJoin(
            s, Filter(s, ColumnPredicate("c1", ">", 50)), "id", "id"
        ),
        "anti-join": lambda s: HashAntiJoin(
            s, Filter(s, ColumnPredicate("id", "<", 20)), "id", "id"
        ),
        "order-by": lambda s: OrderBy(s, [("c3", False), ("id", True)]),
        "top-n": lambda s: TopN(s, [("c3", True), ("id", False)], 11),
        "distinct": lambda s: Distinct(Project(s, ["c3"])),
        "group-by": lambda s: GroupAggregate(
            s, ["c3"], [("n", "count", "*"), ("total", "sum", "c1")]
        ),
    }

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    @pytest.mark.parametrize("batch_size", [1, 3, 7])
    def test_same_rows_any_batch_size(self, schema, name, batch_size):
        records = [Record((k, k * 10, k * 100, k % 6)) for k in range(53)][::-1]
        build = self.PIPELINES[name]

        def run(size):
            # scan_of's batches live in a list, so the joins' two operands
            # can share one scan.
            return rows(build(scan_of(records, schema, size)), size)

        assert run(batch_size) == run(1024)

    def test_count_matches_materialized_length(self, schema):
        records = make_records(40)

        def pipeline():
            return OrderBy(
                Project(
                    Filter(scan_of(records, schema), ColumnPredicate("c1", ">=", 100)),
                    ["id", "c2"],
                ),
                [("id", True)],
            )

        assert pipeline().count() == len(rows(pipeline()))
