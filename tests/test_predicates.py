"""Tests for record predicates."""

import pytest

from repro.core.predicates import (
    And,
    ColumnPredicate,
    KeySetPredicate,
    ModuloPredicate,
    Not,
    Or,
    TruePredicate,
    _select_function,
    column_filter_columns,
    compile_column_filter,
    compile_predicate,
    non_selective_predicate,
)
from repro.core.record import Record
from repro.errors import QueryError


@pytest.fixture
def record():
    return Record((5, 10, 20, 30))


class TestColumnPredicate:
    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("=", 10, True),
            ("==", 10, True),
            ("=", 11, False),
            ("!=", 10, False),
            ("<>", 11, True),
            ("<", 11, True),
            ("<=", 10, True),
            (">", 9, True),
            (">=", 10, True),
            (">", 10, False),
        ],
    )
    def test_operators(self, schema, record, op, value, expected):
        assert ColumnPredicate("c1", op, value).evaluate(record, schema) is expected

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            ColumnPredicate("c1", "~", 1)

    def test_evaluates_named_column(self, schema, record):
        assert ColumnPredicate("id", "=", 5).evaluate(record, schema)
        assert ColumnPredicate("c3", "=", 30).evaluate(record, schema)


class TestCombinators:
    def test_true_predicate(self, schema, record):
        assert TruePredicate().evaluate(record, schema)

    def test_and(self, schema, record):
        predicate = And(ColumnPredicate("c1", ">", 5), ColumnPredicate("c2", "<", 25))
        assert predicate.evaluate(record, schema)
        assert not And(
            ColumnPredicate("c1", ">", 50), ColumnPredicate("c2", "<", 25)
        ).evaluate(record, schema)

    def test_or(self, schema, record):
        predicate = Or(ColumnPredicate("c1", ">", 50), ColumnPredicate("c2", "=", 20))
        assert predicate.evaluate(record, schema)

    def test_not(self, schema, record):
        assert Not(ColumnPredicate("c1", "=", 11)).evaluate(record, schema)

    def test_operator_overloads(self, schema, record):
        predicate = ColumnPredicate("c1", ">", 5) & ColumnPredicate("c2", "=", 20)
        assert predicate.evaluate(record, schema)
        predicate = ColumnPredicate("c1", ">", 99) | ColumnPredicate("c2", "=", 20)
        assert predicate.evaluate(record, schema)
        predicate = ~ColumnPredicate("c1", ">", 99)
        assert predicate.evaluate(record, schema)


class TestModuloPredicate:
    def test_matches_non_multiples(self, schema):
        predicate = ModuloPredicate("c1", 10)
        assert predicate.evaluate(Record((1, 7, 0, 0)), schema)
        assert not predicate.evaluate(Record((1, 20, 0, 0)), schema)

    def test_non_selective_helper_selectivity(self, schema):
        predicate = non_selective_predicate("c1", modulus=10)
        matches = sum(
            1
            for value in range(1000)
            if predicate.evaluate(Record((0, value, 0, 0)), schema)
        )
        assert matches == 900


class Below:
    """An unhashable constant (``__eq__`` without ``__hash__``): a column
    value compares below it when it is less than ``bound``."""

    def __init__(self, bound):
        self.bound = bound

    def __eq__(self, other):
        return isinstance(other, Below) and other.bound == self.bound

    def __gt__(self, value):
        return value < self.bound


class TestUncachedCompiles:
    def test_unhashable_constant_gets_a_column_selection(self, loaded_engine):
        schema = loaded_engine.schema
        predicate = And(
            ColumnPredicate("c1", "<", Below(90)), ModuloPredicate("c2", 3)
        )
        with pytest.raises(TypeError):
            hash(predicate)
        assert column_filter_columns(predicate, schema) == {1, 2}
        assert compile_column_filter(predicate, schema) is not None
        expected = [
            record.values
            for record in loaded_engine.scan_branch("master", predicate)
        ]
        assert 0 < len(expected) < 20
        scanned = [
            row
            for batch in loaded_engine.scan_branch_columns("master", predicate)
            for row in batch.rows()
        ]
        assert scanned == expected

    def test_key_set_term_matches_its_keys(self, schema):
        keys = {5, 7}
        predicate = And(KeySetPredicate("id", keys), ColumnPredicate("c1", ">", 0))
        assert predicate.evaluate(Record((5, 1, 0, 0)), schema)
        assert not predicate.evaluate(Record((6, 1, 0, 0)), schema)
        assert compile_predicate(predicate, schema)((7, 1, 0, 0))
        select = compile_column_filter(predicate, schema)
        assert select([[5, 6, 7], [1, 1, 0]], 3) == [0]
        assert column_filter_columns(predicate, schema) == {0, 1}


class TestSharedSelectFunctions:
    """One compiled select function per expression shape; each predicate
    binds its own constants."""

    def test_point_lookups_share_one_function(self, schema):
        first = compile_column_filter(ColumnPredicate("id", "=", 1), schema)
        second = compile_column_filter(ColumnPredicate("id", "=", 2), schema)
        assert first.func is second.func
        columns = [[2, 1, 3, 1], [0, 0, 0, 0]]
        assert first(columns, 4) == [1, 3]
        assert second(columns, 4) == [0]

    def test_shapes_compile_once_per_source(self, schema):
        _select_function.cache_clear()
        for key in range(10**9, 10**9 + 50):
            compile_column_filter(ColumnPredicate("c2", ">=", key), schema)
        assert _select_function.cache_info().currsize == 1

    def test_key_set_terms_share_and_bind_their_own_keys(self, schema):
        first = compile_column_filter(
            And(KeySetPredicate("id", {5, 7}), ColumnPredicate("c1", ">", 0)),
            schema,
        )
        second = compile_column_filter(
            And(KeySetPredicate("id", {6}), ColumnPredicate("c1", ">", 0)),
            schema,
        )
        assert first.func is second.func
        columns = [[5, 6, 7], [1, 1, 0]]
        assert first(columns, 3) == [0]
        assert second(columns, 3) == [1]

    def test_unhashable_constants_share_and_bind_their_own(self, schema):
        first = compile_column_filter(ColumnPredicate("c1", "<", Below(2)), schema)
        second = compile_column_filter(ColumnPredicate("c1", "<", Below(9)), schema)
        assert first.func is second.func
        columns = [[0, 1, 2], [1, 5, 8]]
        assert first(columns, 3) == [0]
        assert second(columns, 3) == [0, 1, 2]
