"""The wire-error taxonomy: stable codes and lossless round-trips.

Every exception the engine raises must survive serialization to a client
and come back as the same type with the same structured fields -- the
serving layer's error handling is only as good as this contract.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    BenchmarkError,
    BranchExistsError,
    BranchNotFoundError,
    ColumnBatchError,
    CommitNotFoundError,
    CorruptionError,
    DatabaseClosedError,
    DeadlineExceededError,
    DecibelError,
    LiteralTypeError,
    MergeConflictError,
    OverloadedError,
    PageError,
    PlanInvariantError,
    ProtocolError,
    QueryCancelledError,
    QueryError,
    RecordError,
    SchemaError,
    StorageError,
    TransactionError,
    UnavailableError,
    VersionError,
    error_from_wire,
    registered_error_codes,
)


def roundtrip(exc: DecibelError) -> DecibelError:
    doc = exc.to_wire()
    # The wire form must be JSON-serializable as-is.
    rebuilt = error_from_wire(json.loads(json.dumps(doc)))
    return rebuilt


SIMPLE_ERRORS = [
    SchemaError("bad schema"),
    RecordError("bad record"),
    PageError("bad page"),
    StorageError("io failed"),
    TransactionError("deadlock victim"),
    VersionError("version trouble"),
    BranchNotFoundError("no branch 'dev'"),
    CommitNotFoundError("no commit v9"),
    BranchExistsError("branch 'dev' exists"),
    MergeConflictError("3 conflicts"),
    BenchmarkError("bad workload"),
    ProtocolError("bad frame"),
    UnavailableError("draining"),
    QueryCancelledError("cancelled by client"),
    DatabaseClosedError("closed"),
    DecibelError("generic"),
]


class TestRegistry:
    def test_codes_are_unique_and_stable(self):
        codes = registered_error_codes()
        # Every registered code maps back to a class whose code matches.
        for code, cls in codes.items():
            assert cls.code == code
        # The stable names clients are allowed to depend on.
        # (the base class's "internal" code is the from-wire fallback and
        # intentionally not in the subclass registry)
        expected = {
            "schema",
            "record",
            "column-batch",
            "page",
            "storage",
            "corruption",
            "transaction",
            "version",
            "branch-not-found",
            "commit-not-found",
            "branch-exists",
            "merge-conflict",
            "query",
            "plan-invariant",
            "literal-type",
            "benchmark",
            "protocol",
            "unavailable",
            "overloaded",
            "deadline-exceeded",
            "cancelled",
            "database-closed",
        }
        assert expected <= set(codes)

    def test_retryable_classification(self):
        assert OverloadedError("x").retryable
        assert UnavailableError("x").retryable
        assert DeadlineExceededError("x").retryable
        assert TransactionError("x").retryable
        assert not SchemaError("x").retryable
        assert not QueryError("x").retryable
        assert not CorruptionError("/p", "torn").retryable
        assert not ProtocolError("x").retryable

    def test_duplicate_code_is_rejected_at_class_creation(self):
        with pytest.raises(TypeError):

            class Impostor(DecibelError):
                code = "overloaded"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "exc", SIMPLE_ERRORS, ids=[type(e).__name__ for e in SIMPLE_ERRORS]
    )
    def test_simple_errors_roundtrip(self, exc):
        rebuilt = roundtrip(exc)
        assert type(rebuilt) is type(exc)
        assert rebuilt.code == exc.code
        assert rebuilt.retryable == exc.retryable
        assert str(exc) in str(rebuilt)

    def test_query_error_preserves_position(self):
        exc = QueryError("unexpected token")
        exc.position = 17
        rebuilt = roundtrip(exc)
        assert isinstance(rebuilt, QueryError)
        assert rebuilt.position == 17

    def test_plan_invariant_error_preserves_rule_and_node(self):
        exc = PlanInvariantError("mode", "Project", "batched child in columnar plan")
        rebuilt = roundtrip(exc)
        assert isinstance(rebuilt, PlanInvariantError)
        assert rebuilt.rule == "mode"
        assert rebuilt.node == "Project"
        assert rebuilt.detail == "batched child in columnar plan"

    def test_literal_type_error_preserves_column_and_literal(self):
        exc = LiteralTypeError("id", "int", "x")
        rebuilt = roundtrip(exc)
        assert isinstance(rebuilt, LiteralTypeError)
        assert isinstance(rebuilt, QueryError)
        assert (rebuilt.column, rebuilt.column_type, rebuilt.literal) == (
            "id",
            "int",
            "x",
        )
        assert str(rebuilt) == str(exc)

    def test_corruption_error_preserves_forensics(self):
        exc = CorruptionError(
            "/data/wal.log", "checksum mismatch", offset=4096,
            expected="deadbeef", actual="00000000",
        )
        rebuilt = roundtrip(exc)
        assert isinstance(rebuilt, CorruptionError)
        assert rebuilt.file == "/data/wal.log"
        assert rebuilt.offset == 4096
        assert rebuilt.expected == "deadbeef"
        assert rebuilt.actual == "00000000"

    def test_column_batch_error_preserves_context(self):
        exc = ColumnBatchError("length", "price", "3 != 4")
        rebuilt = roundtrip(exc)
        assert isinstance(rebuilt, ColumnBatchError)
        assert rebuilt.reason == "length"
        assert rebuilt.column == "price"
        assert rebuilt.detail == "3 != 4"

    def test_overloaded_error_preserves_retry_hint(self):
        exc = OverloadedError("queue full", retry_after_s=0.25)
        rebuilt = roundtrip(exc)
        assert isinstance(rebuilt, OverloadedError)
        assert rebuilt.retry_after_s == 0.25
        assert rebuilt.retryable

    def test_deadline_error_preserves_elapsed(self):
        exc = DeadlineExceededError("over budget", elapsed_s=1.5)
        rebuilt = roundtrip(exc)
        assert isinstance(rebuilt, DeadlineExceededError)
        assert rebuilt.elapsed_s == 1.5

    def test_unknown_code_degrades_to_base_error(self):
        doc = {
            "code": "from-the-future",
            "message": "a new failure mode",
            "retryable": True,
            "fields": {},
        }
        rebuilt = error_from_wire(doc)
        assert type(rebuilt) is DecibelError
        assert rebuilt.code == "from-the-future"
        assert rebuilt.retryable is True
        assert "a new failure mode" in str(rebuilt)

    def test_wire_form_shape(self):
        doc = OverloadedError("busy", retry_after_s=0.1).to_wire()
        assert set(doc) == {"code", "message", "retryable", "fields"}
        assert doc["code"] == "overloaded"
        assert doc["retryable"] is True
        assert doc["fields"]["retry_after_s"] == 0.1
