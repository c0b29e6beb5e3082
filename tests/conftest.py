"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.analysis.plan_check import set_default_verify
from repro.core.buffer_pool import BufferPool
from repro.core.columns import ColumnBatch, set_debug_validation
from repro.core.operators import DEFAULT_BATCH_SIZE, Operator, SeqScan
from repro.core.record import Record
from repro.core.schema import Column, ColumnType, Schema
from repro.storage.hybrid import HybridEngine
from repro.storage.tuple_first import TupleFirstEngine
from repro.storage.version_first import VersionFirstEngine

#: The engine classes under test, keyed by their short benchmark label.
ENGINE_CLASSES = {
    "version-first": VersionFirstEngine,
    "tuple-first": TupleFirstEngine,
    "hybrid": HybridEngine,
}

#: A small page size so multi-page behaviour is exercised by small datasets.
SMALL_PAGE_SIZE = 4096

# Every plan executed by the test suite runs through the static plan
# verifier, so an invariant regression fails the first query that hits it.
set_default_verify(True)

# Every ColumnBatch constructed by the test suite validates its arity /
# length / dtype invariants, so a malformed batch fails at its birthplace.
set_debug_validation(True)


@pytest.fixture
def schema() -> Schema:
    """A 4-column integer schema (id plus three payload columns)."""
    return Schema.of_ints(4)

@pytest.fixture
def wide_schema() -> Schema:
    """A schema with integer and string columns for mixed-type tests."""
    return Schema(
        (
            Column("id", ColumnType.INT),
            Column("count", ColumnType.INT32),
            Column("name", ColumnType.STRING, width=16),
        ),
        primary_key="id",
    )


@pytest.fixture
def buffer_pool() -> BufferPool:
    """A buffer pool with a small capacity to exercise eviction."""
    return BufferPool(capacity_pages=16)


def make_records(count: int, start: int = 0, payload: int = 7) -> list[Record]:
    """``count`` records over the 4-column integer schema."""
    return [
        Record((key, key * 10, key * 100, payload))
        for key in range(start, start + count)
    ]


def scan_of(
    records: list[Record], schema: Schema, batch_size: int = DEFAULT_BATCH_SIZE
) -> SeqScan:
    """A scan operator over ``records``, in column batches of ``batch_size``."""
    return SeqScan(
        [
            ColumnBatch.from_records(schema, records[start : start + batch_size])
            for start in range(0, len(records), batch_size)
        ],
        schema,
    )


def rows(operator: Operator, batch_size: int = DEFAULT_BATCH_SIZE) -> list[tuple]:
    """Run ``operator`` to completion; its output rows as value tuples."""
    return [
        row
        for batch in operator.column_batches(batch_size)
        for row in batch.rows()
    ]


def annotated_rows(batches) -> list[tuple[tuple, frozenset]]:
    """``(values, branches)`` pairs of a multi-branch scan's batches."""
    pairs = []
    for batch in batches:
        *columns, members = batch.columns
        pairs.extend(zip(zip(*columns), members))
    return pairs


def heads_oracle(engine, branches=None, predicate=None, pins=None) -> dict:
    """Query 4's reference answer: ``{values: branches holding them}``.

    Built from per-branch ``scan_branch`` rows (``scan_commit`` of the
    pinned commit under ``pins``), grouped by content.
    """
    if branches is None:
        branches = sorted(pins) if pins is not None else engine.graph.branch_names()
    holders: dict[tuple, set[str]] = {}
    for branch in branches:
        scan = (
            engine.scan_branch(branch, predicate)
            if pins is None
            else engine.scan_commit(pins[branch], predicate)
        )
        for record in scan:
            holders.setdefault(record.values, set()).add(branch)
    return {values: frozenset(held) for values, held in holders.items()}


def assert_heads_match_oracle(pairs, oracle) -> None:
    """Each oracle record appears exactly once, with exactly its branches."""
    assert sorted(pairs) == sorted(oracle.items())


@pytest.fixture
def records() -> list[Record]:
    """Twenty deterministic records for the 4-column schema."""
    return make_records(20)


@pytest.fixture(params=sorted(ENGINE_CLASSES))
def engine_kind(request) -> str:
    """Parametrize a test over all three storage engine kinds."""
    return request.param


@pytest.fixture
def engine(engine_kind, schema, tmp_path):
    """A freshly constructed (uninitialized) engine of the current kind."""
    cls = ENGINE_CLASSES[engine_kind]
    return cls(str(tmp_path / "engine"), schema, page_size=SMALL_PAGE_SIZE)


@pytest.fixture
def loaded_engine(engine, records):
    """An engine initialized with twenty records on master."""
    engine.init(records, message="initial data")
    return engine


def engine_factory(kind: str, schema: Schema, directory: str, **kwargs):
    """Create an engine of ``kind`` rooted at ``directory``."""
    cls = ENGINE_CLASSES[kind]
    kwargs.setdefault("page_size", SMALL_PAGE_SIZE)
    return cls(directory, schema, **kwargs)
