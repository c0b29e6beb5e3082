"""The four benchmark queries (paper Section 4.3), with latency measurement.

Each query builds a logical plan against the loaded engine, runs it through
the optimizer and the physical operator layer -- the same
logical -> optimizer -> physical pipeline SQL queries take through
:meth:`repro.db.database.Decibel.query` -- and returns a
:class:`QueryMeasurement` holding the wall-clock latency, the number of rows
produced, and an estimate of the bytes of record data touched (used to
report scan throughput the way the paper discusses it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.predicates import Predicate, non_selective_predicate
from repro.query.logical import (
    HeadScan,
    Join,
    LogicalNode,
    VersionDiff,
    VersionScan,
)
from repro.query.optimizer import optimize
from repro.query.physical import build_physical
from repro.storage.base import VersionedStorageEngine

#: Display name used for the benchmark relation in plan output.
BENCH_RELATION = "R"


@dataclass
class QueryMeasurement:
    """Latency and output volume of one benchmark query execution."""

    query: str
    seconds: float
    rows: int
    bytes_touched: int = 0

    @property
    def throughput_mb_per_s(self) -> float:
        """Record bytes produced per second of query time, in MB/s."""
        if self.seconds <= 0:
            return 0.0
        return (self.bytes_touched / (1024 * 1024)) / self.seconds


def _record_bytes(engine: VersionedStorageEngine, rows: int) -> int:
    return rows * (engine.schema.record_width + 1)


def _run(plan: LogicalNode, count_only: bool = False) -> tuple[int, object]:
    """Optimize and execute a plan; returns (row count, physical root).

    ``count_only=True`` consumes the plan through the count-only protocol
    (:meth:`Operator.count`), so cardinality-only measurements do not pay
    for materializing output columns.
    """
    operator = build_physical(optimize(plan))
    if count_only:
        rows = operator.count()
    else:
        rows = sum(batch.num_rows for batch in operator.column_batches())
    return rows, operator


def query1_single_scan(
    engine: VersionedStorageEngine,
    branch: str,
    predicate: Predicate | None = None,
    cold: bool = True,
) -> QueryMeasurement:
    """Query 1: scan and emit the active records in a single branch."""
    if cold:
        engine.drop_caches()
    plan = VersionScan(
        engine, BENCH_RELATION, BENCH_RELATION, "branch", branch, predicate
    )
    start = time.perf_counter()
    rows, _ = _run(plan)
    elapsed = time.perf_counter() - start
    return QueryMeasurement(
        query="Q1", seconds=elapsed, rows=rows, bytes_touched=_record_bytes(engine, rows)
    )


def query2_positive_diff(
    engine: VersionedStorageEngine,
    branch_a: str,
    branch_b: str,
    cold: bool = True,
) -> QueryMeasurement:
    """Query 2: emit the records in ``branch_a`` that do not appear in ``branch_b``.

    Uses the paper's content-level semantics (``include_modified=True``): an
    updated record counts as present in A but not in B.  The plan reaches the
    engine's bitmap ``diff`` primitive through the physical layer, so
    ``EngineStats.diffs`` accounts for it.
    """
    if cold:
        engine.drop_caches()
    plan = VersionDiff(
        engine,
        BENCH_RELATION,
        ("branch", branch_a),
        ("branch", branch_b),
        engine.schema.primary_key,
        include_modified=True,
    )
    start = time.perf_counter()
    rows, operator = _run(plan)
    elapsed = time.perf_counter() - start
    return QueryMeasurement(
        query="Q2",
        seconds=elapsed,
        rows=rows,
        bytes_touched=_record_bytes(engine, operator.total_records),
    )


def query3_join(
    engine: VersionedStorageEngine,
    branch_a: str,
    branch_b: str,
    predicate: Predicate | None = None,
    cold: bool = True,
) -> QueryMeasurement:
    """Query 3: primary-key join of two branches under a predicate.

    Executed as a hash join through the physical layer: the
    predicate-filtered scan of ``branch_a`` builds the hash table (the
    optimizer builds on the filtered side), and the scan of ``branch_b``
    probes it.  The probe scan is issued only after the build, with the
    build's keys as one more pushed-down term, so it decodes ``branch_b``'s
    key column and then only the matching records; an empty build skips it.
    Both sides go through the engine's single-branch scan path, so the
    engines' relative costs follow their scan behaviour, as in the paper's
    discussion.  ``bytes_touched`` reports the records the engine actually
    scanned (via ``EngineStats.records_scanned``, which counts every live
    record a scan visits, before its predicate).
    """
    if cold:
        engine.drop_caches()
    if predicate is None:
        predicate = non_selective_predicate("c1", modulus=4)
    key = engine.schema.primary_key
    plan = Join(
        VersionScan(engine, BENCH_RELATION, "a", "branch", branch_a, predicate),
        VersionScan(engine, BENCH_RELATION, "b", "branch", branch_b),
        [(key, key)],
    )
    scanned_before = engine.stats.records_scanned
    start = time.perf_counter()
    rows, _ = _run(plan)
    elapsed = time.perf_counter() - start
    scanned = engine.stats.records_scanned - scanned_before
    return QueryMeasurement(
        query="Q3",
        seconds=elapsed,
        rows=rows,
        bytes_touched=_record_bytes(engine, scanned),
    )


def query4_head_scan(
    engine: VersionedStorageEngine,
    predicate: Predicate | None = None,
    cold: bool = True,
) -> QueryMeasurement:
    """Query 4: scan all branch heads, emitting records with their branches.

    Uses a very non-selective predicate by default, as in the paper, so the
    work is dominated by the scan rather than by predicate evaluation.
    """
    if cold:
        engine.drop_caches()
    if predicate is None:
        predicate = non_selective_predicate("c1", modulus=10)
    plan = HeadScan(engine, BENCH_RELATION, BENCH_RELATION, predicate)
    start = time.perf_counter()
    # The row-counting harness only needs cardinality, so Q4 rides the
    # count-only path: batch lengths straight off the engine's annotated
    # page scans, no branch-column rows materialized.
    rows, _ = _run(plan, count_only=True)
    elapsed = time.perf_counter() - start
    return QueryMeasurement(
        query="Q4", seconds=elapsed, rows=rows, bytes_touched=_record_bytes(engine, rows)
    )

