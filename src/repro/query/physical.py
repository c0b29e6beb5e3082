"""Physical execution: stage three of the query pipeline.

:func:`build_physical` maps an optimized logical plan onto the columnar
operators of :mod:`repro.core.operators`, fed by the engines' column scans
(``scan_branch_columns`` for branch heads, ``scan_commit_columns`` for
commits); :func:`execute_plan` runs the operator tree and assembles a
:class:`QueryResult`, materializing rows only at that result boundary.
Every query -- the four paper benchmark queries included -- flows through
this one code path.

Head scans thread the set of branches each record is live in through the
operator tree as a hidden trailing column
(:data:`~repro.query.logical.BRANCH_COLUMN`); the result builder strips it
back out into ``QueryResult.branch_annotations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.columns import ColumnBatch
from repro.core.operators import (
    DEFAULT_BATCH_SIZE,
    Distinct as DistinctOp,
    Filter as FilterOp,
    GroupAggregate,
    HashAntiJoin,
    HashJoin,
    Limit as LimitOp,
    Operator,
    OrderBy,
    Project as ProjectOp,
    SeqScan,
    TopN as TopNOp,
)
from repro.core.cancel import checkpoint
from repro.core.predicates import ColumnPredicate, Predicate, compile_predicate
from repro.core.record import Record
from repro.errors import QueryError
from repro.query.logical import (
    Aggregate,
    AntiJoin,
    BRANCH_COLUMN,
    Distinct,
    Filter,
    HeadScan,
    IndexScan,
    Join,
    Limit,
    LogicalNode,
    Project,
    Sort,
    TopN,
    VersionDiff,
    VersionScan,
    result_columns,
)


@dataclass
class QueryResult:
    """Rows produced by a versioned query.

    ``columns`` names the output columns; ``rows`` holds plain value tuples;
    ``branch_annotations`` (parallel to ``rows``) carries the set of branches
    each row is live in for HEAD() queries, and is empty otherwise.
    """

    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    branch_annotations: list[frozenset[str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def to_dicts(self) -> list[dict]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]


class HeadScanExec(Operator):
    """Every branch head's distinct records, passed through from the engine's
    multi-branch scan with its hidden branch-set column."""

    def __init__(self, node: HeadScan):
        self.node = node
        self.schema = node.schema

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        batches = self.node.engine.scan_branches_batched(
            None, self.node.predicate, batch_size
        )
        for batch in batches:
            checkpoint()
            yield batch

    def count(self) -> int:
        return sum(batch.num_rows for batch in self.column_batches())


class VersionDiffExec(Operator):
    """Positive diff of two branch heads via the engine's ``diff`` primitive.

    Engine diffs are content-level: an updated record shows up on both sides.
    The SQL ``NOT IN`` shape is key-level, so unless ``include_modified`` is
    set (the benchmark's content-level Query 2), modified keys -- present in
    both versions -- are filtered back out.  ``total_records`` records the
    size of the last diff for benchmark byte accounting.
    """

    def __init__(self, node: VersionDiff):
        self.node = node
        self.schema = node.schema
        self.total_records = 0

    def _positive_records(self) -> list[Record]:
        node = self.node
        checkpoint()
        diff = node.engine.diff(node.outer[1], node.inner[1])
        self.total_records = diff.total_records
        if node.include_modified:
            return diff.positive
        schema = node.engine.schema
        key_index = schema.index_of(node.key_column)
        modified = diff.modified_keys(schema)
        return [
            record
            for record in diff.positive
            if record.values[key_index] not in modified
        ]

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        positive = self._positive_records()
        for start in range(0, len(positive), batch_size):
            yield ColumnBatch.from_records(
                self.schema, positive[start : start + batch_size]
            )

    def count(self) -> int:
        return len(self._positive_records())


class IndexScanExec(Operator):
    """Index probe + late-materialized fetch for a selective scan.

    Looks up the primary keys matching the scan's driving index term,
    fetches only those records through the engine's pk index
    (``records_for_keys``), and re-applies the full pushed-down predicate --
    the driving term is a conjunct of it, so results are identical to the
    sequential scan the optimizer replaced.
    """

    def __init__(self, node: IndexScan):
        self.node = node
        self.schema = node.schema

    def _records(self) -> list[Record]:
        node = self.node
        checkpoint()
        keys = node.engine.index_hook.lookup_keys(
            node.version, node.index_column, node.op, node.value
        )
        records = node.engine.records_for_keys(node.version, keys)
        matches = compile_predicate(node.predicate, node.engine.schema)
        if matches is None:  # pragma: no cover - index scans carry a predicate
            return records
        return [record for record in records if matches(record.values)]

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        records = self._records()
        for start in range(0, len(records), batch_size):
            yield ColumnBatch.from_records(
                self.schema, records[start : start + batch_size]
            )

    def count(self) -> int:
        return len(self._records())


class AnnotatedDistinct(Operator):
    """DISTINCT over head-scan rows.

    Duplicates are judged on the *visible* columns only; the hidden branch
    sets of merged duplicates are unioned, so a record live in several
    branches still comes out once with the combined annotation.
    """

    def __init__(self, child: Operator, hidden_index: int):
        self.child = child
        self.hidden_index = hidden_index
        self.schema = child.schema

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        h = self.hidden_index
        merged: dict[tuple, set] = {}
        order: list[tuple] = []
        for batch in self.child.column_batches(batch_size):
            for values in batch.rows():
                visible = values[:h] + values[h + 1 :]
                branches = merged.get(visible)
                if branches is None:
                    merged[visible] = branches = set()
                    order.append(visible)
                branches.update(values[h])
        out_rows: list[tuple] = []
        for visible in order:
            branches = frozenset(merged[visible])
            out_rows.append(visible[:h] + (branches,) + visible[h:])
            if len(out_rows) >= batch_size:
                yield ColumnBatch.from_rows(self.schema, out_rows)
                out_rows = []
        if out_rows:
            yield ColumnBatch.from_rows(self.schema, out_rows)


def _version_scan(plan: VersionScan, term: Predicate | None = None) -> SeqScan:
    """The engine column scan of ``plan``, with ``term`` ANDed into its
    pushed-down predicate.

    The engine scan is issued when the operator is first read.  Without a
    term the scan is restrictable (:attr:`SeqScan.restrict`): a hash join
    whose probe is this scan issues it with the build's key-set term once
    the build is hashed, and never reads this one.
    """
    engine = plan.engine
    predicate = plan.predicate
    if term is not None:
        predicate = term if predicate is None else predicate & term
    if plan.kind == "branch":
        scan, count = engine.scan_branch_columns, engine.count_branch
    else:
        scan, count = engine.scan_commit_columns, engine.count_commit

    def source() -> Iterator[ColumnBatch]:
        yield from scan(plan.version, predicate, columns=plan.columns)

    return SeqScan(
        source(),
        plan.schema,
        count_source=lambda: count(plan.version, predicate),
        restrict=(
            (lambda key_term: _version_scan(plan, key_term))
            if term is None
            else None
        ),
    )


def build_physical(plan: LogicalNode) -> Operator:
    """Map an optimized logical plan onto a columnar operator tree.

    Branch scans are fed from the engine's ``scan_branch_columns`` and commit
    scans from ``scan_commit_columns``, each with the pruned column list of
    projection pushdown and the engine's count-only shortcut.  A join builds
    on the side its logical node records (``Join.build``).
    """
    if isinstance(plan, VersionScan):
        return _version_scan(plan)
    if isinstance(plan, HeadScan):
        return HeadScanExec(plan)
    if isinstance(plan, IndexScan):
        return IndexScanExec(plan)
    if isinstance(plan, VersionDiff):
        return VersionDiffExec(plan)
    if isinstance(plan, AntiJoin):
        return HashAntiJoin(
            build_physical(plan.outer),
            build_physical(plan.inner),
            plan.outer_column,
            plan.inner_column,
        )
    if isinstance(plan, Join):
        left_columns = [left for left, _ in plan.conditions]
        right_columns = [right for _, right in plan.conditions]
        return HashJoin(
            build_physical(plan.left),
            build_physical(plan.right),
            left_columns,
            right_columns,
            build=plan.build,
        )
    if isinstance(plan, Filter):
        predicate: Predicate | None = None
        for term in plan.terms:
            clause = ColumnPredicate(term.column, term.op, term.value)
            predicate = clause if predicate is None else (predicate & clause)
        return FilterOp(build_physical(plan.child), predicate)
    if isinstance(plan, Aggregate):
        grouped = GroupAggregate(
            build_physical(plan.child),
            plan.group_by,
            [
                (expr.name, expr.function, expr.argument)
                for expr in plan.aggregates
            ],
        )
        if list(grouped.schema.column_names) == plan.output_names:
            return grouped
        return ProjectOp(grouped, plan.output_names)
    if isinstance(plan, Project):
        return ProjectOp(build_physical(plan.child), plan.physical_columns)
    if isinstance(plan, Distinct):
        child = build_physical(plan.child)
        names = plan.schema.column_names
        if BRANCH_COLUMN in names:
            return AnnotatedDistinct(child, names.index(BRANCH_COLUMN))
        return DistinctOp(child)
    if isinstance(plan, Sort):
        return OrderBy(
            build_physical(plan.child), plan.keys, budget_bytes=plan.budget_bytes
        )
    if isinstance(plan, TopN):
        return TopNOp(build_physical(plan.child), plan.keys, plan.n)
    if isinstance(plan, Limit):
        return LimitOp(build_physical(plan.child), plan.n)
    raise QueryError(f"no physical mapping for plan node {type(plan).__name__}")


#: Logical node type -> the physical operator class that executes it.  The
#: plan verifier's operator-protocol rule checks every plan node against it.
#: ``Distinct`` maps to :class:`DistinctOp`; the head-scan variant
#: (:class:`AnnotatedDistinct`) implements the same protocol, so the entry is
#: representative for both.
NODE_OPERATORS: dict[type, type[Operator]] = {
    VersionScan: SeqScan,
    HeadScan: HeadScanExec,
    IndexScan: IndexScanExec,
    VersionDiff: VersionDiffExec,
    AntiJoin: HashAntiJoin,
    Join: HashJoin,
    Filter: FilterOp,
    Aggregate: GroupAggregate,
    Project: ProjectOp,
    Distinct: DistinctOp,
    Sort: OrderBy,
    TopN: TopNOp,
    Limit: LimitOp,
}


def execute_plan(plan: LogicalNode, *, verify: bool | None = None) -> QueryResult:
    """Run an optimized plan to completion and assemble the result.

    The operator tree's column batches are materialized into rows only here,
    at the result boundary.  ``verify`` runs the plan through the static
    invariant checks of :mod:`repro.analysis.plan_check` before execution,
    raising :class:`~repro.errors.PlanInvariantError` on a violated
    contract.  ``None`` defers to
    :func:`repro.analysis.plan_check.default_verify` (on in the test suites,
    off otherwise).
    """
    if verify or verify is None:
        from repro.analysis import plan_check

        if verify or plan_check.default_verify():
            plan_check.verify_plan(plan)
    operator = build_physical(plan)
    result = QueryResult(columns=result_columns(plan))
    schema_names = plan.schema.column_names
    rows = result.rows
    if BRANCH_COLUMN not in schema_names:
        for column_batch in operator.column_batches():
            checkpoint()
            rows.extend(column_batch.rows())
        return result
    hidden = schema_names.index(BRANCH_COLUMN)
    annotations = result.branch_annotations
    for column_batch in operator.column_batches():
        checkpoint()
        annotations.extend(column_batch.columns[hidden])
        visible = [
            values
            for i, values in enumerate(column_batch.columns)
            if i != hidden
        ]
        if visible:
            rows.extend(zip(*visible))
        else:  # pragma: no cover - plans always keep a visible column
            rows.extend(() for _ in range(column_batch.num_rows))
    return result
