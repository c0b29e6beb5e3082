"""Logical query plans: stage one of the query pipeline.

:func:`lower_query` binds a parsed :class:`~repro.query.parser.SelectQuery`
to the relations of a :class:`~repro.db.database.Decibel` instance and
produces a tree of logical nodes.  The tree says *what* to compute --
version-bound scans, diffs, joins, filters, aggregation, ordering -- without
fixing *how*; :mod:`repro.query.optimizer` rewrites it (predicate pushdown,
``NOT IN`` -> engine ``diff``) and :mod:`repro.query.physical` maps the
optimized tree onto the columnar operators of :mod:`repro.core.operators`.

Plans can also be built directly against a storage engine (no SQL, no
facade), which is how :mod:`repro.bench.queries` routes the paper's four
benchmark queries through the same pipeline users exercise via SQL.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.columns import BRANCH_COLUMN, branch_annotated_schema
from repro.core.operators import (
    aggregate_output_column,
    join_schema,
    project_schema,
)
from repro.core.predicates import (
    And,
    ColumnPredicate,
    ModuloPredicate,
    Not,
    Or,
    Predicate,
)
from repro.core.schema import Column, Schema
from repro.errors import LiteralTypeError, QueryError
from repro.query.parser import (
    ColumnComparison,
    OrderKey,
    SelectItem,
    SelectQuery,
    TableRef,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Decibel
    from repro.storage.base import VersionedStorageEngine

#: Aggregate functions the planner accepts in a select list.
AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "avg")


def format_predicate(predicate: Predicate) -> str:
    """A compact, readable rendering of a predicate for EXPLAIN output."""
    if isinstance(predicate, ColumnPredicate):
        return f"{predicate.column} {predicate.op} {predicate.value!r}"
    if isinstance(predicate, And):
        return f"{format_predicate(predicate.left)} AND {format_predicate(predicate.right)}"
    if isinstance(predicate, Or):
        return f"({format_predicate(predicate.left)} OR {format_predicate(predicate.right)})"
    if isinstance(predicate, Not):
        return f"NOT ({format_predicate(predicate.inner)})"
    if isinstance(predicate, ModuloPredicate):
        return f"{predicate.column} % {predicate.modulus} != 0"
    return repr(predicate)


class LogicalNode:
    """Base class: a plan node with children, an output schema, and a label."""

    def __init__(self, children: list["LogicalNode"], schema: Schema):
        self.children = list(children)
        self.schema = schema

    def label(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError


class VersionScan(LogicalNode):
    """Scan one version (a branch head or a historical commit) of a relation.

    ``predicate`` starts empty; the optimizer's pushdown rule attaches column
    predicates here so they reach the engine's ``scan_branch``/``scan_commit``
    calls instead of being applied in a separate filter pass.
    """

    def __init__(
        self,
        engine: "VersionedStorageEngine",
        relation: str,
        alias: str,
        kind: str,
        version: str,
        predicate: Predicate | None = None,
    ):
        super().__init__([], engine.schema)
        self.engine = engine
        self.relation = relation
        self.alias = alias
        self.kind = kind  # "branch" or "commit"
        self.version = version
        self.predicate = predicate
        #: Set by the optimizer's projection-pushdown pass: the subset of
        #: relation columns this scan must decode (schema order).  ``None``
        #: means all columns; when set, ``schema`` is the projected schema.
        self.columns: tuple[str, ...] | None = None

    def attach_predicate(self, predicate: Predicate) -> None:
        """AND ``predicate`` into the scan's pushed-down predicate."""
        self.predicate = (
            predicate if self.predicate is None else (self.predicate & predicate)
        )

    def label(self) -> str:
        text = f"VersionScan({self.relation}@{self.version!r} {self.kind}"
        if self.predicate is not None:
            text += f", predicate=[{format_predicate(self.predicate)}]"
        if self.columns is not None:
            text += f", columns=[{', '.join(self.columns)}]"
        return text + ")"


class IndexScan(LogicalNode):
    """Probe an index for a scan's driving predicate term, then late-fetch.

    Produced by the optimizer from a branch-head :class:`VersionScan` whose
    pushed-down predicate contains a conjunct an index can answer (primary
    key equality, or equality/range on a declared secondary-index column)
    with an estimated match fraction below the selection threshold.  The
    physical operator looks up matching primary keys in the index, fetches
    only those records (late materialization), and re-applies the *full*
    scan predicate, so the rewrite is exact even for composite predicates.
    """

    def __init__(
        self,
        engine: "VersionedStorageEngine",
        relation: str,
        alias: str,
        version: str,
        index_column: str,
        op: str,
        value: object,
        predicate: Predicate,
    ):
        super().__init__([], engine.schema)
        self.engine = engine
        self.relation = relation
        self.alias = alias
        self.kind = "branch"  # index chains are versioned against branch heads
        self.version = version
        self.index_column = index_column
        self.op = op
        self.value = value
        self.predicate = predicate

    def label(self) -> str:
        return (
            f"IndexScan({self.relation}@{self.version!r} "
            f"{self.index_column} {self.op} {self.value!r}"
            f", predicate=[{format_predicate(self.predicate)}])"
        )


class HeadScan(LogicalNode):
    """Scan the heads of every branch, annotating records with their branches.

    The output schema is the relation schema plus the hidden
    :data:`BRANCH_COLUMN`, which downstream operators thread through
    unchanged and the result builder converts into branch annotations.
    """

    def __init__(
        self,
        engine: "VersionedStorageEngine",
        relation: str,
        alias: str,
        predicate: Predicate | None = None,
    ):
        super().__init__([], branch_annotated_schema(engine.schema))
        self.engine = engine
        self.relation = relation
        self.alias = alias
        self.predicate = predicate

    def attach_predicate(self, predicate: Predicate) -> None:
        """AND ``predicate`` into the scan's pushed-down predicate."""
        self.predicate = (
            predicate if self.predicate is None else (self.predicate & predicate)
        )

    def label(self) -> str:
        text = f"HeadScan({self.relation}"
        if self.predicate is not None:
            text += f", predicate=[{format_predicate(self.predicate)}]"
        return text + ")"


class VersionDiff(LogicalNode):
    """Positive difference of two branch heads via the engine's bitmap diff.

    Produced by the optimizer from the ``NOT IN``-over-same-relation shape
    (SQL key-level semantics: ``include_modified=False`` filters out keys
    present in both versions), or built directly by the benchmark layer with
    ``include_modified=True`` for the paper's content-level Query 2.
    """

    def __init__(
        self,
        engine: "VersionedStorageEngine",
        relation: str,
        outer: tuple[str, str],
        inner: tuple[str, str],
        key_column: str,
        include_modified: bool = False,
    ):
        super().__init__([], engine.schema)
        self.engine = engine
        self.relation = relation
        self.outer = outer  # (kind, version); only branches reach the engine diff
        self.inner = inner
        self.key_column = key_column
        self.include_modified = include_modified

    def label(self) -> str:
        return (
            f"VersionDiff({self.relation}: {self.outer[1]!r} - {self.inner[1]!r}"
            f" on {self.key_column}"
            + (", content-level" if self.include_modified else "")
            + ")"
        )


class AntiJoin(LogicalNode):
    """``NOT IN`` before optimization: outer rows with no inner key match."""

    def __init__(
        self,
        outer: LogicalNode,
        inner: LogicalNode,
        outer_column: str,
        inner_column: str,
    ):
        super().__init__([outer, inner], outer.schema)
        self.outer_column = outer_column
        self.inner_column = inner_column

    @property
    def outer(self) -> LogicalNode:
        return self.children[0]

    @property
    def inner(self) -> LogicalNode:
        return self.children[1]

    def label(self) -> str:
        return f"AntiJoin(outer.{self.outer_column} NOT IN inner.{self.inner_column})"


class Join(LogicalNode):
    """Equi-join of two plans on one or more column pairs.

    ``build`` names the side the hash join materializes (``"left"`` or
    ``"right"``); the other side probes it.  The optimizer's build-side
    rule sets it, and the physical join and EXPLAIN both read it.  The
    output columns are left then right either way.
    """

    def __init__(
        self,
        left: LogicalNode,
        right: LogicalNode,
        conditions: list[tuple[str, str]],
        build: str = "left",
    ):
        if not conditions:
            raise QueryError("a join requires at least one equi-join condition")
        super().__init__([left, right], join_schema(left.schema, right.schema))
        self.conditions = list(conditions)
        self.build = build

    @property
    def left(self) -> LogicalNode:
        return self.children[0]

    @property
    def right(self) -> LogicalNode:
        return self.children[1]

    def label(self) -> str:
        pairs = ", ".join(f"{l} = {r}" for l, r in self.conditions)
        return f"Join({pairs}, build={self.build})"


class Filter(LogicalNode):
    """Column comparisons not (yet) pushed into a scan."""

    def __init__(self, child: LogicalNode, terms: list[ColumnComparison]):
        super().__init__([child], child.schema)
        self.terms = list(terms)

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def label(self) -> str:
        rendered = " AND ".join(
            f"{term.column} {term.op} {term.value!r}" for term in self.terms
        )
        return f"Filter({rendered})"


class AggregateExpr:
    """One aggregate of a select list, with its schema-safe output name."""

    def __init__(self, name: str, function: str, argument: str, display: str):
        self.name = name
        self.function = function
        self.argument = argument
        self.display = display


class Aggregate(LogicalNode):
    """Grouped aggregation producing the select list in its written order.

    ``group_by`` lists the grouping columns; ``items`` is the select list in
    order, where plain columns must be grouping columns.  Output column names
    are schema-safe (``count_id``); ``display_names`` carries the user-facing
    spellings (``count(id)``) for the final result.
    """

    def __init__(
        self,
        child: LogicalNode,
        group_by: list[str],
        items: list[SelectItem],
    ):
        self.group_by = list(group_by)
        self.items = list(items)
        self.aggregates: list[AggregateExpr] = []
        out_columns: list[Column] = []
        display_names: list[str] = []
        used_names: set[str] = {
            item.column for item in items if not item.is_aggregate
        }
        output: list[str] = []
        for item in items:
            if item.is_aggregate:
                base = (
                    f"{item.function}_all"
                    if item.argument == "*"
                    else f"{item.function}_{item.argument}"
                )
                name = base
                suffix = 2
                while name in used_names:
                    name = f"{base}_{suffix}"
                    suffix += 1
                used_names.add(name)
                expr = AggregateExpr(
                    name, item.function, item.argument, item.display_name
                )
                self.aggregates.append(expr)
                out_columns.append(
                    aggregate_output_column(
                        name, item.function, item.argument, child.schema
                    )
                )
                display_names.append(item.display_name)
                output.append(name)
            else:
                source = child.schema.column(item.column)
                out_columns.append(Column(item.column, source.type, source.width))
                display_names.append(item.column)
                output.append(item.column)
        super().__init__([child], Schema.derived(tuple(out_columns)))
        self.display_names = display_names
        self.output_names = output

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def safe_name_for(self, item: SelectItem) -> str | None:
        """The schema-safe output name matching ``item``, if it is produced."""
        if not item.is_aggregate:
            return item.column if item.column in self.schema.column_names else None
        for expr in self.aggregates:
            if expr.function == item.function and expr.argument == item.argument:
                return expr.name
        return None

    def label(self) -> str:
        rendered = ", ".join(self.display_names)
        if self.group_by:
            return f"Aggregate([{rendered}] GROUP BY {', '.join(self.group_by)})"
        return f"Aggregate([{rendered}])"


class Project(LogicalNode):
    """Project onto the user's select list (threading the hidden column)."""

    def __init__(self, child: LogicalNode, columns: list[str]):
        self.user_columns = list(columns)
        physical = list(columns)
        if BRANCH_COLUMN in child.schema.column_names:
            physical.append(BRANCH_COLUMN)
        #: Child-schema column names to project, duplicates preserved.
        self.physical_columns = physical
        super().__init__([child], project_schema(child.schema, physical))
        self.display_names = list(columns)

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def label(self) -> str:
        return f"Project({', '.join(self.user_columns)})"


class Distinct(LogicalNode):
    """Drop duplicate output rows."""

    def __init__(self, child: LogicalNode):
        super().__init__([child], child.schema)

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def label(self) -> str:
        return "Distinct"


def _render_keys(keys: list[tuple[str, bool]]) -> str:
    return ", ".join(
        f"{column} {'DESC' if descending else 'ASC'}"
        for column, descending in keys
    )


class Sort(LogicalNode):
    """Order the output by one or more ``(column, descending)`` keys.

    ``budget_bytes`` optionally caps the in-memory footprint of the physical
    sort (records beyond it spill to disk as sorted runs); ``None`` uses
    :data:`repro.core.sort.DEFAULT_SORT_BUDGET_BYTES`.
    """

    def __init__(
        self,
        child: LogicalNode,
        keys: list[tuple[str, bool]],
        budget_bytes: int | None = None,
    ):
        super().__init__([child], child.schema)
        self.keys = list(keys)
        self.budget_bytes = budget_bytes

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def label(self) -> str:
        return f"Sort({_render_keys(self.keys)})"


class TopN(LogicalNode):
    """The first ``n`` rows of a sort order, via a bounded heap.

    Produced by the optimizer whenever a ``Limit`` sits directly above a
    ``Sort`` (possibly through a projection): instead of sorting everything
    and discarding all but ``n`` rows, the physical operator keeps a heap of
    at most ``n`` candidates.  EXPLAIN tags these nodes ``[top-n k=n]`` so
    the rewrite is never silent.
    """

    def __init__(
        self, child: LogicalNode, keys: list[tuple[str, bool]], n: int
    ):
        if n < 0:
            raise QueryError("LIMIT must be non-negative")
        super().__init__([child], child.schema)
        self.keys = list(keys)
        self.n = n

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def label(self) -> str:
        return f"TopN({_render_keys(self.keys)})"


class Limit(LogicalNode):
    """Emit at most ``n`` output rows."""

    def __init__(self, child: LogicalNode, n: int):
        if n < 0:
            raise QueryError("LIMIT must be non-negative")
        super().__init__([child], child.schema)
        self.n = n

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    def label(self) -> str:
        return f"Limit({self.n})"


# -- plan inspection ------------------------------------------------------------


def result_columns(plan: LogicalNode) -> list[str]:
    """The user-facing output column names of ``plan``."""
    if isinstance(plan, (Sort, TopN, Limit, Distinct)):
        return result_columns(plan.child)
    if isinstance(plan, Filter):
        return result_columns(plan.child)
    if isinstance(plan, (Project, Aggregate)):
        return list(plan.display_names)
    return [name for name in plan.schema.column_names if name != BRANCH_COLUMN]


def render_plan(
    plan: LogicalNode,
    annotations: dict[int, str] | None = None,
) -> str:
    """Render a plan as an indented tree, one node per line.

    ``annotations`` optionally maps ``id(node)`` to a short tag rendered as
    ``[tag]`` after the node's label (EXPLAIN uses this to show each node's
    optimizer rewrite).
    """
    lines: list[str] = []

    def _walk(node: LogicalNode, depth: int) -> None:
        label = node.label()
        if annotations is not None and id(node) in annotations:
            label += f" [{annotations[id(node)]}]"
        lines.append("  " * depth + label)
        for child in node.children:
            _walk(child, depth + 1)

    _walk(plan, 0)
    return "\n".join(lines)


# -- lowering --------------------------------------------------------------------


def lower_query(db: "Decibel", query: SelectQuery) -> LogicalNode:
    """Lower a parsed query into an (unoptimized) logical plan."""
    if len(query.tables) > 2:
        raise QueryError(
            "queries over more than two table references are not supported"
        )
    if query.head_conditions:
        plan = _lower_head(db, query)
    elif query.not_in_subqueries:
        plan = _lower_not_in(db, query)
    elif len(query.tables) == 2:
        plan = _lower_join(db, query)
    else:
        plan = _lower_single(db, query)
    plan = _apply_filter(db, plan, query)
    source = plan  # the pre-projection plan; ORDER BY keys may resolve here
    plan = _apply_select(plan, query)
    if query.distinct:
        plan = Distinct(plan)
    plan = _apply_order(plan, source, query)
    if query.limit is not None:
        plan = Limit(plan, query.limit)
    return plan


def _resolve_version(relation, version: str) -> tuple[str, str]:
    """A version string may name a branch or a commit id."""
    graph = relation.graph
    if graph.has_branch(version):
        return ("branch", version)
    if graph.has_commit(version):
        return ("commit", version)
    raise QueryError(
        f"{version!r} is neither a branch nor a commit of {relation.name!r}"
    )


def _scan_for(db: "Decibel", table: TableRef, version: str | None) -> VersionScan:
    relation = db.relation(table.relation)
    if version is None:
        raise QueryError(
            "a single-table query must bind the table to a version "
            "(R.Version = '...') or use HEAD(R.Version)"
        )
    kind, name = _resolve_version(relation, version)
    return VersionScan(relation.engine, table.relation, table.alias, kind, name)


def _lower_single(db: "Decibel", query: SelectQuery) -> LogicalNode:
    table = query.tables[0]
    return _scan_for(db, table, query.version_for(table.alias))


def _lower_head(db: "Decibel", query: SelectQuery) -> LogicalNode:
    if len(query.tables) != 1:
        raise QueryError("HEAD() queries must reference exactly one table")
    if query.not_in_subqueries:
        raise QueryError("HEAD() cannot be combined with NOT IN")
    head = query.head_conditions[0]
    if not head.value:
        raise QueryError("HEAD(R.Version) = false is not a meaningful query")
    table = query.tables[0]
    relation = db.relation(table.relation)
    return HeadScan(relation.engine, table.relation, table.alias)


def _lower_not_in(db: "Decibel", query: SelectQuery) -> LogicalNode:
    if len(query.tables) != 1 or len(query.not_in_subqueries) != 1:
        raise QueryError("NOT IN queries must have exactly one outer table")
    sub = query.not_in_subqueries[0]
    subquery = sub.subquery
    if len(subquery.tables) != 1:
        raise QueryError("NOT IN subqueries must reference exactly one table")
    if (
        subquery.aggregates
        or subquery.group_by
        or subquery.order_by
        or subquery.limit is not None
        or subquery.head_conditions
        or subquery.not_in_subqueries
    ):
        raise QueryError("NOT IN subqueries must be simple version-bound scans")
    outer_table = query.tables[0]
    inner_table = subquery.tables[0]
    outer = _scan_for(db, outer_table, query.version_for(outer_table.alias))
    inner = _scan_for(db, inner_table, subquery.version_for(inner_table.alias))
    if subquery.is_star:
        inner_column = sub.column
    elif len(subquery.columns) == 1:
        inner_column = subquery.columns[0]
    else:
        raise QueryError("NOT IN subqueries must select exactly one column")
    for name, schema in ((sub.column, outer.schema), (inner_column, inner.schema)):
        if name not in schema.column_names:
            raise QueryError(f"unknown column {name!r} in NOT IN condition")
    plan: LogicalNode = AntiJoin(outer, inner, sub.column, inner_column)
    if subquery.column_comparisons:
        plan.children[1] = _apply_filter(db, inner, subquery)
    return plan


def _lower_join(db: "Decibel", query: SelectQuery) -> LogicalNode:
    if not query.join_conditions:
        raise QueryError("two-table queries must have a join condition")
    aliases = {table.alias: table for table in query.tables}
    first = query.join_conditions[0]
    left_table = _table_by_alias(query, first.left_alias)
    right_table = _table_by_alias(query, first.right_alias)
    conditions: list[tuple[str, str]] = []
    for join in query.join_conditions:
        if (join.left_alias, join.right_alias) == (
            left_table.alias,
            right_table.alias,
        ):
            conditions.append((join.left_column, join.right_column))
        elif (join.left_alias, join.right_alias) == (
            right_table.alias,
            left_table.alias,
        ):
            conditions.append((join.right_column, join.left_column))
        else:
            raise QueryError(
                f"join condition {join.left_alias}.{join.left_column} = "
                f"{join.right_alias}.{join.right_column} does not match the "
                f"joined tables {left_table.alias!r} and {right_table.alias!r}"
            )
    if len(aliases) != 2:
        raise QueryError("a join requires two distinct table aliases")
    left = _scan_for(db, left_table, query.version_for(left_table.alias))
    right = _scan_for(db, right_table, query.version_for(right_table.alias))
    for left_column, right_column in conditions:
        if left_column not in left.schema.column_names:
            raise QueryError(f"unknown column {left_column!r} in join condition")
        if right_column not in right.schema.column_names:
            raise QueryError(f"unknown column {right_column!r} in join condition")
    return Join(left, right, conditions)


def _table_by_alias(query: SelectQuery, alias: str) -> TableRef:
    for table in query.tables:
        if table.alias == alias:
            return table
    raise QueryError(f"unknown table alias {alias!r} in join condition")


def _apply_filter(
    db: "Decibel", plan: LogicalNode, query: SelectQuery
) -> LogicalNode:
    if not query.column_comparisons:
        return plan
    table_schemas = {
        table.alias: db.relation(table.relation).schema for table in query.tables
    }
    for comparison in query.column_comparisons:
        if comparison.alias is not None:
            if comparison.alias not in table_schemas:
                raise QueryError(
                    f"unknown table alias {comparison.alias!r} in predicate"
                )
            schemas = [table_schemas[comparison.alias]]
        else:
            schemas = list(table_schemas.values())
        for schema in schemas:
            if comparison.column not in schema.column_names:
                raise QueryError(
                    f"unknown column {comparison.column!r} in predicate"
                )
            column = schema.column(comparison.column)
            if not column.compares_with(comparison.value):
                raise LiteralTypeError(
                    comparison.column, column.type.value, comparison.value
                )
    return Filter(plan, query.column_comparisons)


def _apply_select(plan: LogicalNode, query: SelectQuery) -> LogicalNode:
    if query.group_by or query.aggregates:
        if query.is_star:
            raise QueryError(
                "SELECT * cannot be combined with GROUP BY or aggregates"
            )
        for item in query.select_items:
            if item.is_aggregate:
                if item.function not in AGGREGATE_FUNCTIONS:
                    raise QueryError(
                        f"unsupported aggregate function: {item.function!r}"
                    )
                if item.argument != "*" and (
                    item.argument not in plan.schema.column_names
                ):
                    raise QueryError(
                        f"unknown column {item.argument!r} in aggregate"
                    )
            elif item.column not in query.group_by:
                raise QueryError(
                    f"column {item.column!r} must appear in GROUP BY"
                )
        for column in query.group_by:
            if column not in plan.schema.column_names:
                raise QueryError(f"unknown column {column!r} in GROUP BY")
        return Aggregate(plan, query.group_by, query.select_items)
    if query.is_star:
        return plan
    for column in query.columns:
        if column not in plan.schema.column_names:
            raise QueryError(f"unknown column {column!r} in select list")
    return Project(plan, query.columns)


def _apply_order(
    plan: LogicalNode, source: LogicalNode, query: SelectQuery
) -> LogicalNode:
    """Attach the ORDER BY, threading keys through the projection if needed.

    Standard SQL sorts *before* projecting, so ``SELECT id ... ORDER BY v``
    is legal even though ``v`` is not in the select list.  When every key is
    available in the projected output the sort stays above the projection
    (the historical plan shape); when a key only exists in the
    pre-projection ``source`` schema, the sort is placed *below* the
    projection instead -- which also lets the optimizer's Top-N rewrite run
    directly over raw scan batches.
    """
    if not query.order_by:
        return plan
    keys: list[tuple[str, bool]] = []
    sort_below_project = False
    aggregate = _find_aggregate(plan)
    for key in query.order_by:
        name, needs_source = _resolve_order_item(plan, source, aggregate, key, query)
        keys.append((name, key.descending))
        sort_below_project = sort_below_project or needs_source
    if not sort_below_project:
        return Sort(plan, keys)
    # Only reachable for a bare projection (no aggregate, no DISTINCT); the
    # whole key list must then resolve against the pre-projection schema.
    for name, _ in keys:
        if name not in source.schema.column_names:
            raise QueryError(
                f"ORDER BY column {name!r} mixes projected-only names with "
                "non-projected columns"
            )
    if not isinstance(plan, Project):  # pragma: no cover - defensive
        raise QueryError(
            "ORDER BY on a non-projected column requires a plain projection"
        )
    return Project(Sort(source, keys), plan.user_columns)


def _find_aggregate(plan: LogicalNode) -> Aggregate | None:
    node = plan
    while isinstance(node, (Sort, TopN, Limit, Distinct, Filter)):
        node = node.children[0]
    return node if isinstance(node, Aggregate) else None


def _resolve_order_item(
    plan: LogicalNode,
    source: LogicalNode,
    aggregate: Aggregate | None,
    key: OrderKey,
    query: SelectQuery,
) -> tuple[str, bool]:
    """Resolve one ORDER BY key to a column name.

    Returns ``(name, needs_source)`` where ``needs_source`` is True when the
    key is only available in the pre-projection schema (the sort must then
    run below the projection).
    """
    item = key.item
    if item.is_aggregate:
        if aggregate is None:
            raise QueryError(
                f"ORDER BY {item.display_name} requires that aggregate in the "
                "select list"
            )
        name = aggregate.safe_name_for(item)
        if name is None:
            raise QueryError(
                f"ORDER BY {item.display_name} must match an aggregate in the "
                "select list"
            )
        return name, False
    if item.column in plan.schema.column_names:
        return item.column, False
    if aggregate is not None:
        raise QueryError(
            f"ORDER BY column {item.column!r} must be a grouping column or an "
            "aggregate of the select list"
        )
    if query.distinct:
        raise QueryError(
            f"ORDER BY column {item.column!r} must be in the SELECT DISTINCT "
            "list"
        )
    if item.column in source.schema.column_names:
        return item.column, True
    raise QueryError(f"unknown column {item.column!r} in ORDER BY")
