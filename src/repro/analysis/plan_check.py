"""The plan verifier: static invariant checks over logical query plans.

Every correctness bug the engine has had so far -- ORDER BY rejecting
non-projected keys, empty-aggregate NULL handling, the count-path
regression -- was a silently violated *contract* between plan nodes,
operators, and engines.  :func:`verify_plan` makes those contracts
machine-checked before a single row flows.  It walks an optimized logical
plan and enforces four invariant classes:

``schema-propagation``
    Each node's declared output schema is derivable from its children:
    projection columns exist, join keys are present on both sides,
    aggregate output typing matches the operator layer's
    :func:`~repro.core.operators.aggregate_output_column`, and sort/group
    keys resolve against the child schema.

``type-compat``
    Values compared against columns (pushed-down scan predicates, residual
    filter terms) and join key pairs are type-compatible, so a mistyped
    literal fails at plan time instead of deep inside a batch fold.

``rewrite-legality``
    Optimizer rewrites only appear in the shapes that produce them: a
    ``TopN`` exists only where the Limit-over-Sort fusion may place it, an
    engine ``VersionDiff`` only compares branch heads on the primary key,
    and predicate pushdown never captures the hidden branch-visibility
    column of a ``HEAD()`` scan.

``operator-protocol``
    Every logical node maps onto a physical operator that implements
    ``column_batches`` natively, and count-path consumers can rely on
    ``count()`` resolving on that operator class.

Violations raise :class:`~repro.errors.PlanInvariantError` naming the rule
and the offending node.  The verifier is wired into
:func:`repro.query.physical.execute_plan` behind ``verify=`` (default on in
the test suites via :func:`set_default_verify`, and always on for
``Decibel.explain``).
"""

from __future__ import annotations

import os
from typing import Iterator

from repro.core.operators import (
    AGGREGATE_FOLDS,
    Operator,
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
    conjunction_terms,
)
from repro.core.schema import Column, ColumnType, Schema
from repro.errors import PlanInvariantError, SchemaError
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
)

#: Environment variable toggling verification for plans executed without an
#: explicit ``verify=`` argument ("1"/"true" enables it).
ENV_FLAG = "REPRO_VERIFY_PLANS"

#: Column types an integer literal/key may bind to.
_INT_TYPES = (ColumnType.INT, ColumnType.INT32)

_default_verify: bool | None = None


def default_verify() -> bool:
    """Whether plans are verified when no explicit ``verify=`` is given.

    Resolution order: :func:`set_default_verify` override, then the
    :data:`ENV_FLAG` environment variable, then off (production execution
    pays no verification cost unless asked).
    """
    if _default_verify is not None:
        return _default_verify
    return os.environ.get(ENV_FLAG, "0").lower() not in ("", "0", "false", "no")


def set_default_verify(enabled: bool | None) -> None:
    """Force the default-verification flag (``None`` restores env lookup).

    The test suites call ``set_default_verify(True)`` from their conftests,
    so every query they execute runs through the verifier.
    """
    global _default_verify
    _default_verify = enabled


def _fail(rule: str, node: LogicalNode, message: str) -> None:
    raise PlanInvariantError(rule, _node_name(node), message)


def _node_name(node: LogicalNode) -> str:
    try:
        return node.label()
    except Exception:  # pragma: no cover - labels should never fail
        return type(node).__name__


def _predicate_terms(
    predicate: Predicate,
) -> Iterator[ColumnPredicate | ModuloPredicate]:
    """Yield the leaf column terms of a (possibly composite) predicate."""
    if isinstance(predicate, (And, Or)):
        yield from _predicate_terms(predicate.left)
        yield from _predicate_terms(predicate.right)
    elif isinstance(predicate, Not):
        yield from _predicate_terms(predicate.inner)
    elif isinstance(predicate, (ColumnPredicate, ModuloPredicate)):
        yield predicate


def _columns_match(declared: Schema, expected: Schema) -> bool:
    """Structural schema equality: same names and types, in order."""
    return [(c.name, c.type) for c in declared.columns] == [
        (c.name, c.type) for c in expected.columns
    ]


def _check_pruned_scan(node: VersionScan) -> None:
    """A column-pruned scan must still cover its predicate and schema."""
    engine_names = node.engine.schema.column_names
    for name in node.columns:
        if name not in engine_names:
            _fail(
                "schema-propagation",
                node,
                f"pruned column list names {name!r}, which is not a column "
                f"of relation {node.relation!r}",
            )
    try:
        expected = node.engine.schema.project(list(node.columns))
    except SchemaError as exc:
        _fail(
            "schema-propagation",
            node,
            f"pruned scan schema is not derivable from the relation: {exc}",
        )
        raise AssertionError("unreachable")  # pragma: no cover
    if not _columns_match(node.schema, expected):
        _fail(
            "schema-propagation",
            node,
            "pruned scan output schema does not match the projection of its "
            "column list",
        )
    if node.predicate is not None:
        for term in _predicate_terms(node.predicate):
            if term.column not in node.columns:
                _fail(
                    "rewrite-legality",
                    node,
                    f"projection pushdown dropped predicate column "
                    f"{term.column!r}; the scan could not evaluate its own "
                    "pushed-down predicate",
                )


def _check_scan_predicate(
    node: VersionScan | HeadScan | IndexScan, predicate: Predicate | None
) -> None:
    if predicate is None:
        return
    schema = node.engine.schema
    for term in _predicate_terms(predicate):
        if term.column == BRANCH_COLUMN:
            _fail(
                "rewrite-legality",
                node,
                f"predicate pushdown captured the hidden column "
                f"{BRANCH_COLUMN!r}; branch visibility is resolved by the "
                "scan itself and must never be filtered as data",
            )
        if term.column not in schema.column_names:
            _fail(
                "schema-propagation",
                node,
                f"pushed-down predicate references {term.column!r}, which is "
                f"not a column of relation {node.relation!r} "
                f"(columns: {', '.join(schema.column_names)})",
            )
        column = schema.column(term.column)
        if isinstance(term, ModuloPredicate):
            if column.type not in _INT_TYPES:
                _fail(
                    "type-compat",
                    node,
                    f"modulo predicate on non-integer column {term.column!r} "
                    f"({column.type.value})",
                )
        elif not column.compares_with(term.value):
            _fail(
                "type-compat",
                node,
                f"predicate compares {column.type.value} column "
                f"{term.column!r} with {term.value!r} "
                f"({type(term.value).__name__}); cast the literal or fix the "
                "column reference",
            )


def _check_schema(node: LogicalNode) -> None:
    """``schema-propagation`` and ``type-compat`` checks for one node."""
    if isinstance(node, VersionScan):
        if node.kind not in ("branch", "commit"):
            _fail(
                "schema-propagation",
                node,
                f"unknown scan kind {node.kind!r}; expected 'branch' or "
                "'commit'",
            )
        _check_scan_predicate(node, node.predicate)
        if node.columns is None:
            if not _columns_match(node.schema, node.engine.schema):
                _fail(
                    "schema-propagation",
                    node,
                    "scan output schema does not match the engine schema of "
                    f"relation {node.relation!r}",
                )
        else:
            _check_pruned_scan(node)
        return
    if isinstance(node, IndexScan):
        if not _columns_match(node.schema, node.engine.schema):
            _fail(
                "schema-propagation",
                node,
                "index-scan output schema does not match the engine schema "
                f"of relation {node.relation!r}",
            )
        _check_scan_predicate(node, node.predicate)
        return
    if isinstance(node, HeadScan):
        expected = Schema(
            node.engine.schema.columns + (Column(BRANCH_COLUMN, ColumnType.INT),),
            primary_key=node.engine.schema.primary_key,
        )
        if not _columns_match(node.schema, expected):
            _fail(
                "schema-propagation",
                node,
                "head-scan schema must be the engine schema plus the hidden "
                f"trailing {BRANCH_COLUMN!r} column",
            )
        _check_scan_predicate(node, node.predicate)
        return
    if isinstance(node, VersionDiff):
        if not _columns_match(node.schema, node.engine.schema):
            _fail(
                "schema-propagation",
                node,
                "diff output schema does not match the engine schema of "
                f"relation {node.relation!r}",
            )
        if node.key_column not in node.engine.schema.column_names:
            _fail(
                "schema-propagation",
                node,
                f"diff key column {node.key_column!r} is not a column of "
                f"relation {node.relation!r}",
            )
        return
    if isinstance(node, AntiJoin):
        outer, inner = node.outer, node.inner
        if not _columns_match(node.schema, outer.schema):
            _fail(
                "schema-propagation",
                node,
                "anti-join output schema must be the outer child's schema",
            )
        for column, schema, side in (
            (node.outer_column, outer.schema, "outer"),
            (node.inner_column, inner.schema, "inner"),
        ):
            if column not in schema.column_names:
                _fail(
                    "schema-propagation",
                    node,
                    f"{side} key {column!r} is not produced by the {side} "
                    f"child (columns: {', '.join(schema.column_names)})",
                )
        _check_key_pair(
            node,
            outer.schema.column(node.outer_column),
            inner.schema.column(node.inner_column),
        )
        return
    if isinstance(node, Join):
        if not node.conditions:
            _fail(
                "schema-propagation",
                node,
                "a join requires at least one equi-join condition",
            )
        left, right = node.left, node.right
        for left_column, right_column in node.conditions:
            if left_column not in left.schema.column_names:
                _fail(
                    "schema-propagation",
                    node,
                    f"left join key {left_column!r} is not produced by the "
                    "left child",
                )
            if right_column not in right.schema.column_names:
                _fail(
                    "schema-propagation",
                    node,
                    f"right join key {right_column!r} is not produced by the "
                    "right child",
                )
            _check_key_pair(
                node,
                left.schema.column(left_column),
                right.schema.column(right_column),
            )
        expected = join_schema(left.schema, right.schema)
        if not _columns_match(node.schema, expected):
            _fail(
                "schema-propagation",
                node,
                "join output schema is not the concatenation of its "
                "children's schemas (right-side duplicates suffixed '_r')",
            )
        return
    if isinstance(node, Filter):
        child = node.child
        if not _columns_match(node.schema, child.schema):
            _fail(
                "schema-propagation",
                node,
                "a filter must preserve its child's schema",
            )
        for term in node.terms:
            if term.column not in child.schema.column_names:
                _fail(
                    "schema-propagation",
                    node,
                    f"filter term references {term.column!r}, which the "
                    "child does not produce "
                    f"(columns: {', '.join(child.schema.column_names)})",
                )
            column = child.schema.column(term.column)
            if not column.compares_with(term.value):
                _fail(
                    "type-compat",
                    node,
                    f"filter compares {column.type.value} column "
                    f"{term.column!r} with {term.value!r} "
                    f"({type(term.value).__name__})",
                )
        return
    if isinstance(node, Aggregate):
        child = node.child
        for column in node.group_by:
            if column not in child.schema.column_names:
                _fail(
                    "schema-propagation",
                    node,
                    f"group key {column!r} is not produced by the child",
                )
        expected_columns: list[Column] = []
        for item, name in zip(node.items, node.output_names):
            if item.is_aggregate:
                if item.function not in AGGREGATE_FOLDS:
                    _fail(
                        "schema-propagation",
                        node,
                        f"aggregate function {item.function!r} has no "
                        "operator implementation (supported: "
                        f"{', '.join(sorted(AGGREGATE_FOLDS))})",
                    )
                if item.argument != "*" and (
                    item.argument not in child.schema.column_names
                ):
                    _fail(
                        "schema-propagation",
                        node,
                        f"aggregate argument {item.argument!r} is not "
                        "produced by the child",
                    )
                expected_columns.append(
                    aggregate_output_column(
                        name, item.function, item.argument, child.schema
                    )
                )
            else:
                if item.column not in node.group_by:
                    _fail(
                        "schema-propagation",
                        node,
                        f"plain select item {item.column!r} must be a "
                        "grouping column",
                    )
                source = child.schema.column(item.column)
                expected_columns.append(
                    Column(item.column, source.type, source.width)
                )
        expected = Schema.derived(tuple(expected_columns))
        if not _columns_match(node.schema, expected):
            _fail(
                "schema-propagation",
                node,
                "aggregate output schema disagrees with the typing rules of "
                "aggregate_output_column (the operator layer's single source "
                "of truth)",
            )
        return
    if isinstance(node, Project):
        child = node.child
        for column in node.physical_columns:
            if column not in child.schema.column_names:
                _fail(
                    "schema-propagation",
                    node,
                    f"projected column {column!r} is not produced by the "
                    f"child (columns: {', '.join(child.schema.column_names)})",
                )
        if BRANCH_COLUMN in child.schema.column_names and (
            BRANCH_COLUMN not in node.physical_columns
        ):
            _fail(
                "schema-propagation",
                node,
                f"projection drops the hidden {BRANCH_COLUMN!r} column; "
                "head-scan branch annotations must thread through to the "
                "result builder",
            )
        try:
            expected = project_schema(child.schema, node.physical_columns)
        except SchemaError as exc:
            _fail(
                "schema-propagation",
                node,
                f"projection schema is not derivable from the child: {exc}",
            )
            raise AssertionError("unreachable")  # pragma: no cover
        if not _columns_match(node.schema, expected):
            _fail(
                "schema-propagation",
                node,
                "projection output schema does not match project_schema() of "
                "its column list",
            )
        return
    if isinstance(node, (Distinct, Limit)):
        if not _columns_match(node.schema, node.children[0].schema):
            _fail(
                "schema-propagation",
                node,
                f"{type(node).__name__} must preserve its child's schema",
            )
        if isinstance(node, Limit) and node.n < 0:
            _fail("schema-propagation", node, "LIMIT must be non-negative")
        return
    if isinstance(node, (Sort, TopN)):
        child = node.children[0]
        if not _columns_match(node.schema, child.schema):
            _fail(
                "schema-propagation",
                node,
                f"{type(node).__name__} must preserve its child's schema",
            )
        if not node.keys:
            _fail(
                "schema-propagation",
                node,
                f"{type(node).__name__} requires at least one sort key",
            )
        for column, _descending in node.keys:
            if column not in child.schema.column_names:
                _fail(
                    "schema-propagation",
                    node,
                    f"sort key {column!r} is not produced by the child "
                    f"(columns: {', '.join(child.schema.column_names)}); "
                    "non-projected keys must be resolved below the "
                    "projection when the plan is built",
                )
        if isinstance(node, TopN) and node.n < 0:
            _fail("schema-propagation", node, "Top-N bound must be non-negative")
        return
    # Unknown node types fall through to the operator-protocol check, which
    # rejects anything without a physical mapping.


def _check_key_pair(node: LogicalNode, left: Column, right: Column) -> None:
    """Join/anti-join key columns must be comparable."""
    compatible = (
        left.type == right.type
        or (left.type in _INT_TYPES and right.type in _INT_TYPES)
    )
    if not compatible:
        _fail(
            "type-compat",
            node,
            f"key columns {left.name!r} ({left.type.value}) and "
            f"{right.name!r} ({right.type.value}) are not type-compatible",
        )


def _check_rewrites(node: LogicalNode, parent: LogicalNode | None) -> None:
    """``rewrite-legality``: optimizer substitutions appear only in shapes
    that can legally produce them."""
    if isinstance(node, TopN):
        if parent is not None and not isinstance(parent, (Project, Limit)):
            _fail(
                "rewrite-legality",
                node,
                "Top-N may only be produced by the Limit-over-Sort fusion, "
                "which places it at the plan root or directly under the "
                f"fused projection; found it under "
                f"{type(parent).__name__}",
            )
        if isinstance(parent, (Sort, TopN)):  # pragma: no cover - double guard
            _fail(
                "rewrite-legality",
                node,
                "Top-N under another ordering node re-sorts its output",
            )
    if isinstance(node, Sort) and isinstance(node.children[0], (Sort, TopN)):
        _fail(
            "rewrite-legality",
            node,
            "a sort directly above another ordering node discards the "
            "inner node's work; the optimizer must not produce this shape",
        )
    if isinstance(node, IndexScan):
        # The index-scan rewrite is only legal when the index genuinely
        # covers the driving term and the probed version is a branch head
        # (index chains are versioned against branch heads, never commits).
        hook = getattr(node.engine, "index_hook", None)
        if hook is None or not hook.has_index(node.index_column):
            _fail(
                "rewrite-legality",
                node,
                f"no index exists on column {node.index_column!r} of "
                f"relation {node.relation!r}; the scan cannot be answered "
                "from an index",
            )
        if not hook.supports_op(node.index_column, node.op):
            _fail(
                "rewrite-legality",
                node,
                f"the index on {node.index_column!r} cannot answer operator "
                f"{node.op!r} (the pk hash index answers equality only)",
            )
        if not node.engine.graph.has_branch(node.version):
            _fail(
                "rewrite-legality",
                node,
                f"index scan probes {node.version!r}, which is not a branch "
                f"head of relation {node.relation!r}",
            )
        covered = any(
            isinstance(term, ColumnPredicate)
            and term.column == node.index_column
            and term.op == node.op
            and term.value == node.value
            for term in conjunction_terms(node.predicate)
        )
        if not covered:
            _fail(
                "rewrite-legality",
                node,
                f"driving term {node.index_column} {node.op} "
                f"{node.value!r} is not a top-level conjunct of the scan "
                "predicate; probing the index would change results",
            )
    if isinstance(node, Join):
        # The build-side rule records which of the join's two inputs builds
        # the hash table; the physical join reads the choice as is.
        if len(node.children) != 2 or node.build not in ("left", "right"):
            _fail(
                "rewrite-legality",
                node,
                f"build side {node.build!r} must name one of a join's two "
                f"inputs ('left' or 'right'); the join has "
                f"{len(node.children)} inputs",
            )
    if isinstance(node, VersionDiff) and not node.include_modified:
        # The SQL NOT IN rewrite is only legal between two branch heads of
        # the same relation compared on the primary key: commit-addressed
        # versions have no branch bitmap to diff, and non-key comparisons
        # change the result's key-level semantics.
        if node.outer[0] != "branch" or node.inner[0] != "branch":
            _fail(
                "rewrite-legality",
                node,
                "key-level diff requires branch heads on both sides "
                f"(got {node.outer[0]!r} - {node.inner[0]!r})",
            )
        if node.key_column != node.engine.schema.primary_key:
            _fail(
                "rewrite-legality",
                node,
                f"key-level diff must compare on the primary key "
                f"{node.engine.schema.primary_key!r}, not "
                f"{node.key_column!r}",
            )


def _check_protocol(node: LogicalNode) -> None:
    """``operator-protocol``: the node maps onto a conforming operator."""
    from repro.query.physical import NODE_OPERATORS

    operator_cls = NODE_OPERATORS.get(type(node))
    if operator_cls is None:
        _fail(
            "operator-protocol",
            node,
            f"logical node {type(node).__name__} has no physical operator "
            "mapping in NODE_OPERATORS; execution would fail after rows "
            "started flowing through sibling subtrees",
        )
        raise AssertionError("unreachable")  # pragma: no cover
    if operator_cls.column_batches is Operator.column_batches:
        _fail(
            "operator-protocol",
            node,
            f"physical operator {operator_cls.__name__} does not implement "
            "column_batches(); execution would raise mid-query",
        )
    if not callable(getattr(operator_cls, "count", None)):
        _fail(
            "operator-protocol",
            node,
            f"physical operator {operator_cls.__name__} does not expose the "
            "count() protocol used by count-only consumers",
        )


def verify_plan(plan: LogicalNode) -> None:
    """Check every invariant class over ``plan``; raise on the first failure.

    Raises :class:`~repro.errors.PlanInvariantError`; returns ``None`` when
    the plan is sound.
    """

    def walk(node: LogicalNode, parent: LogicalNode | None) -> None:
        _check_protocol(node)
        _check_schema(node)
        _check_rewrites(node, parent)
        for child in node.children:
            walk(child, node)

    walk(plan, None)
