"""Columnar query operators.

Decibel delegates general SQL processing (joins, aggregates) to the query
layer of the host database while its storage engines expose iterators over
single versions of a dataset (paper Section 2.1).  These operators mirror
that split: each consumes its children's :class:`~repro.core.columns.ColumnBatch`
streams -- typed column arrays fed by the engines' column scans -- and
produces column batches lazily, so benchmark queries and the SQL executor
compose out of them regardless of which storage engine the data came from.
There is one execution path: rows exist only at the declared boundaries
(join output assembly, sort runs, the result builder).
"""

from __future__ import annotations

import heapq

from collections import Counter
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.columns import ColumnBatch
from repro.core.predicates import (
    KeySetPredicate,
    Predicate,
    compile_column_filter,
    compile_predicate,
)
from repro.core.schema import Column, ColumnType, Schema
from repro.core.sort import ExternalRunSorter, make_sort_key, make_values_sort_key
from repro.core.cancel import checkpoint
from repro.errors import QueryError

#: Rows per batch moved between operators.
DEFAULT_BATCH_SIZE = 1024


def join_schema(left: Schema, right: Schema) -> Schema:
    """The output schema of an equi-join: left columns then right columns.

    Right-side column names that collide with a left-side name are suffixed
    with ``_r``, which matches how the benchmark's Query 3 joins a relation
    with itself across two versions.
    """
    left_names = set(left.column_names)
    out_columns: list[Column] = list(left.columns)
    for column in right.columns:
        name = column.name if column.name not in left_names else f"{column.name}_r"
        out_columns.append(
            Column(name, column.type, column.width)
            if column.type is ColumnType.STRING
            else Column(name, column.type)
        )
    return Schema(tuple(out_columns), primary_key=left.primary_key)


def _as_columns(columns: str | Sequence[str]) -> list[str]:
    """Normalize a join-key spec (one name or a sequence) to a list."""
    if isinstance(columns, str):
        return [columns]
    return list(columns)


def aggregate_output_column(
    name: str, function: str, argument: str, child_schema: Schema
) -> Column:
    """The output column of one aggregate expression.

    ``count`` (and ``count(*)``) produce INT; ``avg`` always produces FLOAT
    (true division emits fractions even over integer inputs); ``min``/``max``
    inherit the argument column's type (including STRING); ``sum`` inherits
    numeric argument types and falls back to INT otherwise.  This is the
    single source of truth for aggregate output typing, shared by the
    logical planner and the physical operators.
    """
    if function == "count" or argument == "*":
        return Column(name, ColumnType.INT)
    source = child_schema.column(argument)
    if function == "avg":
        return Column(name, ColumnType.FLOAT)
    if function in ("min", "max"):
        return Column(name, source.type, source.width)
    agg_type = ColumnType.INT if source.type is ColumnType.STRING else source.type
    return Column(name, agg_type)


class Operator:
    """Base class: an operator is a stream of column batches with a schema.

    :meth:`column_batches` yields the operator's output as
    :class:`ColumnBatch`es; every operator implements it natively, moving
    typed column arrays rather than row objects.  :meth:`count` is the
    count-only consumption mode: it returns the number of rows the operator
    would produce without requiring the consumer to materialize them, so
    ``COUNT(*)``-shaped work can ride on batch lengths (and, at the scan
    layer, bitmap popcounts).
    """

    schema: Schema

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:  # pragma: no cover - interface
        """Yield the operator's output rows as :class:`ColumnBatch`es of
        about ``batch_size`` rows."""
        raise NotImplementedError

    def count(self) -> int:
        """Number of rows this operator produces (cardinality only).

        The default sums batch row counts.  Operators that can answer
        without running their full pipeline (projections, sorts, scans with
        an engine-side counter) override this.
        """
        return sum(batch.num_rows for batch in self.column_batches())


class SeqScan(Operator):
    """Sequential scan over an engine column scan.

    ``source`` is an iterable of :class:`ColumnBatch`es -- an engine's
    ``scan_branch_columns`` or ``scan_commit_columns`` -- and, like the
    engine scan, is single-shot.  ``count_source`` optionally supplies an
    engine-side cardinality shortcut (e.g. a bitmap popcount) used by
    :meth:`count` instead of consuming the scan.  ``restrict`` optionally
    issues the same engine scan afresh with one more predicate ANDed into
    its pushed-down one; :class:`HashJoin` uses it to read only the probe
    rows whose key its build side holds.
    """

    def __init__(
        self,
        source: Iterable[ColumnBatch],
        schema: Schema,
        count_source: Callable[[], int] | None = None,
        restrict: Callable[[Predicate], "SeqScan"] | None = None,
    ):
        self.source = source
        self.schema = schema
        self.count_source = count_source
        self.restrict = restrict

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        # The scan is where all data enters the operator tree, so a
        # cancellation checkpoint per batch here bounds a cancelled query's
        # remaining work to one batch.
        for column_batch in self.source:
            checkpoint()
            yield column_batch

    def count(self) -> int:
        if self.count_source is not None:
            return self.count_source()
        return super().count()


class Filter(Operator):
    """Emit only the child rows satisfying a predicate."""

    def __init__(self, child: Operator, predicate: Predicate):
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Vectorized selection: the compiled column filter returns matching
        row indexes straight off the column arrays; a full-match batch passes
        through untouched and a partial match gathers once per column."""
        select = compile_column_filter(self.predicate, self.schema)
        matches = (
            compile_predicate(self.predicate, self.schema)
            if select is None
            else None
        )
        for batch in self.child.column_batches(batch_size):
            if select is not None:
                selection = select(batch.columns, batch.num_rows)
            else:
                # Custom predicate without a column-vector form: evaluate
                # row values at the batch boundary (tuples, not records).
                selection = [
                    i
                    for i, values in enumerate(batch.rows())
                    if matches(values)
                ]
            if not selection:
                continue
            if len(selection) == batch.num_rows:
                yield batch
            else:
                yield batch.take(selection)


def project_schema(child_schema: Schema, columns: Sequence[str]) -> Schema:
    """The output schema of a projection onto ``columns``.

    A column may be listed more than once; repeated names are disambiguated
    positionally (``id``, ``id_2``) since schemas require unique names, while
    the projected values repeat as listed.
    """
    if len(set(columns)) == len(columns):
        return child_schema.project(list(columns))
    out_columns = []
    counts: dict[str, int] = {}
    for name in columns:
        source = child_schema.column(name)
        counts[name] = counts.get(name, 0) + 1
        out_name = name if counts[name] == 1 else f"{name}_{counts[name]}"
        out_columns.append(Column(out_name, source.type, source.width))
    return Schema.derived(tuple(out_columns))


class Project(Operator):
    """Project child rows onto a subset of columns (duplicates allowed)."""

    def __init__(self, child: Operator, columns: list[str]):
        self.child = child
        self.columns = list(columns)
        self._indexes = [child.schema.index_of(name) for name in self.columns]
        self.schema = project_schema(child.schema, self.columns)

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Zero-copy projection: reorder/subset the column containers."""
        indexes = self._indexes
        schema = self.schema
        for batch in self.child.column_batches(batch_size):
            yield batch.select_columns(indexes, schema)

    def count(self) -> int:
        # Projection never changes cardinality; skip the column reshuffle.
        return self.child.count()


class Limit(Operator):
    """Emit at most ``n`` child rows."""

    def __init__(self, child: Operator, n: int):
        if n < 0:
            raise QueryError("LIMIT must be non-negative")
        self.child = child
        self.n = n
        self.schema = child.schema

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        remaining = self.n
        if remaining == 0:
            return
        for batch in self.child.column_batches(batch_size):
            if batch.num_rows < remaining:
                yield batch
                remaining -= batch.num_rows
            else:
                yield batch.head(remaining)
                return

    def count(self) -> int:
        # The limit caps the child's cardinality; engine-side count shortcuts
        # (scan popcounts, pass-through projections) answer without running
        # the child pipeline at all.
        return min(self.n, self.child.count())


class HashJoin(Operator):
    """Equi-join of two operators on one or more columns from each side.

    The build side (``build``, the left input by default) is materialized
    into a hash table keyed by the tuple of join-column values; the other
    side probes it.  A composite key applies every equi-join condition of a
    multi-condition join at once.  The output schema is the concatenation
    of both input schemas, left then right, whichever side builds, with
    right-side duplicate column names suffixed by ``_r`` (see
    :func:`join_schema`).

    The probe reads only what can match.  An empty build side ends the join
    before the probe is read at all.  A probe that is a restrictable engine
    scan (:attr:`SeqScan.restrict`, a version scan) is issued only once the
    build is hashed, with a :class:`KeySetPredicate` on its first key column
    ANDed into its pushed-down predicate, so the engine decodes that one
    column of a cold page and gathers just the records whose key the build
    holds.  For a composite key that set is a superset of the matches; the
    hash lookup rechecks every key.  Any other probe streams in full.
    Probe rows are assembled only for matches, as value tuples at the
    output boundary.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_column: str | Sequence[str],
        right_column: str | Sequence[str],
        build: str = "left",
    ):
        self.left = left
        self.right = right
        self.left_columns = _as_columns(left_column)
        self.right_columns = _as_columns(right_column)
        if len(self.left_columns) != len(self.right_columns):
            raise QueryError(
                "join requires the same number of key columns on both sides"
            )
        if not self.left_columns:
            raise QueryError("join requires at least one key column")
        if build not in ("left", "right"):
            raise QueryError(
                f"join build side must be 'left' or 'right', not {build!r}"
            )
        self.build = build
        self.schema = join_schema(left.schema, right.schema)

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Columnar build and probe: hash keys come straight off the key
        column arrays (single-column joins index one array, composite joins
        zip the key columns)."""
        build_left = self.build == "left"
        if build_left:
            build, build_columns = self.left, self.left_columns
            probe, probe_columns = self.right, self.right_columns
        else:
            build, build_columns = self.right, self.right_columns
            probe, probe_columns = self.left, self.left_columns
        build_indexes = [build.schema.index_of(c) for c in build_columns]
        probe_indexes = [probe.schema.index_of(c) for c in probe_columns]
        single = len(build_indexes) == 1
        table: dict = {}
        for batch in build.column_batches(batch_size):
            if single:
                keys = batch.columns[build_indexes[0]]
            else:
                keys = zip(*(batch.columns[i] for i in build_indexes))
            for key, row in zip(keys, batch.rows()):
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
        if not table:
            return
        if isinstance(probe, SeqScan) and probe.restrict is not None:
            key_set = table.keys() if single else {key[0] for key in table}
            probe = probe.restrict(KeySetPredicate(probe_columns[0], key_set))
        get_bucket = table.get
        schema = self.schema
        out_rows: list[tuple] = []
        for batch in probe.column_batches(batch_size):
            if single:
                keys = batch.columns[probe_indexes[0]]
            else:
                keys = zip(*(batch.columns[i] for i in probe_indexes))
            buckets = [get_bucket(key) for key in keys]
            hits = [i for i, bucket in enumerate(buckets) if bucket]
            if not hits:
                continue
            if len(hits) < batch.num_rows:
                batch = batch.take(hits)
            for i, row in zip(hits, batch.rows()):
                if build_left:
                    out_rows.extend(match + row for match in buckets[i])
                else:
                    out_rows.extend(row + match for match in buckets[i])
            if len(out_rows) >= batch_size:
                yield ColumnBatch.from_rows(schema, out_rows)
                out_rows = []
        if out_rows:
            yield ColumnBatch.from_rows(schema, out_rows)


class HashAntiJoin(Operator):
    """Anti semi-join: outer rows whose key has no match in the inner side.

    This is the generic fallback for the ``NOT IN`` query shape when the
    optimizer cannot rewrite it to a storage-engine ``diff``: the inner side
    is materialized into a key set, the outer side streams through it.
    """

    def __init__(
        self,
        outer: Operator,
        inner: Operator,
        outer_column: str,
        inner_column: str,
    ):
        self.outer = outer
        self.inner = inner
        self.outer_column = outer_column
        self.inner_column = inner_column
        self.schema = outer.schema

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """The inner key set is filled with ``set.update`` over whole key
        columns; outer batches are filtered by key-column selection."""
        inner_index = self.inner.schema.index_of(self.inner_column)
        outer_index = self.outer.schema.index_of(self.outer_column)
        inner_keys: set = set()
        for batch in self.inner.column_batches(batch_size):
            inner_keys.update(batch.columns[inner_index])
        for batch in self.outer.column_batches(batch_size):
            column = batch.columns[outer_index]
            selection = [
                i for i, key in enumerate(column) if key not in inner_keys
            ]
            if not selection:
                continue
            if len(selection) == batch.num_rows:
                yield batch
            else:
                yield batch.take(selection)


class OrderBy(Operator):
    """Emit the child sorted by one or more keys, under a memory budget.

    ``keys`` is a sequence of ``(column, descending)`` pairs.  The sort is
    stable, so secondary keys break ties left to right.

    Input is accumulated into sorted runs bounded by ``budget_bytes``
    (default :data:`~repro.core.sort.DEFAULT_SORT_BUDGET_BYTES`): once a run
    hits the budget it is sorted and spilled to a temporary file, and the
    output is a k-way ``heapq.merge`` of all runs.  Inputs that fit the
    budget take the classic one-sort fast path.  ``spilled_runs`` records how
    many runs the last execution wrote to disk (0 for fully in-memory
    sorts).
    """

    def __init__(
        self,
        child: Operator,
        keys: Sequence[tuple[str, bool]],
        budget_bytes: int | None = None,
    ):
        if not keys:
            raise QueryError("ORDER BY requires at least one key")
        self.child = child
        self.keys = [(column, bool(descending)) for column, descending in keys]
        self.schema = child.schema
        self.budget_bytes = budget_bytes
        self.spilled_runs = 0
        self._key = make_sort_key(self.schema, self.keys)

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Columnar sort pivots through rows: ordering is inherently
        row-wise, so batches cross the declared row boundary into the
        memory-bounded run sorter (keeping the spill machinery and its byte
        budget) and the merged output pivots back to columns."""
        sorter = ExternalRunSorter(self._key, budget_bytes=self.budget_bytes)
        try:
            for batch in self.child.column_batches(batch_size):
                sorter.add_batch(batch.to_records())
            self.spilled_runs = sorter.spilled_runs
            schema = self.schema
            merged = sorter.merged()
            while chunk := list(islice(merged, batch_size)):
                yield ColumnBatch.from_records(schema, chunk)
        finally:
            sorter.close()

    def count(self) -> int:
        # Ordering never changes cardinality; skip the sort entirely.
        return self.child.count()


class TopN(Operator):
    """The first ``n`` rows of the child's sort order, via a bounded heap.

    Substituted by the optimizer for ``Limit`` over ``OrderBy``: instead of
    sorting the full input and discarding all but ``n`` rows, a heap of at
    most ``n`` candidates streams over the child (``heapq.nsmallest``, which
    is stable and equivalent to ``sorted(input)[:n]``), so memory is bounded
    by ``n`` regardless of input size.
    """

    def __init__(self, child: Operator, keys: Sequence[tuple[str, bool]], n: int):
        if n < 0:
            raise QueryError("LIMIT must be non-negative")
        if not keys:
            raise QueryError("Top-N requires at least one sort key")
        self.child = child
        self.keys = [(column, bool(descending)) for column, descending in keys]
        self.n = n
        self.schema = child.schema
        self._key = make_values_sort_key(self.schema, self.keys)

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """The bounded heap orders bare value tuples (via
        :func:`make_values_sort_key`, the same key encoding ``OrderBy`` uses,
        so ties break identically) -- no record objects anywhere."""
        if self.n == 0:
            return
        rows = (
            values
            for batch in self.child.column_batches(batch_size)
            for values in batch.rows()
        )
        top = heapq.nsmallest(self.n, rows, key=self._key)
        schema = self.schema
        for start in range(0, len(top), batch_size):
            yield ColumnBatch.from_rows(schema, top[start : start + batch_size])

    def count(self) -> int:
        # Cardinality is the child's, capped at n; no heap work needed.
        return min(self.n, self.child.count())


class Distinct(Operator):
    """Drop duplicate rows, keeping the first occurrence of each."""

    def __init__(self, child: Operator):
        self.child = child
        self.schema = child.schema

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Dedup keys are whole-row value tuples (one ``zip`` per batch);
        surviving row indexes gather the output columns."""
        seen: set[tuple] = set()
        seen_add = seen.add
        for batch in self.child.column_batches(batch_size):
            selection: list[int] = []
            select = selection.append
            for i, values in enumerate(batch.rows()):
                if values not in seen:
                    seen_add(values)
                    select(i)
            if not selection:
                continue
            if len(selection) == batch.num_rows:
                yield batch
            else:
                yield batch.take(selection)


# -- aggregation folds ---------------------------------------------------------
#
# Grouped aggregation takes the group-key column and each aggregate's input
# column straight off a batch, then folds the parallel arrays into per-group
# running states with one of these precompiled accumulators; no per-group
# row lists are ever materialized.

_MISSING = object()


def _fold_count(state: dict, keys: list, values: list | None) -> None:
    # ``count`` states are Counters (see :func:`_fold_state`), whose
    # ``update`` counts a whole key list in C.
    state.update(keys)


def _fold_state(function: str) -> dict:
    """A fresh per-group state for ``function`` (a Counter for ``count``)."""
    return Counter() if function == "count" else {}


def _fold_sum(state: dict, keys: list, values: list) -> None:
    get = state.get
    for key, value in zip(keys, values):
        state[key] = get(key, 0) + value


def _fold_min(state: dict, keys: list, values: list) -> None:
    get = state.get
    for key, value in zip(keys, values):
        current = get(key, _MISSING)
        if current is _MISSING or value < current:
            state[key] = value


def _fold_max(state: dict, keys: list, values: list) -> None:
    get = state.get
    for key, value in zip(keys, values):
        current = get(key, _MISSING)
        if current is _MISSING or value > current:
            state[key] = value


def _fold_avg(state: dict, keys: list, values: list) -> None:
    get = state.get
    for key, value in zip(keys, values):
        pair = get(key)
        if pair is None:
            state[key] = [value, 1]
        else:
            pair[0] += value
            pair[1] += 1


#: Fold per supported aggregate function; the fold mutates a per-group state
#: dict.  Its keys are the aggregate functions the query layer accepts.
AGGREGATE_FOLDS: dict[str, Callable[[dict, list, list | None], None]] = {
    "count": _fold_count,
    "sum": _fold_sum,
    "min": _fold_min,
    "max": _fold_max,
    "avg": _fold_avg,
}

#: Converts a fold state into the aggregate's output value (identity when
#: absent -- only ``avg`` keeps a compound state).
_FINALIZERS: dict[str, Callable] = {
    "avg": lambda pair: pair[0] / pair[1],
}


class GroupAggregate(Operator):
    """Grouped aggregation over any number of keys and aggregate expressions.

    ``group_by`` names zero or more grouping columns; ``aggregates`` is a
    sequence of ``(output_name, function, argument)`` where ``function`` is
    one of :data:`AGGREGATE_FOLDS` and ``argument`` is a child column name,
    or ``"*"`` for ``count(*)``.  The output schema is the grouping columns
    (inheriting their child types) followed by one column per aggregate
    (typed by :func:`aggregate_output_column`).

    With no grouping columns the whole input forms a single group and exactly
    one row is emitted; for empty input that row follows SQL semantics --
    ``count`` columns are 0, every other aggregate is NULL (``None``).
    Groups are emitted in sorted key order.

    An ungrouped aggregate of only ``count(*)`` is answered by the child's
    count mode (:meth:`Operator.count`), so a scan's engine-side counter
    -- a popcount of live bitmaps, with no page read --
    does the work, and no row is decoded.
    """

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregates: Sequence[tuple[str, str, str]],
    ):
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = [
            (name, function.lower(), argument)
            for name, function, argument in aggregates
        ]
        for name, function, argument in self.aggregates:
            if function not in AGGREGATE_FOLDS:
                raise QueryError(f"unsupported aggregate function: {function!r}")
            if argument == "*" and function != "count":
                raise QueryError(f"{function}(*) is not supported; use a column")
        out_columns: list[Column] = []
        for column in self.group_by:
            source = child.schema.column(column)
            out_columns.append(Column(column, source.type, source.width))
        for name, function, argument in self.aggregates:
            out_columns.append(
                aggregate_output_column(name, function, argument, child.schema)
            )
        self.schema = Schema.derived(tuple(out_columns))
        self._count_only = bool(self.aggregates) and not self.group_by and all(
            argument == "*" for _, _, argument in self.aggregates
        )

    def column_batches(
        self, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[ColumnBatch]:
        """Columnar grouped fold: the group-key and aggregate-input columns
        are the child's column arrays themselves (zero extraction work), and
        the output is assembled column-wise in sorted group-key order."""
        if self._count_only:
            total = self.child.count()
            yield ColumnBatch.from_rows(
                self.schema, [(total,) * len(self.aggregates)]
            )
            return
        child_schema = self.child.schema
        group_indexes = [child_schema.index_of(c) for c in self.group_by]
        specs: list[tuple] = []
        states: list[dict] = []
        for _, function, argument in self.aggregates:
            index = None if argument == "*" else child_schema.index_of(argument)
            specs.append((AGGREGATE_FOLDS[function], _FINALIZERS.get(function), index))
            states.append(_fold_state(function))
        single = len(group_indexes) == 1
        seen: set = set()  # group keys when there are no aggregates to fold
        for batch in self.child.column_batches(batch_size):
            columns = batch.columns
            if single:
                keys = columns[group_indexes[0]]
            elif group_indexes:
                keys = list(zip(*(columns[i] for i in group_indexes)))
            else:
                keys = [()] * batch.num_rows
            if not states:
                seen.update(keys)
                continue
            for (fold, _, index), state in zip(specs, states):
                fold(state, keys, None if index is None else columns[index])
        # Every fold sees every row, so any one state holds all group keys
        # (``seen`` covers the no-aggregates case).
        group_keys = sorted(states[0]) if states else sorted(seen)
        agg_columns = [
            [
                state[key] if finalize is None else finalize(state[key])
                for key in group_keys
            ]
            for (_, finalize, _), state in zip(specs, states)
        ]
        schema = self.schema
        if not self.group_by and not group_keys:
            # SQL empty-input semantics: count() is 0, the rest are NULL.
            yield ColumnBatch.from_rows(
                schema,
                [
                    tuple(
                        0 if function == "count" else None
                        for _, function, _ in self.aggregates
                    )
                ],
            )
            return
        if not group_keys:
            return
        if single:
            out_columns = [list(group_keys), *agg_columns]
        elif group_indexes:
            out_columns = [
                list(part) for part in zip(*group_keys)
            ] + agg_columns
        else:
            # Exactly one (ungrouped) row; its key contributes no columns.
            out_columns = agg_columns
        out = ColumnBatch(schema, out_columns)
        if out.num_rows <= batch_size:
            yield out
            return
        for start in range(0, out.num_rows, batch_size):
            yield out.slice(start, start + batch_size)
