"""Typed column batches: the engine's columnar execution representation.

A :class:`ColumnBatch` carries a batch of rows as one container per schema
column instead of a list of :class:`~repro.core.record.Record` objects:
``array('q')`` / ``array('i')`` / ``array('d')`` for INT / INT32 / FLOAT
columns and plain lists for STRING (and for derived columns whose values are
not native numbers -- SQL NULLs from empty aggregates, the hidden branch
annotation column).  Operators move whole columns with C-level slicing,
``array.extend`` and ``map`` instead of constructing per-row objects; rows
exist only at the declared boundaries (:meth:`ColumnBatch.from_records` /
:meth:`ColumnBatch.to_records` / :meth:`ColumnBatch.rows`), which lint rule
REPRO008 enforces.

Invariants (checked by :meth:`ColumnBatch.validate`, and on every
construction when debug validation is on -- tests enable it globally):

- the batch has exactly one container per schema column (``"arity"``),
- every container holds exactly ``num_rows`` values (``"length"``),
- a typed ``array`` container's typecode matches the schema column's
  :class:`~repro.core.schema.ColumnType` (``"dtype"``).  Plain lists are
  always legal: they are the escape hatch for STRING data and for derived
  values a fixed-width array cannot hold.

The checks are O(columns), not O(rows), so keeping them on in debug/verify
mode costs nothing measurable.
"""

from __future__ import annotations

import os
from array import array
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.record import Record
from repro.core.schema import Column, ColumnType, Schema
from repro.errors import ColumnBatchError

#: One column's container: a typed array for native numerics, a list otherwise.
ColumnData = "array | list"

#: Hidden column appended to multi-branch scan schemas; it carries the set of
#: branches each record is live in, and is stripped from query results.
BRANCH_COLUMN = "_branches"

#: Environment flag that turns on per-construction validation.
ENV_FLAG = "REPRO_VALIDATE_COLUMNS"

_debug_validation: bool | None = None


def debug_validation() -> bool:
    """Whether every :class:`ColumnBatch` construction validates itself."""
    if _debug_validation is not None:
        return _debug_validation
    return os.environ.get(ENV_FLAG, "").strip().lower() in ("1", "true", "yes")


def set_debug_validation(enabled: bool | None) -> None:
    """Force debug validation on/off; ``None`` re-reads the environment."""
    global _debug_validation
    _debug_validation = enabled


def branch_annotated_schema(schema: Schema) -> Schema:
    """``schema`` plus the trailing :data:`BRANCH_COLUMN` (a list column)."""
    return Schema(
        schema.columns + (Column(BRANCH_COLUMN, ColumnType.INT),),
        primary_key=schema.primary_key,
    )


def column_container(column_type: ColumnType) -> "array | list":
    """An empty container of the right flavour for ``column_type``."""
    typecode = column_type.typecode
    if typecode is None:
        return []
    return array(typecode)


def mutable_copy(values: "array | list") -> "array | list":
    """A same-flavour mutable copy of one column's container."""
    if isinstance(values, array):
        return array(values.typecode, values)
    return list(values)


def columns_from_rows(
    schema: Schema, rows: Sequence[tuple]
) -> tuple["array | list", ...]:
    """Pivot value tuples into per-column lists.

    Always builds plain lists, never typed arrays: row tuples arriving at
    this boundary may carry values no fixed-width array accepts (SQL NULLs
    from empty aggregates, ``float`` averages in an INT-declared slot, the
    hidden branch column's frozensets).  Columnar *scan* paths build typed
    arrays directly from the codec instead.
    """
    if rows:
        return tuple(list(column) for column in zip(*rows))
    return tuple([] for _ in schema.columns)


def column_payload_bytes(
    schema: Schema, columns: Sequence["array | list"]
) -> int:
    """Approximate payload bytes held by ``columns``.

    Typed arrays are exact (``len * itemsize``); list columns are charged
    their declared on-disk width, which understates Python object overhead
    but keeps the buffer-pool budget proportional to the data actually
    cached.
    """
    total = 0
    for column, values in zip(schema.columns, columns):
        if isinstance(values, array):
            total += len(values) * values.itemsize
        else:
            total += len(values) * column.byte_width
    return total


class ColumnBatch:
    """A batch of rows stored column-wise.

    Parameters
    ----------
    schema:
        The schema the columns follow, in order.
    columns:
        One container per schema column.  Typed arrays for native numeric
        columns, lists otherwise.  Containers are owned by the batch's
        producer; consumers must not mutate them (``take``/``slice`` copy).
    num_rows:
        Row count.  Defaults to the first column's length.
    """

    __slots__ = ("schema", "columns", "num_rows")

    def __init__(
        self,
        schema: Schema,
        columns: Iterable["array | list"],
        num_rows: int | None = None,
    ):
        self.schema = schema
        self.columns = tuple(columns)
        if num_rows is None:
            num_rows = len(self.columns[0]) if self.columns else 0
        self.num_rows = num_rows
        if debug_validation():
            self.validate()

    # -- boundaries (the only places rows exist) ------------------------------

    @classmethod
    def from_records(cls, schema: Schema, records: Sequence[Record]) -> "ColumnBatch":
        """Pivot a record batch into columns (row -> column boundary)."""
        return cls(
            schema,
            columns_from_rows(schema, [record.values for record in records]),
            len(records),
        )

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[tuple]) -> "ColumnBatch":
        """Pivot value tuples into columns (row -> column boundary)."""
        return cls(schema, columns_from_rows(schema, rows), len(rows))

    def rows(self) -> list[tuple]:
        """Materialize value tuples (column -> row boundary)."""
        if not self.columns:
            return [() for _ in range(self.num_rows)]
        return list(zip(*self.columns))

    def to_records(self) -> list[Record]:
        """Materialize :class:`Record` objects (column -> row boundary)."""
        return [Record(values) for values in self.rows()]

    # -- columnar transforms --------------------------------------------------

    def take(self, indexes: Sequence[int]) -> "ColumnBatch":
        """A new batch gathering ``indexes`` from every column, in order."""
        count = len(indexes)
        if count == 0:
            return ColumnBatch(
                self.schema,
                tuple(
                    array(values.typecode) if isinstance(values, array) else []
                    for values in self.columns
                ),
                0,
            )
        if count == 1:
            return self.slice(indexes[0], indexes[0] + 1)
        # One itemgetter shared across all columns: a single C call per
        # column replaces a Python-level __getitem__ call per element.
        getter = itemgetter(*indexes)
        picked: list = []
        for values in self.columns:
            taken = getter(values)
            if isinstance(values, array):
                picked.append(array(values.typecode, taken))
            else:
                picked.append(list(taken))
        return ColumnBatch(self.schema, picked, count)

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """A new batch over rows ``start:stop`` of every column."""
        stop = min(stop, self.num_rows)
        start = min(start, stop)
        return ColumnBatch(
            self.schema,
            tuple(values[start:stop] for values in self.columns),
            stop - start,
        )

    def head(self, n: int) -> "ColumnBatch":
        """The first ``n`` rows (the whole batch if ``n >= num_rows``)."""
        if n >= self.num_rows:
            return self
        return self.slice(0, n)

    def select_columns(
        self, positions: Sequence[int], schema: Schema
    ) -> "ColumnBatch":
        """Reorder/subset columns by position without copying any values."""
        return ColumnBatch(
            schema,
            tuple(self.columns[position] for position in positions),
            self.num_rows,
        )

    # -- invariants -----------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ColumnBatchError` if any invariant is violated."""
        columns = self.schema.columns
        if len(self.columns) != len(columns):
            raise ColumnBatchError(
                "arity",
                None,
                f"schema has {len(columns)} columns but the batch carries "
                f"{len(self.columns)}",
            )
        for column, values in zip(columns, self.columns):
            if len(values) != self.num_rows:
                raise ColumnBatchError(
                    "length",
                    column.name,
                    f"column holds {len(values)} values but num_rows is "
                    f"{self.num_rows}",
                )
            if isinstance(values, array):
                expected = column.type.typecode
                if expected is None:
                    raise ColumnBatchError(
                        "dtype",
                        column.name,
                        f"{column.type.value} columns must be lists, got "
                        f"array({values.typecode!r})",
                    )
                if values.typecode != expected:
                    raise ColumnBatchError(
                        "dtype",
                        column.name,
                        f"array typecode {values.typecode!r} does not match "
                        f"{column.type.value} (expected {expected!r})",
                    )

    def payload_bytes(self) -> int:
        """Approximate payload bytes held by this batch's columns."""
        return column_payload_bytes(self.schema, self.columns)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return (
            f"ColumnBatch({self.num_rows} rows x "
            f"{len(self.columns)} columns)"
        )


def regroup_column_batches(
    chunks: Iterable[ColumnBatch],
    batch_size: int,
    schema: Schema,
) -> Iterator[ColumnBatch]:
    """Regroup variable-size column chunks into ~``batch_size``-row batches.

    Chunks at or above *half* the target that arrive on an empty buffer pass
    through untouched (zero copy -- the common full- or mostly-full-page
    case; ``batch_size`` is a target, not a contract, and re-copying a
    near-target array chunk costs a real memcpy per column), smaller chunks
    are accumulated with ``array.extend``/``list.extend`` (C-level appends,
    no per-row Python work) and flushed once the buffer reaches the target.
    """
    pass_through = max(2, batch_size // 2)
    pending: list["array | list"] | None = None
    count = 0
    for chunk in chunks:
        if not chunk.num_rows:
            continue
        if pending is None:
            if chunk.num_rows >= pass_through:
                yield chunk
                continue
            pending = [mutable_copy(values) for values in chunk.columns]
            count = chunk.num_rows
        else:
            for accumulator, values in zip(pending, chunk.columns):
                accumulator.extend(values)
            count += chunk.num_rows
        if count >= batch_size:
            yield ColumnBatch(schema, tuple(pending), count)
            pending = None
            count = 0
    if pending is not None and count:
        yield ColumnBatch(schema, tuple(pending), count)
