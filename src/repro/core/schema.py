"""Relation schemas for the Decibel reproduction.

The paper's benchmark uses relations made of fixed-width integer columns with
a single integer primary key (Section 4.2).  The schema layer here supports
that shape plus fixed-length strings so examples can model realistic datasets
(product catalogs, map features, patient cohorts).

A :class:`Schema` is an ordered collection of :class:`Column` objects.  The
first column is the primary key by default; an explicit primary key column may
be named instead.  Schemas know their fixed on-disk record width, which the
record codec and page layout rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """Supported column types.

    ``INT`` is an 8-byte signed integer.  ``INT32`` is a 4-byte signed
    integer, matching the paper's 4-byte benchmark columns.  ``STRING`` is a
    fixed-width UTF-8 field padded with NUL bytes; its width is set per
    column.  ``FLOAT`` is a double-precision float carried only by derived
    schemas (``avg`` aggregates emit it); stored relations reject it as a
    primary key and never encode it to disk.
    """

    INT = "int"
    INT32 = "int32"
    STRING = "string"
    FLOAT = "float"

    @property
    def fixed_width(self) -> int | None:
        """Byte width of the type, or ``None`` if set per column (STRING)."""
        if self is ColumnType.INT:
            return 8
        if self is ColumnType.INT32:
            return 4
        if self is ColumnType.FLOAT:
            return 8
        return None

    @property
    def typecode(self) -> str | None:
        """``array.array`` typecode for the columnar representation.

        ``None`` for STRING, which is carried as a plain list: Python has no
        fixed-width native text array, and the decode path already produces
        ``str`` objects.
        """
        if self is ColumnType.INT:
            return "q"
        if self is ColumnType.INT32:
            return "i"
        if self is ColumnType.FLOAT:
            return "d"
        return None


@dataclass(frozen=True)
class Column:
    """A single column definition.

    Parameters
    ----------
    name:
        Column name; must be a valid identifier and unique within the schema.
    type:
        The :class:`ColumnType`.
    width:
        Byte width for STRING columns.  Ignored (and derived from the type)
        for integer columns.
    """

    name: str
    type: ColumnType = ColumnType.INT
    width: int = 0

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")
        if self.type is ColumnType.STRING:
            if self.width <= 0:
                raise SchemaError(
                    f"STRING column {self.name!r} needs a positive width"
                )
        else:
            object.__setattr__(self, "width", self.type.fixed_width)

    @property
    def byte_width(self) -> int:
        """On-disk width of one value of this column."""
        return self.width

    def compares_with(self, value: object) -> bool:
        """True if a predicate may compare this column with literal
        ``value``: an int for an integer column, an int or float for a
        FLOAT one, a string for a STRING one (never a bool)."""
        if isinstance(value, bool):
            return False
        if self.type in (ColumnType.INT, ColumnType.INT32):
            return isinstance(value, int)
        if self.type is ColumnType.FLOAT:
            return isinstance(value, (int, float))
        return isinstance(value, str)

    def validate(self, value: object) -> None:
        """Raise :class:`SchemaError` if ``value`` does not fit this column."""
        if self.type in (ColumnType.INT, ColumnType.INT32):
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(
                    f"column {self.name!r} expects int, got {type(value).__name__}"
                )
            bits = 8 * self.byte_width
            low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
            if not low <= value <= high:
                raise SchemaError(
                    f"value {value} out of range for column {self.name!r}"
                )
        elif self.type is ColumnType.FLOAT:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SchemaError(
                    f"column {self.name!r} expects a number, got "
                    f"{type(value).__name__}"
                )
        else:
            if not isinstance(value, str):
                raise SchemaError(
                    f"column {self.name!r} expects str, got {type(value).__name__}"
                )
            if len(value.encode("utf-8")) > self.width:
                raise SchemaError(
                    f"string too long for column {self.name!r} (max {self.width} bytes)"
                )


@dataclass(frozen=True)
class Schema:
    """An ordered, fixed-width relation schema.

    Parameters
    ----------
    columns:
        Ordered column definitions.
    primary_key:
        Name of the primary key column.  Defaults to the first column.  The
        primary key is used by every versioned engine to track records across
        versions (paper Section 2.2.1) and must be an integer column.
    """

    columns: tuple[Column, ...]
    primary_key: str = ""
    _index: dict[str, int] = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("a schema needs at least one column")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        pk = self.primary_key or names[0]
        if pk not in names:
            raise SchemaError(f"primary key {pk!r} is not a column")
        pk_column = self.columns[names.index(pk)]
        if pk_column.type not in (ColumnType.INT, ColumnType.INT32):
            raise SchemaError("the primary key must be an integer column")
        object.__setattr__(self, "primary_key", pk)
        object.__setattr__(
            self, "_index", {name: i for i, name in enumerate(names)}
        )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of_ints(cls, num_columns: int, *, width_bytes: int = 8) -> "Schema":
        """Build the benchmark schema: ``id`` plus ``num_columns - 1`` ints.

        The paper's generator uses an integer primary key plus randomly
        generated integer payload columns; ``width_bytes`` selects 4- or
        8-byte columns (both were evaluated, with no observed difference).
        """
        if num_columns < 1:
            raise SchemaError("need at least one column")
        if width_bytes == 8:
            col_type = ColumnType.INT
        elif width_bytes == 4:
            col_type = ColumnType.INT32
        else:
            raise SchemaError("width_bytes must be 4 or 8")
        columns = [Column("id", ColumnType.INT)]
        columns.extend(
            Column(f"c{i}", col_type) for i in range(1, num_columns)
        )
        return cls(tuple(columns), primary_key="id")

    @classmethod
    def derived(cls, columns: tuple[Column, ...] | list[Column]) -> "Schema":
        """A schema for intermediate query results.

        Unlike stored-relation schemas, derived schemas (aggregate outputs,
        projections that drop the key) are never encoded to disk, so they do
        not require an integer primary key: the first column is nominated as
        the key regardless of its type.
        """
        columns = tuple(columns)
        if not columns:
            raise SchemaError("a schema needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        schema = object.__new__(cls)
        object.__setattr__(schema, "columns", columns)
        object.__setattr__(schema, "primary_key", names[0])
        object.__setattr__(schema, "_index", {name: i for i, name in enumerate(names)})
        return schema

    # -- accessors ------------------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        """Names of all columns in schema order."""
        return tuple(column.name for column in self.columns)

    @property
    def primary_key_index(self) -> int:
        """Positional index of the primary key column."""
        return self._index[self.primary_key]

    @property
    def record_width(self) -> int:
        """Fixed byte width of one encoded record (payload only)."""
        return sum(column.byte_width for column in self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def index_of(self, name: str) -> int:
        """Positional index of column ``name``; raises if unknown."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown column: {name!r}") from None

    def column(self, name: str) -> Column:
        """The :class:`Column` named ``name``."""
        return self.columns[self.index_of(name)]

    def validate_key(self, key: object) -> None:
        """Raise :class:`SchemaError` unless ``key`` fits the primary-key
        column (a delete's key is checked as strictly as a written row's)."""
        self.column(self.primary_key).validate(key)

    def validate_values(self, values: tuple) -> None:
        """Validate a full tuple of values against this schema."""
        if len(values) != len(self.columns):
            raise SchemaError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        for column, value in zip(self.columns, values):
            column.validate(value)

    def project(self, names: list[str] | tuple[str, ...]) -> "Schema":
        """A new schema containing only ``names`` (in the given order).

        The primary key is preserved if it is among ``names``; otherwise the
        first projected column becomes the key of the derived schema (with no
        integer-type requirement, since projected results are never stored).
        Derived sources (aggregate outputs) may nominate a non-integer key;
        projecting those always derives, since the stored-schema constructor
        only accepts integer keys.
        """
        columns = tuple(self.column(name) for name in names)
        if self.primary_key in names:
            pk_column = self.column(self.primary_key)
            if pk_column.type in (ColumnType.INT, ColumnType.INT32):
                return Schema(columns, primary_key=self.primary_key)
        return Schema.derived(columns)

    def describe(self) -> str:
        """A one-line human-readable description of the schema."""
        parts = []
        for column in self.columns:
            marker = "*" if column.name == self.primary_key else ""
            parts.append(f"{column.name}{marker}:{column.type.value}")
        return ", ".join(parts)
