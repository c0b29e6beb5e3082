"""Predicates evaluated against records during scans.

The benchmark queries (paper Table 1 and Section 4.3) apply simple column
predicates -- equality and range comparisons -- optionally combined with
boolean connectives.  Predicates are small immutable objects with an
``evaluate(record, schema)`` method so operators and storage engines can apply
them without knowing their structure; ``selectivity_hint`` lets benchmarks
describe the non-selective predicates used by Query 4.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Collection

from repro.core.record import Record
from repro.core.schema import Schema
from repro.errors import QueryError

_OPERATORS = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


#: A compiled predicate: called with a record's raw ``values`` tuple.
CompiledPredicate = Callable[[tuple], bool]


class Predicate(ABC):
    """Base class for record predicates."""

    @abstractmethod
    def evaluate(self, record: Record, schema: Schema) -> bool:
        """True if ``record`` satisfies this predicate under ``schema``."""

    def _compile(self, schema: Schema) -> CompiledPredicate:
        """A closure over column ordinals, equivalent to :meth:`evaluate`.

        Subclasses override this with a lookup-free closure; the fallback
        keeps custom predicate classes working by routing through
        :meth:`evaluate` on a temporary record.
        """
        return lambda values: self.evaluate(Record(values), schema)

    def _column_expr(
        self, schema: Schema, constants: list, used: "set[int]"
    ) -> str | None:
        """A column-vector expression equivalent to :meth:`evaluate`.

        References the row-``_i`` value of column ``j`` as ``_cols[j][_i]``
        and records every touched column index in ``used``; constants are
        appended to ``constants`` and referenced as ``_c[i]`` (never
        ``repr``-ed into the source, so arbitrary objects are safe).  The
        columnar filter compiler inlines this into an index-selection
        comprehension over whole column arrays.  ``None`` means "not
        expressible" -- columnar callers then fall back to row-at-a-time
        evaluation at the batch boundary.
        """
        return None

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


#: Comparison-operator source text for the expression compiler.
_OPERATOR_SOURCE = {
    "=": "==",
    "==": "==",
    "!=": "!=",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


@lru_cache(maxsize=512)
def _compile_cached(schema: Schema, predicate: Predicate) -> CompiledPredicate:
    return predicate._compile(schema)


@lru_cache(maxsize=512)
def _compile_column_cached(schema: Schema, predicate: Predicate):
    constants: list = []
    used: set[int] = set()
    expr = predicate._column_expr(schema, constants, used)
    if expr is None:
        return None
    if len(used) == 1:
        # Single-column predicates (the common scan shape) iterate that one
        # array directly instead of indexing into it per row.
        (index,) = used
        body = expr.replace(f"_cols[{index}][_i]", "_v")
        source = (
            "lambda _cols, _n, _c: "
            f"[_i for _i, _v in enumerate(_cols[{index}]) if {body}]"
        )
    else:
        source = f"lambda _cols, _n, _c: [_i for _i in range(_n) if {expr}]"
    return partial(_select_function(source), _c=tuple(constants))


@lru_cache(maxsize=512)
def _select_function(source: str):
    """The selection function ``source`` defines, compiled once per text.

    The source names constants only as ``_c[i]``, so every predicate of one
    shape (``id = 1``, ``id = 2``, ...) shares one function and binds its
    own constants.  It is assembled only from validated operator symbols,
    integer column indexes and ``_c[i]`` references, never from value reprs.
    """
    return eval(  # noqa: S307
        source,
        {"__builtins__": {"enumerate": enumerate, "range": range}},
        {},
    )


@lru_cache(maxsize=512)
def _column_uses_cached(
    schema: Schema, predicate: Predicate
) -> "frozenset[int] | None":
    constants: list = []
    used: set[int] = set()
    if predicate._column_expr(schema, constants, used) is None:
        return None
    return frozenset(used)


def _memoized(cached, schema: Schema, predicate: Predicate):
    """``cached(schema, predicate)``, memoized where that is safe.

    A predicate holding a :class:`KeySetPredicate` compiles afresh, since
    the memo would pin one per-query key set per entry; one whose constant
    is unhashable (a list value, say) cannot be a memo key.  Both compile
    uncached to the same result.
    """
    if not _holds_key_set(predicate):
        try:
            return cached(schema, predicate)
        except TypeError:  # unhashable constant: not a memo key
            pass
    return cached.__wrapped__(schema, predicate)


def column_filter_columns(
    predicate: Predicate | None, schema: Schema
) -> "frozenset[int] | None":
    """The column indexes a compiled column selection reads.

    ``None`` whenever :func:`compile_column_filter` would return ``None``
    (no predicate, or no column-vector form).  Scan paths use this to
    decode only the predicate's columns before running the selection (late
    materialization), deferring the rest to the records it keeps.
    """
    if predicate is None:
        return None
    return _memoized(_column_uses_cached, schema, predicate)


def compile_column_filter(predicate: Predicate | None, schema: Schema):
    """Compile ``predicate`` into a selection over whole column arrays.

    Returns a callable ``select(columns, num_rows) -> list[int]`` yielding
    the indexes of matching rows in order.  The predicate expression is
    inlined into the selection comprehension and single-column predicates
    stream one array with ``enumerate`` -- no row tuple, record object or
    per-row function call exists anywhere on the path.  Returns ``None``
    when ``predicate`` is ``None`` or has no column-vector form; columnar
    callers then fall back to row-at-a-time evaluation at the batch
    boundary.
    """
    if predicate is None:
        return None
    return _memoized(_compile_column_cached, schema, predicate)


def compile_predicate(
    predicate: Predicate | None, schema: Schema
) -> CompiledPredicate | None:
    """Compile ``predicate`` into a closure over column ordinals.

    The compiled form is called with a record's ``values`` tuple, so the hot
    loop pays no per-row schema/dict lookups, attribute fetches or operator
    table probes.  Results are memoized per (schema, predicate) (see
    :func:`_memoized` for the exceptions), so repeated scans of the same
    shape reuse one closure.  ``None`` compiles to ``None`` (unfiltered
    scan).
    """
    if predicate is None:
        return None
    return _memoized(_compile_cached, schema, predicate)


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """A predicate satisfied by every record (used for unfiltered scans)."""

    def evaluate(self, record: Record, schema: Schema) -> bool:
        return True

    def _compile(self, schema: Schema) -> CompiledPredicate:
        return lambda values: True

    def _column_expr(
        self, schema: Schema, constants: list, used: "set[int]"
    ) -> str | None:
        return "True"


@dataclass(frozen=True)
class ColumnPredicate(Predicate):
    """Compare one column against a constant.

    Parameters
    ----------
    column:
        Column name.
    op:
        One of ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=`` (and their
        aliases ``==`` / ``<>``).
    value:
        The constant to compare against.
    """

    column: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise QueryError(f"unsupported comparison operator: {self.op!r}")

    def evaluate(self, record: Record, schema: Schema) -> bool:
        return _OPERATORS[self.op](record.value(schema, self.column), self.value)

    def _compile(self, schema: Schema) -> CompiledPredicate:
        index = schema.index_of(self.column)
        compare = _OPERATORS[self.op]
        constant = self.value
        return lambda values: compare(values[index], constant)

    def _column_expr(
        self, schema: Schema, constants: list, used: "set[int]"
    ) -> str | None:
        index = schema.index_of(self.column)
        used.add(index)
        constants.append(self.value)
        symbol = _OPERATOR_SOURCE[self.op]
        return f"(_cols[{index}][_i] {symbol} _c[{len(constants) - 1}])"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of two predicates."""

    left: Predicate
    right: Predicate

    def evaluate(self, record: Record, schema: Schema) -> bool:
        return self.left.evaluate(record, schema) and self.right.evaluate(
            record, schema
        )

    def _compile(self, schema: Schema) -> CompiledPredicate:
        left = self.left._compile(schema)
        right = self.right._compile(schema)
        return lambda values: left(values) and right(values)

    def _column_expr(
        self, schema: Schema, constants: list, used: "set[int]"
    ) -> str | None:
        left = self.left._column_expr(schema, constants, used)
        right = self.right._column_expr(schema, constants, used)
        if left is None or right is None:
            return None
        return f"({left} and {right})"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of two predicates."""

    left: Predicate
    right: Predicate

    def evaluate(self, record: Record, schema: Schema) -> bool:
        return self.left.evaluate(record, schema) or self.right.evaluate(
            record, schema
        )

    def _compile(self, schema: Schema) -> CompiledPredicate:
        left = self.left._compile(schema)
        right = self.right._compile(schema)
        return lambda values: left(values) or right(values)

    def _column_expr(
        self, schema: Schema, constants: list, used: "set[int]"
    ) -> str | None:
        left = self.left._column_expr(schema, constants, used)
        right = self.right._column_expr(schema, constants, used)
        if left is None or right is None:
            return None
        return f"({left} or {right})"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    inner: Predicate

    def evaluate(self, record: Record, schema: Schema) -> bool:
        return not self.inner.evaluate(record, schema)

    def _compile(self, schema: Schema) -> CompiledPredicate:
        inner = self.inner._compile(schema)
        return lambda values: not inner(values)

    def _column_expr(
        self, schema: Schema, constants: list, used: "set[int]"
    ) -> str | None:
        inner = self.inner._column_expr(schema, constants, used)
        if inner is None:
            return None
        return f"(not {inner})"


@dataclass(frozen=True, eq=False)
class KeySetPredicate(Predicate):
    """True when ``column``'s value is one of ``keys``.

    The hash join's probe filter: once the build side is hashed, the probe
    scan is issued with this term ANDed into its predicate, so the heap
    scans decode only the key column of a cold page and gather just the
    records whose key the build holds.  ``keys`` is any container with
    constant-time membership (the join passes its hash table's key view).
    The term compares by identity and is never memoized: it lives for one
    query.
    """

    column: str
    keys: Collection

    def evaluate(self, record: Record, schema: Schema) -> bool:
        return record.value(schema, self.column) in self.keys

    def _compile(self, schema: Schema) -> CompiledPredicate:
        index = schema.index_of(self.column)
        keys = self.keys
        return lambda values: values[index] in keys

    def _column_expr(
        self, schema: Schema, constants: list, used: "set[int]"
    ) -> str | None:
        index = schema.index_of(self.column)
        used.add(index)
        constants.append(self.keys)
        return f"(_cols[{index}][_i] in _c[{len(constants) - 1}])"


def _holds_key_set(predicate: Predicate) -> bool:
    """True when a :class:`KeySetPredicate` occurs anywhere in ``predicate``."""
    if isinstance(predicate, KeySetPredicate):
        return True
    if isinstance(predicate, (And, Or)):
        return _holds_key_set(predicate.left) or _holds_key_set(predicate.right)
    if isinstance(predicate, Not):
        return _holds_key_set(predicate.inner)
    return False


def conjunction_terms(predicate: Predicate | None) -> list[Predicate]:
    """The top-level AND-ed conjuncts of ``predicate``.

    ``And`` nodes are split recursively; every other predicate (including
    ``Or``/``Not`` subtrees) is one opaque conjunct.  The optimizer's
    index-scan selection uses this to find a :class:`ColumnPredicate` term
    an index can answer, and the plan verifier uses it to prove the chosen
    term really is a conjunct of the scan's predicate (dropping a
    disjunction branch would change results).
    """
    if predicate is None:
        return []
    if isinstance(predicate, And):
        return conjunction_terms(predicate.left) + conjunction_terms(
            predicate.right
        )
    return [predicate]


def non_selective_predicate(column: str, modulus: int = 10) -> Predicate:
    """A deliberately non-selective predicate for Query 4 style scans.

    The paper uses "a very non-selective predicate such that sequential scans
    are the preferred approach" (Section 5.2).  This helper returns a
    predicate that passes whenever ``column % modulus != 0``, i.e. roughly
    ``(modulus - 1) / modulus`` of uniformly random integers.
    """
    return ModuloPredicate(column, modulus)


@dataclass(frozen=True)
class ModuloPredicate(Predicate):
    """True when ``column % modulus != 0`` -- a cheap, tunable selectivity."""

    column: str
    modulus: int

    def evaluate(self, record: Record, schema: Schema) -> bool:
        return record.value(schema, self.column) % self.modulus != 0

    def _compile(self, schema: Schema) -> CompiledPredicate:
        index = schema.index_of(self.column)
        modulus = self.modulus
        return lambda values: values[index] % modulus != 0

    def _column_expr(
        self, schema: Schema, constants: list, used: "set[int]"
    ) -> str | None:
        index = schema.index_of(self.column)
        used.add(index)
        constants.append(self.modulus)
        return f"(_cols[{index}][_i] % _c[{len(constants) - 1}] != 0)"
