"""Exception hierarchy for the Decibel reproduction.

All errors raised by the library derive from :class:`DecibelError` so callers
can catch library failures with a single ``except`` clause while still
distinguishing the individual failure modes.

Every class carries a stable, machine-readable ``code`` (a kebab-case string
that never changes once shipped) and a ``retryable`` flag so the serving
layer can map any engine failure onto the wire without a lookup table:
``to_wire()`` produces a JSON-safe dict and :func:`error_from_wire`
reconstructs the matching exception class on the client side, preserving
structured fields (``position``, ``file``/``offset``, ``rule``/``node``,
...) that a plain ``str(exc)`` round-trip would lose.
"""

from __future__ import annotations

from typing import Any, ClassVar

#: ``code`` -> exception class, populated by ``DecibelError.__init_subclass__``.
_CODE_REGISTRY: dict[str, type["DecibelError"]] = {}


def _jsonable(value: object) -> object:
    """Coerce ``value`` to something JSON-serializable (repr as a last resort)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


class DecibelError(Exception):
    """Base class for every error raised by this library.

    Subclasses override ``code`` (stable wire identifier) and ``retryable``
    (True when the same request may succeed if simply retried -- transient
    contention or capacity conditions, not logic or data errors).
    """

    code: ClassVar[str] = "internal"
    retryable: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "code" in cls.__dict__:
            existing = _CODE_REGISTRY.get(cls.code)
            if existing is not None and existing is not cls:
                raise TypeError(
                    f"duplicate error code {cls.code!r}: "
                    f"{existing.__name__} vs {cls.__name__}"
                )
            _CODE_REGISTRY[cls.code] = cls

    def to_wire(self) -> dict[str, Any]:
        """A JSON-safe description of this error for the wire protocol."""
        doc: dict[str, Any] = {
            "code": self.code,
            "message": str(self),
            "retryable": self.retryable,
        }
        fields = self._wire_fields()
        if fields:
            doc["fields"] = {key: _jsonable(value) for key, value in fields.items()}
        return doc

    def _wire_fields(self) -> dict[str, Any]:
        """Structured fields to preserve across the wire (subclass hook)."""
        return {}

    @classmethod
    def _from_wire_fields(
        cls, message: str, fields: dict[str, Any]
    ) -> "DecibelError":
        """Rebuild an instance from ``message`` + ``fields`` (subclass hook)."""
        return cls(message)


def error_from_wire(doc: dict[str, Any]) -> DecibelError:
    """Reconstruct the exception described by a ``to_wire()`` dict.

    Unknown codes (a newer server talking to an older client) degrade to a
    plain :class:`DecibelError` carrying the received code and retryability
    rather than failing, so clients never crash on an unfamiliar error.
    """
    code = str(doc.get("code", "internal"))
    message = str(doc.get("message", ""))
    fields_raw = doc.get("fields")
    fields: dict[str, Any] = dict(fields_raw) if isinstance(fields_raw, dict) else {}
    cls = _CODE_REGISTRY.get(code)
    if cls is None:
        error = DecibelError(message)
        error.code = code  # type: ignore[misc]
        error.retryable = bool(doc.get("retryable", False))  # type: ignore[misc]
        return error
    return cls._from_wire_fields(message, fields)


def registered_error_codes() -> dict[str, type[DecibelError]]:
    """A copy of the ``code -> class`` registry (for tests and docs)."""
    return dict(_CODE_REGISTRY)


class SchemaError(DecibelError):
    """A schema definition or a record/schema mismatch is invalid."""

    code = "schema"


class RecordError(DecibelError):
    """A record could not be encoded, decoded or validated."""

    code = "record"


class ColumnBatchError(RecordError):
    """A column batch violated the columnar representation's invariants.

    Raised by :mod:`repro.core.columns` when a batch fails validation
    (ragged columns, a typed array whose typecode contradicts the schema
    column type, or the wrong number of columns).  ``reason`` names the
    violated invariant (``"arity"``, ``"length"`` or ``"dtype"``) and
    ``column`` the offending column's name (or ``None`` for batch-wide
    failures), so the failure is actionable without inspecting the batch.
    """

    code = "column-batch"

    def __init__(self, reason: str, column: str | None, message: str):
        at = f" at column {column!r}" if column is not None else ""
        super().__init__(f"column batch invariant [{reason}]{at}: {message}")
        self.reason = reason
        self.column = column
        self.detail = message

    def _wire_fields(self) -> dict[str, Any]:
        return {"reason": self.reason, "column": self.column, "detail": self.detail}

    @classmethod
    def _from_wire_fields(
        cls, message: str, fields: dict[str, Any]
    ) -> "ColumnBatchError":
        return cls(
            str(fields.get("reason", "unknown")),
            fields.get("column"),
            str(fields.get("detail", message)),
        )


class PageError(DecibelError):
    """A page is full, corrupt, or addressed out of bounds."""

    code = "page"


class StorageError(DecibelError):
    """A heap file, segment file or buffer pool operation failed."""

    code = "storage"


class CorruptionError(StorageError):
    """On-disk state failed an integrity check (CRC mismatch, torn write).

    Raised by :mod:`repro.core.durable` and the recovery paths when a durable
    file does not match what was written: a CRC-stamped metadata payload whose
    checksum disagrees with its contents, a log record whose length prefix
    runs past the end of the file, or a heap whose size is not a whole number
    of pages.  ``file`` names the corrupt file, ``offset`` the byte position
    the check failed at (when known), and ``expected``/``actual`` carry the
    mismatched values so the failure is diagnosable without a hex dump.
    """

    code = "corruption"

    def __init__(
        self,
        file: str,
        message: str,
        *,
        offset: int | None = None,
        expected: object = None,
        actual: object = None,
    ):
        where = file if offset is None else f"{file} @ byte {offset}"
        detail = message
        if expected is not None or actual is not None:
            detail += f" (expected {expected!r}, actual {actual!r})"
        super().__init__(f"corruption in {where}: {detail}")
        self.file = file
        self.offset = offset
        self.expected = expected
        self.actual = actual
        self.detail = message

    def _wire_fields(self) -> dict[str, Any]:
        return {
            "file": self.file,
            "offset": self.offset,
            "expected": self.expected,
            "actual": self.actual,
            "detail": self.detail,
        }

    @classmethod
    def _from_wire_fields(
        cls, message: str, fields: dict[str, Any]
    ) -> "CorruptionError":
        offset = fields.get("offset")
        return cls(
            str(fields.get("file", "<unknown>")),
            str(fields.get("detail", message)),
            offset=int(offset) if isinstance(offset, int) else None,
            expected=fields.get("expected"),
            actual=fields.get("actual"),
        )


class TransactionError(DecibelError):
    """A transaction violated the locking protocol or was aborted.

    Lock timeouts and deadlock aborts are transient contention: the same
    transaction, replayed from the top, may well succeed -- hence retryable.
    """

    code = "transaction"
    retryable = True


class VersionError(DecibelError):
    """A version-graph operation referenced an unknown or invalid version."""

    code = "version"


class BranchNotFoundError(VersionError):
    """The named branch does not exist in the version graph."""

    code = "branch-not-found"


class CommitNotFoundError(VersionError):
    """The referenced commit does not exist in the version graph."""

    code = "commit-not-found"


class BranchExistsError(VersionError):
    """An attempt was made to create a branch whose name is already taken."""

    code = "branch-exists"


class MergeConflictError(VersionError):
    """A merge produced conflicts and no resolution policy was supplied."""

    code = "merge-conflict"


class QueryError(DecibelError):
    """A versioned query could not be parsed, planned or executed."""

    code = "query"

    #: Character offset into the SQL text the error refers to, when known.
    position: int | None = None

    def _wire_fields(self) -> dict[str, Any]:
        if self.position is None:
            return {}
        return {"position": self.position}

    @classmethod
    def _from_wire_fields(cls, message: str, fields: dict[str, Any]) -> "QueryError":
        error = cls(message)
        position = fields.get("position")
        if isinstance(position, int):
            error.position = position
        return error


class PlanInvariantError(QueryError):
    """A logical plan violated an engine invariant before execution.

    Raised by :mod:`repro.analysis.plan_check` when a plan fails one of the
    static checks (schema propagation, execution-mode consistency, rewrite
    legality, operator-protocol conformance).  ``rule`` names the violated
    invariant class and ``node`` the offending plan node's label, so the
    failure is actionable without re-running the query.
    """

    code = "plan-invariant"

    def __init__(self, rule: str, node: str, message: str):
        super().__init__(
            f"plan invariant [{rule}] violated at {node}: {message}"
        )
        self.rule = rule
        self.node = node
        self.detail = message

    def _wire_fields(self) -> dict[str, Any]:
        return {"rule": self.rule, "node": self.node, "detail": self.detail}

    @classmethod
    def _from_wire_fields(
        cls, message: str, fields: dict[str, Any]
    ) -> "PlanInvariantError":
        return cls(
            str(fields.get("rule", "unknown")),
            str(fields.get("node", "<node>")),
            str(fields.get("detail", message)),
        )


class LiteralTypeError(QueryError):
    """A predicate compares a column with a literal of another type.

    Raised while the query is lowered, whether or not plans are verified,
    so a mistyped literal never reaches a scan or an index probe.
    """

    code = "literal-type"

    def __init__(self, column: str, column_type: str, literal: object):
        super().__init__(
            f"predicate compares {column_type} column {column!r} with "
            f"{literal!r} ({type(literal).__name__}); cast the literal or "
            "fix the column reference"
        )
        self.column = column
        self.column_type = column_type
        self.literal = literal

    def _wire_fields(self) -> dict[str, Any]:
        return {
            "column": self.column,
            "column_type": self.column_type,
            "literal": self.literal,
        }

    @classmethod
    def _from_wire_fields(
        cls, message: str, fields: dict[str, Any]
    ) -> "LiteralTypeError":
        return cls(
            str(fields.get("column", "?")),
            str(fields.get("column_type", "?")),
            fields.get("literal"),
        )


class BenchmarkError(DecibelError):
    """The benchmark driver was configured inconsistently."""

    code = "benchmark"


class ProtocolError(DecibelError):
    """A wire frame or request envelope was malformed (fatal, not retryable).

    Raised by :mod:`repro.server.protocol` on oversized frames, invalid JSON,
    unsupported protocol versions, or requests missing required fields.
    """

    code = "protocol"


class UnavailableError(DecibelError):
    """The server cannot take the request right now; retry against it later.

    Raised while the server is draining for shutdown (or otherwise refusing
    new work for operational reasons).  Retryable: a healthy replacement or
    a reconnect after the restart will succeed.
    """

    code = "unavailable"
    retryable = True


class OverloadedError(UnavailableError):
    """Admission control rejected the request: too many sessions or queued
    requests.  ``retry_after_s`` is the server's backoff hint in seconds.
    """

    code = "overloaded"

    def __init__(self, message: str, *, retry_after_s: float = 0.05):
        super().__init__(message)
        self.retry_after_s = retry_after_s

    def _wire_fields(self) -> dict[str, Any]:
        return {"retry_after_s": self.retry_after_s}

    @classmethod
    def _from_wire_fields(
        cls, message: str, fields: dict[str, Any]
    ) -> "OverloadedError":
        retry_after = fields.get("retry_after_s", 0.05)
        if not isinstance(retry_after, (int, float)):
            retry_after = 0.05
        return cls(message, retry_after_s=float(retry_after))


class DeadlineExceededError(DecibelError):
    """The request's deadline elapsed before the work completed.

    Retryable in the sense that the request was cancelled cleanly (locks and
    buffer-pool budget released) -- a retry with a larger budget may succeed.
    ``elapsed_s`` records how long the work ran before cancellation.
    """

    code = "deadline-exceeded"
    retryable = True

    def __init__(self, message: str, *, elapsed_s: float | None = None):
        super().__init__(message)
        self.elapsed_s = elapsed_s

    def _wire_fields(self) -> dict[str, Any]:
        if self.elapsed_s is None:
            return {}
        return {"elapsed_s": self.elapsed_s}

    @classmethod
    def _from_wire_fields(
        cls, message: str, fields: dict[str, Any]
    ) -> "DeadlineExceededError":
        elapsed = fields.get("elapsed_s")
        return cls(
            message,
            elapsed_s=float(elapsed) if isinstance(elapsed, (int, float)) else None,
        )


class QueryCancelledError(DecibelError):
    """The request was cancelled explicitly (client cancel, disconnect, or
    server shutdown) before it completed.  Not retryable by default: the
    caller asked for the cancellation, so blind retry would be surprising.
    """

    code = "cancelled"


class DatabaseClosedError(DecibelError):
    """An operation was attempted on a :class:`~repro.db.database.Decibel`
    instance that has been closed (or is draining for close)."""

    code = "database-closed"
