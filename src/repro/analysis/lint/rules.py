"""The engine's lint rules: repo-wide source invariants, one class each.

Each rule encodes a contract the engine's correctness depends on but that no
runtime test can economically guard (the violation only bites under a rare
interleaving, a future refactor, or a mode the test happened not to run).
The docstring of each rule is its rationale; ``fix_hint`` is surfaced with
every violation.
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.analysis.lint.framework import (
    LintRule,
    ProjectRule,
    SourceModule,
    Violation,
)

#: The one module allowed to use pickle: the sort-spill run codec, which
#: round-trips only records the engine itself wrote within one process run.
PICKLE_ALLOWED = ("repro/core/sort.py",)

#: The three storage engines whose EngineStats counters must stay in parity.
ENGINE_MODULES = (
    "repro/storage/hybrid.py",
    "repro/storage/tuple_first.py",
    "repro/storage/version_first.py",
)

#: Wall-clock callables banned from bench measurement code.
WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "ctime"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}


class OperatorProtocolRule(LintRule):
    """Every ``Operator`` subclass must define ``column_batches`` and may not
    define ``__iter__`` or ``batches``.

    Queries have exactly one execution path: operators exchange
    :class:`~repro.core.columns.ColumnBatch` streams.  A subclass without
    its own ``column_batches`` raises mid-query, and a tuple-at-a-time
    ``__iter__`` or row-list ``batches`` method reintroduces a second,
    untested execution path beside the columnar one.
    """

    id = "REPRO001"
    rationale = (
        "operators run columnar only; a missing column_batches breaks "
        "execution and an __iter__/batches method revives a deleted path"
    )
    fix_hint = (
        "implement column_batches() on the operator and drop any __iter__ "
        "or batches method"
    )

    #: Row-path consumption methods that no operator may define.
    FORBIDDEN = ("__iter__", "batches")

    def check(self, module: SourceModule) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(
                isinstance(base, ast.Name) and base.id == "Operator"
                for base in node.bases
            ):
                continue
            defined = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            problems = []
            if "column_batches" not in defined:
                problems.append("does not define column_batches")
            forbidden = [name for name in self.FORBIDDEN if name in defined]
            if forbidden:
                problems.append(f"defines {', '.join(forbidden)}")
            if problems:
                violations.append(
                    self.violation(
                        module,
                        node.lineno,
                        f"Operator subclass {node.name} "
                        f"{' and '.join(problems)}",
                    )
                )
        return violations


class PickleConfinementRule(LintRule):
    """``pickle`` may appear only in the sort-spill codec.

    Pickle deserialization executes arbitrary callables; the engine's only
    sanctioned use is round-tripping its own spilled sort runs within a
    single process, in :mod:`repro.core.sort`.  Any other import is either
    an accidental persistence format (breaks cross-version compatibility)
    or an injection surface.
    """

    id = "REPRO002"
    rationale = (
        "pickle is only safe for same-process spill files; anywhere else it "
        "is an unstable storage format and a deserialization attack surface"
    )
    fix_hint = (
        "use the record codec / struct packing for persistence, or move the "
        "logic into the sort-spill codec if it genuinely spills"
    )

    def check(self, module: SourceModule) -> list[Violation]:
        if module.relpath in PICKLE_ALLOWED:
            return []
        violations: list[Violation] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "pickle":
                        violations.append(
                            self.violation(
                                module, node.lineno, "import of pickle"
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "pickle":
                    violations.append(
                        self.violation(module, node.lineno, "import from pickle")
                    )
        return violations


class MutableDefaultRule(LintRule):
    """No mutable default arguments.

    A ``def f(x, acc=[])`` default is created once and shared across calls;
    in an engine where operators and plans are instantiated per query, a
    shared accumulator is a cross-query state leak that only shows up under
    repeated use.
    """

    id = "REPRO003"
    rationale = (
        "mutable defaults are shared across calls -- cross-query state "
        "leaks in per-query operator trees"
    )
    fix_hint = "default to None and create the container inside the function"

    _MUTABLE_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}

    def check(self, module: SourceModule) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(default, self._MUTABLE_NODES) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in self._MUTABLE_CALLS
                )
                if mutable:
                    violations.append(
                        self.violation(
                            module,
                            default.lineno,
                            f"mutable default argument in {node.name}()",
                        )
                    )
        return violations


class BareExceptRule(LintRule):
    """No bare ``except:`` handlers.

    A bare handler swallows ``KeyboardInterrupt``/``SystemExit`` and masks
    invariant violations (the verifier's own errors included) as ordinary
    control flow.
    """

    id = "REPRO004"
    rationale = (
        "bare except swallows KeyboardInterrupt/SystemExit and hides "
        "invariant violations as control flow"
    )
    fix_hint = "catch the narrowest exception type the code can actually handle"

    def check(self, module: SourceModule) -> list[Violation]:
        return [
            self.violation(module, node.lineno, "bare except clause")
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ExceptHandler) and node.type is None
        ]


class LockOrderRule(LintRule):
    """Multiple lock acquisitions must follow the canonical (sorted) order.

    The ``LockManager`` detects deadlocks after the fact; the engine's
    prevention discipline is that any loop acquiring more than one resource
    iterates the resource names in sorted order (see
    ``Transaction.commit``).  A loop body that calls ``acquire``/
    ``_lock_branch`` over an unsorted iterable can deadlock against a
    concurrent transaction taking the same locks in a different order.
    """

    id = "REPRO005"
    rationale = (
        "two transactions acquiring the same locks in different orders "
        "deadlock; sorted acquisition is the prevention discipline"
    )
    fix_hint = "iterate sorted(resources) in any loop that acquires locks"

    _ACQUIRE_NAMES = {"acquire", "_lock_branch"}

    def _acquires(self, body: Sequence[ast.stmt]) -> int | None:
        """Line of the first lock acquisition within ``body``, if any."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = (
                        func.attr
                        if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else None
                    )
                    if name in self._ACQUIRE_NAMES:
                        return node.lineno
        return None

    @staticmethod
    def _is_sorted_iter(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
        )

    def check(self, module: SourceModule) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            line = self._acquires(node.body)
            if line is not None and not self._is_sorted_iter(node.iter):
                violations.append(
                    self.violation(
                        module,
                        line,
                        "lock acquisition inside a loop over an unsorted "
                        "iterable",
                    )
                )
        return violations


class BenchWallClockRule(LintRule):
    """Benchmark code must not read the wall clock.

    Measurement bodies use ``time.perf_counter`` (monotonic, high
    resolution); ``time.time``/``datetime.now`` are subject to NTP steps
    and DST, and any other wall-clock read in bench code is
    nondeterminism that makes regression ratios unreproducible.
    """

    id = "REPRO006"
    rationale = (
        "wall-clock reads make bench numbers irreproducible; perf_counter "
        "is the only sanctioned time source in measurement code"
    )
    fix_hint = "use time.perf_counter() for intervals"

    def check(self, module: SourceModule) -> list[Violation]:
        if not module.relpath.startswith("repro/bench/"):
            return []
        violations: list[Violation] = []
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            owner_name = owner.id if isinstance(owner, ast.Name) else (
                owner.attr if isinstance(owner, ast.Attribute) else None
            )
            if (owner_name, node.func.attr) in WALL_CLOCK_CALLS:
                violations.append(
                    self.violation(
                        module,
                        node.lineno,
                        f"wall-clock call {owner_name}.{node.func.attr}() in "
                        "bench code",
                    )
                )
        return violations


class EngineStatsParityRule(ProjectRule):
    """Any ``EngineStats`` counter one engine touches, all three must touch.

    The bench tables compare the three storage designs through their
    counters; an engine that forgets to bump ``records_scanned`` (say)
    produces numbers that look like a design win but are an accounting
    hole.  This is the cross-file invariant no per-module check can see.
    """

    id = "REPRO007"
    rationale = (
        "bench comparisons read the same counters across engines; a "
        "counter bumped by only some engines skews every table"
    )
    fix_hint = (
        "bump the counter at the matching call site in the other engines "
        "(or move the accounting into the shared base class)"
    )

    @staticmethod
    def _counters(module: SourceModule) -> dict[str, int]:
        """Counter names touched via ``<...>.stats.<name>``, with a line."""
        counters: dict[str, int] = {}
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "stats"
            ) or (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "stats"
            ):
                counters.setdefault(node.attr, node.lineno)
        return counters

    def check_project(self, modules: Sequence[SourceModule]) -> list[Violation]:
        engines = {
            module.relpath: module
            for module in modules
            if module.relpath in ENGINE_MODULES
        }
        if len(engines) < 2:
            return []
        per_engine = {
            relpath: self._counters(module)
            for relpath, module in engines.items()
        }
        union: set[str] = set()
        for counters in per_engine.values():
            union |= set(counters)
        violations: list[Violation] = []
        for relpath, counters in sorted(per_engine.items()):
            missing = union - set(counters)
            for name in sorted(missing):
                touched_by = sorted(
                    other for other, cs in per_engine.items() if name in cs
                )
                violations.append(
                    Violation(
                        self.id,
                        relpath,
                        1,
                        f"EngineStats counter {name!r} is touched by "
                        f"{', '.join(touched_by)} but not by this engine",
                        self.fix_hint,
                    )
                )
        return violations


class ColumnarBoundaryRule(LintRule):
    """No per-row ``Record`` construction or row decode inside columnar bodies.

    The columnar pipeline's whole speedup is that operators and engine scans
    move typed column arrays and never build per-row objects; rows exist
    only at the declared boundaries (:meth:`ColumnBatch.from_records` /
    :meth:`ColumnBatch.to_records` / :meth:`ColumnBatch.rows` and the
    result builder in ``execute_plan``).  A ``Record(...)`` call, or a row
    decode (a page's ``records()`` / ``record_at()``, a heap's
    ``scan_records()`` / ``record_by_ordinal()``), inside an
    operator's ``column_batches`` method or a storage engine's
    ``scan_*_columns`` / ``scan_branches_batched`` body, or any storage
    function annotated to return column batches, reintroduces
    per-row object construction under a columnar facade -- the hot loop
    quietly pays the row tax, also for rows the predicate then rejects.
    """

    id = "REPRO008"
    rationale = (
        "Record construction or row decode inside a column_batches or "
        "columnar scan body pays the per-row object cost the columnar path "
        "exists to avoid"
    )
    fix_hint = (
        "move whole columns (columns_view/take/slice/extend), or cross the "
        "row boundary explicitly via ColumnBatch.rows()/to_records()/"
        "from_records() outside the batch loop"
    )

    #: Page and heap methods that decode rows into :class:`Record` objects.
    ROW_DECODES = ("records", "record_at", "scan_records", "record_by_ordinal")

    @staticmethod
    def _columnar_body(
        node: ast.FunctionDef | ast.AsyncFunctionDef, relpath: str
    ) -> bool:
        name = node.name
        if name == "column_batches":
            return True
        if not relpath.startswith("repro/storage/"):
            return False
        if name == "scan_branches_batched" or (
            name.startswith("scan_") and name.endswith("_columns")
        ):
            return True
        # Whatever it is named, a storage function annotated to return
        # column batches (an engine's column or copy scan of a read state)
        # is a columnar body.
        return node.returns is not None and any(
            isinstance(part, ast.Name) and part.id == "ColumnBatch"
            for part in ast.walk(node.returns)
        )

    @classmethod
    def _row_call(cls, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            return "Record construction" if func.id == "Record" else None
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr == "Record":
            return "Record construction"
        if func.attr in cls.ROW_DECODES:
            return f"row decode ({func.attr})"
        return None

    def check(self, module: SourceModule) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._columnar_body(node, module.relpath):
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                what = self._row_call(inner)
                if what is not None:
                    violations.append(
                        self.violation(
                            module,
                            inner.lineno,
                            f"{what} inside {node.name}; rows may only "
                            "materialize at the declared column/row "
                            "boundaries",
                        )
                    )
        return violations


#: Modules allowed to open files in a truncating write mode.  Everything else
#: holds durable state and must write through the atomic-replace protocol.
DIRECT_WRITE_ALLOWED = (
    "repro/core/durable.py",  # the atomic_write / append_framed utility itself
    "repro/core/heapfile.py",  # empty-file create; page writes use "r+b"
)

#: Modules allowed to open files in append mode.  Everything else appends
#: through ``append_framed`` (CRC framing, fsync, directory fsync).
DIRECT_APPEND_ALLOWED = (
    "repro/core/durable.py",  # append_framed itself
    # The WAL buffers framed records without an fsync and makes them
    # durable with one group-commit fsync, which reopens the file.
    "repro/core/wal.py",
)

#: Subtrees exempt from REPRO009: benchmark result files and the git-baseline
#: comparison code are not engine-durable state.
DIRECT_WRITE_ALLOWED_PREFIXES = ("repro/bench/", "repro/gitlike/")


class DurableWriteRule(LintRule):
    """Durable files must be written via ``atomic_write``/``append_framed``.

    A truncating ``open(path, "w")`` destroys the old contents before the new
    ones are durable: a crash between the truncate and the final fsync leaves
    a torn or empty file where complete metadata used to be.  A raw
    ``open(path, "a")`` append carries no checksum, so a torn or bit-flipped
    record reads back as data.  Every durable write path in the engine goes
    through :func:`repro.core.durable.atomic_write` (write-temp / fsync /
    atomic rename / dir fsync) or :func:`repro.core.durable.append_framed`
    (checksummed fsynced appends); a direct write- or append-mode ``open``
    anywhere else is a crash-consistency hole waiting for a power failure.
    """

    id = "REPRO009"
    rationale = (
        'open(path, "w") truncates before the replacement is durable, and '
        'open(path, "a") appends unchecksummed bytes; a crash destroys or '
        "tears state that atomic_write / append_framed would have preserved"
    )
    fix_hint = (
        "write through repro.core.durable.atomic_write / dump_json_atomic "
        "(whole-file replace) or append_framed (append-only logs)"
    )

    @staticmethod
    def _write_mode(node: ast.Call) -> str | None:
        """The constant mode string of an ``open`` call, if determinable."""
        mode: ast.expr | None = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None

    def check(self, module: SourceModule) -> list[Violation]:
        if module.relpath.startswith(DIRECT_WRITE_ALLOWED_PREFIXES):
            return []
        violations: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
                continue
            mode = self._write_mode(node)
            if mode is None:
                continue
            if ("w" in mode or "x" in mode) and (
                module.relpath not in DIRECT_WRITE_ALLOWED
            ):
                message = "truncating writes must go through atomic_write"
            elif "a" in mode and module.relpath not in DIRECT_APPEND_ALLOWED:
                message = "appends must go through append_framed"
            else:
                continue
            violations.append(
                self.violation(
                    module,
                    node.lineno,
                    f"direct open(..., {mode!r}) of a durable file; {message}",
                )
            )
        return violations


#: Await targets the serving layer may use directly: the bounded asyncio
#: primitives, plus the protocol's frame helpers (whose own awaits this rule
#: checks, since ``repro/server/`` includes them).
BOUNDED_AWAIT_CALLEES = {"wait_for", "sleep", "read_frame", "write_frame"}


class BoundedAwaitRule(LintRule):
    """Every ``await`` in the serving layer must carry a timeout.

    The server's availability story rests on one discipline: no handler
    ever waits on a peer, a worker, or a lock without a bound.  One naked
    ``await reader.read()`` against a stalled client parks a handler
    forever, and enough of them exhaust the session budget -- an outage
    caused by the slowest client instead of the heaviest load.  Awaits in
    ``repro/server/`` must therefore be ``asyncio.wait_for(...)``,
    ``asyncio.sleep(...)``, one of the protocol's frame helpers (bounded
    internally, checked by this same rule), or a local coroutine whose
    name ends in ``_bounded`` -- the author's checked-here assertion that
    every await inside it is itself bounded.
    """

    id = "REPRO010"
    rationale = (
        "an unbounded await in a server handler parks it on the slowest "
        "peer forever; enough of them exhaust the session budget"
    )
    fix_hint = (
        "wrap the await in asyncio.wait_for(..., timeout=...) or move it "
        "into a *_bounded helper whose awaits are all bounded"
    )

    @staticmethod
    def _callee_name(node: ast.expr) -> str | None:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                return func.attr
            if isinstance(func, ast.Name):
                return func.id
        return None

    def check(self, module: SourceModule) -> list[Violation]:
        if not module.relpath.startswith("repro/server/"):
            return []
        violations: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Await):
                continue
            name = self._callee_name(node.value)
            if name is None or (
                name not in BOUNDED_AWAIT_CALLEES
                and not name.endswith("_bounded")
            ):
                violations.append(
                    self.violation(
                        module,
                        node.lineno,
                        f"unbounded await of {name or 'a non-call expression'!s} "
                        "in the serving layer",
                    )
                )
        return violations


#: Engine methods that mutate or wholesale-replace a branch's record set.
#: Each must keep the index subsystem informed, or the indexes silently
#: drift from storage and index scans return wrong answers.
INDEX_MUTATION_METHODS = (
    "insert",
    "update",
    "delete",
    "_apply_merge_change",
    "_materialize_branch",
)


class IndexMaintenanceRule(LintRule):
    """Every engine mutation path must notify the index maintenance hook.

    The primary-key and secondary indexes are derived state: they are only
    correct while every path that adds, changes, removes, or wholesale
    replaces records tells the engine's ``index_hook``.  A mutation method
    that forgets the notification does not fail any single-path test -- it
    produces an index that drifts from storage and an
    :class:`~repro.query.logical.IndexScan` that silently returns wrong
    rows.  Each mutation method defined in an engine module must therefore
    reference ``index_hook`` directly or delegate to another mutation
    method that does (e.g. ``update`` routing through ``insert``).
    """

    id = "REPRO011"
    rationale = (
        "a mutation path that skips the index hook leaves the pk/secondary "
        "indexes stale, and index scans then return wrong rows"
    )
    fix_hint = (
        "call the matching self.index_hook notification (applied/removed/"
        "branch_created/branch_rebuilt) in the mutation method, or delegate "
        "to a mutation method that does"
    )

    @staticmethod
    def _touches_hook(node: ast.AST) -> bool:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Attribute) and inner.attr == "index_hook":
                return True
        return False

    @staticmethod
    def _delegates(node: ast.AST) -> bool:
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in INDEX_MUTATION_METHODS
                and isinstance(inner.func.value, ast.Name)
                and inner.func.value.id == "self"
            ):
                return True
        return False

    def check(self, module: SourceModule) -> list[Violation]:
        if module.relpath not in ENGINE_MODULES:
            return []
        violations: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name not in INDEX_MUTATION_METHODS:
                    continue
                if self._touches_hook(item) or self._delegates(item):
                    continue
                violations.append(
                    self.violation(
                        module,
                        item.lineno,
                        f"engine mutation method {item.name}() neither "
                        "notifies index_hook nor delegates to a mutation "
                        "method that does",
                    )
                )
        return violations


#: Every rule, in id order -- the default set run by ``scripts/lint.py``.
ALL_RULES: tuple[LintRule, ...] = (
    OperatorProtocolRule(),
    PickleConfinementRule(),
    MutableDefaultRule(),
    BareExceptRule(),
    LockOrderRule(),
    BenchWallClockRule(),
    EngineStatsParityRule(),
    ColumnarBoundaryRule(),
    DurableWriteRule(),
    BoundedAwaitRule(),
    IndexMaintenanceRule(),
)
