"""Tests for the engine lint rules (`repro.analysis.lint`).

Each rule gets a seeded violation -- a minimal source snippet written the
way the bug would actually be written -- plus a conforming snippet proving
the rule does not fire on the idiom the repo uses.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import SourceModule, run_rules
from repro.analysis.lint.rules import (
    ALL_RULES,
    BareExceptRule,
    BenchWallClockRule,
    ColumnarBoundaryRule,
    DurableWriteRule,
    EngineStatsParityRule,
    LockOrderRule,
    MutableDefaultRule,
    OperatorProtocolRule,
    PickleConfinementRule,
)


def module(relpath: str, source: str) -> SourceModule:
    return SourceModule(
        path=Path("/dev/null"), relpath=relpath, source=textwrap.dedent(source)
    )


def check(rule, relpath: str, source: str):
    return rule.check(module(relpath, source))


class TestRuleMetadata:
    def test_every_rule_has_id_rationale_and_hint(self):
        seen = set()
        for rule in ALL_RULES:
            assert rule.id.startswith("REPRO") and len(rule.id) == 8
            assert rule.id not in seen, f"duplicate rule id {rule.id}"
            seen.add(rule.id)
            assert rule.rationale
            assert rule.fix_hint

    def test_violation_render_is_actionable(self):
        violations = check(
            BareExceptRule(),
            "repro/x.py",
            """
            try:
                pass
            except:
                pass
            """,
        )
        rendered = violations[0].render()
        assert rendered.startswith("repro/x.py:")
        assert "[REPRO004]" in rendered
        assert "fix:" in rendered


class TestOperatorProtocolRule:
    def test_iter_method_flagged(self):
        # A seeded revival of the deleted tuple-at-a-time path.
        violations = check(
            OperatorProtocolRule(),
            "repro/core/operators.py",
            """
            class Revived(Operator):
                def __iter__(self):
                    return iter(())
                def column_batches(self, batch_size=1024):
                    yield from ()
            """,
        )
        assert len(violations) == 1
        assert "__iter__" in violations[0].message
        assert "Revived" in violations[0].message

    def test_batches_method_flagged(self):
        violations = check(
            OperatorProtocolRule(),
            "repro/query/physical.py",
            """
            class Revived(Operator):
                def batches(self, batch_size=1024):
                    yield []
                def column_batches(self, batch_size=1024):
                    yield from ()
            """,
        )
        assert len(violations) == 1
        assert "batches" in violations[0].message

    def test_missing_column_batches_flagged(self):
        violations = check(
            OperatorProtocolRule(),
            "repro/core/operators.py",
            """
            class Broken(Operator):
                def count(self):
                    return 0
            """,
        )
        assert len(violations) == 1
        assert "does not define column_batches" in violations[0].message

    def test_columnar_operator_clean(self):
        violations = check(
            OperatorProtocolRule(),
            "repro/core/operators.py",
            """
            class Fine(Operator):
                def column_batches(self, batch_size=1024):
                    yield from ()
                def count(self):
                    return 0
            """,
        )
        assert violations == []

    def test_non_operator_class_ignored(self):
        violations = check(
            OperatorProtocolRule(),
            "repro/core/other.py",
            """
            class NotAnOperator:
                def __iter__(self):
                    return iter(())
            """,
        )
        assert violations == []


class TestPickleConfinementRule:
    def test_import_outside_codec_flagged(self):
        violations = check(
            PickleConfinementRule(),
            "repro/storage/hybrid.py",
            "import pickle\n",
        )
        assert len(violations) == 1
        assert "pickle" in violations[0].message

    def test_from_import_flagged(self):
        violations = check(
            PickleConfinementRule(),
            "repro/db/database.py",
            "from pickle import dumps\n",
        )
        assert len(violations) == 1

    def test_spill_codec_allowed(self):
        violations = check(
            PickleConfinementRule(), "repro/core/sort.py", "import pickle\n"
        )
        assert violations == []


class TestMutableDefaultRule:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "list()"]
    )
    def test_mutable_default_flagged(self, default):
        violations = check(
            MutableDefaultRule(),
            "repro/x.py",
            f"def f(x, acc={default}):\n    return acc\n",
        )
        assert len(violations) == 1
        assert "f()" in violations[0].message

    def test_keyword_only_default_flagged(self):
        violations = check(
            MutableDefaultRule(),
            "repro/x.py",
            "def f(x, *, acc=[]):\n    return acc\n",
        )
        assert len(violations) == 1

    def test_none_default_clean(self):
        violations = check(
            MutableDefaultRule(),
            "repro/x.py",
            "def f(x, acc=None, n=3, name='a'):\n    return acc\n",
        )
        assert violations == []


class TestBareExceptRule:
    def test_bare_except_flagged(self):
        violations = check(
            BareExceptRule(),
            "repro/x.py",
            """
            try:
                pass
            except:
                pass
            """,
        )
        assert len(violations) == 1

    def test_typed_except_clean(self):
        violations = check(
            BareExceptRule(),
            "repro/x.py",
            """
            try:
                pass
            except ValueError:
                pass
            except (KeyError, OSError) as exc:
                raise exc
            """,
        )
        assert violations == []


class TestLockOrderRule:
    def test_unsorted_loop_acquire_flagged(self):
        violations = check(
            LockOrderRule(),
            "repro/core/transactions.py",
            """
            def commit(self):
                for branch in self.branches:
                    self.lock_manager.acquire(self.txid, branch, MODE)
            """,
        )
        assert len(violations) == 1
        assert "unsorted" in violations[0].message

    def test_unsorted_loop_lock_branch_flagged(self):
        violations = check(
            LockOrderRule(),
            "repro/core/transactions.py",
            """
            def commit(self):
                for branch in {w.branch for w in self.writes}:
                    self._lock_branch(branch)
            """,
        )
        assert len(violations) == 1

    def test_sorted_loop_clean(self):
        violations = check(
            LockOrderRule(),
            "repro/core/transactions.py",
            """
            def commit(self):
                for branch in sorted({w.branch for w in self.writes}):
                    self._lock_branch(branch)
            """,
        )
        assert violations == []

    def test_single_acquire_outside_loop_clean(self):
        violations = check(
            LockOrderRule(),
            "repro/core/transactions.py",
            """
            def delete(self, branch):
                self._lock_branch(branch)
            """,
        )
        assert violations == []


class TestBenchWallClockRule:
    def test_time_time_in_bench_flagged(self):
        violations = check(
            BenchWallClockRule(),
            "repro/bench/driver.py",
            """
            import time
            def measure():
                start = time.time()
                return time.time() - start
            """,
        )
        assert len(violations) == 2
        assert "time.time()" in violations[0].message

    def test_datetime_now_in_bench_flagged(self):
        violations = check(
            BenchWallClockRule(),
            "repro/bench/experiments.py",
            """
            from datetime import datetime
            def stamp():
                return datetime.now()
            """,
        )
        assert len(violations) == 1

    def test_perf_counter_clean(self):
        violations = check(
            BenchWallClockRule(),
            "repro/bench/driver.py",
            """
            import time
            def measure():
                start = time.perf_counter()
                return time.perf_counter() - start
            """,
        )
        assert violations == []

    def test_wall_clock_outside_bench_not_this_rules_problem(self):
        violations = check(
            BenchWallClockRule(),
            "repro/versioning/commits.py",
            "import time\nstamp = time.time()\n",
        )
        assert violations == []


class TestEngineStatsParityRule:
    ENGINES = (
        "repro/storage/hybrid.py",
        "repro/storage/tuple_first.py",
        "repro/storage/version_first.py",
    )

    def _modules(self, sources: dict[str, str]):
        return [module(relpath, text) for relpath, text in sources.items()]

    def test_counter_missing_from_one_engine_flagged(self):
        touch = "def f(self):\n    self.stats.records_scanned += 1\n"
        silent = "def f(self):\n    pass\n"
        rule = EngineStatsParityRule()
        violations = rule.check_project(
            self._modules(
                {
                    self.ENGINES[0]: touch,
                    self.ENGINES[1]: touch,
                    self.ENGINES[2]: silent,
                }
            )
        )
        assert len(violations) == 1
        assert violations[0].path == self.ENGINES[2]
        assert "records_scanned" in violations[0].message
        # Names the engines that do touch it, so the fix site is known.
        assert self.ENGINES[0] in violations[0].message

    def test_parity_clean(self):
        touch = (
            "def f(self):\n"
            "    self.stats.records_scanned += 1\n"
            "    self.stats.diffs += 1\n"
        )
        rule = EngineStatsParityRule()
        violations = rule.check_project(
            self._modules({relpath: touch for relpath in self.ENGINES})
        )
        assert violations == []

    def test_other_modules_do_not_participate(self):
        rule = EngineStatsParityRule()
        violations = rule.check_project(
            self._modules(
                {
                    "repro/storage/base.py": (
                        "def f(self):\n    self.stats.commits += 1\n"
                    )
                }
            )
        )
        assert violations == []


class TestColumnarBoundaryRule:
    def test_record_construction_in_column_batches_flagged(self):
        violations = check(
            ColumnarBoundaryRule(),
            "repro/core/operators.py",
            """
            class Leaky(Operator):
                def column_batches(self, batch_size=1024):
                    for batch in self.child.column_batches(batch_size):
                        records = [Record(values) for values in batch.rows()]
                        yield ColumnBatch.from_records(self.schema, records)
            """,
        )
        assert len(violations) == 1
        assert "column_batches" in violations[0].message

    def test_qualified_record_construction_flagged(self):
        violations = check(
            ColumnarBoundaryRule(),
            "repro/query/physical.py",
            """
            def column_batches(self, batch_size=1024):
                yield record_module.Record(())
            """,
        )
        assert len(violations) == 1

    def test_columnar_idiom_is_clean(self):
        violations = check(
            ColumnarBoundaryRule(),
            "repro/core/operators.py",
            """
            class Clean(Operator):
                def column_batches(self, batch_size=1024):
                    for batch in self.child.column_batches(batch_size):
                        selection = [i for i in range(batch.num_rows)]
                        yield batch.take(selection)

                def _records(self):
                    # Helpers outside column_batches (e.g. an index fetch)
                    # may build records freely.
                    return [Record(()) for _ in range(2)]
            """,
        )
        assert violations == []

    def test_boundary_methods_do_not_fire(self):
        violations = check(
            ColumnarBoundaryRule(),
            "repro/core/columns.py",
            """
            class ColumnBatch:
                def to_records(self):
                    return [Record(values) for values in self.rows()]
            """,
        )
        assert violations == []

    def test_row_decode_in_engine_scan_flagged(self):
        violations = check(
            ColumnarBoundaryRule(),
            "repro/storage/tuple_first.py",
            """
            class Engine:
                def scan_branches_batched(self, branches, predicate=None):
                    for page_number in pages:
                        records = self.heap.page(page_number).records()
                        yield [(records[slot], members) for slot in slots]

                def scan_commit_columns(self, commit_id, predicate=None):
                    yield [self.heap.page(0).record_at(slot) for slot in slots]
                    yield Record(())
            """,
        )
        violations.sort(key=lambda v: v.line)
        assert [v.line for v in violations] == [5, 9, 10]
        assert "row decode (records)" in violations[0].message
        assert "scan_branches_batched" in violations[0].message
        assert "scan_commit_columns" in violations[1].message

    def test_record_in_state_scan_primitive_flagged(self):
        # The engines' column and copy scans of a read state are columnar
        # bodies by their return annotation, whatever they are named.
        violations = check(
            ColumnarBoundaryRule(),
            "repro/storage/hybrid.py",
            """
            class Engine:
                def _scan_state_columns(
                    self, state, predicate, batch_size, columns
                ) -> Iterator[ColumnBatch]:
                    for segment_id, bitmap in state.items():
                        yield Record(())

                def _scan_state_copies(
                    self, states, predicate
                ) -> Iterator[tuple[ColumnBatch, list[frozenset]]]:
                    yield self.heap.page(0).records(), []

                def _count_state(self, state) -> int:
                    return len(self.heap.page(0).records())
            """,
        )
        violations.sort(key=lambda v: v.line)
        assert [v.line for v in violations] == [7, 12]
        assert "Record construction inside _scan_state_columns" in (
            violations[0].message
        )
        assert "row decode (records) inside _scan_state_copies" in (
            violations[1].message
        )

    def test_row_decode_outside_columnar_scans_is_clean(self):
        violations = check(
            ColumnarBoundaryRule(),
            "repro/storage/tuple_first.py",
            """
            class Engine:
                def scan_branches_batched(self, branches, predicate=None):
                    for page_number, live in pages:
                        columns = self.heap.page(page_number).columns_view()
                        yield ColumnBatch(self.schema, columns).take(live)

                def record_for_key(self, branch, key):
                    return self.heap.page(0).record_at(key)

                def diff(self, branch_a, branch_b):
                    return self.heap.page(0).records()
            """,
        )
        assert violations == []
        # Outside the storage package a scan_*_columns name is not an
        # engine scan: only column_batches bodies are checked there.
        elsewhere = check(
            ColumnarBoundaryRule(),
            "repro/bench/queries.py",
            """
            def scan_branch_columns(engine):
                return engine.heap.page(0).records()
            """,
        )
        assert elsewhere == []

    def test_repo_engine_scans_are_clean(self):
        import repro.storage.base as base_module
        import repro.storage.hybrid as hybrid_module
        import repro.storage.tuple_first as tuple_first_module
        import repro.storage.version_first as version_first_module

        for mod in (
            base_module,
            hybrid_module,
            tuple_first_module,
            version_first_module,
        ):
            path = Path(mod.__file__)
            src = module(
                f"repro/storage/{path.name}", path.read_text(encoding="utf-8")
            )
            assert ColumnarBoundaryRule().check(src) == []

    def test_repo_operators_are_clean(self):
        import repro.core.operators as operators_module
        import repro.query.physical as physical_module

        for mod in (operators_module, physical_module):
            path = Path(mod.__file__)
            src = module(
                f"repro/{path.name}", path.read_text(encoding="utf-8")
            )
            assert ColumnarBoundaryRule().check(src) == []


class TestDurableWriteRule:
    def test_truncating_open_flagged(self):
        violations = check(
            DurableWriteRule(),
            "repro/storage/someplace.py",
            """
            def save(path, data):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(data)
            """,
        )
        assert len(violations) == 1
        assert "atomic_write" in violations[0].message

    def test_mode_keyword_flagged(self):
        violations = check(
            DurableWriteRule(),
            "repro/versioning/x.py",
            'open("f.json", mode="wb")',
        )
        assert len(violations) == 1

    def test_read_and_append_modes_allowed(self):
        violations = check(
            DurableWriteRule(),
            "repro/core/wal.py",
            """
            def load(path):
                with open(path, "rb") as handle:
                    data = handle.read()
                with open(path, "ab") as handle:
                    handle.write(b"x")
                with open(path, "r+b") as handle:
                    handle.seek(0)
            """,
        )
        assert violations == []

    def test_append_open_outside_durable_layer_flagged(self):
        # A seeded revival of the commit history's private unchecksummed
        # append path.
        violations = check(
            DurableWriteRule(),
            "repro/bitmap/delta.py",
            """
            def append(path, entry):
                with open(path, "ab") as handle:
                    handle.write(entry)
            """,
        )
        assert len(violations) == 1
        assert "append_framed" in violations[0].message
        snippet = 'open("f", "ab")'
        assert check(DurableWriteRule(), "repro/core/durable.py", snippet) == []
        assert check(DurableWriteRule(), "repro/core/wal.py", snippet) == []

    def test_utility_and_bench_modules_exempt(self):
        snippet = 'open("f", "wb")'
        assert check(DurableWriteRule(), "repro/core/durable.py", snippet) == []
        assert check(DurableWriteRule(), "repro/bench/experiments.py", snippet) == []
        assert check(DurableWriteRule(), "repro/gitlike/repo.py", snippet) == []

    def test_whole_repo_is_clean(self):
        """No durable module bypasses atomic_write anywhere in the tree."""
        import repro

        root = Path(repro.__file__).parent.parent
        for path in sorted((root / "repro").rglob("*.py")):
            src = module(
                path.relative_to(root).as_posix(),
                path.read_text(encoding="utf-8"),
            )
            assert DurableWriteRule().check(src) == [], str(path)


class TestRunRules:
    def test_project_and_module_rules_compose(self):
        modules = [
            module(
                "repro/x.py",
                """
                def f(acc=[]):
                    try:
                        return acc
                    except:
                        pass
                """,
            )
        ]
        violations = run_rules(modules, ALL_RULES)
        ids = [violation.rule_id for violation in violations]
        assert "REPRO003" in ids
        assert "REPRO004" in ids
        # Sorted by file/line so output is stable.
        assert violations == sorted(
            violations, key=lambda v: (v.path, v.line, v.rule_id)
        )


class TestBoundedAwaitRule:
    def rule(self):
        from repro.analysis.lint.rules import BoundedAwaitRule

        return BoundedAwaitRule()

    def test_unbounded_await_in_server_flagged(self):
        violations = check(
            self.rule(),
            "repro/server/server.py",
            """
            async def handler(reader):
                data = await reader.read(4)
                return data
            """,
        )
        assert len(violations) == 1
        assert "unbounded await" in violations[0].message

    def test_wait_for_sleep_and_bounded_helpers_pass(self):
        violations = check(
            self.rule(),
            "repro/server/server.py",
            """
            import asyncio

            async def handler(reader, writer):
                data = await asyncio.wait_for(reader.read(4), timeout=1.0)
                await asyncio.sleep(0.01)
                frame = await read_frame(reader, idle_timeout_s=1.0, io_timeout_s=1.0)
                await self._respond_bounded(writer, frame)
                return data
            """,
        )
        assert violations == []

    def test_awaiting_a_non_call_is_flagged(self):
        violations = check(
            self.rule(),
            "repro/server/server.py",
            """
            async def handler(fut):
                return await fut
            """,
        )
        assert len(violations) == 1

    def test_rule_is_scoped_to_the_serving_layer(self):
        violations = check(
            self.rule(),
            "repro/core/operators.py",
            """
            async def helper(fut):
                return await fut
            """,
        )
        assert violations == []

    def test_shipped_server_package_is_clean(self):
        from pathlib import Path

        from repro.analysis.lint.rules import ALL_RULES

        rule = self.rule()
        server_dir = Path(__file__).resolve().parents[1] / "src" / "repro" / "server"
        assert server_dir.is_dir()
        for path in sorted(server_dir.glob("*.py")):
            mod = SourceModule(
                path=path,
                relpath=f"repro/server/{path.name}",
                source=path.read_text(),
            )
            assert rule.check(mod) == [], f"{path.name} has unbounded awaits"


class TestIndexMaintenanceRule:
    @staticmethod
    def rule():
        from repro.analysis.lint.rules import IndexMaintenanceRule

        return IndexMaintenanceRule()

    def test_mutation_without_hook_flagged(self):
        violations = check(
            self.rule(),
            "repro/storage/tuple_first.py",
            """
            class Engine:
                def insert(self, branch, record):
                    self.heap.append(record)
            """,
        )
        assert len(violations) == 1
        assert "insert()" in violations[0].message
        assert "index_hook" in violations[0].message

    def test_hook_notification_passes(self):
        violations = check(
            self.rule(),
            "repro/storage/tuple_first.py",
            """
            class Engine:
                def insert(self, branch, record):
                    location = self.heap.append(record)
                    self.index_hook.applied(branch, record.key(self.schema), location)
            """,
        )
        assert violations == []

    def test_delegation_to_a_mutating_method_passes(self):
        # hybrid/version-first update() routes through insert(), which owns
        # the hook call: delegation satisfies the rule.
        violations = check(
            self.rule(),
            "repro/storage/hybrid.py",
            """
            class Engine:
                def insert(self, branch, record):
                    self.index_hook.applied(branch, 1, (1, 2))

                def update(self, branch, record):
                    self.delete(branch, record.key(self.schema))
                    return self.insert(branch, record)

                def delete(self, branch, key):
                    self.index_hook.removed(branch, key)
            """,
        )
        assert violations == []

    def test_rule_is_scoped_to_engine_modules(self):
        violations = check(
            self.rule(),
            "repro/query/physical.py",
            """
            class NotAnEngine:
                def insert(self, branch, record):
                    pass
            """,
        )
        assert violations == []

    def test_shipped_engines_are_clean(self):
        from pathlib import Path

        from repro.analysis.lint.rules import ENGINE_MODULES

        rule = self.rule()
        src = Path(__file__).resolve().parents[1] / "src"
        for relpath in ENGINE_MODULES:
            path = src / relpath
            mod = SourceModule(
                path=path, relpath=relpath, source=path.read_text()
            )
            assert rule.check(mod) == [], f"{relpath} breaks index maintenance"
