"""The benchmark driver: loads a versioned dataset and measures queries.

The driver replays a strategy's operation plan against a storage engine,
generating records through the data generator, committing every
``commit_interval`` operations per branch (the paper commits every 10,000
insert/update operations per branch), and recording the total build time --
the quantity reported in the paper's Table 5.  The random number generator is
seeded so every engine performs exactly the same operations in the same
order.
"""

from __future__ import annotations

import gc
import os
import random
import time
from dataclasses import dataclass, field

from repro.bench.datagen import DataGenerator, GeneratorConfig
from repro.bench.strategies import (
    BranchingStrategy,
    Operation,
    OperationKind,
    StrategyConfig,
    make_strategy,
)
from repro.core.record import Record
from repro.errors import BenchmarkError
from repro.storage import create_engine
from repro.storage.base import StorageEngineKind, VersionedStorageEngine


#: The paper uses 4 MB pages against multi-gigabyte branches; the scaled
#: benchmark keeps the branch-much-larger-than-page relation by pairing its
#: small branches with small pages.
PAGE_SIZE = 4096


@dataclass
class BenchmarkConfig:
    """Everything needed to build one benchmark dataset."""

    strategy: str = "deep"
    engine: str = "hybrid"
    num_branches: int = 10
    total_operations: int = 5_000
    update_fraction: float = 0.2
    commit_interval: int = 500
    num_columns: int = 10
    column_width_bytes: int = 8
    seed: int = 42
    three_way_merges: bool = True

    def generator_config(self) -> GeneratorConfig:
        """The data-generator configuration implied by this benchmark config."""
        return GeneratorConfig(
            num_columns=self.num_columns,
            column_width_bytes=self.column_width_bytes,
            seed=self.seed,
        )

    def strategy_config(self) -> StrategyConfig:
        """The strategy configuration implied by this benchmark config."""
        return StrategyConfig(
            num_branches=self.num_branches,
            total_operations=self.total_operations,
            update_fraction=self.update_fraction,
            seed=self.seed,
        )


@dataclass
class MergeTiming:
    """Wall time, diff volume and counted work of one merge performed
    during the load."""

    target: str
    source: str
    seconds: float
    diff_bytes: int
    conflicts: int
    #: Keys the source changed, each applied to the target.
    records_applied: int = 0
    #: Records the merge built from stored bytes (``EngineStats``).
    records_decoded: int = 0


@dataclass
class LoadResult:
    """Outcome of loading one dataset into one engine."""

    engine: VersionedStorageEngine
    strategy: BranchingStrategy
    generator: DataGenerator
    config: BenchmarkConfig
    load_seconds: float = 0.0
    operations_applied: int = 0
    inserts: int = 0
    updates: int = 0
    merges: int = 0
    commit_ids: list[str] = field(default_factory=list)
    commit_seconds: list[float] = field(default_factory=list)
    merge_timings: list[MergeTiming] = field(default_factory=list)
    live_keys: dict[str, list[int]] = field(default_factory=dict)

    @property
    def data_size_bytes(self) -> int:
        """On-disk size of the loaded record data."""
        return self.engine.data_size_bytes()

    @property
    def data_size_mb(self) -> float:
        """On-disk size of the loaded record data, in megabytes."""
        return self.data_size_bytes / (1024 * 1024)

    def cold(self) -> VersionedStorageEngine:
        """Drop caches and return the engine (cold-cache measurement helper)."""
        self.engine.drop_caches()
        return self.engine


def cluster_plan(plan: list[Operation]) -> list[Operation]:
    """Reorder a plan for clustered loading (paper Section 4.2).

    In clustered mode, inserts into a particular branch are batched together
    before being flushed to disk.  Structural operations (branch creation,
    merges, retirements) keep their positions; the data operations between two
    structural operations are stably grouped by branch.
    """
    clustered: list[Operation] = []
    window: list[Operation] = []

    def flush_window() -> None:
        window.sort(key=lambda op: op.branch)  # stable: preserves per-branch order
        clustered.extend(window)
        window.clear()

    for operation in plan:
        if operation.kind in (OperationKind.INSERT, OperationKind.UPDATE):
            window.append(operation)
        else:
            flush_window()
            clustered.append(operation)
    flush_window()
    return clustered


def load_dataset(
    config: BenchmarkConfig,
    directory: str,
    engine: VersionedStorageEngine | None = None,
    strategy: BranchingStrategy | None = None,
    clustered: bool = False,
) -> LoadResult:
    """Build a versioned dataset under ``directory`` according to ``config``.

    An already-constructed engine or strategy may be supplied (used by the
    ablation benchmarks); otherwise they are created from the config.  With
    ``clustered=True`` the plan is reordered so each branch's modifications
    are batched (the paper's clustered loading mode); the default interleaved
    mode reflects concurrent modification of different branches.
    """
    generator = DataGenerator(config.generator_config())
    if strategy is None:
        strategy = make_strategy(config.strategy, config.strategy_config())
    if engine is None:
        kind = StorageEngineKind(config.engine)
        engine = create_engine(
            kind,
            os.path.join(directory, f"{config.strategy}_{kind.value}"),
            generator.schema,
            page_size=PAGE_SIZE,
        )
    plan = strategy.plan()
    if clustered:
        plan = cluster_plan(plan)
    result = LoadResult(
        engine=engine, strategy=strategy, generator=generator, config=config
    )
    rng = random.Random(config.seed + 1)
    live_keys: dict[str, list[int]] = {"master": []}
    ops_since_commit: dict[str, int] = {"master": 0}
    start = time.perf_counter()
    initial_commit = engine.init([], message="benchmark init")
    result.commit_ids.append(initial_commit)
    for operation in plan:
        _apply_operation(
            engine, operation, generator, rng, live_keys, ops_since_commit, result, config
        )
    # Final commit on every branch with uncommitted work, so that the head of
    # every branch is a committed version.
    for branch, pending in sorted(ops_since_commit.items()):
        if pending:
            commit_start = time.perf_counter()
            result.commit_ids.append(engine.commit(branch, message="final"))
            result.commit_seconds.append(time.perf_counter() - commit_start)
            ops_since_commit[branch] = 0
    engine.flush()
    result.load_seconds = time.perf_counter() - start
    result.live_keys = live_keys
    return result


def _apply_operation(
    engine: VersionedStorageEngine,
    operation: Operation,
    generator: DataGenerator,
    rng: random.Random,
    live_keys: dict[str, list[int]],
    ops_since_commit: dict[str, int],
    result: LoadResult,
    config: BenchmarkConfig,
) -> None:
    kind = operation.kind
    if kind is OperationKind.CREATE_BRANCH:
        engine.create_branch(operation.branch, from_branch=operation.parent)
        live_keys[operation.branch] = list(live_keys.get(operation.parent, []))
        ops_since_commit[operation.branch] = 0
        return
    if kind is OperationKind.RETIRE:
        engine.graph.retire_branch(operation.branch)
        return
    if kind is OperationKind.MERGE:
        decoded = engine.stats.records_decoded
        # Timed with the collector paused, as ``timeit`` times: a merge
        # takes milliseconds at test scale, and a full collection costs
        # tens of them, set by every object the process holds rather than
        # by the engine.  Where those collections fell decided Table 3's
        # two-way/three-way ratio for version-first.
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            merge = engine.merge(
                operation.target,
                operation.source,
                three_way=config.three_way_merges,
                message=f"merge {operation.source} into {operation.target}",
            )
            elapsed = time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        result.merge_timings.append(
            MergeTiming(
                target=operation.target,
                source=operation.source,
                seconds=elapsed,
                diff_bytes=merge.diff_bytes,
                conflicts=merge.num_conflicts,
                records_applied=merge.records_applied,
                records_decoded=engine.stats.records_decoded - decoded,
            )
        )
        result.commit_ids.append(merge.commit_id)
        result.merges += 1
        # The merged-in records are now live in the target branch.
        target_keys = set(live_keys.get(operation.target, []))
        target_keys.update(live_keys.get(operation.source, []))
        live_keys[operation.target] = list(target_keys)
        ops_since_commit[operation.target] = 0
        return
    branch = operation.branch
    keys = live_keys.setdefault(branch, [])
    if kind is OperationKind.UPDATE and keys:
        key = keys[rng.randrange(len(keys))]
        engine.update(branch, generator.updated_record(key))
        result.updates += 1
    else:
        record = generator.new_record()
        engine.insert(branch, record)
        keys.append(record.key(generator.schema))
        result.inserts += 1
    result.operations_applied += 1
    ops_since_commit[branch] = ops_since_commit.get(branch, 0) + 1
    if ops_since_commit[branch] >= config.commit_interval:
        commit_start = time.perf_counter()
        result.commit_ids.append(engine.commit(branch, message="interval"))
        result.commit_seconds.append(time.perf_counter() - commit_start)
        ops_since_commit[branch] = 0


def apply_tablewise_update(
    result: LoadResult, branch: str, column: str = "c1", delta: int = 1
) -> int:
    """Update every live record of ``branch`` (paper Section 5.5).

    Each record is rewritten with ``column`` incremented by ``delta``; the
    branch is committed afterwards.  Returns the number of records updated.
    """
    engine = result.engine
    schema = engine.schema
    if column not in schema.column_names:
        raise BenchmarkError(f"unknown column {column!r} for table-wise update")
    records = list(engine.scan_branch(branch))
    for record in records:
        updated = record.replace(schema, **{column: record.value(schema, column) + delta})
        engine.update(branch, updated)
    result.commit_ids.append(engine.commit(branch, message="table-wise update"))
    return len(records)
