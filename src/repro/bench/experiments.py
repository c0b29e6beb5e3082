"""Experiment runners: one function per table/figure of the paper's Section 5.

Every function loads the required datasets (at a configurable, scaled-down
size), measures the relevant operations, and returns a
:class:`~repro.bench.report.ResultTable` whose rows correspond to the series
the paper plots or tabulates.  The benchmark suite under ``benchmarks/`` calls
these functions, prints the tables and asserts the paper-reported shapes; each
table also carries the paper's reported shape as a note.

Dataset sizes default to roughly 1/1000 of the paper's 100 GB configuration
(the ``repro`` band for this paper notes a pure-Python prototype cannot drive
physical-layout benchmarks at full scale); all sizes are parameters so larger
runs are a matter of passing bigger numbers.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from repro.bench.datagen import DataGenerator, GeneratorConfig
from repro.bench.driver import (
    BenchmarkConfig,
    LoadResult,
    apply_tablewise_update,
    load_dataset,
)
from repro.bench.queries import (
    query1_single_scan,
    query2_positive_diff,
    query3_join,
    query4_head_scan,
)
from repro.bench.report import ResultTable
from repro.bench.strategies import make_strategy
from repro.bitmap.base import BitmapOrientation
from repro.gitlike.engine import GitRecordFormat, GitStorageLayout, GitVersionedStore
from repro.storage.hybrid import HybridEngine
from repro.storage.tuple_first import TupleFirstEngine
from repro.storage.version_first import VersionFirstEngine

#: Engine kinds in the order the paper's figures list them.
ENGINE_KINDS = ("version-first", "tuple-first", "hybrid")

#: Short labels matching the paper's VF / TF / HY abbreviations.
ENGINE_LABELS = {"version-first": "VF", "tuple-first": "TF", "hybrid": "HY"}


@dataclass
class ExperimentScale:
    """Knobs shared by most experiments."""

    total_operations: int = 4_000
    num_branches: int = 10
    commit_interval: int = 400
    num_columns: int = 10
    seed: int = 42


def _load(
    workdir: str,
    strategy: str,
    engine: str,
    scale: ExperimentScale,
    *,
    num_branches: int | None = None,
    total_operations: int | None = None,
    update_fraction: float = 0.2,
    clustered: bool = False,
    three_way_merges: bool = True,
    label: str = "",
) -> LoadResult:
    config = BenchmarkConfig(
        strategy=strategy,
        engine=engine,
        num_branches=num_branches if num_branches is not None else scale.num_branches,
        total_operations=(
            total_operations
            if total_operations is not None
            else scale.total_operations
        ),
        update_fraction=update_fraction,
        commit_interval=scale.commit_interval,
        num_columns=scale.num_columns,
        seed=scale.seed,
        three_way_merges=three_way_merges,
    )
    suffix = label or f"{strategy}_{engine}_{config.num_branches}"
    directory = os.path.join(workdir, suffix)
    return load_dataset(config, directory, clustered=clustered)


# ---------------------------------------------------------------------------
# Figure 6: scaling the number of branches (flat strategy, Q1 and Q4)
# ---------------------------------------------------------------------------


def figure6_scaling(
    workdir: str,
    branch_counts: tuple[int, ...] = (4, 8, 16),
    scale: ExperimentScale | None = None,
) -> tuple[ResultTable, ResultTable]:
    """Figure 6a/6b: Q1 and Q4 latency on the flat strategy as branches scale.

    The total dataset size is held fixed while the number of branches varies,
    as in the paper, so per-branch data shrinks as branches increase.
    """
    scale = scale or ExperimentScale()
    q1_table = ResultTable(
        "Figure 6a: Query 1 (single-branch scan), flat strategy",
        ["branches"] + [ENGINE_LABELS[e] + " (s)" for e in ENGINE_KINDS],
    )
    q4_table = ResultTable(
        "Figure 6b: Query 4 (scan all heads), flat strategy",
        ["branches"] + [ENGINE_LABELS[e] + " (s)" for e in ENGINE_KINDS],
    )
    for branches in branch_counts:
        q1_row: list = [branches]
        q4_row: list = [branches]
        for engine_kind in ENGINE_KINDS:
            result = _load(
                workdir,
                "flat",
                engine_kind,
                scale,
                num_branches=branches,
                label=f"fig6_{engine_kind}_{branches}",
            )
            target = result.strategy.single_scan_branch(random.Random(0))
            # Best-of-three keeps the figure's latency *shape* (what the
            # paper discusses) from being washed out by scheduler noise at
            # the small scales the test suite runs.
            q1 = min(
                query1_single_scan(result.engine, target).seconds
                for _ in range(3)
            )
            q4 = min(query4_head_scan(result.engine).seconds for _ in range(3))
            q1_row.append(q1)
            q4_row.append(q4)
        q1_table.add_row(*q1_row)
        q4_table.add_row(*q4_row)
    q1_table.add_note(
        "paper: VF and HY latencies fall as branches grow (fixed total size); "
        "TF stays flat or worsens"
    )
    q4_table.add_note(
        "paper: TF and HY answer Q4 via bitmaps; VF must scan the full structure"
    )
    return q1_table, q4_table


# ---------------------------------------------------------------------------
# Figure 7: Query 1 across strategies (including clustered tuple-first)
# ---------------------------------------------------------------------------


def figure7_query1(
    workdir: str, scale: ExperimentScale | None = None
) -> ResultTable:
    """Figure 7: single-branch scans per strategy and scan target."""
    scale = scale or ExperimentScale()
    table = ResultTable(
        "Figure 7: Query 1 latency (seconds) by strategy and scan target",
        ["target", "VF", "TF", "TF clustered", "HY"],
    )
    for strategy_name in ("deep", "flat", "science", "curation"):
        per_engine: dict[str, dict[str, float]] = {}
        targets: dict[str, str] = {}
        for engine_kind in ENGINE_KINDS:
            result = _load(
                workdir,
                strategy_name,
                engine_kind,
                scale,
                label=f"fig7_{strategy_name}_{engine_kind}",
            )
            targets = result.strategy.query1_targets()
            for label, branch in targets.items():
                # Best-of-three, as in figure 6: at test scales a single
                # cold run is easily washed out by scheduler noise.
                seconds = min(
                    query1_single_scan(result.engine, branch).seconds
                    for _ in range(3)
                )
                per_engine.setdefault(label, {})[engine_kind] = seconds
        clustered_result = _load(
            workdir,
            strategy_name,
            "tuple-first",
            scale,
            clustered=True,
            label=f"fig7_{strategy_name}_tf_clustered",
        )
        clustered_targets = clustered_result.strategy.query1_targets()
        for label, branch in clustered_targets.items():
            seconds = min(
                query1_single_scan(clustered_result.engine, branch).seconds
                for _ in range(3)
            )
            per_engine.setdefault(label, {})["tf-clustered"] = seconds
        for label in per_engine:
            row = per_engine[label]
            table.add_row(
                label,
                row.get("version-first", 0.0),
                row.get("tuple-first", 0.0),
                row.get("tf-clustered", 0.0),
                row.get("hybrid", 0.0),
            )
    table.add_note(
        "paper: TF reads the whole interleaved heap for every target; clustering "
        "helps TF most on flat; VF/HY degrade with merge-heavy curation targets"
    )
    return table


# ---------------------------------------------------------------------------
# Figures 8-10: Queries 2, 3 and 4 across strategies
# ---------------------------------------------------------------------------


def _per_strategy_query(
    workdir: str,
    scale: ExperimentScale,
    query_name: str,
    runner,
    label_prefix: str,
    counts: tuple[list[str], Callable[[list[LoadResult]], list]] | None = None,
) -> ResultTable:
    """Best-of-five latencies per strategy and engine; with ``counts``, a
    row's further columns and the function of its loads (in
    :data:`ENGINE_KINDS` order) that gives their values."""
    count_columns, count = counts if counts is not None else ([], None)
    table = ResultTable(
        f"{label_prefix}: {query_name} latency (seconds) by strategy",
        ["strategy"] + [ENGINE_LABELS[e] for e in ENGINE_KINDS] + count_columns,
    )
    for strategy_name in ("deep", "flat", "science", "curation"):
        results = [
            _load(
                workdir,
                strategy_name,
                engine_kind,
                scale,
                label=f"{label_prefix.lower().replace(' ', '_')}_{strategy_name}_{engine_kind}",
            )
            for engine_kind in ENGINE_KINDS
        ]
        # Best-of-five keeps the per-strategy latency *shape* from being
        # washed out by scheduler noise at test scales, where a single query
        # runs only a few milliseconds.  The engines take turns, so a slow
        # spell of the machine lands on every engine's samples alike rather
        # than on all five samples of one engine.
        samples: list[list[float]] = [[] for _ in results]
        for _ in range(5):
            for engine_samples, result in zip(samples, results):
                engine_samples.append(runner(result))
        counted = count(results) if count is not None else []
        table.add_row(strategy_name, *(min(s) for s in samples), *counted)
    return table


def figure8_query2(
    workdir: str, scale: ExperimentScale | None = None
) -> ResultTable:
    """Figure 8: positive diff between the strategy's designated branch pair."""
    scale = scale or ExperimentScale()

    def run(result: LoadResult) -> float:
        branch_a, branch_b = result.strategy.multi_scan_pair(random.Random(1))
        return query2_positive_diff(result.engine, branch_a, branch_b).seconds

    table = _per_strategy_query(workdir, scale, "Query 2 (diff)", run, "Figure 8")
    table.add_note(
        "paper: VF is uniformly worst (multiple passes); HY beats TF as "
        "interleaving grows"
    )
    return table


def figure9_query3(
    workdir: str, scale: ExperimentScale | None = None
) -> ResultTable:
    """Figure 9: primary-key join of two branches under a predicate."""
    scale = scale or ExperimentScale()

    def run(result: LoadResult) -> float:
        branch_a, branch_b = result.strategy.multi_scan_pair(random.Random(2))
        return query3_join(result.engine, branch_a, branch_b).seconds

    table = _per_strategy_query(workdir, scale, "Query 3 (join)", run, "Figure 9")
    table.add_note(
        "paper: trends mirror Q2; VF is competitive without merges but needs "
        "extra passes under curation"
    )
    return table


def figure10_query4(
    workdir: str, scale: ExperimentScale | None = None
) -> ResultTable:
    """Figure 10: full head scan with a non-selective predicate, with the
    stored records each engine's scan reads (counted work, not time) and
    the records version-first stores."""
    scale = scale or ExperimentScale()

    def run(result: LoadResult) -> float:
        return query4_head_scan(result.engine).seconds

    def records_read(result: LoadResult) -> int:
        stats = result.engine.stats
        before = stats.records_read
        query4_head_scan(result.engine)
        return stats.records_read - before

    def counted(results: list[LoadResult]) -> list[int]:
        version_first = results[ENGINE_KINDS.index("version-first")].engine
        assert isinstance(version_first, VersionFirstEngine)
        stored = sum(segment.record_count for segment in version_first.segments.all())
        return [records_read(result) for result in results] + [stored]

    columns = [f"{ENGINE_LABELS[e]} read" for e in ENGINE_KINDS] + ["VF stored"]
    table = _per_strategy_query(
        workdir, scale, "Query 4 (all heads)", run, "Figure 10", (columns, counted)
    )
    table.add_note(
        "paper: TF and HY scan each record once via bitmaps; VF needs multiple "
        "passes, worst under curation"
    )
    table.add_note(
        "read: stored records on the pages a Q4 reads, live or not; VF reads "
        "every segment of each chain whole, so it reads all it stores"
    )
    return table


# ---------------------------------------------------------------------------
# Figure 11 + Table 4: table-wise updates
# ---------------------------------------------------------------------------


def figure11_tablewise_updates(
    workdir: str, scale: ExperimentScale | None = None
) -> tuple[ResultTable, ResultTable]:
    """Figure 11 and Table 4: Query 1 before/after a table-wise update."""
    scale = scale or ExperimentScale()
    fig11 = ResultTable(
        "Figure 11: Query 1 before/after a table-wise update (seconds)",
        ["strategy", "engine", "before", "after"],
    )
    table4 = ResultTable(
        "Table 4: storage impact of table-wise updates (MB)",
        ["strategy", "engine", "pre-size", "post-size"],
    )
    for strategy_name in ("deep", "flat", "science", "curation"):
        for engine_kind in ENGINE_KINDS:
            result = _load(
                workdir,
                strategy_name,
                engine_kind,
                scale,
                label=f"fig11_{strategy_name}_{engine_kind}",
            )
            target = result.strategy.single_scan_branch(random.Random(3))
            # Best-of-three on each side keeps the before/after comparison
            # from being decided by scheduler noise at test scales.
            before = min(
                query1_single_scan(result.engine, target).seconds
                for _ in range(3)
            )
            pre_size = result.data_size_mb
            apply_tablewise_update(result, target)
            result.engine.flush()
            after = min(
                query1_single_scan(result.engine, target).seconds
                for _ in range(3)
            )
            post_size = result.data_size_mb
            fig11.add_row(
                strategy_name,
                ENGINE_LABELS[engine_kind],
                before,
                after,
            )
            table4.add_row(
                strategy_name, ENGINE_LABELS[engine_kind], pre_size, post_size
            )
    fig11.add_note(
        "paper: VF degrades in proportion to the new data; TF benefits from the "
        "clustering effect of rewriting every record"
    )
    table4.add_note("paper: dataset grows by roughly the size of the updated branch")
    return fig11, table4


# ---------------------------------------------------------------------------
# Table 2: bitmap commit data
# ---------------------------------------------------------------------------


def table2_commit_metadata(
    workdir: str,
    scale: ExperimentScale | None = None,
    checkout_samples: int = 50,
) -> ResultTable:
    """Table 2: commit-history size, commit time and (bitmap) checkout time."""
    scale = scale or ExperimentScale()
    table = ResultTable(
        "Table 2: bitmap commit data (TF vs HY)",
        [
            "strategy",
            "engine",
            "agg. history size (KB)",
            "avg commit (ms)",
            "avg checkout (ms)",
        ],
    )
    for strategy_name in ("deep", "flat", "science", "curation"):
        for engine_kind in ("tuple-first", "hybrid"):
            result = _load(
                workdir,
                strategy_name,
                engine_kind,
                scale,
                label=f"table2_{strategy_name}_{engine_kind}",
            )
            engine = result.engine
            history_kb = engine.commit_metadata_bytes() / 1024
            avg_commit_ms = (
                1000 * statistics.mean(result.commit_seconds)
                if result.commit_seconds
                else 0.0
            )
            rng = random.Random(scale.seed)
            commits = [
                c for c in result.commit_ids if engine.graph.has_commit(c)
            ]
            sample = commits if len(commits) <= checkout_samples else rng.sample(
                commits, checkout_samples
            )
            durations = []
            for commit_id in sample:
                start = time.perf_counter()
                if isinstance(engine, TupleFirstEngine):
                    engine.checkout_commit_bitmap(commit_id)
                elif isinstance(engine, HybridEngine):
                    engine.checkout_commit_bitmaps(commit_id)
                durations.append(time.perf_counter() - start)
            avg_checkout_ms = 1000 * statistics.mean(durations) if durations else 0.0
            table.add_row(
                strategy_name,
                ENGINE_LABELS[engine_kind],
                history_kb,
                avg_commit_ms,
                avg_checkout_ms,
            )
    table.add_note(
        "paper: hybrid's split histories are smaller and faster to check out; "
        "overall overhead stays under 1% of data size"
    )
    return table


# ---------------------------------------------------------------------------
# Table 3: merge throughput
# ---------------------------------------------------------------------------


def table3_merge_throughput(
    workdir: str, scale: ExperimentScale | None = None
) -> ResultTable:
    """Table 3: two-way versus three-way merge throughput on curation, with
    the records each engine's merges decode (counted work, not time)."""
    scale = scale or ExperimentScale()
    table = ResultTable(
        "Table 3: merge throughput (MB of diff per second)",
        [
            "engine",
            "two-way MB/s",
            "three-way MB/s",
            "merges",
            "two-way decoded/merge",
            "three-way decoded/merge",
        ],
    )
    # Best-of-three loads: merge timings at test scale are only a few
    # milliseconds each, so a single load's throughput is dominated by
    # scheduler noise rather than the engines' merge I/O shape.  Each round
    # loads every engine and mode once, so a burst of machine load slows
    # them all alike rather than one engine's loads only.  The decoded
    # counts are the same in every round.
    best: dict[str, list[float]] = {
        kind: [0.0, 0.0, 0, 0.0, 0.0] for kind in ENGINE_KINDS
    }
    for attempt in range(3):
        for engine_kind in ENGINE_KINDS:
            for mode, three_way in enumerate((False, True)):
                result = _load(
                    workdir,
                    "curation",
                    engine_kind,
                    scale,
                    three_way_merges=three_way,
                    label=f"table3_{engine_kind}_{mode}_{attempt}",
                )
                timings = result.merge_timings
                total_bytes = sum(m.diff_bytes for m in timings)
                total_seconds = sum(m.seconds for m in timings)
                row = best[engine_kind]
                row[2] = len(timings)
                if timings:
                    row[3 + mode] = sum(m.records_decoded for m in timings) / len(timings)
                if total_seconds > 0:
                    mb_per_s = (total_bytes / (1024 * 1024)) / total_seconds
                    row[mode] = max(row[mode], mb_per_s)
    for engine_kind, row in best.items():
        table.add_row(ENGINE_LABELS[engine_kind], *row)
    table.add_note(
        "paper: VF 14.2/9.6, TF 15.8/15.1, HY 26.5/33.2 MB/s -- hybrid fastest, "
        "version-first hit hardest by the three-way LCA scan"
    )
    table.add_note(
        "decoded/merge: records built from stored bytes; TF and HY read only "
        "keys where the source changed, VF decodes both heads (and the LCA)"
    )
    return table


# ---------------------------------------------------------------------------
# Table 5: build (load) times
# ---------------------------------------------------------------------------


def table5_build_times(
    workdir: str,
    scale: ExperimentScale | None = None,
    branch_counts: tuple[int, ...] = (5, 10),
) -> ResultTable:
    """Table 5: load time per strategy, branch count and engine."""
    scale = scale or ExperimentScale()
    table = ResultTable(
        "Table 5: build times (seconds)",
        ["strategy", "branches", "VF", "TF", "HY", "data MB"],
    )
    for strategy_name in ("deep", "flat", "science", "curation"):
        for branches in branch_counts:
            row: list = [strategy_name, branches]
            data_mb = 0.0
            for engine_kind in ENGINE_KINDS:
                result = _load(
                    workdir,
                    strategy_name,
                    engine_kind,
                    scale,
                    num_branches=branches,
                    label=f"table5_{strategy_name}_{engine_kind}_{branches}",
                )
                row.append(result.load_seconds)
                data_mb = result.data_size_mb
            row.append(data_mb)
            table.add_row(*row)
    table.add_note(
        "paper: VF loads fastest (no index maintenance) except under curation; "
        "HY tracks VF closely; TF is slowest"
    )
    return table


# ---------------------------------------------------------------------------
# Tables 6 and 7: git comparison
# ---------------------------------------------------------------------------


def _git_configurations() -> list[tuple[str, GitStorageLayout, GitRecordFormat]]:
    return [
        ("git 1 file (bin)", GitStorageLayout.SINGLE_FILE, GitRecordFormat.BINARY),
        ("git 1 file (csv)", GitStorageLayout.SINGLE_FILE, GitRecordFormat.CSV),
        ("git file/tup (bin)", GitStorageLayout.FILE_PER_TUPLE, GitRecordFormat.BINARY),
        ("git file/tup (csv)", GitStorageLayout.FILE_PER_TUPLE, GitRecordFormat.CSV),
    ]


def git_comparison(
    workdir: str,
    update_fraction: float = 0.0,
    scale: ExperimentScale | None = None,
    num_branches: int = 10,
    commits: int = 40,
    checkout_samples: int = 20,
) -> ResultTable:
    """Tables 6/7: git-backed storage versus Decibel (hybrid), deep strategy.

    ``update_fraction=0`` reproduces Table 6 (100% inserts);
    ``update_fraction=0.5`` reproduces Table 7 (50% updates).
    """
    scale = scale or ExperimentScale()
    title = (
        "Table 6: git vs Decibel (hybrid), deep strategy, 100% inserts"
        if update_fraction == 0.0
        else "Table 7: git vs Decibel (hybrid), deep strategy, 50% updates"
    )
    table = ResultTable(
        title,
        [
            "system",
            "data size (MB)",
            "repo size (MB)",
            "repack (s)",
            "commit mean (ms)",
            "commit sd",
            "checkout mean (ms)",
            "checkout sd",
        ],
    )
    generator_config = GeneratorConfig(
        num_columns=scale.num_columns, seed=scale.seed
    )
    total_ops = scale.total_operations
    ops_per_commit = max(total_ops // commits, 1)
    strategy = make_strategy(
        "deep",
        None,
        num_branches=num_branches,
        total_operations=total_ops,
        update_fraction=update_fraction,
        seed=scale.seed,
    )
    plan = strategy.plan()
    rng = random.Random(scale.seed)
    for label, layout, record_format in _git_configurations():
        generator = DataGenerator(generator_config)
        store = GitVersionedStore(
            os.path.join(workdir, f"git_{layout.value}_{record_format.value}_{update_fraction}"),
            generator.schema,
            layout=layout,
            record_format=record_format,
        )
        stats = _run_git_plan(
            store, plan, generator, rng, ops_per_commit, checkout_samples
        )
        table.add_row(label, *stats)
    # Decibel (hybrid) under the same plan and commit cadence.
    generator = DataGenerator(generator_config)
    decibel_config = BenchmarkConfig(
        strategy="deep",
        engine="hybrid",
        num_branches=num_branches,
        total_operations=total_ops,
        update_fraction=update_fraction,
        commit_interval=ops_per_commit,
        num_columns=scale.num_columns,
        seed=scale.seed,
    )
    result = load_dataset(
        decibel_config,
        os.path.join(workdir, f"decibel_hybrid_{update_fraction}"),
    )
    engine = result.engine
    commit_times = [1000 * s for s in result.commit_seconds]
    rng2 = random.Random(scale.seed + 5)
    commits_list = [c for c in result.commit_ids if engine.graph.has_commit(c)]
    sample = (
        commits_list
        if len(commits_list) <= checkout_samples
        else rng2.sample(commits_list, checkout_samples)
    )
    checkout_times = []
    for commit_id in sample:
        start = time.perf_counter()
        engine.checkout_commit_bitmaps(commit_id)
        checkout_times.append(1000 * (time.perf_counter() - start))
    table.add_row(
        "Decibel (hybrid)",
        result.data_size_mb,
        (engine.data_size_bytes() + engine.commit_metadata_bytes()) / (1024 * 1024),
        0.0,
        statistics.mean(commit_times) if commit_times else 0.0,
        statistics.pstdev(commit_times) if len(commit_times) > 1 else 0.0,
        statistics.mean(checkout_times) if checkout_times else 0.0,
        statistics.pstdev(checkout_times) if len(checkout_times) > 1 else 0.0,
    )
    table.add_note(
        "paper: Decibel commits/checkouts are up to three orders of magnitude "
        "faster than git's, at <1% metadata overhead; git needs long repacks"
    )
    return table


def _run_git_plan(
    store: GitVersionedStore,
    plan,
    generator: DataGenerator,
    rng: random.Random,
    ops_per_commit: int,
    checkout_samples: int,
) -> list:
    """Replay a deep-strategy plan against a git-backed store and measure it."""
    from repro.bench.strategies import OperationKind

    store.init([], message="init")
    live_keys: dict[str, list[int]] = {"master": []}
    ops_since_commit: dict[str, int] = {"master": 0}
    commit_times: list[float] = []
    all_commits: list[str] = []
    for operation in plan:
        if operation.kind is OperationKind.CREATE_BRANCH:
            store.create_branch(operation.branch, from_branch=operation.parent)
            live_keys[operation.branch] = list(live_keys.get(operation.parent, []))
            ops_since_commit[operation.branch] = 0
            continue
        if operation.kind in (OperationKind.MERGE, OperationKind.RETIRE):
            continue  # the deep strategy has neither
        branch = operation.branch
        keys = live_keys.setdefault(branch, [])
        if operation.kind is OperationKind.UPDATE and keys:
            key = keys[rng.randrange(len(keys))]
            store.update(branch, generator.updated_record(key))
        else:
            record = generator.new_record()
            store.insert(branch, record)
            keys.append(record.key(generator.schema))
        ops_since_commit[branch] = ops_since_commit.get(branch, 0) + 1
        if ops_since_commit[branch] >= ops_per_commit:
            start = time.perf_counter()
            all_commits.append(store.commit(branch, message="interval"))
            commit_times.append(1000 * (time.perf_counter() - start))
            ops_since_commit[branch] = 0
    for branch, pending in sorted(ops_since_commit.items()):
        if pending:
            start = time.perf_counter()
            all_commits.append(store.commit(branch, message="final"))
            commit_times.append(1000 * (time.perf_counter() - start))
    data_mb = store.data_size_bytes() / (1024 * 1024)
    repack_report = store.repack()
    repo_mb = store.repo_size_bytes() / (1024 * 1024)
    sample = (
        all_commits
        if len(all_commits) <= checkout_samples
        else rng.sample(all_commits, checkout_samples)
    )
    checkout_times = []
    for commit_id in sample:
        start = time.perf_counter()
        store.checkout(commit_id)
        checkout_times.append(1000 * (time.perf_counter() - start))
    return [
        data_mb,
        repo_mb,
        repack_report.seconds,
        statistics.mean(commit_times) if commit_times else 0.0,
        statistics.pstdev(commit_times) if len(commit_times) > 1 else 0.0,
        statistics.mean(checkout_times) if checkout_times else 0.0,
        statistics.pstdev(checkout_times) if len(checkout_times) > 1 else 0.0,
    ]


# ---------------------------------------------------------------------------
# Ablations of the paper's bitmap and commit-history design choices
# ---------------------------------------------------------------------------


def ablation_bitmap_orientation(
    workdir: str, scale: ExperimentScale | None = None
) -> ResultTable:
    """Branch- versus tuple-oriented bitmaps in the tuple-first engine."""
    scale = scale or ExperimentScale()
    table = ResultTable(
        "Ablation: tuple-first bitmap orientation (flat strategy)",
        ["orientation", "Q1 (s)", "Q4 (s)", "load (s)", "index KB"],
    )
    for orientation in (BitmapOrientation.BRANCH, BitmapOrientation.TUPLE):
        generator = DataGenerator(
            GeneratorConfig(num_columns=scale.num_columns, seed=scale.seed)
        )
        engine = TupleFirstEngine(
            os.path.join(workdir, f"ablation_orientation_{orientation.value}"),
            generator.schema,
            bitmap_orientation=orientation,
        )
        config = BenchmarkConfig(
            strategy="flat",
            engine="tuple-first",
            num_branches=scale.num_branches,
            total_operations=scale.total_operations,
            commit_interval=scale.commit_interval,
            num_columns=scale.num_columns,
            seed=scale.seed,
        )
        result = load_dataset(
            config,
            os.path.join(workdir, f"ablation_orientation_{orientation.value}_data"),
            engine=engine,
        )
        target = result.strategy.single_scan_branch(random.Random(0))
        # Best-of-three, as in figures 6/7: a single cold run at test scale
        # is easily washed out by scheduler and writeback noise.
        q1 = min(query1_single_scan(result.engine, target).seconds for _ in range(3))
        q4 = min(query4_head_scan(result.engine).seconds for _ in range(3))
        table.add_row(
            orientation.value,
            q1,
            q4,
            result.load_seconds,
            engine.bitmap_index_bytes() / 1024,
        )
    table.add_note(
        "paper Section 3.1: branch-oriented favours single-branch scans; "
        "tuple-oriented favours tuple-major multi-branch passes"
    )
    return table


def ablation_commit_layers(
    workdir: str,
    scale: ExperimentScale | None = None,
    checkout_samples: int = 30,
) -> ResultTable:
    """Two-layer composite commit deltas versus a flat delta chain."""
    scale = scale or ExperimentScale()
    table = ResultTable(
        "Ablation: commit-history composite layer (deep strategy, tuple-first)",
        ["layer interval", "avg checkout (ms)", "history KB"],
    )
    for layer_interval in (0, 4, 8, 16):
        generator = DataGenerator(
            GeneratorConfig(num_columns=scale.num_columns, seed=scale.seed)
        )
        engine = TupleFirstEngine(
            os.path.join(workdir, f"ablation_layers_{layer_interval}"),
            generator.schema,
            commit_layer_interval=layer_interval,
        )
        config = BenchmarkConfig(
            strategy="deep",
            engine="tuple-first",
            num_branches=scale.num_branches,
            total_operations=scale.total_operations,
            commit_interval=max(scale.commit_interval // 4, 50),
            num_columns=scale.num_columns,
            seed=scale.seed,
        )
        result = load_dataset(
            config,
            os.path.join(workdir, f"ablation_layers_{layer_interval}_data"),
            engine=engine,
        )
        rng = random.Random(scale.seed)
        commits = [c for c in result.commit_ids if engine.graph.has_commit(c)]
        sample = commits if len(commits) <= checkout_samples else rng.sample(
            commits, checkout_samples
        )
        durations = []
        for commit_id in sample:
            start = time.perf_counter()
            engine.checkout_commit_bitmap(commit_id)
            durations.append(1000 * (time.perf_counter() - start))
        table.add_row(
            layer_interval,
            statistics.mean(durations) if durations else 0.0,
            engine.commit_metadata_bytes() / 1024,
        )
    table.add_note(
        "paper Section 3.2: composite deltas trade a little space for shorter "
        "delta chains at checkout"
    )
    return table
