"""Experiment runners: one function per table/figure of the paper's Section 5.

Every function loads the required datasets (at a configurable, scaled-down
size), measures the relevant operations, and returns a
:class:`~repro.bench.report.ResultTable` whose rows correspond to the series
the paper plots or tabulates.  The benchmark suite under ``benchmarks/`` calls
these functions and prints the tables; ``EXPERIMENTS.md`` records the
paper-reported versus measured shapes.

Dataset sizes default to roughly 1/1000 of the paper's 100 GB configuration
(the ``repro`` band for this paper notes a pure-Python prototype cannot drive
physical-layout benchmarks at full scale); all sizes are parameters so larger
runs are a matter of passing bigger numbers.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from dataclasses import dataclass

from repro.bench.datagen import DataGenerator, GeneratorConfig
from repro.bench.driver import (
    BenchmarkConfig,
    LoadResult,
    apply_tablewise_update,
    load_dataset,
)
from repro.bench.queries import (
    BENCH_RELATION,
    query1_single_scan,
    query2_positive_diff,
    query3_join,
    query4_head_scan,
    query6_order_by,
)
from repro.bench.report import ResultTable
from repro.bench.strategies import make_strategy
from repro.bitmap.base import BitmapOrientation
from repro.errors import BenchmarkError
from repro.gitlike.engine import GitRecordFormat, GitStorageLayout, GitVersionedStore
from repro.storage.hybrid import HybridEngine
from repro.storage.tuple_first import TupleFirstEngine

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
    #: Rows in the single-dataset microbenchmarks (sort/Top-N, recovery,
    #: serving, index); the acceptance runs use 100k, CI smoke runs may pass
    #: something smaller.
    scan_rows: int = 100_000


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
) -> ResultTable:
    table = ResultTable(
        f"{label_prefix}: {query_name} latency (seconds) by strategy",
        ["strategy"] + [ENGINE_LABELS[e] for e in ENGINE_KINDS],
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
        table.add_row(strategy_name, *(min(s) for s in samples))
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
    """Figure 10: full head scan with a non-selective predicate."""
    scale = scale or ExperimentScale()

    def run(result: LoadResult) -> float:
        return query4_head_scan(result.engine).seconds

    table = _per_strategy_query(workdir, scale, "Query 4 (all heads)", run, "Figure 10")
    table.add_note(
        "paper: TF and HY scan each record once via bitmaps; VF needs multiple "
        "passes, worst under curation"
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
                try:
                    if isinstance(engine, TupleFirstEngine):
                        engine.checkout_commit_bitmap(commit_id)
                    elif isinstance(engine, HybridEngine):
                        engine.checkout_commit_bitmaps(commit_id)
                except Exception:  # pragma: no cover - defensive: skip bad samples
                    continue
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
    """Table 3: two-way versus three-way merge throughput on curation."""
    scale = scale or ExperimentScale()
    table = ResultTable(
        "Table 3: merge throughput (MB of diff per second)",
        ["engine", "two-way MB/s", "three-way MB/s", "merges"],
    )
    for engine_kind in ENGINE_KINDS:
        throughput = {}
        merge_count = 0
        for mode_label, three_way in (("two-way", False), ("three-way", True)):
            # Best-of-three loads: merge timings at test scale are only a few
            # milliseconds each, so a single load's throughput is dominated
            # by scheduler noise rather than the engines' merge I/O shape.
            best = 0.0
            for attempt in range(3):
                result = _load(
                    workdir,
                    "curation",
                    engine_kind,
                    scale,
                    three_way_merges=three_way,
                    label=f"table3_{engine_kind}_{mode_label}_{attempt}",
                )
                total_bytes = sum(m.diff_bytes for m in result.merge_timings)
                total_seconds = sum(m.seconds for m in result.merge_timings)
                merge_count = len(result.merge_timings)
                if total_seconds > 0:
                    best = max(best, (total_bytes / (1024 * 1024)) / total_seconds)
            throughput[mode_label] = best
        table.add_row(
            ENGINE_LABELS[engine_kind],
            throughput["two-way"],
            throughput["three-way"],
            merge_count,
        )
    table.add_note(
        "paper: VF 14.2/9.6, TF 15.8/15.1, HY 26.5/33.2 MB/s -- hybrid fastest, "
        "version-first hit hardest by the three-way LCA scan"
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
# Ablations called out in DESIGN.md
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


def _median_query_seconds(runner, repetitions: int) -> float:
    runner()  # warm the buffer pool and compile caches once
    return statistics.median(runner() for _ in range(repetitions))


def sort_topn(
    workdir: str,
    scale: ExperimentScale | None = None,
    json_path: str | None = None,
) -> ResultTable:
    """Memory-bounded sort and Top-N (PR 5): full sort vs bounded heap.

    Part 1 measures, on ``scale.scan_rows`` rows in the tuple-first engine:

    * ``ORDER BY ... LIMIT k`` -- the optimizer's Top-N rewrite -- against
      the full sort it replaces, asserting the Top-N rows equal the full
      sort's prefix and that EXPLAIN-style plan rendering carries the
      ``[top-n k=...]`` tag;
    * the spill path: the same sort under a byte budget far smaller than the
      input, asserting byte-identical rows to the in-memory sort.

    Part 2 runs the full-sort-vs-Top-N comparison per storage engine at
    benchmark scale.  All runs are warm-cache; medians are written to
    ``json_path`` (``BENCH_pr5.json``).
    """
    from repro.query.logical import Limit, Sort, VersionScan, render_plan
    from repro.query.optimizer import optimize, rewrite_labels
    from repro.query.physical import build_physical, execute_plan

    scale = scale or ExperimentScale()
    if json_path is None:
        # Default into the workdir so small-scale (smoke) runs cannot
        # clobber the checked-in acceptance artifact in the CWD.
        json_path = os.path.join(workdir, "BENCH_pr5.json")
    table = ResultTable(
        "Memory-bounded sort and Top-N: full sort vs bounded alternatives "
        "(seconds)",
        ["workload", "engine", "baseline", "measured", "speedup"],
    )
    top_k = 10
    payload: dict = {
        "benchmark": "memory-bounded sort and Top-N (PR 5)",
        "warm_cache": True,
        "notes": [
            "top_n speedup = full ORDER BY vs ORDER BY ... LIMIT k through "
            "the optimizer's bounded-heap TopN rewrite",
            "order_by_spill is informational: the byte budget is set far "
            "below the input so the run-merge spill path is exercised; "
            "rows are asserted byte-identical to the in-memory sort",
        ],
        "scale": {
            "scan_rows": scale.scan_rows,
            "total_operations": scale.total_operations,
            "num_branches": scale.num_branches,
            "commit_interval": scale.commit_interval,
            "num_columns": scale.num_columns,
            "seed": scale.seed,
        },
        "top_k": top_k,
        "workloads": {},
        "queries": {},
    }

    # -- part 1: ORDER BY / Top-N / spill on scan_rows rows (tuple-first) ----
    micro_config = BenchmarkConfig(
        strategy="flat",
        engine="tuple-first",
        num_branches=1,
        total_operations=scale.scan_rows,
        update_fraction=0.0,
        commit_interval=max(scale.scan_rows // 4, 1),
        num_columns=scale.num_columns,
        seed=scale.seed,
        # 64 KiB pages: the comparison targets execution-path overhead, not
        # page eviction churn.
        page_size=64 * 1024,
    )
    micro = load_dataset(micro_config, os.path.join(workdir, "sort_topn_data"))
    engine = micro.engine
    branch = micro.strategy.single_scan_branch(random.Random(0))
    repetitions = 5

    def order_plan(limit=None, budget_bytes=None):
        plan = Sort(
            VersionScan(engine, BENCH_RELATION, BENCH_RELATION, "branch", branch, None),
            [("c2", True), (engine.schema.primary_key, False)],
            budget_bytes=budget_bytes,
        )
        return Limit(plan, limit) if limit is not None else plan

    # The Top-N rewrite must be visible in plan output, never silent.
    limited = optimize(order_plan(limit=top_k))
    explained = render_plan(limited, rewrite_labels(limited))
    if f"top-n k={top_k}" not in explained:
        raise BenchmarkError(
            f"Limit-over-Sort did not rewrite to TopN:\n{explained}"
        )
    payload["explain"] = explained

    full_rows = execute_plan(optimize(order_plan())).rows
    topn_rows = execute_plan(optimize(order_plan(limit=top_k))).rows
    if topn_rows != full_rows[:top_k]:
        raise BenchmarkError("TopN rows differ from the full sort's prefix")

    full_seconds = _median_query_seconds(
        lambda: query6_order_by(engine, branch, cold=False).seconds,
        repetitions,
    )
    topn_seconds = _median_query_seconds(
        lambda: query6_order_by(engine, branch, limit=top_k, cold=False).seconds,
        repetitions,
    )
    speedup = full_seconds / topn_seconds if topn_seconds > 0 else 0.0
    table.add_row(
        f"ORDER BY LIMIT {top_k} (Top-N rewrite)",
        "TF",
        full_seconds,
        topn_seconds,
        speedup,
    )
    payload["workloads"]["top_n"] = {
        "k": top_k,
        "rows": len(topn_rows),
        "full_sort_s": full_seconds,
        "topn_s": topn_seconds,
        "speedup": round(speedup, 2),
    }

    # Spill path: budget far below the input, rows byte-identical.
    spill_budget = 256 * 1024
    spill_operator = build_physical(optimize(order_plan(budget_bytes=spill_budget)))
    spilled_rows = [
        row for batch in spill_operator.column_batches() for row in batch.rows()
    ]
    if spilled_rows != full_rows:
        raise BenchmarkError(
            "spilled sort does not reproduce the in-memory sort"
        )
    spilled_runs = spill_operator.spilled_runs
    spill_seconds = _median_query_seconds(
        lambda: query6_order_by(
            engine, branch, budget_bytes=spill_budget, cold=False
        ).seconds,
        repetitions,
    )
    table.add_row(
        f"ORDER BY with {spill_budget // 1024} KiB budget "
        f"({spilled_runs} spilled runs)",
        "TF",
        full_seconds,
        spill_seconds,
        full_seconds / spill_seconds if spill_seconds > 0 else 0.0,
    )
    payload["workloads"]["order_by_spill"] = {
        "budget_bytes": spill_budget,
        "spilled_runs": spilled_runs,
        "in_memory_s": full_seconds,
        "spill_s": spill_seconds,
        "identical_rows": True,
    }

    # -- part 2: full sort vs Top-N per engine at benchmark scale ------------
    for engine_kind in ENGINE_KINDS:
        result = _load(
            workdir,
            "flat",
            engine_kind,
            scale,
            label=f"sort_topn_{engine_kind}",
        )
        loaded = result.engine
        target = result.strategy.single_scan_branch(random.Random(0))
        full = _median_query_seconds(
            lambda: query6_order_by(loaded, target, cold=False).seconds,
            repetitions,
        )
        topn = _median_query_seconds(
            lambda: query6_order_by(
                loaded, target, limit=top_k, cold=False
            ).seconds,
            repetitions,
        )
        speedup = full / topn if topn > 0 else 0.0
        table.add_row("Q6 full vs Top-N", ENGINE_LABELS[engine_kind], full, topn, speedup)
        payload["queries"][engine_kind] = {
            "topn": {
                "k": top_k,
                "full_sort_s": full,
                "topn_s": topn,
                "speedup": round(speedup, 2),
            }
        }
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    table.add_note(
        "Top-N rows asserted equal to the full sort's prefix and spilled "
        "sorts asserted byte-identical to in-memory sorts; medians written "
        f"to {json_path}"
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


# ---------------------------------------------------------------------------
# Recovery (PR 8): open-to-first-query-result, clean open vs crash recovery
# ---------------------------------------------------------------------------


def recovery_open(
    workdir: str,
    scale: ExperimentScale | None = None,
    json_path: str | None = None,
) -> ResultTable:
    """Time ``Decibel.open`` to first query result, clean vs after a crash.

    For each engine a dataset of ``scale.scan_rows`` rows is committed and
    the database closed cleanly.  The *clean* measurement times a fresh
    :meth:`Decibel.open` plus one ``COUNT(*)`` query.  The *recovery*
    measurement first kills a transaction mid-commit with the
    fault-injection harness (after its WAL commit point but before the
    version graph persisted, so reopen must redo it), then times the same
    open-plus-query.  The ratio records how much a crash inflates time to
    first result; ``scripts/check_bench_regression.py`` gates it as a
    ceiling so the recovery path cannot silently become disproportionately
    expensive.
    """
    from repro.core.record import Record
    from repro.core.schema import Schema
    from repro.db.database import Decibel
    from repro.testing.faults import FaultSchedule, InjectedCrash, inject

    scale = scale or ExperimentScale()
    json_path = json_path or os.path.join(workdir, "BENCH_pr8.json")
    rows = scale.scan_rows
    columns = max(scale.num_columns, 2)
    schema = Schema.of_ints(columns)
    repetitions = 3
    count_sql = "SELECT COUNT(*) FROM r WHERE r.Version = 'master'"
    table = ResultTable(
        title=(
            f"Recovery: open to first query result on {rows} rows "
            f"(medians of {repetitions})"
        ),
        columns=["engine", "clean open (s)", "recovery open (s)", "ratio"],
    )
    payload: dict = {"experiment": "recovery", "rows": rows, "workloads": {}}

    def record_for(key: int) -> Record:
        return Record(tuple([key] + [key % 97] * (columns - 1)))

    for engine_kind in ("tuple-first", "version-first", "hybrid"):
        directory = os.path.join(workdir, f"recovery_{engine_kind}")
        db = Decibel(directory, engine=engine_kind)
        relation = db.create_relation("r", schema)
        relation.init(record_for(key) for key in range(rows))
        db.close()

        def timed_open(expected_count: int) -> float:
            start = time.perf_counter()
            opened = Decibel.open(directory, engine=engine_kind)
            count = opened.query(count_sql).rows[0][0]
            elapsed = time.perf_counter() - start
            if count != expected_count:
                raise BenchmarkError(
                    f"{engine_kind}: expected {expected_count} rows after "
                    f"open, got {count}"
                )
            opened.close()
            return elapsed

        clean_times = [timed_open(rows) for _ in range(repetitions)]

        def crash_once(key: int) -> None:
            opened = Decibel.open(directory, engine=engine_kind)
            txn = opened.transactions("r").begin()
            txn.insert("master", record_for(key))
            try:
                with inject(FaultSchedule("graph-persist-mid-write")):
                    txn.commit("bench crash victim")
            except InjectedCrash:
                return
            raise BenchmarkError(
                f"{engine_kind}: graph-persist-mid-write never fired"
            )

        recovery_times = []
        for repetition in range(repetitions):
            crash_once(rows + repetition)
            # The crashed transaction passed its commit point, so recovery
            # redoes it: each repetition adds exactly one row.
            recovery_times.append(timed_open(rows + repetition + 1))

        clean_median = statistics.median(clean_times)
        recovery_median = statistics.median(recovery_times)
        ratio = recovery_median / clean_median if clean_median > 0 else 0.0
        table.add_row(engine_kind, clean_median, recovery_median, ratio)
        payload["workloads"][engine_kind] = {
            "rows": rows,
            "clean_open_s": clean_median,
            "recovery_open_s": recovery_median,
            "ratio": round(ratio, 2),
        }

    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    table.add_note(
        "recovery opens replay the WAL, redo one committed-but-unapplied "
        f"transaction, and re-verify consistency; medians written to {json_path}"
    )
    return table


def serving_concurrency(
    workdir: str,
    scale: ExperimentScale | None = None,
    json_path: str | None = None,
) -> ResultTable:
    """Serving-layer latency and throughput at 1 / 4 / 16 concurrent clients.

    A hybrid-engine dataset of ``scale.scan_rows`` rows is served by a
    :class:`~repro.server.server.DecibelServer` on a background thread; each
    client session runs a read-heavy mix (80% snapshot ``COUNT(*)`` queries,
    20% insert+group-commit batches on its own branch) and records a
    latency per request via ``time.perf_counter``.  Reported per client
    count: p50/p90/p99 latency, aggregate throughput, and the tail ratio
    ``p99 / p50`` -- the number admission control and group commit exist
    to keep flat as concurrency grows.  The ratio is gated as a *ceiling*
    by ``scripts/check_bench_regression.py``: a serving-layer change that
    makes tails blow up under concurrency fails CI even if medians look
    fine.
    """
    from repro.core.record import Record
    from repro.core.schema import Schema
    from repro.db.database import Decibel
    from repro.server import DecibelClient, ServerConfig, ServerThread

    scale = scale or ExperimentScale()
    json_path = json_path or os.path.join(workdir, "BENCH_pr9.json")
    rows = scale.scan_rows
    requests_per_client = 40
    client_counts = (1, 4, 16)
    count_sql = "SELECT COUNT(*) FROM r WHERE r.Version = 'master'"
    schema = Schema.of_ints(max(scale.num_columns, 2))
    columns = max(scale.num_columns, 2)

    table = ResultTable(
        title=(
            f"Serving layer: {requests_per_client} requests/client over "
            f"{rows} rows (hybrid engine, read-heavy mix)"
        ),
        columns=[
            "clients",
            "p50 (s)",
            "p90 (s)",
            "p99 (s)",
            "throughput (req/s)",
            "ratio",
        ],
    )
    payload: dict = {
        "experiment": "serving-concurrency",
        "rows": rows,
        "requests_per_client": requests_per_client,
        "workloads": {},
    }

    def percentile(sorted_values: list[float], q: float) -> float:
        index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
        return sorted_values[index]

    for clients in client_counts:
        directory = os.path.join(workdir, f"serving_{clients}")
        db = Decibel(directory, engine="hybrid")
        relation = db.create_relation("r", schema)
        relation.init(
            Record(tuple([key] + [key % 97] * (columns - 1)))
            for key in range(rows)
        )
        config = ServerConfig(
            max_sessions=clients + 4,
            max_queue_depth=4 * clients + 8,
            worker_threads=min(8, clients + 2),
            default_deadline_s=60.0,
            max_deadline_s=120.0,
        )
        server = ServerThread(db, config, own_db=True)
        host, port = server.start()
        with DecibelClient(host, port) as admin:
            admin.connect()
            for worker in range(clients):
                admin.create_branch("r", f"w{worker}", from_branch="master")

        latencies_per_client: list[list[float]] = [[] for _ in range(clients)]
        failures: list[BaseException] = []
        import threading

        def run_client(worker: int) -> None:
            try:
                with DecibelClient(
                    host, port, default_deadline_s=60.0
                ) as client:
                    client.connect()
                    client.use_branch(f"w{worker}")
                    key_base = 10_000_000 + worker * requests_per_client
                    recorded = latencies_per_client[worker]
                    for request in range(requests_per_client):
                        start = time.perf_counter()
                        if request % 5 == 4:
                            client.insert(
                                "r",
                                [key_base + request]
                                + [request % 97] * (columns - 1),
                            )
                            client.commit("bench batch")
                        else:
                            result = client.query(count_sql)
                            if result.rows[0][0] < rows:
                                raise BenchmarkError(
                                    f"snapshot count shrank: {result.rows}"
                                )
                        recorded.append(time.perf_counter() - start)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        wall_start = time.perf_counter()
        threads = [
            threading.Thread(target=run_client, args=(worker,))
            for worker in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_start
        server.stop()
        if failures:
            raise BenchmarkError(
                f"{clients}-client run failed: {failures[0]!r}"
            )
        latencies = sorted(
            value for recorded in latencies_per_client for value in recorded
        )
        total_requests = len(latencies)
        p50 = percentile(latencies, 0.50)
        p90 = percentile(latencies, 0.90)
        p99 = percentile(latencies, 0.99)
        throughput = total_requests / wall if wall > 0 else 0.0
        ratio = p99 / p50 if p50 > 0 else 0.0
        table.add_row(str(clients), p50, p90, p99, throughput, ratio)
        payload["workloads"][f"clients_{clients}"] = {
            "clients": clients,
            "requests": total_requests,
            "p50_s": p50,
            "p90_s": p90,
            "p99_s": p99,
            "throughput_rps": round(throughput, 1),
            "ratio": round(ratio, 2),
        }

    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    table.add_note(
        "each session: 80% snapshot COUNT(*) reads, 20% insert+commit on a "
        "private branch (group commit); the gated ratio is p99/p50 tail "
        f"amplification; percentiles written to {json_path}"
    )
    return table


def index_subsystem(
    workdir: str,
    scale: ExperimentScale | None = None,
    json_path: str | None = None,
) -> ResultTable:
    """Versioned index subsystem (PR 10): persisted pk index + index scans.

    Part 1 times cold open-to-first-result -- ``Decibel.open`` plus one
    primary-key point query -- on ``scale.scan_rows`` rows with the
    persisted pk index present versus removed (forcing the lazy full-scan
    rebuild the pre-index code always paid).  Part 2 compares a selective
    (<=1%) secondary-index point query and a range query against the
    columnar full scan the optimizer would otherwise run, toggled via
    ``set_index_selection`` so both arms execute the same SQL through the
    same pipeline.  Results are asserted identical between arms; medians
    are written to ``json_path`` (``BENCH_pr10.json``) and gated as ratio
    floors by ``scripts/check_bench_regression.py``.
    """
    import shutil

    from repro.core.record import Record
    from repro.core.schema import Schema
    from repro.db.database import Decibel
    from repro.query.executor import explain_query
    from repro.query.optimizer import set_index_selection

    scale = scale or ExperimentScale()
    json_path = json_path or os.path.join(workdir, "BENCH_pr10.json")
    rows = scale.scan_rows
    columns = max(scale.num_columns, 3)
    schema = Schema.of_ints(columns)
    #: Distinct c1 values: a point predicate matches ~rows/distinct rows
    #: (0.1% at the 100k acceptance scale), well under the optimizer's
    #: selectivity threshold.
    distinct = max(2, min(1000, rows // 100))
    repetitions = 5
    point_key = rows // 2
    pk_sql = (
        f"SELECT * FROM r WHERE r.Version = 'master' AND r.id = {point_key}"
    )
    point_sql = "SELECT * FROM r WHERE r.Version = 'master' AND r.c1 = 7"
    range_sql = "SELECT * FROM r WHERE r.Version = 'master' AND r.c1 < 2"

    table = ResultTable(
        title=f"Index subsystem: persisted pk index and index scans ({rows} rows)",
        columns=["workload", "baseline (s)", "indexed (s)", "speedup"],
    )
    payload: dict = {
        "experiment": "index-subsystem",
        "rows": rows,
        "distinct_c1": distinct,
        "notes": [
            "cold_open speedup = lazy full-scan pk rebuild vs loading the "
            "persisted snapshot chain, each timed as open + one pk point "
            "query (time to first result)",
            "point/range speedups toggle set_index_selection so both arms "
            "run the same SQL through the same plan/optimize/execute "
            "pipeline; results asserted identical",
        ],
        "workloads": {},
    }

    def record_for(key: int) -> Record:
        return Record(
            tuple([key, key % distinct] + [key % 97] * (columns - 2))
        )

    directory = os.path.join(workdir, "index_subsystem")
    db = Decibel(directory, engine="hybrid")
    relation = db.create_relation("r", schema, indexes=("c1",))
    relation.init(record_for(key) for key in range(rows))
    db.close()  # clean close persists the pk snapshot for master

    # -- part 1: cold open to first result, persisted index vs rebuild -------
    def timed_cold_open() -> float:
        start = time.perf_counter()
        opened = Decibel.open(directory, engine="hybrid")
        result = opened.query(pk_sql)
        elapsed = time.perf_counter() - start
        if len(result.rows) != 1 or result.rows[0][0] != point_key:
            raise BenchmarkError(
                f"pk point query returned {result.rows!r}, "
                f"expected one row with id {point_key}"
            )
        opened.close()
        return elapsed

    indexed_open = statistics.median(
        timed_cold_open() for _ in range(repetitions)
    )
    index_dir = os.path.join(directory, "r", "index")
    rebuild_times = []
    for _ in range(repetitions):
        if os.path.isdir(index_dir):
            shutil.rmtree(index_dir)
        rebuild_times.append(timed_cold_open())
    rebuild_open = statistics.median(rebuild_times)
    speedup = rebuild_open / indexed_open if indexed_open > 0 else 0.0
    table.add_row("cold open + pk point query", rebuild_open, indexed_open, speedup)
    payload["workloads"]["cold_open"] = {
        "rows": rows,
        "rebuild_open_s": rebuild_open,
        "indexed_open_s": indexed_open,
        "speedup": round(speedup, 2),
    }

    # -- part 2: selective point + range queries vs columnar full scan -------
    db = Decibel.open(directory, engine="hybrid")
    explained = explain_query(db, point_sql)
    if "[index]" not in explained:
        raise BenchmarkError(
            f"selective point query did not plan an index scan:\n{explained}"
        )

    def measured_arm(sql: str, indexed: bool) -> tuple[float, list]:
        set_index_selection(indexed)
        try:
            rows_out = sorted(db.query(sql).rows)  # warm caches + build index
            seconds = statistics.median(
                _timed_query(db, sql) for _ in range(repetitions)
            )
        finally:
            set_index_selection(True)
        return seconds, rows_out

    def _timed_query(database, sql: str) -> float:
        start = time.perf_counter()
        database.query(sql)
        return time.perf_counter() - start

    for name, label, sql in (
        ("point_query", "point c1 = 7 (<=1% selective)", point_sql),
        ("range_query", "range c1 < 2", range_sql),
    ):
        full_seconds, full_rows = measured_arm(sql, indexed=False)
        index_seconds, index_rows = measured_arm(sql, indexed=True)
        if full_rows != index_rows:
            raise BenchmarkError(
                f"{name}: index scan rows differ from the full scan "
                f"({len(index_rows)} vs {len(full_rows)})"
            )
        speedup = full_seconds / index_seconds if index_seconds > 0 else 0.0
        table.add_row(label, full_seconds, index_seconds, speedup)
        payload["workloads"][name] = {
            "rows": rows,
            "matching": len(index_rows),
            "full_scan_s": full_seconds,
            "index_scan_s": index_seconds,
            "speedup": round(speedup, 2),
        }
    db.close()

    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    table.add_note(
        "cold_open compares loading the persisted pk snapshot against the "
        "lazy full-scan rebuild; point/range results asserted identical "
        f"between arms; medians written to {json_path}"
    )
    return table
