"""Command-line entry point for the versioning benchmark.

Runs any subset of the paper's experiments without pytest::

    python -m repro.bench --list
    python -m repro.bench fig7 table3 --operations 3000 --branches 8
    python -m repro.bench all --workdir /tmp/decibel-bench

Each experiment prints the result table corresponding to its paper artefact;
``--list`` names them.  Performance of the system itself is measured by the
repo benchmark under ``perf/`` (see ``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.bench import experiments
from repro.bench.experiments import ExperimentScale
from repro.bench.report import ResultTable

#: Experiment name -> (description, runner).  Runners take (workdir, scale)
#: and return one ResultTable or a tuple of them.
EXPERIMENTS = {
    "fig6": (
        "Figure 6a/6b: Q1 and Q4 while scaling the branch count (flat)",
        lambda workdir, scale: experiments.figure6_scaling(workdir, scale=scale),
    ),
    "fig7": (
        "Figure 7: Query 1 across strategies (incl. clustered tuple-first)",
        lambda workdir, scale: experiments.figure7_query1(workdir, scale=scale),
    ),
    "fig8": (
        "Figure 8: Query 2 (positive diff) across strategies",
        lambda workdir, scale: experiments.figure8_query2(workdir, scale=scale),
    ),
    "fig9": (
        "Figure 9: Query 3 (multi-version join) across strategies",
        lambda workdir, scale: experiments.figure9_query3(workdir, scale=scale),
    ),
    "fig10": (
        "Figure 10: Query 4 (scan all heads) across strategies",
        lambda workdir, scale: experiments.figure10_query4(workdir, scale=scale),
    ),
    "fig11": (
        "Figure 11 + Table 4: table-wise updates",
        lambda workdir, scale: experiments.figure11_tablewise_updates(
            workdir, scale=scale
        ),
    ),
    "table2": (
        "Table 2: commit-history size, commit and checkout time",
        lambda workdir, scale: experiments.table2_commit_metadata(workdir, scale=scale),
    ),
    "table3": (
        "Table 3: two-way vs three-way merge throughput (curation)",
        lambda workdir, scale: experiments.table3_merge_throughput(workdir, scale=scale),
    ),
    "table5": (
        "Table 5: build (load) times per strategy and engine",
        lambda workdir, scale: experiments.table5_build_times(workdir, scale=scale),
    ),
    "table6": (
        "Table 6: git-backed storage vs Decibel (hybrid), 100% inserts",
        lambda workdir, scale: experiments.git_comparison(
            workdir, update_fraction=0.0, scale=scale
        ),
    ),
    "table7": (
        "Table 7: git-backed storage vs Decibel (hybrid), 50% updates",
        lambda workdir, scale: experiments.git_comparison(
            workdir, update_fraction=0.5, scale=scale
        ),
    ),
    "ablation-orientation": (
        "Ablation: branch- vs tuple-oriented bitmaps (tuple-first)",
        lambda workdir, scale: experiments.ablation_bitmap_orientation(
            workdir, scale=scale
        ),
    ),
    "ablation-layers": (
        "Ablation: composite commit-delta layer interval sweep",
        lambda workdir, scale: experiments.ablation_commit_layers(workdir, scale=scale),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro.bench``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the Decibel versioning benchmark experiments.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names (see --list), or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="directory for generated datasets (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--operations",
        type=int,
        default=3000,
        help="total insert/update operations per dataset (default: 3000)",
    )
    parser.add_argument(
        "--branches", type=int, default=8, help="number of branches (default: 8)"
    )
    parser.add_argument(
        "--commit-interval",
        type=int,
        default=300,
        help="operations between commits per branch (default: 300)",
    )
    parser.add_argument(
        "--columns", type=int, default=10, help="columns per record (default: 10)"
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="print tables as markdown instead of fixed-width text",
    )
    return parser


def _print_tables(result, markdown: bool) -> None:
    tables = result if isinstance(result, tuple) else (result,)
    for table in tables:
        if not isinstance(table, ResultTable):  # pragma: no cover - defensive
            continue
        if markdown:
            print()
            print(table.to_markdown())
            print()
        else:
            table.print()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list or not args.experiments:
        print("available experiments:")
        for name, (description, _) in EXPERIMENTS.items():
            print(f"  {name:22s} {description}")
        print("  all                    run every experiment")
        return 0
    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    scale = ExperimentScale(
        total_operations=args.operations,
        num_branches=args.branches,
        commit_interval=args.commit_interval,
        num_columns=args.columns,
    )
    workdir = args.workdir or tempfile.mkdtemp(prefix="decibel-bench-")
    print(f"datasets under {workdir}")
    for name in names:
        description, runner = EXPERIMENTS[name]
        print(f"\n== {name}: {description}")
        _print_tables(runner(workdir, scale), markdown=args.markdown)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
