"""Table 2: bitmap commit data (history size, commit time, checkout time).

Paper shape: commit metadata is a small fraction of the dataset for both
engines; hybrid's per-(branch, segment) histories are smaller in aggregate
than tuple-first's per-branch ones and are faster to check out; commit and
checkout stay far below a second.
"""

from benchmarks.conftest import run_once
from repro.bench.experiments import table2_commit_metadata


def test_table2_commit_metadata(benchmark, workdir, scale):
    table = run_once(benchmark, table2_commit_metadata, workdir, scale=scale)
    table.print()
    assert len(table.rows) == 8  # 4 strategies x {TF, HY}

    by_strategy = {}
    for strategy, engine, size_kb, commit_ms, checkout_ms in table.rows:
        by_strategy.setdefault(strategy, {})[engine] = (size_kb, commit_ms, checkout_ms)
        # Commit and checkout of a bitmap snapshot are sub-second operations.
        assert commit_ms < 1000
        assert checkout_ms < 1000
        assert size_kb > 0

    # Aggregate shape: commit metadata overhead stays small in absolute terms
    # and hybrid's split histories are not dramatically larger than
    # tuple-first's (the paper reports them smaller at 100 GB scale).
    for strategy, engines in by_strategy.items():
        tf_size, _, _ = engines["TF"]
        hy_size, _, _ = engines["HY"]
        assert hy_size <= tf_size * 3, f"hybrid history blew up on {strategy}"
