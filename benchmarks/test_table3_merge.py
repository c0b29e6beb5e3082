"""Table 3: merge throughput (MB of diff per second), curation strategy.

Paper shape (MB/s): VF 14.2 two-way / 9.6 three-way, TF 15.8 / 15.1,
HY 26.5 / 33.2.  Hybrid is the fastest merger; version-first loses the most
when moving to three-way merges because the whole LCA commit must be scanned
to find conflicts, while the bitmap engines narrow that scan.
"""

from benchmarks.conftest import run_once
from repro.bench.experiments import table3_merge_throughput


def test_table3_merge_throughput(benchmark, workdir, scale):
    table = run_once(benchmark, table3_merge_throughput, workdir, scale=scale)
    table.print()
    assert [row[0] for row in table.rows] == ["VF", "TF", "HY"]
    rows = {row[0]: row[1:] for row in table.rows}

    for engine, (two_way, three_way, merges, *_) in rows.items():
        assert merges > 0, "the curation load performed no merges"
        assert two_way > 0 and three_way > 0

    # Shape on counted work: the bitmap engines' three-way merges read only
    # the keys where each head differs from the LCA and decode just the
    # copies of keys both sides changed; version-first decodes both heads
    # and the whole LCA commit.
    decoded = {engine: values[4] for engine, values in rows.items()}
    assert decoded["TF"] < decoded["VF"] and decoded["HY"] < decoded["VF"]

    # Shape: hybrid's three-way merge stays competitive (the paper has it
    # fastest by 2-3x; at this CPU-bound scale the gap narrows), and
    # version-first gains little from the three-way
    # mode -- its extra full LCA scan caps it near its two-way rate.  At the
    # few-millisecond merge durations of the test scale, per-merge fixed
    # overhead dominates the LCA-scan cost the paper measures, so the bound
    # is deliberately loose.
    best_three_way = max(values[1] for values in rows.values())
    assert rows["HY"][1] >= best_three_way * 0.5
    assert rows["VF"][1] <= rows["VF"][0] * 1.8
