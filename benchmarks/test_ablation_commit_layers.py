"""Ablation: composite (two-layer) commit deltas versus a flat delta chain.

Paper Section 3.2: commit histories aggregate runs of deltas into a higher
"layer" of composite deltas so checkout replays fewer chained deltas, at the
cost of some extra space (here in memory only).  This ablation sweeps the
composite interval (0 disables the layer entirely).
"""

from benchmarks.conftest import run_once
from repro.bench.experiments import ablation_commit_layers


def test_ablation_commit_layers(benchmark, workdir, scale):
    table = run_once(benchmark, ablation_commit_layers, workdir, scale=scale)
    table.print()
    rows = {row[0]: row[1:] for row in table.rows}
    assert set(rows) == {0, 4, 8, 16}
    # Composites live in memory only: every interval records (and persists
    # in the graph events) the same delta bytes as the flat chain...
    assert rows[4][1] == rows[8][1] == rows[16][1] == rows[0][1]
    # ...and every configuration checks out correctly in sub-second time.
    for interval, (checkout_ms, size_kb) in rows.items():
        assert checkout_ms < 1000
        assert size_kb > 0
