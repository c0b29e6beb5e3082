"""Figure 10: Query 4 (scan every branch head under a weak predicate).

Paper shape: tuple-first and hybrid offer the best, comparable performance --
they scan each record once and use bitmaps to attribute it to branches --
while version-first must make multiple passes, and degrades most on the
merge-heavy curation strategy.
"""

from benchmarks.conftest import run_once
from repro.bench.experiments import figure10_query4


def test_fig10_query4(benchmark, workdir, scale):
    table = run_once(benchmark, figure10_query4, workdir, scale=scale)
    table.print()
    assert [row[0] for row in table.rows] == ["deep", "flat", "science", "curation"]
    for strategy, _, _, _, vf_read, tf_read, hy_read, vf_stored in table.rows:
        # Shape on counted work: version-first reads every segment of each
        # chain whole, superseded copies included, so it never reads fewer
        # records than the bitmap engines, which read each stored record
        # once at most.
        assert vf_read == vf_stored, f"VF skipped stored records on {strategy}"
        assert vf_read >= max(tf_read, hy_read), f"unexpected Q4 reads on {strategy}"
    rows = {row[0]: row[1:] for row in table.rows}
    # Curation (with merges) is where version-first suffers the most relative
    # to hybrid: its merges store copies the bitmap engines share.
    cur_vf, _, cur_hy, cur_vf_read, _, cur_hy_read, _ = rows["curation"]
    assert cur_vf_read > cur_hy_read
    assert cur_vf >= cur_hy
