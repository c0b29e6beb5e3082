"""Smoke tests for the experiment runners and the benchmark CLI.

The full-size experiments run under ``benchmarks/``; here they are exercised
at a tiny scale to cover the plumbing (dataset construction, measurement,
table assembly) inside the regular test suite.
"""

import pytest

from repro.bench.cli import EXPERIMENTS, build_parser, main
from repro.bench.experiments import (
    ExperimentScale,
    ablation_commit_layers,
    figure6_scaling,
    figure8_query2,
    git_comparison,
    table2_commit_metadata,
    table3_merge_throughput,
)
from repro.bench.report import ResultTable
from repro.errors import CorruptionError
from repro.storage.hybrid import HybridEngine
from repro.storage.tuple_first import TupleFirstEngine


@pytest.fixture
def tiny_scale():
    return ExperimentScale(
        total_operations=240, num_branches=4, commit_interval=60, num_columns=4
    )


class TestExperimentRunnersSmoke:
    def test_figure6_structure(self, tmp_path, tiny_scale):
        q1, q4 = figure6_scaling(
            str(tmp_path), branch_counts=(2, 4), scale=tiny_scale
        )
        assert [row[0] for row in q1.rows] == [2, 4]
        assert all(value > 0 for row in q1.rows for value in row[1:])
        assert all(value > 0 for row in q4.rows for value in row[1:])

    def test_figure8_structure(self, tmp_path, tiny_scale):
        table = figure8_query2(str(tmp_path), scale=tiny_scale)
        assert [row[0] for row in table.rows] == ["deep", "flat", "science", "curation"]
        assert all(value >= 0 for row in table.rows for value in row[1:])

    def test_table3_structure(self, tmp_path, tiny_scale):
        table = table3_merge_throughput(str(tmp_path), scale=tiny_scale)
        assert [row[0] for row in table.rows] == ["VF", "TF", "HY"]
        for _, two_way, three_way, merges, *decoded in table.rows:
            assert merges >= 1
            assert two_way >= 0 and three_way >= 0
            assert all(count >= 0 for count in decoded)

    def test_git_comparison_structure(self, tmp_path, tiny_scale):
        table = git_comparison(
            str(tmp_path), update_fraction=0.0, scale=tiny_scale, num_branches=3,
            commits=6, checkout_samples=3,
        )
        assert table.rows[-1][0] == "Decibel (hybrid)"
        assert len(table.rows) == 5
        for row in table.rows:
            assert row[1] > 0  # data size
            assert row[4] >= 0  # commit mean

    def test_table2_structure(self, tmp_path, tiny_scale):
        table = table2_commit_metadata(str(tmp_path), tiny_scale, checkout_samples=5)
        assert len(table.rows) == 8
        for _, _, size_kb, commit_ms, checkout_ms in table.rows:
            assert size_kb > 0 and commit_ms >= 0 and checkout_ms > 0

    @pytest.mark.parametrize("engine", [TupleFirstEngine, HybridEngine])
    def test_table2_surfaces_a_failing_checkout(
        self, tmp_path, tiny_scale, engine, monkeypatch
    ):
        """A checkout that raises fails the table instead of silently
        dropping out of the average."""

        def broken(self, commit_id):
            raise CorruptionError(self.directory, "unreadable snapshot")

        name = (
            "checkout_commit_bitmap"
            if engine is TupleFirstEngine
            else "checkout_commit_bitmaps"
        )
        monkeypatch.setattr(engine, name, broken)
        with pytest.raises(CorruptionError):
            table2_commit_metadata(str(tmp_path), tiny_scale, checkout_samples=2)

    def test_ablation_layers_structure(self, tmp_path, tiny_scale):
        table = ablation_commit_layers(str(tmp_path), scale=tiny_scale)
        assert [row[0] for row in table.rows] == [0, 4, 8, 16]


class TestBenchmarkCLI:
    def test_every_registered_experiment_has_a_runner(self):
        for name, (description, runner) in EXPERIMENTS.items():
            assert description
            assert callable(runner)

    def test_list_mode(self, capsys):
        # The CLI runs the paper's figures, tables and ablations only; the
        # system's own performance is measured by the repo benchmark.
        assert set(EXPERIMENTS) == {
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "table2", "table3", "table5", "table6", "table7",
            "ablation-orientation", "ablation-layers",
        }
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output

    def test_no_arguments_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-an-experiment"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig7", "--operations", "500"])
        assert args.experiments == ["fig7"]
        assert args.operations == 500
        assert args.branches == 8
        assert args.commit_interval == 300
        assert args.columns == 10
        assert args.workdir is None
        assert not args.markdown
        for removed in ("scan_rows", "bench_json"):
            assert not hasattr(args, removed)

    def test_runs_one_experiment_end_to_end(self, tmp_path, capsys):
        code = main(
            [
                "fig8",
                "--workdir",
                str(tmp_path),
                "--operations",
                "240",
                "--branches",
                "4",
                "--commit-interval",
                "60",
                "--columns",
                "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 8" in output
        assert "curation" in output

    def test_markdown_output(self, tmp_path, capsys):
        code = main(
            [
                "ablation-layers",
                "--markdown",
                "--workdir",
                str(tmp_path),
                "--operations",
                "240",
                "--branches",
                "4",
                "--commit-interval",
                "60",
                "--columns",
                "4",
            ]
        )
        assert code == 0
        assert "| layer interval |" in capsys.readouterr().out

    def test_result_table_type_used(self):
        # The CLI relies on runners returning ResultTable objects.
        assert isinstance(ResultTable("t", ["a"]), ResultTable)
