"""Smoke tests for the experiment runners and the benchmark CLI.

The full-size experiments run under ``benchmarks/``; here they are exercised
at a tiny scale to cover the plumbing (dataset construction, measurement,
table assembly) inside the regular test suite.
"""

import json

import pytest

from repro.bench.cli import EXPERIMENTS, build_parser, main
from repro.bench.experiments import (
    ExperimentScale,
    ablation_commit_layers,
    figure6_scaling,
    figure8_query2,
    git_comparison,
    sort_topn,
    table3_merge_throughput,
)
from repro.bench.report import ResultTable


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
        for _, two_way, three_way, merges in table.rows:
            assert merges >= 1
            assert two_way >= 0 and three_way >= 0

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

    def test_ablation_layers_structure(self, tmp_path, tiny_scale):
        table = ablation_commit_layers(str(tmp_path), scale=tiny_scale)
        assert [row[0] for row in table.rows] == [0, 4, 8, 16]

    def test_sort_topn_structure(self, tmp_path, tiny_scale):
        tiny_scale.scan_rows = 2000
        json_path = str(tmp_path / "BENCH_pr5.json")
        table = sort_topn(str(tmp_path), scale=tiny_scale, json_path=json_path)
        assert len(table.rows) == 5  # two micro workloads + three engines
        with open(json_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        # The Limit-over-Sort rewrite must be recorded, never silent.
        assert "top-n k=10" in payload["explain"]
        workloads = payload["workloads"]
        assert workloads["top_n"]["rows"] == 10
        assert workloads["order_by_spill"]["identical_rows"] is True
        assert workloads["order_by_spill"]["spilled_runs"] > 0
        assert set(payload["queries"]) == {
            "version-first", "tuple-first", "hybrid"
        }


class TestBenchmarkCLI:
    def test_every_registered_experiment_has_a_runner(self):
        for name, (description, runner) in EXPERIMENTS.items():
            assert description
            assert callable(runner)

    def test_list_mode(self, capsys):
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
