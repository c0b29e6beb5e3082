"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure from the paper's Section 5 at
a scaled-down dataset size (about 1/1000 of the paper's, since a pure-Python
engine cannot drive its 100 GB configuration) and prints the corresponding
result table so the output can be read side by side with the paper.  The
scale can be raised with the ``REPRO_BENCH_OPS`` and ``REPRO_BENCH_BRANCHES``
environment variables.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.plan_check import set_default_verify
from repro.bench.experiments import ExperimentScale

# Benchmarks measure operator work, not verification; but any plan the suite
# executes through the facade should still be contract-checked.
set_default_verify(True)


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


@pytest.fixture
def scale() -> ExperimentScale:
    """The experiment scale used by all benchmarks (env-var overridable)."""
    return ExperimentScale(
        total_operations=_env_int("REPRO_BENCH_OPS", 3000),
        num_branches=_env_int("REPRO_BENCH_BRANCHES", 8),
        commit_interval=_env_int("REPRO_BENCH_COMMIT_INTERVAL", 300),
        num_columns=_env_int("REPRO_BENCH_COLUMNS", 10),
    )


@pytest.fixture
def workdir(tmp_path) -> str:
    """A scratch directory for the benchmark's datasets."""
    return str(tmp_path)


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
