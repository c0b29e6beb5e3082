#!/usr/bin/env python
"""Fail CI when measured speedup ratios regress against committed baselines.

Compares a freshly measured bench JSON (typically at CI smoke scale)
against the committed acceptance artifact.  Absolute times are
machine-dependent, so the check is on the *ratio*: for every workload
present in both files, the fresh "fast side" median must not be more than
``--tolerance`` slower than what the fresh "slow side" median and the
committed speedup predict, i.e.::

    fresh_fast <= (1 + tolerance) * fresh_slow / committed_speedup

which is equivalent to ``fresh_speedup >= committed_speedup / (1 + tol)``.

The slow/fast sides are the full sort vs Top-N pair of the ``sort-topn``
experiment's ``BENCH_pr5.json``.  Workloads whose fresh slow-side median is
below ``--min-seconds`` are skipped: at smoke scales a sub-millisecond
query is scheduler noise, not a signal.  Workloads with committed speedup
<= 1 (or no recorded speedup at all, such as the informational spill-path
entries) are not gated.

Entries recording a *cost* ratio rather than a speedup -- the
``recovery`` experiment's ``recovery_open_s / clean_open_s`` pair from
``BENCH_pr8.json`` and the ``concurrency`` experiment's ``p99_s / p50_s``
tail-amplification pair from ``BENCH_pr9.json`` -- are gated the other
way around: the fresh ratio must not *exceed* the committed ratio by more
than the tolerance, so crash recovery cannot silently become
disproportionately more expensive than a clean open and serving-layer
tail latency cannot silently blow up under concurrency.
"""

from __future__ import annotations

import argparse
import json
import sys

#: ``(slow_key, fast_key)`` pairs an entry may record its ratio under:
#: full-sort-vs-Top-N (``BENCH_pr5.json``).
RATIO_KEY_PAIRS = (("full_sort_s", "topn_s"),)

#: ``(cost_key, base_key)`` pairs gated as a *ceiling*: the fresh
#: cost/base ratio must not exceed the committed ``ratio`` by more than
#: the tolerance.  Used by the ``recovery`` experiment (PR 8) and the
#: serving-layer ``concurrency`` experiment (PR 9), where a regression
#: makes the ratio rise -- the floor gate above cannot see it.
CEILING_KEY_PAIRS = (
    ("recovery_open_s", "clean_open_s"),
    ("p99_s", "p50_s"),
)


def ceiling_sides(entry: dict) -> tuple[float, float] | None:
    """The ``(cost, base)`` medians of a ceiling-gated entry, if any."""
    for cost_key, base_key in CEILING_KEY_PAIRS:
        if cost_key in entry and base_key in entry:
            return entry[cost_key], entry[base_key]
    return None


def iter_workloads(payload: dict):
    """Yield ``(name, entry)`` for every measured workload in a bench JSON."""
    for name, entry in payload.get("workloads", {}).items():
        yield name, entry
    for engine, queries in payload.get("queries", {}).items():
        for query, entry in queries.items():
            yield f"{engine}/{query}", entry


def ratio_sides(entry: dict) -> tuple[float, float] | None:
    """The ``(slow, fast)`` medians of an entry, whichever pair it records."""
    for slow_key, fast_key in RATIO_KEY_PAIRS:
        if slow_key in entry and fast_key in entry:
            return entry[slow_key], entry[fast_key]
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True, help="freshly measured JSON")
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression of the fast-side median (default 0.25)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.002,
        help="skip workloads whose slow-side median is below this (noise floor)",
    )
    args = parser.parse_args(argv)
    with open(args.fresh, encoding="utf-8") as handle:
        fresh = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    committed = dict(iter_workloads(baseline))
    failures: list[str] = []
    checked = 0
    for name, entry in iter_workloads(fresh):
        base = committed.get(name)
        if base is None:
            continue
        cost_sides = ceiling_sides(entry)
        if cost_sides is not None:
            cost, base_side = cost_sides
            committed_ratio = base.get("ratio", 0.0)
            if base_side < args.min_seconds:
                print(f"skip  {name}: base side {base_side:.6f}s below noise floor")
                continue
            if committed_ratio <= 0 or base_side <= 0:
                print(f"info  {name}: committed ratio {committed_ratio} (not gated)")
                continue
            checked += 1
            fresh_ratio = cost / base_side
            # A committed cost ratio below 1 is timing noise (recovery does
            # strictly more work than a clean open), so the ceiling is
            # anchored at >= 1.0 to avoid gating against a fluke baseline.
            ceiling = max(committed_ratio, 1.0) * (1.0 + args.tolerance)
            status = "ok  " if fresh_ratio <= ceiling else "FAIL"
            print(
                f"{status}  {name}: fresh cost ratio {fresh_ratio:.2f} "
                f"(committed {committed_ratio:.2f}, ceiling {ceiling:.2f})"
            )
            if fresh_ratio > ceiling:
                failures.append(name)
            continue
        sides = ratio_sides(entry)
        if sides is None:
            print(f"info  {name}: no ratio pair recorded (not gated)")
            continue
        slow, fast = sides
        committed_speedup = base.get("speedup", 0.0)
        if slow < args.min_seconds:
            print(f"skip  {name}: slow side {slow:.6f}s below noise floor")
            continue
        if committed_speedup <= 1.0 or fast <= 0:
            print(f"info  {name}: committed speedup {committed_speedup} (not gated)")
            continue
        checked += 1
        fresh_speedup = slow / fast
        floor = committed_speedup / (1.0 + args.tolerance)
        status = "ok  " if fresh_speedup >= floor else "FAIL"
        print(
            f"{status}  {name}: fresh speedup {fresh_speedup:.2f} "
            f"(committed {committed_speedup:.2f}, floor {floor:.2f})"
        )
        if fresh_speedup < floor:
            failures.append(name)
    if failures:
        print(
            f"\n{len(failures)} workload(s) regressed >"
            f"{args.tolerance:.0%} against {args.baseline}: {', '.join(failures)}"
        )
        return 1
    print(f"\nchecked {checked} workload(s); no regression beyond "
          f"{args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
