"""Cross-engine equivalence: all three layouts must agree on query results.

The three storage engines are different physical representations of the same
logical versioned dataset, so after replaying an identical operation sequence
they must return identical answers to every benchmark query.  These tests
replay deterministic pseudo-random workloads (including branching, merging
and identical writes on two branches) against all three engines side by side
and compare the logical contents exactly.
"""

import random

import pytest

from repro.core.record import Record
from repro.core.schema import Schema
from repro.db.database import Decibel
from repro.versioning.snapshots import SnapshotEngineView
from tests.conftest import ENGINE_CLASSES, SMALL_PAGE_SIZE, annotated_rows


def build_engines(tmp_path, schema):
    return {
        kind: cls(str(tmp_path / kind), schema, page_size=SMALL_PAGE_SIZE)
        for kind, cls in ENGINE_CLASSES.items()
    }


def branch_contents(engine, branch):
    return {r.values[0]: r.values for r in engine.scan_branch(branch)}


def replay_workload(engines, schema, seed, operations=300, with_merges=True):
    """Apply the same random workload to every engine."""
    rng = random.Random(seed)
    branches = ["master"]
    live: dict[str, set[int]] = {"master": set()}
    next_key = 0
    next_branch = 0
    for kind, engine in engines.items():
        engine.init([])
    for step in range(operations):
        action = rng.random()
        branch = rng.choice(branches)
        if action < 0.05 and len(branches) < 6:
            parent = branch
            name = f"b{next_branch}"
            next_branch += 1
            for engine in engines.values():
                engine.create_branch(name, from_branch=parent)
            branches.append(name)
            live[name] = set(live[parent])
        elif action < 0.10 and with_merges and len(branches) > 1:
            target, source = rng.sample(branches, 2)
            for engine in engines.values():
                engine.commit(target)
                engine.commit(source)
                engine.merge(target, source)
            # Three-way merges propagate source-side deletions too, so refresh
            # the model's view of the target from an engine rather than
            # approximating it.
            live[target] = set(
                branch_contents(engines["version-first"], target)
            )
        elif action < 0.2 and live[branch]:
            key = rng.choice(sorted(live[branch]))
            for engine in engines.values():
                engine.delete(branch, key)
            live[branch].discard(key)
        elif action < 0.5 and live[branch]:
            key = rng.choice(sorted(live[branch]))
            payload = (rng.randrange(1000), rng.randrange(1000), rng.randrange(1000))
            for engine in engines.values():
                engine.update(branch, Record((key,) + payload))
        else:
            key = next_key
            next_key += 1
            payload = (rng.randrange(1000), rng.randrange(1000), rng.randrange(1000))
            for engine in engines.values():
                engine.insert(branch, Record((key,) + payload))
            live[branch].add(key)
        if step % 50 == 49:
            for engine in engines.values():
                engine.commit(branch)
    # Every replay ends with a merge, then with identical independent
    # writes: two branches insert the same record and update a key to the
    # same values, so their stored copies differ while their content agrees.
    if len(branches) == 1:
        for engine in engines.values():
            engine.create_branch("twin", from_branch="master")
        branches.append("twin")
        live["twin"] = set(live["master"])
    first, last = branches[0], branches[-1]
    for engine in engines.values():
        engine.commit(first)
        engine.commit(last)
        engine.merge(first, last)
    live[first] = set(branch_contents(engines["version-first"], first))
    shared = sorted(live[first] & live[last])
    for engine in engines.values():
        for branch in (first, last):
            engine.insert(branch, Record((next_key, 1, 2, 3)))
            if shared:
                engine.update(branch, Record((shared[0], 4, 5, 6)))
    live[first].add(next_key)
    live[last].add(next_key)
    return branches


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_branch_contents_agree(tmp_path, schema, seed):
    engines = build_engines(tmp_path, schema)
    branches = replay_workload(engines, schema, seed)
    reference_kind = "version-first"
    for branch in branches:
        reference = branch_contents(engines[reference_kind], branch)
        for kind, engine in engines.items():
            assert branch_contents(engine, branch) == reference, (
                f"{kind} disagrees with {reference_kind} on branch {branch}"
            )


def diff_summary(diff):
    return sorted(r.values for r in diff.positive), sorted(
        r.values for r in diff.negative
    )


@pytest.mark.parametrize("seed", [7, 19])
def test_diffs_agree(tmp_path, schema, seed):
    engines = build_engines(tmp_path, schema)
    branches = replay_workload(engines, schema, seed)
    pairs = [(branches[0], branches[-1]), (branches[-1], branches[0])]
    for branch_a, branch_b in pairs:
        summaries = {
            kind: diff_summary(engine.diff(branch_a, branch_b))
            for kind, engine in engines.items()
        }
        reference = summaries["version-first"]
        for kind, summary in summaries.items():
            assert summary == reference, f"{kind} diff disagrees"
    # The replay's identical writes are no difference; a snapshot of the
    # committed heads diffs the same as the live engine.
    assert all(values[1:] != (1, 2, 3) for side in reference for values in side)
    for kind, engine in engines.items():
        for branch in branches:
            engine.commit(branch)
        view = SnapshotEngineView(engine, engine.graph.heads())
        for branch_a, branch_b in pairs:
            assert diff_summary(view.diff(branch_a, branch_b)) == diff_summary(
                engine.diff(branch_a, branch_b)
            ), f"{kind} snapshot diff disagrees"


def head_scan(engine, pins=None):
    """Query 4 over every head as an exact, sorted ``(row, branches)`` list."""
    return sorted(
        (values, tuple(sorted(branches)))
        for values, branches in annotated_rows(
            engine.scan_branches_batched(None, pins=pins)
        )
    )


@pytest.mark.parametrize("seed", [5, 13])
def test_head_scans_agree(tmp_path, schema, seed):
    engines = build_engines(tmp_path, schema)
    replay_workload(engines, schema, seed, operations=200)
    summaries = {kind: head_scan(engine) for kind, engine in engines.items()}
    reference = summaries["version-first"]
    assert len({values for values, _ in reference}) == len(reference)
    for kind, summary in summaries.items():
        assert summary == reference, f"{kind} head scan disagrees"
    for kind, engine in engines.items():
        for branch in engine.graph.branch_names():
            engine.commit(branch)
        pinned = head_scan(engine, pins=engine.graph.heads())
        assert pinned == reference, f"{kind} pinned head scan disagrees"


#: Query shapes exercising the planner end to end: aggregates, grouping,
#: ordering/limits, distinct, multi-predicate joins, diffs and head scans.
PLANNER_QUERIES = [
    "SELECT count(id), sum(c1), min(c2), max(c2) FROM R WHERE R.Version = 'master'",
    "SELECT c1, count(id) FROM R WHERE R.Version = 'dev' GROUP BY c1 ORDER BY c1",
    "SELECT c1, avg(c2) FROM R WHERE R.Version = 'master' AND c2 > 100 "
    "GROUP BY c1 ORDER BY avg(c2) DESC, c1",
    "SELECT id, c1 FROM R WHERE R.Version = 'master' ORDER BY c1 DESC, id ASC LIMIT 7",
    # ORDER BY on a non-projected column (sort threads through the projection).
    "SELECT id FROM R WHERE R.Version = 'dev' ORDER BY c1 DESC, id ASC",
    # Limit-over-sort runs through the Top-N rewrite.
    "SELECT id FROM R WHERE R.Version = 'dev' ORDER BY c2 DESC, id ASC LIMIT 9",
    # Empty input: count is 0, the rest are SQL NULL.
    "SELECT min(c1), max(c2), sum(c1), avg(c2), count(id) FROM R "
    "WHERE R.Version = 'master' AND id > 100000",
    "SELECT DISTINCT c1 FROM R WHERE R.Version = 'dev' ORDER BY c1",
    "SELECT * FROM R as R1, R as R2 WHERE R1.Version = 'dev' AND R1.id = R2.id "
    "AND R1.c1 = R2.c1 AND R1.c2 > 50 AND R2.Version = 'master'",
    "SELECT * FROM R WHERE R.Version = 'dev' AND R.id NOT IN "
    "(SELECT id FROM R WHERE R.Version = 'master')",
    "SELECT id FROM R WHERE HEAD(R.Version) = true AND c1 >= 200 ORDER BY id",
]


def build_databases(tmp_path):
    """One Decibel per engine kind, loaded with an identical branched workload."""
    rng = random.Random(42)
    payloads = [
        (key, rng.randrange(5) * 100, rng.randrange(400), rng.randrange(50))
        for key in range(40)
    ]
    dev_inserts = [
        (key, rng.randrange(5) * 100, rng.randrange(400), rng.randrange(50))
        for key in range(100, 110)
    ]
    updates = [
        (key, rng.randrange(5) * 100, rng.randrange(400), rng.randrange(50))
        for key in rng.sample(range(40), 8)
    ]
    deletes = rng.sample(range(40), 4)
    databases = {}
    for kind in ENGINE_CLASSES:
        db = Decibel(str(tmp_path / kind), engine=kind, page_size=SMALL_PAGE_SIZE)
        relation = db.create_relation("R", Schema.of_ints(4))
        relation.init(Record(values) for values in payloads)
        relation.branch("dev", from_branch="master")
        for values in dev_inserts:
            relation.insert("dev", Record(values))
        for values in updates:
            relation.update("dev", Record(values))
        for key in deletes:
            relation.delete("dev", key)
        relation.commit("dev", "dev work")
        databases[kind] = db
    return databases


def test_planner_results_agree(tmp_path):
    """All engines must agree on every planner query shape."""
    databases = build_databases(tmp_path)
    for sql in PLANNER_QUERIES:
        summaries = {}
        for kind, db in databases.items():
            result = db.query(sql)
            summaries[kind] = (tuple(result.columns), sorted(result.rows))
        reference = summaries["version-first"]
        for kind, summary in summaries.items():
            assert summary == reference, (
                f"{kind} disagrees with version-first on {sql!r}"
            )


def test_planner_head_annotations_agree(tmp_path):
    """HEAD() rows and branch annotations agree exactly across engines,
    also after a merge copies rows into master."""
    databases = build_databases(tmp_path)
    sql = "SELECT * FROM R WHERE HEAD(R.Version) = true"
    summaries = {}
    for kind, db in databases.items():
        relation = db.relation("R")
        relation.branch("feature", from_branch="dev")
        relation.insert("feature", Record((500, 1, 1, 1)))
        relation.commit("feature")
        relation.merge("master", "feature")
        result = db.query(sql)
        summaries[kind] = sorted(
            (row, tuple(sorted(branches)))
            for row, branches in zip(result.rows, result.branch_annotations)
        )
    reference = summaries["version-first"]
    assert len({row for row, _ in reference}) == len(reference)
    for kind, summary in summaries.items():
        assert summary == reference, f"{kind} head annotations disagree"


def test_commit_checkouts_agree(tmp_path, schema):
    engines = build_engines(tmp_path, schema)
    for engine in engines.values():
        engine.init([Record((i, i, i, i)) for i in range(10)])
    checkpoints = {}
    for step in range(5):
        for kind, engine in engines.items():
            engine.insert("master", Record((100 + step, step, 0, 0)))
            engine.update("master", Record((step, 99, 99, 99)))
            commit_id = engine.commit("master")
            checkpoints.setdefault(step, {})[kind] = commit_id
    for step, per_engine in checkpoints.items():
        contents = {
            kind: {r.values for r in engines[kind].checkout(commit_id)}
            for kind, commit_id in per_engine.items()
        }
        reference = contents["version-first"]
        for kind, values in contents.items():
            assert values == reference, f"{kind} checkout at step {step} disagrees"
