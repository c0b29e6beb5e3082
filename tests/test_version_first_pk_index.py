"""Property tests for the version-first per-branch primary-key index.

The index (key -> (segment, ordinal) per branch) is an acceleration
structure layered over the paper's index-free version-first layout; the
segment-chain walk (``chain_entries``) remains the reference semantics.
The reference is read from the chain walk directly, not through a scan,
so the comparison holds whichever structure the scans read.
Hypothesis generates operation sequences -- inserts, updates, deletes,
branches (from heads and from historical commits), commits and merges --
and the tests check that the index and the chain walk stay in agreement
after replaying them: same live keys, locations resolving to the same
records, and identical batched-scan output.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.record import Record
from repro.core.schema import Schema
from repro.storage.version_first import VersionFirstEngine

operation_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "update", "delete", "branch", "branch_commit",
             "commit", "merge"]
        ),
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=0, max_value=999),
    ),
    min_size=1,
    max_size=60,
)


def _live_map(engine: VersionFirstEngine, branch: str) -> dict:
    """The chain walk's view of a branch: {key -> record values}."""
    return {
        key: engine.segments.get(segment_id).record_at(ordinal).values
        for key, (segment_id, ordinal) in engine.chain_entries(branch).items()
    }


def _replay(engine: VersionFirstEngine, steps) -> list[str]:
    branches = ["master"]
    commits = [engine.graph.head("master")]
    live: dict[str, set[int]] = {"master": set()}
    for step_index, (action, key, payload_seed) in enumerate(steps):
        branch = branches[key % len(branches)]
        payload = (payload_seed, payload_seed * 2, payload_seed * 3)
        if action == "insert":
            if key in live[branch]:
                continue
            engine.insert(branch, Record((key,) + payload))
            live[branch].add(key)
        elif action == "update":
            if key not in live[branch]:
                continue
            engine.update(branch, Record((key,) + payload))
        elif action == "delete":
            if key not in live[branch]:
                continue
            engine.delete(branch, key)
            live[branch].discard(key)
        elif action == "branch":
            if len(branches) >= 5:
                continue
            name = f"b{step_index}"
            engine.create_branch(name, from_branch=branch)
            branches.append(name)
            live[name] = set(live[branch])
        elif action == "branch_commit":
            if len(branches) >= 5 or not commits:
                continue
            commit_id = commits[payload_seed % len(commits)]
            name = f"c{step_index}"
            engine.create_branch(name, from_commit=commit_id)
            branches.append(name)
            live[name] = set(_live_map(engine, name))
        elif action == "commit":
            commits.append(engine.commit(branch))
        else:  # merge
            if len(branches) < 2:
                continue
            source = branches[payload_seed % len(branches)]
            if source == branch:
                continue
            engine.merge(branch, source, message=f"m{step_index}")
            # Merges rewrite the target; refresh its mirror from the
            # reference chain walk (never from the index under test).
            live[branch] = set(_live_map(engine, branch))
    return branches


def _assert_index_matches_chain(engine: VersionFirstEngine, branches) -> None:
    for branch in branches:
        expected = _live_map(engine, branch)
        entries = engine.pk_index.entries(branch)
        # Same live key set...
        assert set(entries) == set(expected), f"branch {branch} key sets differ"
        # ...and every location resolves to the chain walk's record.
        for key, (segment_id, ordinal) in entries.items():
            record = engine.segments.get(segment_id).record_at(ordinal)
            assert record.values == expected[key], (
                f"branch {branch} key {key}: index location holds "
                f"{record.values}, chain walk found {expected[key]}"
            )
        # The row scan reads the chain walk's records, and the column scan
        # reproduces the row scan exactly.
        rows = [record.values for record in engine.scan_branch(branch)]
        assert {values[0]: values for values in rows} == expected
        columnar = [
            row for batch in engine.scan_branch_columns(branch) for row in batch.rows()
        ]
        assert columnar == rows
        # And the count-only path agrees with both.
        assert engine.count_branch(branch) == len(expected)


class TestVersionFirstPkIndex:
    @given(steps=operation_steps)
    @settings(max_examples=25, deadline=None)
    def test_index_and_chain_walk_agree(self, steps, tmp_path_factory):
        schema = Schema.of_ints(4)
        directory = tmp_path_factory.mktemp("vf_pk_index")
        engine = VersionFirstEngine(
            str(directory / "engine"), schema, page_size=4096
        )
        engine.init([Record((100 + i, i, i, i)) for i in range(3)])
        branches = _replay(engine, steps)
        _assert_index_matches_chain(engine, branches)

    def test_index_survives_merge_of_divergent_branches(self, tmp_path):
        schema = Schema.of_ints(4)
        engine = VersionFirstEngine(str(tmp_path / "e"), schema, page_size=4096)
        engine.init([Record((k, k, k, k)) for k in range(10)])
        engine.commit("master", "base")
        engine.create_branch("dev", from_branch="master")
        engine.update("dev", Record((3, 30, 30, 30)))
        engine.delete("dev", 4)
        engine.insert("dev", Record((20, 1, 1, 1)))
        engine.update("master", Record((5, 50, 50, 50)))
        engine.commit("dev", "dev work")
        engine.commit("master", "master work")
        engine.merge("master", "dev")
        _assert_index_matches_chain(engine, ["master", "dev"])

    def test_branch_from_commit_rebuilds_index(self, tmp_path):
        schema = Schema.of_ints(4)
        engine = VersionFirstEngine(str(tmp_path / "e"), schema, page_size=4096)
        engine.init([Record((k, k, k, k)) for k in range(5)])
        frozen = engine.commit("master", "frozen")
        engine.delete("master", 2)
        engine.insert("master", Record((9, 9, 9, 9)))
        engine.commit("master", "moved on")
        engine.create_branch("old", from_commit=frozen)
        # The new branch sees the historical state, not master's head.
        assert set(engine.pk_index.entries("old")) == {0, 1, 2, 3, 4}
        _assert_index_matches_chain(engine, ["master", "old"])
