"""Property tests for version-first's live bits and key-copy index.

Version-first answers pk lookups as hybrid does: one key-copy index of every
stored copy, tombstones included, plus each branch's live bits in every
segment of its chain.  Both are in-memory structures layered over the
paper's index-free version-first layout; the segment-chain walk
(``_walk_chain``) remains the reference semantics.
Hypothesis generates operation sequences -- inserts, updates, deletes,
branches (from heads and from historical commits), commits and merges --
replays them, closes and reopens the engine, and replays more.  After each
half the live bits must equal the chain walk's bitmaps, every pk lookup must
find the chain walk's record, and the scans and counts must agree with both.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.record import Record
from repro.core.schema import Schema
from repro.storage.version_first import VersionFirstEngine

SCHEMA = Schema.of_ints(4)

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


def _walked(engine: VersionFirstEngine, branch: str) -> dict[str, object]:
    return engine._walk_chain(engine._head_segment[branch], None)


def _live_map(engine: VersionFirstEngine, branch: str) -> dict:
    """The chain walk's view of a branch: {key -> record values}."""
    return {
        record.values[0]: record.values
        for record in engine._scan_state(_walked(engine, branch), None)
    }


class _Model:
    """The branches, commits and live key sets an operation sequence made."""

    def __init__(self, engine: VersionFirstEngine):
        self.branches = ["master"]
        self.commits = [engine.graph.head("master")]
        self.live: dict[str, set[int]] = {"master": set(_live_map(engine, "master"))}

    def refresh(self, engine: VersionFirstEngine) -> None:
        """Reset every branch's live keys from the chain walk (a reopen
        drops uncommitted writes)."""
        self.live = {name: set(_live_map(engine, name)) for name in self.branches}


def _replay(engine: VersionFirstEngine, steps, model: _Model, tag: str) -> None:
    branches, commits, live = model.branches, model.commits, model.live
    for step_index, (action, key, payload_seed) in enumerate(steps):
        branch = branches[key % len(branches)]
        payload = (payload_seed, payload_seed * 2, payload_seed * 3)
        if action == "insert":
            if key in live[branch]:
                continue
            engine.insert(branch, Record((key,) + payload))
            live[branch].add(key)
        elif action in ("update", "delete"):
            if not live[branch]:
                continue
            key = sorted(live[branch])[payload_seed % len(live[branch])]
            if action == "update":
                engine.update(branch, Record((key,) + payload))
            else:
                engine.delete(branch, key)
                live[branch].discard(key)
        elif action == "branch":
            if len(branches) >= 5:
                continue
            name = f"b{tag}{step_index}"
            engine.create_branch(name, from_branch=branch)
            branches.append(name)
            live[name] = set(live[branch])
        elif action == "branch_commit":
            if len(branches) >= 5 or not commits:
                continue
            commit_id = commits[payload_seed % len(commits)]
            name = f"c{tag}{step_index}"
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
            engine.merge(branch, source, message=f"m{tag}{step_index}")
            # Merges rewrite the target; refresh its mirror from the
            # reference chain walk (never from the structures under test).
            live[branch] = set(_live_map(engine, branch))


def _assert_live_bits_match_chain(engine: VersionFirstEngine, branches) -> None:
    for branch in branches:
        walked = _walked(engine, branch)
        live = engine.live_state(branch)
        # The same live ordinals per segment, over the same visible spans.
        assert live == walked, f"branch {branch}: live bits differ"
        assert [(s, len(b)) for s, b in live.items()] == [
            (s, len(b)) for s, b in walked.items()
        ]
        expected = _live_map(engine, branch)
        # Every pk lookup finds the chain walk's record, or none.
        for key in set(range(26)) | {100, 101, 102} | set(expected):
            record = engine.record_for_key(branch, key)
            assert (None if record is None else record.values) == expected.get(
                key
            ), f"branch {branch} key {key}"
            assert engine.branch_contains_key(branch, key) == (key in expected)
        found = engine.records_for_keys(branch, sorted(expected))
        assert {r.values[0]: r.values for r in found} == expected
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


def _engine(directory) -> VersionFirstEngine:
    return VersionFirstEngine(str(directory / "engine"), SCHEMA, page_size=4096)


class TestVersionFirstPkIndex:
    @given(before=operation_steps, after=operation_steps)
    @settings(max_examples=25, deadline=None)
    def test_index_and_chain_walk_agree(self, before, after, tmp_path_factory):
        directory = tmp_path_factory.mktemp("vf_live_bits")
        engine = _engine(directory)
        engine.init([Record((100 + i, i, i, i)) for i in range(3)])
        model = _Model(engine)
        _replay(engine, before, model, "x")
        _assert_live_bits_match_chain(engine, model.branches)
        engine.close()
        engine = _engine(directory)
        engine.load_persistent_state()
        model.refresh(engine)
        _replay(engine, after, model, "y")
        _assert_live_bits_match_chain(engine, model.branches)

    def test_index_survives_merge_of_divergent_branches(self, tmp_path):
        engine = _engine(tmp_path)
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
        _assert_live_bits_match_chain(engine, ["master", "dev"])

    def test_branch_from_commit_rebuilds_index(self, tmp_path):
        engine = _engine(tmp_path)
        engine.init([Record((k, k, k, k)) for k in range(5)])
        frozen = engine.commit("master", "frozen")
        engine.delete("master", 2)
        engine.insert("master", Record((9, 9, 9, 9)))
        engine.commit("master", "moved on")
        engine.create_branch("old", from_commit=frozen)
        # The new branch sees the historical state, not master's head.
        assert {
            key for key in range(10) if engine.branch_contains_key("old", key)
        } == {0, 1, 2, 3, 4}
        _assert_live_bits_match_chain(engine, ["master", "old"])

    def test_tombstones_are_stored_copies_no_bit_selects(self, tmp_path):
        """A delete appends its tombstone to the key index; an update in a
        child clears the parent copy's bit in the child's column only."""
        engine = _engine(tmp_path)
        engine.init([Record((k, k, k, k)) for k in range(4)])
        engine.create_branch("dev", from_branch="master")
        engine.update("dev", Record((1, 10, 10, 10)))
        engine.delete("dev", 2)
        assert len(engine.key_index) == 6 == sum(
            segment.record_count for segment in engine.segments.all()
        )
        master_segment = engine._head_segment["master"]
        assert engine.key_location("master", 1) == (master_segment, 1)
        assert engine.key_location("dev", 1) == (engine._head_segment["dev"], 0)
        assert engine.key_location("dev", 2) is None
        assert engine.key_location("master", 2) == (master_segment, 2)
        _assert_live_bits_match_chain(engine, ["master", "dev"])
