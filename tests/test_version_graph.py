"""Tests for the version graph (commits, branches, ancestry, LCA)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.durable import FRAME_HEADER_SIZE, append_framed, read_framed
from repro.errors import (
    BranchExistsError,
    BranchNotFoundError,
    CommitNotFoundError,
    CorruptionError,
    VersionError,
)
from repro.versioning.version_graph import (
    MASTER_BRANCH,
    Commit,
    VersionGraph,
    decode_events,
    encode_events,
)


@pytest.fixture
def graph():
    graph = VersionGraph()
    graph.init()
    return graph


class TestInit:
    def test_init_creates_master(self, graph):
        assert graph.initialized
        assert graph.has_branch(MASTER_BRANCH)
        assert len(graph) == 1

    def test_double_init_rejected(self, graph):
        with pytest.raises(VersionError):
            graph.init()

    def test_uninitialized_graph(self):
        graph = VersionGraph()
        assert not graph.initialized
        with pytest.raises(BranchNotFoundError):
            graph.head(MASTER_BRANCH)


class TestCommitsAndBranches:
    def test_commit_advances_head(self, graph):
        first_head = graph.head(MASTER_BRANCH)
        commit = graph.commit(MASTER_BRANCH, "work")
        assert graph.head(MASTER_BRANCH) == commit.commit_id
        assert commit.parents == (first_head,)
        assert not commit.is_merge

    def test_commit_ids_are_sequential_and_unique(self, graph):
        ids = [graph.commit(MASTER_BRANCH).commit_id for _ in range(5)]
        assert len(set(ids)) == 5
        sequences = [graph.get_commit(c).sequence for c in ids]
        assert sequences == sorted(sequences)

    def test_create_branch_from_head(self, graph):
        branch = graph.create_branch("dev")
        assert branch.head == graph.get_commit(branch.head).commit_id
        assert branch.created_from == graph.head(MASTER_BRANCH)

    def test_create_branch_from_commit(self, graph):
        old = graph.head(MASTER_BRANCH)
        graph.commit(MASTER_BRANCH)
        branch = graph.create_branch("old-work", from_commit=old)
        assert branch.head == old

    def test_create_branch_from_named_branch(self, graph):
        graph.create_branch("dev")
        graph.commit("dev")
        child = graph.create_branch("feature", from_branch="dev")
        assert child.head == graph.head("dev")

    def test_duplicate_branch_rejected(self, graph):
        graph.create_branch("dev")
        with pytest.raises(BranchExistsError):
            graph.create_branch("dev")

    def test_branch_from_unknown_commit_rejected(self, graph):
        with pytest.raises(CommitNotFoundError):
            graph.create_branch("dev", from_commit="v999999")

    def test_unknown_lookups(self, graph):
        with pytest.raises(BranchNotFoundError):
            graph.branch("missing")
        with pytest.raises(CommitNotFoundError):
            graph.get_commit("v999999")

    def test_commits_on_branch(self, graph):
        graph.create_branch("dev")
        graph.commit("dev")
        graph.commit(MASTER_BRANCH)
        assert [c.branch for c in graph.commits_on_branch("dev")] == ["dev"]

    def test_heads_mapping(self, graph):
        graph.create_branch("dev")
        heads = graph.heads()
        assert set(heads) == {MASTER_BRANCH, "dev"}

    def test_retire_branch(self, graph):
        graph.create_branch("dev")
        graph.retire_branch("dev")
        assert not graph.branch("dev").active
        assert "dev" not in graph.branch_names(active_only=True)


class TestMerge:
    def test_merge_creates_two_parent_commit(self, graph):
        graph.commit(MASTER_BRANCH)
        graph.create_branch("dev")
        dev_head = graph.commit("dev").commit_id
        master_head = graph.head(MASTER_BRANCH)
        merge = graph.merge(MASTER_BRANCH, "dev")
        assert merge.is_merge
        assert set(merge.parents) == {master_head, dev_head}
        assert graph.head(MASTER_BRANCH) == merge.commit_id

    def test_merge_records_precedence(self, graph):
        graph.create_branch("dev")
        graph.commit("dev")
        graph.merge(MASTER_BRANCH, "dev")
        assert graph.branch(MASTER_BRANCH).merge_precedence == (MASTER_BRANCH, "dev")

    def test_merge_precedence_override(self, graph):
        graph.create_branch("dev")
        graph.commit("dev")
        graph.merge(MASTER_BRANCH, "dev", precedence="dev")
        assert graph.branch(MASTER_BRANCH).merge_precedence[0] == "dev"


class TestAncestry:
    def test_ancestors_include_self_by_default(self, graph):
        commit = graph.commit(MASTER_BRANCH)
        ancestors = graph.ancestors(commit.commit_id)
        assert commit.commit_id in ancestors
        assert len(ancestors) == 2

    def test_ancestors_exclude_self(self, graph):
        commit = graph.commit(MASTER_BRANCH)
        assert commit.commit_id not in graph.ancestors(
            commit.commit_id, include_self=False
        )

    def test_is_ancestor(self, graph):
        root = graph.head(MASTER_BRANCH)
        commit = graph.commit(MASTER_BRANCH)
        assert graph.is_ancestor(root, commit.commit_id)
        assert not graph.is_ancestor(commit.commit_id, root)

    def test_lca_simple_fork(self, graph):
        fork_point = graph.commit(MASTER_BRANCH).commit_id
        graph.create_branch("dev", from_commit=fork_point)
        dev_head = graph.commit("dev").commit_id
        master_head = graph.commit(MASTER_BRANCH).commit_id
        assert graph.lowest_common_ancestor(dev_head, master_head) == fork_point

    def test_lca_of_commit_with_itself(self, graph):
        commit = graph.commit(MASTER_BRANCH).commit_id
        assert graph.lowest_common_ancestor(commit, commit) == commit

    def test_lca_after_merge(self, graph):
        graph.create_branch("dev")
        graph.commit("dev")
        graph.commit(MASTER_BRANCH)
        merge = graph.merge(MASTER_BRANCH, "dev")
        dev_head = graph.head("dev")
        # After the merge, the dev head itself is an ancestor of master's head.
        assert graph.lowest_common_ancestor(merge.commit_id, dev_head) == dev_head

    def test_lineage_follows_first_parent(self, graph):
        graph.commit(MASTER_BRANCH)
        graph.commit(MASTER_BRANCH)
        lineage = graph.lineage(graph.head(MASTER_BRANCH))
        assert len(lineage) == 3
        assert lineage[-1].parents == ()

    def test_branch_lineage_linear(self, graph):
        graph.create_branch("a")
        graph.create_branch("b", from_branch="a")
        assert graph.branch_lineage("b") == ["b", "a", MASTER_BRANCH]

    def test_branch_lineage_with_merge(self, graph):
        graph.create_branch("dev")
        graph.commit("dev")
        graph.merge(MASTER_BRANCH, "dev")
        lineage = graph.branch_lineage(MASTER_BRANCH)
        assert lineage[0] == MASTER_BRANCH
        assert "dev" in lineage


def assert_same_graph(restored, graph):
    assert restored.heads() == graph.heads()
    assert restored.commits() == graph.commits()
    for head in graph.heads().values():
        assert restored.lineage(head) == graph.lineage(head)
    assert [
        (b.name, b.active, b.created_from, b.parent_branch, b.merge_precedence)
        for b in restored.branches()
    ] == [
        (b.name, b.active, b.created_from, b.parent_branch, b.merge_precedence)
        for b in graph.branches()
    ]
    for commit in graph.commits():
        assert restored.commit_state(commit.commit_id) == graph.commit_state(
            commit.commit_id
        )


#: A commit on master that replays as the second commit of a fresh graph.
COMMIT_EVENT = {"op": "commit", "sequence": 2, "branch": MASTER_BRANCH, "message": ""}


class TestPersistence:
    def test_round_trip(self, tmp_path):
        """Saving after every mutation and replaying the log reproduces the
        graph, including each commit's recorded engine state."""
        path = str(tmp_path / "version_graph.log")
        graph = VersionGraph()
        ops = [
            lambda: graph.init("root"),
            lambda: graph.commit(MASTER_BRANCH, "first"),
            lambda: graph.create_branch("dev"),
            lambda: graph.commit("dev", "dev work"),
            lambda: graph.create_branch("old", from_commit="v000001"),
            lambda: graph.merge(MASTER_BRANCH, "dev", message="merge"),
            lambda: graph.merge("dev", MASTER_BRANCH, precedence=MASTER_BRANCH),
            lambda: graph.retire_branch("dev"),
        ]
        for op in ops:
            produced = op()
            if isinstance(produced, Commit):
                graph.set_commit_state(produced.commit_id, (0, produced.sequence))
            graph.save(path)
            restored = VersionGraph.load(path)
            assert_same_graph(restored, graph)
        assert restored.branch("dev").active is False
        assert restored.branch(MASTER_BRANCH).merge_precedence == (
            MASTER_BRANCH,
            "dev",
        )
        # Sequence counter continues without collisions after a reload.
        new_commit = restored.commit(MASTER_BRANCH)
        assert not graph.has_commit(new_commit.commit_id)

    def test_commit_appends_a_small_frame(self, graph, tmp_path):
        """With 100 branches, one more commit appends under 200 bytes and
        leaves every earlier byte of the log in place."""
        path = tmp_path / "version_graph.log"
        for i in range(100):
            graph.create_branch(f"b{i:03d}")
            commit = graph.commit(f"b{i:03d}", "work")
            graph.set_commit_state(commit.commit_id, (1, i))
        graph.save(str(path))
        before = path.read_bytes()
        commit = graph.commit("b050", "one more")
        graph.set_commit_state(commit.commit_id, (1, 500))
        graph.save(str(path))
        after = path.read_bytes()
        assert after.startswith(before)
        assert len(after) - len(before) < 200
        graph.save(str(path))  # nothing queued, nothing written
        assert path.read_bytes() == after

    def test_state_of_a_saved_commit_is_fixed(self, graph, tmp_path):
        graph.save(str(tmp_path / "version_graph.log"))
        with pytest.raises(VersionError):
            graph.set_commit_state(graph.head(MASTER_BRANCH), (0, 1))

    def test_reinit_starts_a_fresh_log(self, graph, tmp_path):
        path = str(tmp_path / "version_graph.log")
        graph.commit(MASTER_BRANCH)
        graph.save(path)
        fresh = VersionGraph()
        fresh.init()
        fresh.save(path)
        assert len(VersionGraph.load(path)) == 1

    def test_save_after_load_appends_only_new_events(self, graph, tmp_path):
        path = tmp_path / "version_graph.log"
        graph.create_branch("dev")
        graph.commit("dev")
        graph.save(str(path))
        before = path.read_bytes()
        restored = VersionGraph.load(str(path))
        restored.save(str(path))  # replay queues nothing
        assert path.read_bytes() == before
        commit = restored.commit(MASTER_BRANCH, "after reload")
        restored.save(str(path))
        assert path.read_bytes().startswith(before)
        assert VersionGraph.load(str(path)).head(MASTER_BRANCH) == commit.commit_id

    @pytest.mark.parametrize(
        "payload",
        [
            b"\x07",
            encode_events([COMMIT_EVENT])[:-1],
            b"\x2c\x06master",
            encode_events([{**COMMIT_EVENT, "branch": "ghost"}]),
            encode_events([{**COMMIT_EVENT, "sequence": 9}]),
        ],
        ids=[
            "unknown-op",
            "truncated",
            "unknown-state-shape",
            "unknown-branch",
            "wrong-sequence",
        ],
    )
    def test_event_that_does_not_replay_raises(self, graph, tmp_path, payload):
        path = str(tmp_path / "version_graph.log")
        graph.save(path)
        append_framed(path, payload)
        with pytest.raises(CorruptionError):
            VersionGraph.load(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(VersionError):
            VersionGraph.load(str(tmp_path / "missing.log"))


uints = st.integers(min_value=0, max_value=2**64 - 1)
#: Names and messages: empty, non-ASCII and multi-byte ones included.
texts = st.text(max_size=12)
deltas = st.tuples(st.integers(min_value=0, max_value=2**40), st.binary(max_size=40))
#: The engine states a commit carries: tuple-first's delta, hybrid's
#: ``{segment number: delta}`` and version-first's (segment number, offset).
commit_states = st.one_of(
    st.none(),
    deltas,
    st.dictionaries(st.integers(min_value=0, max_value=2**33), deltas, max_size=40),
    st.tuples(st.integers(min_value=0, max_value=2**33), uints),
)


def _event(op, state=None, **fields):
    event = {"op": op, **fields}
    if state is not None:
        event["state"] = state
    return event


def _branch_event(state, fork_relative, **fields):
    event = _event("create_branch", state, **fields)
    if fork_relative:
        event["fork_relative"] = True
    return event


events = st.one_of(
    st.builds(_event, st.just("init"), commit_states, sequence=uints, message=texts),
    st.builds(
        _event,
        st.just("commit"),
        commit_states,
        sequence=uints,
        branch=texts,
        message=texts,
    ),
    st.builds(
        _branch_event,
        st.one_of(st.none(), uints),
        st.booleans(),
        name=texts,
        from_sequence=uints,
        from_branch=texts,
    ),
    st.builds(
        _event,
        st.just("merge"),
        commit_states,
        sequence=uints,
        target_branch=texts,
        source_branch=texts,
        message=texts,
        precedence=st.one_of(st.none(), texts),
    ),
    st.builds(_event, st.just("retire_branch"), name=texts),
)


class TestEventCodec:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(events, min_size=1, max_size=6))
    def test_round_trip(self, batch):
        """Every op and state shape decodes to the event encoded, and a
        payload cut short of a whole event does not decode."""
        payload = encode_events(batch)
        assert decode_events(payload) == batch
        last = len(encode_events(batch[:-1]))
        for end in range(last + 1, len(payload)):
            with pytest.raises(ValueError):
                decode_events(payload[:end])

    def test_state_of_many_segments_round_trips(self):
        state = {n: (5000 + n, bytes([n % 256]) * 3) for n in range(600)}
        event = _event("commit", state, sequence=70_000, branch="c112", message="")
        assert decode_events(encode_events([event])) == [event]

    def test_a_commit_event_costs_its_state_bytes(self):
        """A one-segment hybrid commit event spends about ten bytes beside
        its RLE payload; version-first's location a few."""
        payload = bytes(5)
        hybrid = _event(
            "commit", {224: (5012, payload)}, sequence=1105, branch="c112", message=""
        )
        assert len(encode_events([hybrid])) <= len(payload) + 16
        located = _event(
            "commit", (224, 5012), sequence=1105, branch="c112", message=""
        )
        assert len(encode_events([located])) <= 16

    def test_the_fork_relative_mark_is_one_bit_of_a_branch_event(self, graph, tmp_path):
        """A branch event marked fork-relative differs from an unmarked one
        in its op byte only, and reloads onto the branch; no other event
        may carry the mark."""
        fields = dict(name="dev", from_sequence=1, from_branch=MASTER_BRANCH)
        plain = encode_events([_event("create_branch", 0, **fields)])
        marked = encode_events([_branch_event(0, True, **fields)])
        assert len(marked) == len(plain) and marked[1:] == plain[1:]
        assert marked[0] != plain[0]
        commit = encode_events([COMMIT_EVENT])
        with pytest.raises(ValueError):
            decode_events(bytes([commit[0] | marked[0] ^ plain[0]]) + commit[1:])
        path = str(tmp_path / "version_graph.log")
        graph.create_branch("dev")
        graph.set_branch_state("dev", None, fork_relative=True)
        graph.create_branch("qa")
        graph.save(path)
        loaded = VersionGraph.load(path)
        assert loaded.branch("dev").fork_relative
        assert not loaded.branch("qa").fork_relative

    @pytest.mark.parametrize("state", [["seg00000", 1], (0, "1"), -1, 1.5, (1, 2, 3)])
    def test_unencodable_state_is_refused_when_set(self, graph, state):
        commit = graph.commit(MASTER_BRANCH)
        with pytest.raises(VersionError):
            graph.set_commit_state(commit.commit_id, state)

    def test_saved_frames_decode_to_the_logged_events(self, graph, tmp_path):
        """Each save is one frame holding the events it appended, a commit
        named by its sequence number."""
        path = str(tmp_path / "version_graph.log")
        graph.save(path)
        graph.create_branch("dév")
        graph.set_branch_state("dév", 11)
        commit = graph.commit("dév", "wörk")
        graph.set_commit_state(commit.commit_id, (1, 3))
        graph.save(path)
        frames = read_framed(path)
        assert len(frames) == 2
        assert decode_events(frames[1]) == [
            {
                "op": "create_branch",
                "name": "dév",
                "from_sequence": 1,
                "from_branch": MASTER_BRANCH,
                "state": 11,
            },
            {
                "op": "commit",
                "sequence": commit.sequence,
                "branch": "dév",
                "message": "wörk",
                "state": (1, 3),
            },
        ]
        assert FRAME_HEADER_SIZE + len(frames[1]) < 40
