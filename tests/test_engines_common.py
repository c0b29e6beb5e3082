"""Behaviour every versioned storage engine must share.

These tests run against all three engines (the ``engine`` fixture is
parametrized over version-first, tuple-first and hybrid) and cover the paper's
core operations: init, branch, commit, checkout, data modification on branch
heads, single- and multi-branch scans, diff, and merge.
"""

import pytest

from repro.core.predicates import ColumnPredicate
from repro.core.record import Record
from repro.errors import SchemaError, StorageError, VersionError
from repro.versioning.conflicts import PrecedencePolicy, ThreeWayPolicy

from tests.conftest import (
    annotated_rows,
    assert_heads_match_oracle,
    heads_oracle,
    make_records,
)


def keys_of(engine, branch):
    return sorted(r.key(engine.schema) for r in engine.scan_branch(branch))


class TestInitAndBasicScans:
    def test_init_loads_master(self, engine, records):
        commit_id = engine.init(records)
        assert engine.graph.initialized
        assert keys_of(engine, "master") == list(range(20))
        assert engine.graph.head("master") == commit_id

    def test_double_init_rejected(self, loaded_engine, records):
        with pytest.raises(VersionError):
            loaded_engine.init(records)

    def test_empty_init(self, engine):
        engine.init([])
        assert keys_of(engine, "master") == []

    def test_scan_with_predicate(self, loaded_engine):
        predicate = ColumnPredicate("id", "<", 5)
        keys = sorted(
            r.key(loaded_engine.schema)
            for r in loaded_engine.scan_branch("master", predicate)
        )
        assert keys == [0, 1, 2, 3, 4]

    def test_record_values_preserved(self, loaded_engine):
        record = next(iter(loaded_engine.scan_branch("master")))
        key = record.values[0]
        assert record.values == (key, key * 10, key * 100, 7)


class TestDataModification:
    def test_insert_visible_in_branch(self, loaded_engine):
        loaded_engine.insert("master", Record((100, 1, 2, 3)))
        assert 100 in keys_of(loaded_engine, "master")

    def test_update_replaces_values(self, loaded_engine):
        loaded_engine.update("master", Record((5, 111, 222, 333)))
        values = {r.values[0]: r.values for r in loaded_engine.scan_branch("master")}
        assert values[5] == (5, 111, 222, 333)
        assert len(values) == 20  # no duplicate logical record

    def test_delete_removes_key(self, loaded_engine):
        loaded_engine.delete("master", 7)
        assert 7 not in keys_of(loaded_engine, "master")
        assert len(keys_of(loaded_engine, "master")) == 19

    def test_delete_missing_key_rejected(self, loaded_engine):
        with pytest.raises(StorageError):
            loaded_engine.delete("master", 9999)

    def test_delete_rejects_a_key_the_key_column_rejects(self, loaded_engine):
        """A float equal to a live key is not that key: every engine checks
        a delete's key through the primary-key column, as a logged delete
        is checked, and deletes nothing."""
        with pytest.raises(SchemaError):
            loaded_engine.delete("master", 3.0)
        assert keys_of(loaded_engine, "master") == list(range(20))

    def test_branch_contains_key(self, loaded_engine):
        assert loaded_engine.branch_contains_key("master", 3)
        loaded_engine.delete("master", 3)
        assert not loaded_engine.branch_contains_key("master", 3)

    def test_reinsert_after_delete(self, loaded_engine):
        loaded_engine.delete("master", 4)
        loaded_engine.insert("master", Record((4, 9, 9, 9)))
        values = {r.values[0]: r.values for r in loaded_engine.scan_branch("master")}
        assert values[4] == (4, 9, 9, 9)

    def test_stats_track_modifications(self, loaded_engine):
        loaded_engine.insert("master", Record((200, 0, 0, 0)))
        loaded_engine.update("master", Record((200, 1, 1, 1)))
        loaded_engine.delete("master", 200)
        assert loaded_engine.stats.records_inserted >= 21
        assert loaded_engine.stats.records_updated >= 1
        assert loaded_engine.stats.records_deleted >= 1


class TestBranching:
    def test_branch_sees_parent_data(self, loaded_engine):
        loaded_engine.create_branch("dev", from_branch="master")
        assert keys_of(loaded_engine, "dev") == list(range(20))

    def test_branch_isolation_child_changes_invisible_to_parent(self, loaded_engine):
        loaded_engine.create_branch("dev", from_branch="master")
        loaded_engine.insert("dev", Record((500, 0, 0, 0)))
        loaded_engine.update("dev", Record((1, 42, 42, 42)))
        loaded_engine.delete("dev", 2)
        assert 500 not in keys_of(loaded_engine, "master")
        master_values = {
            r.values[0]: r.values for r in loaded_engine.scan_branch("master")
        }
        assert master_values[1] == (1, 10, 100, 7)
        assert 2 in master_values

    def test_branch_isolation_parent_changes_invisible_to_child(self, loaded_engine):
        loaded_engine.create_branch("dev", from_branch="master")
        loaded_engine.insert("master", Record((600, 0, 0, 0)))
        loaded_engine.update("master", Record((3, 9, 9, 9)))
        assert 600 not in keys_of(loaded_engine, "dev")
        dev_values = {r.values[0]: r.values for r in loaded_engine.scan_branch("dev")}
        assert dev_values[3] == (3, 30, 300, 7)

    def test_branch_of_branch(self, loaded_engine):
        loaded_engine.create_branch("dev", from_branch="master")
        loaded_engine.insert("dev", Record((700, 0, 0, 0)))
        loaded_engine.commit("dev")
        loaded_engine.create_branch("feature", from_branch="dev")
        assert 700 in keys_of(loaded_engine, "feature")
        loaded_engine.insert("feature", Record((701, 0, 0, 0)))
        assert 701 not in keys_of(loaded_engine, "dev")

    def test_branch_from_historical_commit(self, loaded_engine):
        snapshot_commit = loaded_engine.commit("master", "snapshot")
        loaded_engine.insert("master", Record((800, 0, 0, 0)))
        loaded_engine.commit("master", "after snapshot")
        loaded_engine.create_branch("from-past", from_commit=snapshot_commit)
        assert 800 not in keys_of(loaded_engine, "from-past")
        assert keys_of(loaded_engine, "from-past") == list(range(20))

    def test_branch_default_parent_is_master(self, loaded_engine):
        loaded_engine.create_branch("anything")
        assert keys_of(loaded_engine, "anything") == list(range(20))

    def test_stats_track_branches(self, loaded_engine):
        loaded_engine.create_branch("dev")
        assert loaded_engine.stats.branches_created == 1


class TestCommitsAndCheckout:
    def test_checkout_returns_committed_state(self, loaded_engine):
        loaded_engine.insert("master", Record((900, 0, 0, 0)))
        commit_id = loaded_engine.commit("master", "with 900")
        loaded_engine.delete("master", 900)
        loaded_engine.insert("master", Record((901, 0, 0, 0)))
        loaded_engine.commit("master", "with 901")
        checked_out = sorted(r.values[0] for r in loaded_engine.checkout(commit_id))
        assert 900 in checked_out and 901 not in checked_out

    def test_initial_commit_checkout(self, engine, records):
        commit_id = engine.init(records)
        engine.insert("master", Record((1000, 0, 0, 0)))
        engine.commit("master")
        assert sorted(r.values[0] for r in engine.checkout(commit_id)) == list(range(20))

    def test_scan_commit_with_predicate(self, loaded_engine):
        commit_id = loaded_engine.commit("master")
        keys = sorted(
            r.values[0]
            for r in loaded_engine.scan_commit(commit_id, ColumnPredicate("id", ">=", 15))
        )
        assert keys == [15, 16, 17, 18, 19]

    def test_updates_between_commits_preserved_in_history(self, loaded_engine):
        loaded_engine.update("master", Record((2, 1, 1, 1)))
        first = loaded_engine.commit("master")
        loaded_engine.update("master", Record((2, 2, 2, 2)))
        second = loaded_engine.commit("master")
        first_values = {r.values[0]: r.values for r in loaded_engine.checkout(first)}
        second_values = {r.values[0]: r.values for r in loaded_engine.checkout(second)}
        assert first_values[2] == (2, 1, 1, 1)
        assert second_values[2] == (2, 2, 2, 2)

    def test_commit_graph_advances(self, loaded_engine):
        before = loaded_engine.graph.head("master")
        commit_id = loaded_engine.commit("master")
        assert loaded_engine.graph.head("master") == commit_id != before


class TestMultiBranchScan:
    def test_scan_branches_annotates_membership(self, loaded_engine, schema):
        loaded_engine.create_branch("dev", from_branch="master")
        loaded_engine.insert("dev", Record((1100, 0, 0, 0)))
        loaded_engine.insert("master", Record((1101, 0, 0, 0)))
        pairs = annotated_rows(
            loaded_engine.scan_branches_batched(["master", "dev"])
        )
        by_key = {values[0]: branches for values, branches in pairs}
        assert len(by_key) == len(pairs)
        assert by_key[0] == {"master", "dev"}
        assert by_key[1100] == {"dev"}
        assert by_key[1101] == {"master"}
        assert_heads_match_oracle(
            pairs, heads_oracle(loaded_engine, ["master", "dev"])
        )

    def test_scan_heads_covers_all_branches(self, loaded_engine):
        loaded_engine.create_branch("dev", from_branch="master")
        loaded_engine.insert("dev", Record((1200, 0, 0, 0)))
        pairs = annotated_rows(loaded_engine.scan_branches_batched(None))
        keys = {values[0] for values, _ in pairs}
        assert 1200 in keys and 0 in keys
        assert_heads_match_oracle(pairs, heads_oracle(loaded_engine))

    def test_scan_branches_with_predicate(self, loaded_engine):
        loaded_engine.create_branch("dev", from_branch="master")
        predicate = ColumnPredicate("id", "=", 3)
        pairs = annotated_rows(
            loaded_engine.scan_branches_batched(["master", "dev"], predicate)
        )
        assert [values[0] for values, _ in pairs] == [3]
        assert_heads_match_oracle(
            pairs, heads_oracle(loaded_engine, ["master", "dev"], predicate)
        )

    def test_identical_independent_writes_are_one_record(self, loaded_engine):
        loaded_engine.create_branch("a", from_branch="master")
        loaded_engine.create_branch("b", from_branch="master")
        for branch in ("a", "b"):
            loaded_engine.insert(branch, Record((1300, 1, 1, 1)))
            loaded_engine.update(branch, Record((4, 4, 4, 4)))
        pairs = annotated_rows(loaded_engine.scan_branches_batched(None))
        assert_heads_match_oracle(pairs, heads_oracle(loaded_engine))
        by_values = dict(pairs)
        assert by_values[(1300, 1, 1, 1)] == {"a", "b"}
        assert by_values[(4, 4, 4, 4)] == {"a", "b"}
        assert loaded_engine.diff("a", "b").is_empty


class TestDiff:
    def test_diff_detects_inserts_updates_deletes(self, loaded_engine, schema):
        loaded_engine.create_branch("dev", from_branch="master")
        loaded_engine.insert("dev", Record((1300, 0, 0, 0)))
        loaded_engine.update("dev", Record((5, 1, 1, 1)))
        loaded_engine.delete("dev", 6)
        diff = loaded_engine.diff("dev", "master")
        positive_keys = {r.values[0] for r in diff.positive}
        negative_keys = {r.values[0] for r in diff.negative}
        assert 1300 in positive_keys
        assert 5 in positive_keys  # dev's new copy of key 5
        assert 5 in negative_keys  # master's old copy of key 5
        assert 6 in negative_keys  # present in master, deleted in dev
        assert 1300 not in negative_keys

    def test_diff_of_identical_branches_is_empty(self, loaded_engine):
        loaded_engine.create_branch("dev", from_branch="master")
        diff = loaded_engine.diff("dev", "master")
        assert diff.is_empty

    def test_diff_is_antisymmetric(self, loaded_engine):
        loaded_engine.create_branch("dev", from_branch="master")
        loaded_engine.insert("dev", Record((1400, 0, 0, 0)))
        forward = loaded_engine.diff("dev", "master")
        backward = loaded_engine.diff("master", "dev")
        assert {r.values[0] for r in forward.positive} == {
            r.values[0] for r in backward.negative
        }


class TestMerge:
    def _diverge(self, engine):
        engine.create_branch("dev", from_branch="master")
        engine.insert("dev", Record((2000, 1, 1, 1)))
        engine.update("dev", Record((5, 50, 500, 5000)))
        engine.delete("dev", 6)
        engine.commit("dev", "dev work")
        engine.insert("master", Record((2001, 2, 2, 2)))
        engine.update("master", Record((7, 70, 700, 7000)))
        engine.commit("master", "master work")

    def test_three_way_merge_combines_changes(self, loaded_engine):
        self._diverge(loaded_engine)
        result = loaded_engine.merge("master", "dev", message="merge dev")
        values = {r.values[0]: r.values for r in loaded_engine.scan_branch("master")}
        assert 2000 in values and 2001 in values
        assert values[5] == (5, 50, 500, 5000)   # dev's update merged in
        assert values[7] == (7, 70, 700, 7000)   # master's own update kept
        assert 6 not in values                    # dev's delete propagated
        assert result.commit_id == loaded_engine.graph.head("master")
        assert result.policy == "three-way"

    def test_merge_leaves_source_untouched(self, loaded_engine):
        self._diverge(loaded_engine)
        loaded_engine.merge("master", "dev")
        dev_keys = keys_of(loaded_engine, "dev")
        assert 2001 not in dev_keys
        assert 2000 in dev_keys

    def test_merge_conflict_resolved_by_target_preference(self, loaded_engine):
        loaded_engine.create_branch("dev", from_branch="master")
        loaded_engine.update("dev", Record((3, 333, 300, 7)))
        loaded_engine.commit("dev")
        loaded_engine.update("master", Record((3, 111, 300, 7)))
        loaded_engine.commit("master")
        result = loaded_engine.merge("master", "dev")
        assert result.num_conflicts == 1
        values = {r.values[0]: r.values for r in loaded_engine.scan_branch("master")}
        assert values[3][1] == 111  # target branch wins the conflicting field

    def test_merge_conflict_source_preference_policy(self, loaded_engine):
        loaded_engine.create_branch("dev", from_branch="master")
        loaded_engine.update("dev", Record((3, 333, 300, 7)))
        loaded_engine.commit("dev")
        loaded_engine.update("master", Record((3, 111, 300, 7)))
        loaded_engine.commit("master")
        loaded_engine.merge("master", "dev", policy=ThreeWayPolicy(prefer="b"))
        values = {r.values[0]: r.values for r in loaded_engine.scan_branch("master")}
        assert values[3][1] == 333

    def test_field_level_auto_merge_of_disjoint_updates(self, loaded_engine):
        loaded_engine.create_branch("dev", from_branch="master")
        loaded_engine.update("dev", Record((4, 40, 999, 7)))     # changes c2
        loaded_engine.commit("dev")
        loaded_engine.update("master", Record((4, 40, 400, 888)))  # changes c3
        loaded_engine.commit("master")
        result = loaded_engine.merge("master", "dev")
        assert result.num_conflicts == 0
        values = {r.values[0]: r.values for r in loaded_engine.scan_branch("master")}
        assert values[4] == (4, 40, 999, 888)

    def test_two_way_merge_with_precedence(self, loaded_engine):
        self._diverge(loaded_engine)
        result = loaded_engine.merge(
            "master", "dev", three_way=False, policy=PrecedencePolicy(prefer="a")
        )
        assert result.policy == "precedence"
        values = {r.values[0]: r.values for r in loaded_engine.scan_branch("master")}
        assert 2000 in values         # dev's new record still arrives
        assert values[7] == (7, 70, 700, 7000)

    def test_merge_reports_diff_bytes(self, loaded_engine):
        self._diverge(loaded_engine)
        result = loaded_engine.merge("master", "dev")
        assert result.diff_bytes > 0
        assert result.records_applied > 0

    def test_merge_then_continue_working(self, loaded_engine):
        self._diverge(loaded_engine)
        loaded_engine.merge("master", "dev")
        loaded_engine.insert("master", Record((3000, 0, 0, 0)))
        loaded_engine.commit("master")
        assert 3000 in keys_of(loaded_engine, "master")

    def test_queries_after_merge_remain_consistent(self, loaded_engine):
        self._diverge(loaded_engine)
        loaded_engine.merge("master", "dev")
        heads = annotated_rows(loaded_engine.scan_branches_batched(None))
        master_keys = set(keys_of(loaded_engine, "master"))
        head_keys = {values[0] for values, branches in heads if "master" in branches}
        assert head_keys == master_keys
        assert_heads_match_oracle(heads, heads_oracle(loaded_engine))


class TestSizes:
    def test_data_size_grows_with_inserts(self, loaded_engine):
        loaded_engine.flush()
        before = loaded_engine.data_size_bytes()
        for record in make_records(200, start=5000):
            loaded_engine.insert("master", record)
        loaded_engine.flush()
        assert loaded_engine.data_size_bytes() > before

    def test_commit_metadata_is_small(self, loaded_engine):
        for i in range(5):
            loaded_engine.insert("master", Record((4000 + i, 0, 0, 0)))
            loaded_engine.commit("master")
        loaded_engine.flush()
        assert loaded_engine.commit_metadata_bytes() < max(
            loaded_engine.data_size_bytes(), 1
        )

    def test_drop_caches_preserves_data(self, loaded_engine):
        loaded_engine.flush()
        loaded_engine.drop_caches()
        assert keys_of(loaded_engine, "master") == list(range(20))
