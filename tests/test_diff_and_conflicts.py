"""Tests for diff results and field-level conflict detection/resolution."""

import pytest

from repro.bitmap.bitmap import Bitmap
from repro.core.record import Record
from repro.core.schema import Schema
from repro.versioning.conflicts import (
    ConflictResolution,
    PrecedencePolicy,
    ThreeWayPolicy,
    detect_record_conflict,
)
from repro.versioning.diff import DiffResult

from tests.conftest import ENGINE_CLASSES, engine_factory


class TestDiffResult:
    def test_from_record_maps(self, schema):
        map_a = {1: Record((1, 1, 1, 1)), 2: Record((2, 2, 2, 2)), 3: Record((3, 0, 0, 0))}
        map_b = {2: Record((2, 2, 2, 2)), 3: Record((3, 9, 9, 9)), 4: Record((4, 4, 4, 4))}
        diff = DiffResult.from_record_maps("a", "b", map_a, map_b)
        assert {r.values[0] for r in diff.positive} == {1, 3}
        assert {r.values[0] for r in diff.negative} == {3, 4}
        assert diff.modified_keys(schema) == {3}
        assert not diff.is_empty
        assert diff.total_records == 4

    def test_identical_maps_are_empty(self, schema):
        record = Record((1, 1, 1, 1))
        diff = DiffResult.from_record_maps("a", "b", {1: record}, {1: record})
        assert diff.is_empty

    def test_size_bytes_uses_record_width(self, schema):
        diff = DiffResult.from_record_maps(
            "a", "b", {1: Record((1, 1, 1, 1))}, {}
        )
        assert diff.size_bytes(schema) == schema.record_width + 1

    def test_key_sets(self, schema):
        diff = DiffResult(
            "a",
            "b",
            positive=[Record((1, 0, 0, 0))],
            negative=[Record((2, 0, 0, 0))],
        )
        assert diff.keys_only_in_a(schema) == {1}
        assert diff.keys_only_in_b(schema) == {2}


class TestConflictDetection:
    def test_no_conflict_when_identical(self, schema):
        record = Record((1, 5, 5, 5))
        conflict = detect_record_conflict(schema, 1, record, record, Record((1, 0, 0, 0)))
        assert not conflict.has_conflicts

    def test_no_conflict_for_disjoint_field_updates(self, schema):
        ancestor = Record((1, 0, 0, 0))
        side_a = Record((1, 7, 0, 0))  # changed c1
        side_b = Record((1, 0, 0, 9))  # changed c3
        conflict = detect_record_conflict(schema, 1, side_a, side_b, ancestor)
        assert not conflict.has_conflicts

    def test_conflict_when_same_field_diverges(self, schema):
        ancestor = Record((1, 0, 0, 0))
        side_a = Record((1, 7, 0, 0))
        side_b = Record((1, 8, 0, 0))
        conflict = detect_record_conflict(schema, 1, side_a, side_b, ancestor)
        assert conflict.has_conflicts
        assert [fc.column for fc in conflict.field_conflicts] == ["c1"]
        assert conflict.field_conflicts[0].value_a == 7
        assert conflict.field_conflicts[0].value_b == 8
        assert conflict.field_conflicts[0].ancestor_value == 0

    def test_delete_modify_conflict(self, schema):
        ancestor = Record((1, 0, 0, 0))
        conflict = detect_record_conflict(schema, 1, None, Record((1, 3, 0, 0)), ancestor)
        assert conflict.is_delete_modify and conflict.has_conflicts

    def test_double_delete_is_not_a_conflict(self, schema):
        conflict = detect_record_conflict(schema, 1, None, None, Record((1, 0, 0, 0)))
        assert not conflict.has_conflicts

    def test_without_ancestor_every_divergent_field_conflicts(self, schema):
        conflict = detect_record_conflict(
            schema, 1, Record((1, 1, 0, 0)), Record((1, 2, 0, 0)), None
        )
        assert conflict.has_conflicts


class TestPolicies:
    def test_precedence_prefers_a(self, schema):
        conflict = detect_record_conflict(
            schema, 1, Record((1, 1, 0, 0)), Record((1, 2, 0, 0)), Record((1, 0, 0, 0))
        )
        resolved, how = PrecedencePolicy(prefer="a").resolve(schema, conflict)
        assert resolved.values == (1, 1, 0, 0)
        assert how is ConflictResolution.SIDE_A

    def test_precedence_prefers_b(self, schema):
        conflict = detect_record_conflict(
            schema, 1, Record((1, 1, 0, 0)), Record((1, 2, 0, 0)), Record((1, 0, 0, 0))
        )
        resolved, how = PrecedencePolicy(prefer="b").resolve(schema, conflict)
        assert resolved.values == (1, 2, 0, 0)
        assert how is ConflictResolution.SIDE_B

    def test_precedence_delete_wins_for_preferred_side(self, schema):
        conflict = detect_record_conflict(
            schema, 1, None, Record((1, 2, 0, 0)), Record((1, 0, 0, 0))
        )
        resolved, how = PrecedencePolicy(prefer="a").resolve(schema, conflict)
        assert resolved is None
        assert how is ConflictResolution.DELETED

    def test_three_way_merges_disjoint_updates(self, schema):
        ancestor = Record((1, 0, 0, 0))
        side_a = Record((1, 7, 0, 0))
        side_b = Record((1, 0, 0, 9))
        conflict = detect_record_conflict(schema, 1, side_a, side_b, ancestor)
        resolved, how = ThreeWayPolicy(prefer="a").resolve(schema, conflict)
        assert resolved.values == (1, 7, 0, 9)
        assert how is ConflictResolution.MERGED

    def test_three_way_conflicting_field_uses_preference(self, schema):
        ancestor = Record((1, 0, 0, 0))
        side_a = Record((1, 7, 0, 0))
        side_b = Record((1, 8, 0, 5))
        resolved_a, _ = ThreeWayPolicy(prefer="a").resolve(
            schema, detect_record_conflict(schema, 1, side_a, side_b, ancestor)
        )
        resolved_b, _ = ThreeWayPolicy(prefer="b").resolve(
            schema, detect_record_conflict(schema, 1, side_a, side_b, ancestor)
        )
        # The disjoint c3 update always merges in; c1 follows the preference.
        assert resolved_a.values == (1, 7, 0, 5)
        assert resolved_b.values == (1, 8, 0, 5)

    def test_three_way_delete_modify_follows_preference(self, schema):
        ancestor = Record((1, 0, 0, 0))
        conflict = detect_record_conflict(schema, 1, None, Record((1, 3, 0, 0)), ancestor)
        resolved, how = ThreeWayPolicy(prefer="a").resolve(schema, conflict)
        assert resolved is None and how is ConflictResolution.DELETED
        resolved, how = ThreeWayPolicy(prefer="b").resolve(schema, conflict)
        assert resolved.values == (1, 3, 0, 0)

    def test_three_way_only_b_changed(self, schema):
        ancestor = Record((1, 0, 0, 0))
        side_a = Record((1, 0, 0, 0))
        side_b = Record((1, 0, 4, 0))
        conflict = detect_record_conflict(schema, 1, side_a, side_b, ancestor)
        resolved, how = ThreeWayPolicy(prefer="a").resolve(schema, conflict)
        assert resolved.values == (1, 0, 4, 0)
        assert how is ConflictResolution.SIDE_B


# -- merges agree across engines ------------------------------------------------

BASE = [Record((key, key * 10, key * 100)) for key in range(5)]
#: Bytes one record adds to ``MergeResult.diff_bytes`` (three INT columns
#: plus the header byte).
WIDTH = 25


def identical_rewrite_and_delete(engine):
    """The target rewrites key 3 with its own values; the source deletes it."""
    engine.update("master", Record((3, 30, 300)))
    engine.delete("dev", 3)


def reverted_update_and_field_update(engine):
    """The target updates key 2 and reverts it; the source updates a field."""
    engine.update("master", Record((2, 99, 200)))
    engine.commit("master")
    engine.update("master", Record((2, 20, 200)))
    engine.update("dev", Record((2, 20, 777)))


def same_insert(engine):
    """Both sides insert the same row."""
    engine.insert("master", Record((9, 90, 900)))
    engine.insert("dev", Record((9, 90, 900)))


def base_with(*changes, without=()):
    rows = {record.values[0]: record.values for record in BASE}
    for key in without:
        del rows[key]
    rows.update((values[0], values) for values in changes)
    return sorted(rows.values())


#: scenario -> three_way -> (master's rows after merging dev into it,
#: num_conflicts, records_applied, diff_bytes).  Diff and merge are by
#: content, so a write that leaves a record's values as they were is no
#: change on that side.
EXPECTED = {
    identical_rewrite_and_delete: {
        True: (base_with(without=[3]), 0, 1, WIDTH),
        # Two-way merges never propagate deletes: master keeps key 3.
        False: (base_with(), 0, 0, WIDTH),
    },
    reverted_update_and_field_update: {
        True: (base_with((2, 20, 777)), 0, 1, WIDTH),
        # Without the ancestor, c2 diverges and the target takes precedence.
        False: (base_with(), 1, 1, 2 * WIDTH),
    },
    same_insert: {
        True: (base_with((9, 90, 900)), 0, 1, 2 * WIDTH),
        False: (base_with((9, 90, 900)), 0, 0, 0),
    },
}


@pytest.mark.parametrize("three_way", [True, False], ids=["three-way", "two-way"])
@pytest.mark.parametrize("scenario", list(EXPECTED), ids=lambda s: s.__name__)
def test_engines_agree_on_merge(tmp_path, scenario, three_way):
    outcomes = {}
    for kind in sorted(ENGINE_CLASSES):
        engine = engine_factory(kind, Schema.of_ints(3), str(tmp_path / kind))
        engine.init(BASE)
        engine.create_branch("dev", from_branch="master")
        scenario(engine)
        engine.commit("master")
        engine.commit("dev")
        result = engine.merge("master", "dev", three_way=three_way)
        outcomes[kind] = (
            sorted(record.values for record in engine.scan_branch("master")),
            result.num_conflicts,
            result.records_applied,
            result.diff_bytes,
        )
    expected = EXPECTED[scenario][three_way]
    assert outcomes == {kind: expected for kind in outcomes}


@pytest.mark.parametrize("kind", ["tuple-first", "hybrid"])
def test_merge_fetches_changed_copies_page_at_a_time(tmp_path, schema, kind):
    """A merge reads a page once per diff that needs it, plus at most one
    page per record it applies: never a page per changed copy."""
    engine = engine_factory(kind, schema, str(tmp_path / kind))
    engine.init(Record((key, key, key, key)) for key in range(2000))
    engine.create_branch("dev", from_branch="master")
    for key in range(0, 2000, 100):
        engine.update("dev", Record((key, -1, key, key)))
    for key in range(3, 2000, 20):
        engine.update("master", Record((key, key, -2, key)))
    engine.commit("dev")
    engine.commit("master")
    lca = engine._commit_read_state(
        engine.graph.lowest_common_ancestor(
            engine.graph.head("master"), engine.graph.head("dev")
        )
    )
    if kind == "tuple-first":
        per_page = {None: engine.heap.records_per_page}
    else:
        per_page = {
            segment.segment_id: segment.heap.records_per_page
            for segment in engine.segments.all()
        }
    states = [engine._branch_state(b) for b in ("master", "dev")]
    changed_pages = 0
    for state in states:
        pages = set()
        for segment in set(state) | set(lca):
            head = state.get(segment, Bitmap())
            base = lca.get(segment, Bitmap())
            changed = head.and_not(base) | base.and_not(head)
            pages.update(
                (segment, ordinal // per_page[segment])
                for ordinal in changed.iter_set_bits()
            )
        changed_pages += len(pages)
    calls = 0
    get_page = engine.buffer_pool.get_page

    def counting_get_page(*args, **kwargs):
        nonlocal calls
        calls += 1
        return get_page(*args, **kwargs)

    engine.buffer_pool.get_page = counting_get_page
    result = engine.merge("master", "dev")
    assert result.records_applied == 20
    assert calls <= changed_pages + result.records_applied
