"""Tests for diff results, field-level conflict detection/resolution, and
merges on every engine."""

import pytest

from repro.bench.driver import BenchmarkConfig, load_dataset
from repro.bitmap.bitmap import Bitmap
from repro.core.record import Record, RecordCodec
from repro.core.schema import Column, ColumnType, Schema
from repro.db.database import Decibel
from repro.errors import RecordError
from repro.query.optimizer import set_index_selection
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


# -- merges through reopen, historical forks and indexes ----------------

ENGINES = sorted(ENGINE_CLASSES)


def master_rows(engine):
    return sorted(record.values for record in engine.scan_branch("master"))


def outcome(result):
    return result.num_conflicts, result.records_applied, result.diff_bytes


@pytest.mark.parametrize("kind", ENGINES)
def test_merge_after_reopen(tmp_path, kind):
    """A reopened engine merges from bitmaps restored from its commit
    histories, with the key index still unbuilt, as a live one does."""
    directory = str(tmp_path / kind)
    engine = engine_factory(kind, Schema.of_ints(3), directory)
    engine.init(BASE)
    engine.create_branch("dev", from_branch="master")
    engine.update("dev", Record((1, 11, 100)))
    engine.insert("dev", Record((7, 70, 700)))
    engine.delete("dev", 4)
    engine.update("master", Record((2, 20, 999)))
    engine.update("master", Record((1, 10, 111)))
    engine.commit("dev")
    engine.commit("master")
    engine.close()
    reopened = engine_factory(kind, Schema.of_ints(3), directory)
    reopened.load_persistent_state()
    if kind != "version-first":
        assert not reopened.key_index.built
    result = reopened.merge("master", "dev")
    # Key 1 combines both sides' fields, key 4 is deleted, key 7 inserted.
    merged = [(0, 0, 0), (1, 11, 111), (2, 20, 999), (3, 30, 300), (7, 70, 700)]
    assert outcome(result) == (0, 3, 5 * WIDTH)
    assert master_rows(reopened) == merged
    reopened.close()
    again = engine_factory(kind, Schema.of_ints(3), directory)
    again.load_persistent_state()
    assert master_rows(again) == merged
    assert sorted(record.values for record in again.checkout(result.commit_id)) == merged


@pytest.mark.parametrize("kind", ENGINES)
def test_merge_of_branch_forked_from_a_historical_commit(tmp_path, kind):
    engine = engine_factory(kind, Schema.of_ints(3), str(tmp_path / kind))
    engine.init(BASE)
    engine.update("master", Record((0, 1, 0)))
    fork_point = engine.commit("master")
    engine.update("master", Record((3, 31, 300)))
    engine.commit("master")
    engine.create_branch("fix", from_commit=fork_point)
    engine.update("fix", Record((2, 21, 200)))
    engine.update("fix", Record((3, 30, 333)))
    engine.delete("fix", 4)
    engine.commit("fix")
    result = engine.merge("master", "fix")
    assert result.lca_commit == fork_point
    # The target changed only key 3 since the fork; the source keys 2-4.
    assert outcome(result) == (0, 3, 4 * WIDTH)
    assert master_rows(engine) == [(0, 1, 0), (1, 10, 100), (2, 21, 200), (3, 31, 333)]


@pytest.mark.parametrize("kind", ENGINES)
def test_merge_keeps_a_built_secondary_index_exact(tmp_path, kind):
    """Copies a merge shares, writes and deletes reach the target's built
    secondary index: index scans answer as full scans do."""
    db = Decibel(str(tmp_path / kind), engine=kind)
    relation = db.create_relation("R", Schema.of_ints(3), indexes=("c1",))
    relation.init([Record((key, key % 10, key)) for key in range(60)])
    relation.branch("dev", from_branch="master")
    query = "SELECT * FROM R WHERE R.Version = 'master' AND R.c1 = {}"
    assert "[index]" in db.explain(query.format(1))
    db.query(query.format(1))  # builds master's index
    assert relation.engine.index_hook.secondary["c1"].has_branch("master")
    relation.update("dev", Record((1, 2, 1)))  # shared: moves from 1 to 2
    relation.insert("dev", Record((70, 1, 70)))  # shared: new under 1
    relation.delete("dev", 11)  # leaves 1
    relation.update("dev", Record((5, 1, 5)))  # conflicts with master's c1
    relation.update("master", Record((5, 3, 55)))
    relation.update("dev", Record((6, 1, 6)))  # merged with master's c2
    relation.update("master", Record((6, 6, 66)))
    relation.commit("dev")
    relation.commit("master")
    assert relation.merge("master", "dev").num_conflicts == 1
    for value in range(10):
        sql = query.format(value)
        indexed = sorted(tuple(row) for row in db.query(sql).rows)
        set_index_selection(False)
        try:
            scanned = sorted(tuple(row) for row in db.query(sql).rows)
        finally:
            set_index_selection(True)
        assert indexed == scanned
        expected = sorted(
            record.values for record in relation.scan("master")
            if record.values[1] == value
        )
        assert [tuple(row) for row in indexed] == expected
    db.close()


@pytest.mark.parametrize("kind", ENGINES)
def test_float_column_cannot_be_stored(tmp_path, kind):
    """A merge takes two copies with equal bytes for the same record, which
    holds for every storable type.  FLOAT, where ``0.0 == -0.0`` spans two
    bit patterns and NaN is unequal to its own bits, is never stored."""
    schema = Schema((Column("id", ColumnType.INT), Column("f", ColumnType.FLOAT)))
    engine = engine_factory(kind, schema, str(tmp_path / kind))
    with pytest.raises(RecordError):
        engine.init([Record((1, 0.0))])


# -- counted work ---------------------------------------------------------------


@pytest.mark.parametrize("kind", ["tuple-first", "hybrid"])
def test_conflict_free_merge_decodes_no_record(tmp_path, kind, monkeypatch):
    """Keys only the source changed are applied by moving live bits: the
    merge reads their keys and builds no record."""
    engine = engine_factory(kind, Schema.of_ints(3), str(tmp_path / kind))
    engine.init(Record((key, key, key)) for key in range(500))
    engine.create_branch("dev", from_branch="master")
    dev_updates = range(7, 500, 7)
    dev_deletes = [key for key in range(3, 500, 50) if key % 7]
    master_updates = [key for key in range(1, 500, 10) if key % 7]
    for key in dev_updates:
        engine.update("dev", Record((key, -key, key)))
    for key in range(500, 520):
        engine.insert("dev", Record((key, key, key)))
    for key in dev_deletes:
        engine.delete("dev", key)
    for key in master_updates:
        engine.update("master", Record((key, key, -key)))
    engine.commit("dev")
    engine.commit("master")
    expected = {r.values[0]: r.values for r in engine.scan_branch("dev")}
    expected.update((key, (key, key, -key)) for key in master_updates)
    built = 0
    decode, decode_batch = RecordCodec.decode, RecordCodec.decode_batch

    def counting_decode(self, *args, **kwargs):
        nonlocal built
        built += 1
        return decode(self, *args, **kwargs)

    def counting_decode_batch(self, *args, **kwargs):
        nonlocal built
        records = decode_batch(self, *args, **kwargs)
        built += len(records)
        return records

    monkeypatch.setattr(RecordCodec, "decode", counting_decode)
    monkeypatch.setattr(RecordCodec, "decode_batch", counting_decode_batch)
    decoded = engine.stats.records_decoded
    result = engine.merge("master", "dev")
    assert (built, engine.stats.records_decoded - decoded) == (0, 0)
    assert result.num_conflicts == 0
    assert result.records_applied == len(dev_updates) + 20 + len(dev_deletes)
    monkeypatch.undo()
    assert {r.values[0]: r.values for r in engine.scan_branch("master")} == expected


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(
            "version-first",
            marks=pytest.mark.xfail(
                strict=True,
                reason="version-first's merge diffs full scans of both heads "
                "and the LCA commit, decoding every record of all three",
            ),
        ),
        "tuple-first",
        "hybrid",
    ],
)
def test_curation_merges_decode_at_most_four_records_per_change(tmp_path, kind):
    """On the paper's curation pattern (dev branches merged back into a
    master that changes too, with conflicts), each merge decodes at most
    four records per key it applies."""
    config = BenchmarkConfig(
        strategy="curation", engine=kind, num_branches=6, total_operations=800,
        commit_interval=200, num_columns=6, seed=42,
    )
    timings = load_dataset(config, str(tmp_path)).merge_timings
    assert timings and sum(timing.conflicts for timing in timings)
    for timing in timings:
        assert timing.records_decoded <= 4 * timing.records_applied
