"""End-to-end crash-recovery matrix: workloads x crashpoints x engines.

Every test follows the same shape: run a workload through the transactional
API, inject a crash at a named point inside the final transaction's commit
(or inside a branch creation, a merge or a branch retirement), reopen the database directory with
:meth:`Decibel.open`, and assert the two durability invariants.  Each matrix
case arms only a crashpoint its workload reaches, and fails if it never
fires:

* **Committed is durable** -- every transaction whose COMMIT record reached
  the log is fully visible after recovery (redone if needed).
* **Losers are invisible** -- a transaction that crashed before its commit
  point leaves no trace.

A hypothesis-driven variant generates the workload (insert / update /
delete / branch mixes) and checks recovered state against an in-memory
model.
"""

import glob
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.durable import FRAME_HEADER_SIZE, frame, read_framed
from repro.core.record import Record
from repro.core.schema import Schema
from repro.core.wal import LogRecord, LogRecordType
from repro.db.database import Decibel
from repro.errors import CorruptionError
from repro.storage import segments as segments_module
from repro.testing.faults import FaultSchedule, InjectedCrash, inject
from repro.versioning.version_graph import decode_events

ENGINES = ["tuple-first", "version-first", "hybrid"]

#: Every named crashpoint the durable write paths register: the WAL COMMIT
#: fsync, the heap flush (a commit's new records), and the version-graph log
#: append (which also carries the commit's bitmap deltas and a branch's
#: segment topology).
CRASHPOINTS = [
    "wal-group-commit-pre-fsync",
    "heap-flush-pre-fsync",
    "graph-persist-pre-fsync",
]

#: The crashpoints that guard an append to a live log (the WAL, the
#: version-graph log), where a crash can also leave a torn partial record
#: behind.  The heap flush, an append to a heap file's tail, has its own
#: matrix below.
APPEND_CRASHPOINTS = [
    "wal-group-commit-pre-fsync",
    "graph-persist-pre-fsync",
]


def commit_cases(points):
    """(point, engine) for every point a transaction commit passes: all but
    the heap flush, which a delete-only commit does not reach on the bitmap
    engines (see ``_HeapFlushWorkloads``)."""
    return [
        (point, engine)
        for point in points
        for engine in ENGINES
        if not point.startswith("heap")
    ]


#: (point, engine, torn bytes) for a crash inside branch creation: the
#: graph frame, which also carries the branch's segment topology, torn or
#: not.  ``test_torn_branch_frame_reuses_segment_ids`` and
#: ``test_flipped_branch_frame_limit`` check the topology it carries.
BRANCH_CASES = [
    ("graph-persist-pre-fsync", engine, torn)
    for torn in (0, 3)
    for engine in ENGINES
]

#: (point, engine, torn bytes) for a crash inside a merge's commit, and for
#: a crash at the last arrival of a two-branch transaction's commit (after
#: the first branch's commit is durable): the graph frame, the one durable
#: write an engine commit makes after flushing its data, torn or not.
ENGINE_COMMIT_CASES = [
    ("graph-persist-pre-fsync", engine, torn)
    for engine in ENGINES
    for torn in (0, 3)
]

#: A merge's commit also flushes the records the merge appended, which
#: only version-first does (the bitmap engines merge by setting bits).
MERGE_CASES = ENGINE_COMMIT_CASES + [
    ("heap-flush-pre-fsync", "version-first", torn) for torn in (0, 3)
]


SCHEMA = Schema.of_ints(2)


def record(key, payload=0):
    return Record((key, payload))


def seed_database(directory, engine):
    """A dataset with committed baseline data: keys 0..9 plus key 100."""
    db = Decibel(str(directory), engine=engine)
    rel = db.create_relation("t", SCHEMA)
    rel.init([record(i, i * 10) for i in range(10)])
    txn = db.transactions("t").begin()
    txn.insert("master", record(100, 1))
    txn.commit("committed baseline")
    return db


def flip_frame_byte(path, index, offset):
    """Flip byte ``offset`` of the payload of frame ``index`` of the framed
    log at ``path``."""
    payloads = read_framed(str(path))
    start = sum(FRAME_HEADER_SIZE + len(payload) for payload in payloads[:index])
    position = start + FRAME_HEADER_SIZE + offset
    with open(path, "r+b") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0x01]))


def live_keys(db, branch="master"):
    return {r.key(SCHEMA) for r in db.relation("t").scan(branch)}


def key_copies(db, branch, key):
    """How many live rows of ``branch`` carry primary key ``key``."""
    return sum(1 for r in db.relation("t").scan(branch) if r.key(SCHEMA) == key)


def two_branch_transaction(db):
    """An uncommitted transaction inserting key 300 on dev and 400 on master
    (dev must exist); its commit makes one engine commit per branch."""
    txn = db.transactions("t").begin()
    txn.insert("dev", record(300, 3))
    txn.insert("master", record(400, 4))
    return txn


#: Keys the workloads below insert, delete or never touch: every one that is
#: not live in a branch must miss there.
PROBE_KEYS = set(range(12)) | {100, 200, 300, 400, 500, 600, 700, 997}


def assert_pk_index_agrees(db, branch="master"):
    """The reopened branch's pk lookups (index rebuilt from storage) agree
    with a scan: every live key answers its row, every other key misses."""
    storage = db.relation("t").engine
    expected = {r.key(SCHEMA): r.values for r in storage.scan_branch(branch)}
    for key, values in expected.items():
        assert storage.branch_contains_key(branch, key)
        assert storage.record_for_key(branch, key).values == values
    for key in PROBE_KEYS - set(expected):
        assert not storage.branch_contains_key(branch, key)
        assert storage.record_for_key(branch, key) is None


class _CrashWorkloads:
    """Workloads whose final commit dies at ``point``; subclasses pick the
    crashpoints and whether the crash also tears the guarded file's tail."""

    torn_bytes = 0

    def test_insert_crash(self, tmp_path, engine, point):
        db = seed_database(tmp_path, engine)
        txn = db.transactions("t").begin()
        txn.insert("master", record(200, 2))
        self._crash_and_verify(tmp_path, engine, point, txn, victim_key=200)

    def test_update_crash(self, tmp_path, engine, point):
        db = seed_database(tmp_path, engine)
        txn = db.transactions("t").begin()
        txn.update("master", record(5, 999))
        self._crash(point, txn)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        assert live_keys(reopened) == set(range(10)) | {100}
        rows = {
            r.key(SCHEMA): r.values[1] for r in reopened.relation("t").scan("master")
        }
        if not self._committed(reopened, txn):
            assert rows[5] == 50, "uncommitted update leaked through recovery"
        else:
            assert rows[5] == 999, "committed update was lost"
        assert_pk_index_agrees(reopened)

    def test_delete_crash(self, tmp_path, engine, point):
        db = seed_database(tmp_path, engine)
        txn = db.transactions("t").begin()
        txn.delete("master", 7)
        self._crash(point, txn)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        keys = live_keys(reopened)
        if not self._committed(reopened, txn):
            assert 7 in keys, "uncommitted delete survived the crash"
        else:
            assert 7 not in keys, "committed delete was resurrected"
        assert keys - {7} == (set(range(10)) | {100}) - {7}
        assert_pk_index_agrees(reopened)

    def test_branch_workload_crash(self, tmp_path, engine, point):
        db = seed_database(tmp_path, engine)
        db.relation("t").branch("dev", from_branch="master")
        txn = db.transactions("t").begin()
        txn.insert("dev", record(300, 3))
        txn.delete("dev", 3)
        self._crash(point, txn)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        # Master is untouched by the dev transaction either way.
        assert live_keys(reopened) == set(range(10)) | {100}
        dev = live_keys(reopened, "dev")
        if not self._committed(reopened, txn):
            assert dev == set(range(10)) | {100}
        else:
            assert dev == (set(range(10)) | {100, 300}) - {3}
        assert_pk_index_agrees(reopened, "master")
        assert_pk_index_agrees(reopened, "dev")

    def test_two_branch_crash(self, tmp_path, engine, point):
        """One transaction writes two branches: after the crash both of its
        branch commits are visible, or neither is."""
        db = seed_database(tmp_path, engine)
        db.relation("t").branch("dev", from_branch="master")
        txn = two_branch_transaction(db)
        self._crash(point, txn)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        baseline = set(range(10)) | {100}
        if not self._committed(reopened, txn):
            assert live_keys(reopened) == baseline
            assert live_keys(reopened, "dev") == baseline
        else:
            assert live_keys(reopened) == baseline | {400}
            assert live_keys(reopened, "dev") == baseline | {300}
        assert_pk_index_agrees(reopened, "master")
        assert_pk_index_agrees(reopened, "dev")

    def test_other_branch_pending_crash(self, tmp_path, engine, point):
        """Dev holds unflushed, uncommitted writes while master's commit
        dies: master reopens at its pre- or post-commit state and dev at its
        last commit, and dev then writes and commits over intact rows."""
        db = seed_database(tmp_path, engine)
        rel = db.relation("t")
        rel.branch("dev", from_branch="master")
        rel.insert("dev", record(500, 5))
        rel.update("dev", record(4, 44))
        rel.delete("dev", 2)
        txn = db.transactions("t").begin()
        txn.insert("master", record(200, 2))
        self._crash(point, txn)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        baseline = set(range(10)) | {100}
        master = baseline | {200} if self._committed(reopened, txn) else baseline
        assert live_keys(reopened) == master
        assert live_keys(reopened, "dev") == baseline, "uncommitted dev writes leaked"
        txn = reopened.transactions("t").begin()
        txn.insert("dev", record(600, 6))
        txn.commit()
        again = Decibel.open(str(tmp_path), engine=engine)
        assert live_keys(again) == master
        assert live_keys(again, "dev") == baseline | {600}
        for branch in ("master", "dev"):
            rows = {r.key(SCHEMA): r.values[1] for r in again.relation("t").scan(branch)}
            assert all(rows[key] == key * 10 for key in range(10)), branch
            assert_pk_index_agrees(again, branch)

    # -- helpers ----------------------------------------------------------

    def _crash(self, point, txn):
        """Commit under an armed crashpoint, which must fire."""
        with pytest.raises(InjectedCrash):
            with inject(FaultSchedule(point, torn_bytes=self.torn_bytes)):
                txn.commit("under test")

    @staticmethod
    def _committed(db, txn):
        """True if the transaction's COMMIT record survived in the log.

        Recovery checkpoints the WAL, so consult the recovery report rather
        than the (now truncated) log.
        """
        report = db.last_recovery
        return txn.transaction_id in report.committed

    def _crash_and_verify(self, tmp_path, engine, point, txn, victim_key):
        self._crash(point, txn)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        keys = live_keys(reopened)
        baseline = set(range(10)) | {100}
        assert baseline <= keys, "committed baseline data was lost"
        if not self._committed(reopened, txn):
            assert victim_key not in keys, "loser transaction is visible"
            assert keys == baseline
        else:
            assert victim_key in keys, "committed transaction was lost"
            assert keys == baseline | {victim_key}
        # The catalog and graph must parse and agree with the indexes --
        # Decibel.open already ran _verify_consistency, so reaching here
        # means the dataset is structurally sound.  Queries still work:
        count = reopened.query(
            "SELECT COUNT(*) FROM t WHERE t.Version = 'master'"
        ).rows[0][0]
        assert count == len(keys)
        assert_pk_index_agrees(reopened)


@pytest.mark.parametrize(("point", "engine"), commit_cases(CRASHPOINTS))
class TestCrashMatrix(_CrashWorkloads):
    pass


@pytest.mark.parametrize(("point", "engine"), commit_cases(APPEND_CRASHPOINTS))
class TestTornAppendMatrix(_CrashWorkloads):
    """The crash also tears the last 3 bytes off the log being appended,
    as if the record only partly reached the disk: recovery must truncate
    the torn frame and still land on the pre- or post-commit state."""

    torn_bytes = 3


class _HeapFlushWorkloads(_CrashWorkloads):
    """The workloads, crashed at the commit's heap flush.  The WAL COMMIT is
    already fsynced there, so every case reopens to the committed rows by
    WAL redo, whatever the flush left on disk.  A delete alone appends
    nothing on the bitmap engines, so the delete workload also inserts."""

    def test_delete_crash(self, tmp_path, engine, point):
        db = seed_database(tmp_path, engine)
        txn = db.transactions("t").begin()
        txn.delete("master", 7)
        txn.insert("master", record(200, 2))
        self._crash(point, txn)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        assert self._committed(reopened, txn)
        assert live_keys(reopened) == (set(range(10)) | {100, 200}) - {7}
        assert_pk_index_agrees(reopened)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("point", ["heap-flush-pre-fsync"])
class TestHeapFlushMatrix(_HeapFlushWorkloads):
    pass


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("point", ["heap-flush-pre-fsync"])
class TestTornHeapFlushMatrix(_HeapFlushWorkloads):
    """The crash also cuts 3 bytes off the heap file, inside the last
    record the flush wrote: reopen keeps the whole records."""

    torn_bytes = 3


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("point", ["heap-flush-pre-fsync"])
class TestTornHeapCountMatrix(_HeapFlushWorkloads):
    """The crash cuts 4 bytes, the size of a page's record count: the
    reopened heap keeps its whole records up to the count."""

    torn_bytes = 4


@pytest.mark.parametrize("torn_bytes", [3, 4])
@pytest.mark.parametrize("engine", ENGINES)
def test_torn_heap_flush_is_cut_with_a_note(tmp_path, engine, torn_bytes):
    """The torn records are cut back to whole ones with a recovery note, in
    either recovery mode, and the WAL redoes the commit exactly once."""
    db = seed_database(tmp_path, engine)
    txn = db.transactions("t").begin()
    txn.update("master", record(5, 555))
    txn.insert("master", record(200, 2))
    with pytest.raises(InjectedCrash):
        with inject(FaultSchedule("heap-flush-pre-fsync", torn_bytes=torn_bytes)):
            txn.commit()
    reopened = Decibel.open(str(tmp_path), engine=engine)
    report = reopened.last_recovery
    assert report.needs_redo == {txn.transaction_id}
    assert any("torn heap tail" in note for note in report.notes), report.notes
    expected = {(i, i * 10) for i in range(10) if i != 5} | {(5, 555), (100, 1), (200, 2)}
    assert {r.values for r in reopened.relation("t").scan("master")} == expected
    assert key_copies(reopened, "master", 200) == 1
    assert_pk_index_agrees(reopened)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("point", ["graph-persist-pre-fsync"])
class TestFlippedLastGraphFrameMatrix(_CrashWorkloads):
    """The final commit's graph frame, with its bitmap deltas, reaches the
    disk whole but with a flipped byte: recovery cuts it in either mode, so
    no bitmap comes from the damaged deltas, and the WAL redoes the
    committed transaction on the previous commit."""

    def _crash(self, point, txn):
        super()._crash(point, txn)
        path = os.path.join(txn.manager.engine.directory, "version_graph.log")
        flip_frame_byte(path, len(read_framed(path)) - 1, 2)


@pytest.mark.parametrize(("point", "engine", "torn_bytes"), BRANCH_CASES)
def test_create_branch_crash(tmp_path, point, engine, torn_bytes):
    """A crash inside branch creation leaves the branch absent or equal to
    its parent, and the branch can be (re-)created and used afterwards."""
    db = seed_database(tmp_path, engine)
    baseline = set(range(10)) | {100}
    with pytest.raises(InjectedCrash):
        with inject(FaultSchedule(point, torn_bytes=torn_bytes)):
            db.relation("t").branch("dev", from_branch="master")
    reopened = Decibel.open(str(tmp_path), engine=engine)
    rel = reopened.relation("t")
    assert live_keys(reopened) == baseline
    if not rel.graph.has_branch("dev"):
        rel.branch("dev", from_branch="master")
    assert live_keys(reopened, "dev") == baseline
    manager = reopened.transactions("t")
    for branch, key in (("dev", 300), ("master", 400)):
        txn = manager.begin()
        txn.insert(branch, record(key, key))
        txn.commit()
    again = Decibel.open(str(tmp_path), engine=engine)
    assert live_keys(again) == baseline | {400}
    assert live_keys(again, "dev") == baseline | {300}
    assert_pk_index_agrees(again, "master")
    assert_pk_index_agrees(again, "dev")


@pytest.mark.parametrize("engine", ENGINES)
def test_fork_over_unflushed_writes_reopens(tmp_path, engine):
    """A fork at a head holding unflushed, uncommitted writes makes every
    record the new branch's event references durable (version-first's
    branch point counts them): a process that dies right after the fork
    reopens, in either recovery mode, with the two branches agreeing."""
    db = seed_database(tmp_path, engine)
    rel = db.relation("t")
    rel.insert("master", record(500, 5))
    rel.branch("dev", from_branch="master")
    del db, rel  # dies without a flush or a close
    reopened = Decibel.open(str(tmp_path), engine=engine)
    assert reopened.last_recovery.notes == [], "a fork lost records it references"
    baseline = set(range(10)) | {100}
    assert live_keys(reopened) in (baseline, baseline | {500})
    assert live_keys(reopened, "dev") == live_keys(reopened)
    assert_pk_index_agrees(reopened, "master")
    assert_pk_index_agrees(reopened, "dev")


class LostDirectoryEntries:
    """A crash model for segment files: a file created in the segments
    directory since the directory's last fsync has no durable entry, so a
    crash can lose it whole."""

    def __init__(self, monkeypatch):
        self.synced: dict[str, set[str]] = {}
        real = segments_module.fsync_dir

        def recording_fsync_dir(directory):
            real(directory)
            self.synced[os.path.abspath(directory)] = set(os.listdir(directory))

        monkeypatch.setattr(segments_module, "fsync_dir", recording_fsync_dir)

    def crash(self, root):
        """Delete every segment file under ``root`` a crash could lose."""
        lost = []
        for directory in glob.glob(os.path.join(str(root), "*", "segments")):
            durable = self.synced.get(os.path.abspath(directory), set())
            for name in sorted(set(os.listdir(directory)) - durable):
                os.remove(os.path.join(directory, name))
                lost.append(name)
        return lost


@pytest.mark.parametrize("baseline", [0, 10])
@pytest.mark.parametrize("engine", ENGINES)
def test_fork_then_crash_before_any_write(tmp_path, engine, baseline, monkeypatch):
    """A fork's empty heads are not worth a directory fsync.  A crash right
    after the fork may lose their files; the reopen recreates them, and the
    branch reads what its parent did at the fork (empty, for an empty
    parent).  Its first later commit makes its head's entry durable, so it
    survives a second crash."""
    entries = LostDirectoryEntries(monkeypatch)
    db = Decibel(str(tmp_path), engine=engine)
    db.create_relation("t", SCHEMA).init(record(i, i * 10) for i in range(baseline))
    db.relation("t").branch("dev", from_branch="master")
    lost = entries.crash(tmp_path)
    del db  # dies without a flush or a close
    # Every empty segment file is lost: the fork's new heads, and an empty
    # master's first segment.  Hybrid gives the parent a new head too, but
    # only when its head holds records: an empty master keeps its first
    # segment as its head, so hybrid loses two files either way.
    if engine == "hybrid":
        assert len(lost) == 2
    elif engine == "version-first":
        assert len(lost) == 1 + (baseline == 0)
    reopened = Decibel.open(str(tmp_path), engine=engine)
    assert reopened.last_recovery.notes == []
    assert live_keys(reopened, "dev") == live_keys(reopened) == set(range(baseline))
    txn = reopened.transactions("t").begin()
    txn.insert("dev", record(300, 3))
    txn.commit()
    assert entries.crash(tmp_path) == []
    del reopened
    again = Decibel.open(str(tmp_path), engine=engine)
    assert live_keys(again, "dev") == set(range(baseline)) | {300}
    assert live_keys(again) == set(range(baseline))
    assert_pk_index_agrees(again, "dev")
    again.close()


def segment_topology(engine):
    return [
        (segment.segment_id, segment.owner_branch, segment.frozen, segment.parents)
        for segment in engine.segments.all()
    ]


@pytest.mark.parametrize("engine", ["version-first", "hybrid"])
def test_torn_branch_frame_reuses_segment_ids(tmp_path, engine):
    """A branch whose graph frame is torn does not exist after a reopen:
    no segment it created is replayed, and the next branch call reuses
    their ids with empty heaps, whatever bytes the files were left with."""
    db = seed_database(tmp_path, engine)
    with pytest.raises(InjectedCrash):
        with inject(FaultSchedule("graph-persist-pre-fsync", torn_bytes=3)):
            db.relation("t").branch("dev", from_branch="master")
    crashed = segment_topology(db.relation("t").engine)
    reopened = Decibel.open(str(tmp_path), engine=engine)
    rel = reopened.relation("t")
    assert not rel.graph.has_branch("dev")
    replayed = segment_topology(rel.engine)
    lost = [entry[0] for entry in crashed[len(replayed):]]
    assert lost
    segments_dir = tmp_path / "t" / "segments"
    stale = (segments_dir / f"{replayed[0][0]}.seg").read_bytes()
    assert stale
    for segment_id in lost:
        (segments_dir / f"{segment_id}.seg").write_bytes(stale)
    rel.branch("dev", from_branch="master")
    assert segment_topology(rel.engine) == crashed
    for segment_id in lost:
        assert rel.engine.segments.get(segment_id).record_count == 0
    baseline = set(range(10)) | {100}
    assert live_keys(reopened) == live_keys(reopened, "dev") == baseline
    again = Decibel.open(str(tmp_path), engine=engine)
    assert segment_topology(again.relation("t").engine) == crashed
    assert live_keys(again) == live_keys(again, "dev") == baseline


@pytest.mark.parametrize("strict", ["1", "0"])
@pytest.mark.parametrize("point", CRASHPOINTS)
def test_kept_head_writes_stay_invisible_to_the_child_after_a_crash(
    tmp_path, point, strict, monkeypatch
):
    """Master's first fork freezes its loaded head; its second fork finds
    the new head empty and keeps it.  Master commits rows into the kept
    head, then crashes inside its next commit: after the reopen, in either
    recovery mode, the child holds none of master's rows, master writes to
    the same unfrozen head, and both stay apart across a second reopen."""
    monkeypatch.setenv("REPRO_STRICT_RECOVERY", strict)
    db = seed_database(tmp_path, "hybrid")
    rel = db.relation("t")
    rel.branch("dev", from_branch="master")
    rel.branch("qa", from_branch="master")
    kept = rel.engine._head_segment["master"]
    topology = segment_topology(rel.engine)
    manager = db.transactions("t")
    txn = manager.begin()
    txn.insert("master", record(200, 2))
    txn.update("master", record(3, -3))
    txn.commit()
    txn = manager.begin()
    txn.insert("master", record(201, 2))
    with pytest.raises(InjectedCrash):
        with inject(FaultSchedule(point)):
            txn.commit()
    baseline = {(i, i * 10) for i in range(10)} | {(100, 1)}
    on_master = baseline - {(3, 30)} | {(3, -3), (200, 2)}

    reopened = Decibel.open(str(tmp_path), engine="hybrid")
    if txn.transaction_id in reopened.last_recovery.committed:
        on_master |= {(201, 2)}
    rel = reopened.relation("t")
    assert segment_topology(rel.engine) == topology
    assert rel.engine._head_segment["master"] == kept
    assert not rel.engine.segments.get(kept).frozen
    assert {r.values for r in rel.scan("master")} == on_master
    assert {r.values for r in rel.scan("qa")} == baseline
    assert_pk_index_agrees(reopened, "qa")
    txn = reopened.transactions("t").begin()
    txn.insert("qa", record(300, 3))
    txn.insert("master", record(400, 4))
    txn.commit()
    reopened.close()
    again = Decibel.open(str(tmp_path), engine="hybrid")
    rel = again.relation("t")
    assert {r.values for r in rel.scan("qa")} == baseline | {(300, 3)}
    assert {r.values for r in rel.scan("master")} == on_master | {(400, 4)}
    assert {r.values for r in rel.scan("dev")} == baseline
    assert_pk_index_agrees(again, "qa")
    assert_pk_index_agrees(again, "master")
    again.close()


@pytest.mark.parametrize("victim", ["child", "grandchild"])
@pytest.mark.parametrize("strict", ["1", "0"])
@pytest.mark.parametrize("point", CRASHPOINTS)
def test_fork_relative_commits_read_the_same_after_a_crash(
    tmp_path, point, strict, victim, monkeypatch
):
    """Hybrid histories start at the fork.  Master holds uncommitted
    writes when ``dev`` forks; ``dev`` commits them with its own, holds an
    uncommitted insert when ``qa`` forks off it, and ``qa`` commits.  The
    child's or the grandchild's first commit crashes: after the reopen, in
    either recovery mode, every earlier commit reads as it did before the
    crash, row for row and bit for bit; the crashed commit is all or
    nothing, and a second reopen agrees."""
    monkeypatch.setenv("REPRO_STRICT_RECOVERY", strict)
    db = seed_database(tmp_path, "hybrid")
    rel = db.relation("t")
    manager = db.transactions("t")
    rel.insert("master", record(200, 2))
    rel.update("master", record(3, -3))
    rel.branch("dev", from_branch="master")
    branch, written, removed = "dev", (300, 3), (4, 40)
    if victim == "grandchild":
        txn = manager.begin()
        txn.insert("dev", record(300, 3))
        txn.delete("dev", 4)
        txn.commit()
        rel.insert("dev", record(301, 3))
        rel.branch("qa", from_branch="dev")
        branch, written, removed = "qa", (400, 4), (5, 50)
    live = {r.values for r in rel.scan(branch)}
    fork_commit = rel.graph.head(branch)
    engine = rel.engine
    before = {
        commit.commit_id: (
            {r.values for r in rel.checkout(commit.commit_id)},
            engine.checkout_commit_bitmaps(commit.commit_id),
        )
        for commit in rel.graph.commits()
    }
    txn = manager.begin()
    txn.insert(branch, record(*written))
    txn.delete(branch, removed[0])
    with pytest.raises(InjectedCrash):
        with inject(FaultSchedule(point)):
            txn.commit()

    reopened = Decibel.open(str(tmp_path), engine="hybrid")
    graph = reopened.relation("t").graph
    expected = before[fork_commit][0]
    if graph.get_commit(graph.head(branch)).message.startswith("recovered"):
        # The redo replays the transaction's writes on the branch's last
        # durable state, which never held the parent's uncommitted ones.
        expected = expected - {removed} | {written}
    elif txn.transaction_id in reopened.last_recovery.committed:
        # The commit's graph frame survived: it holds the branch's live bits.
        expected = live - {removed} | {written}
    for again in (False, True):
        db = Decibel.open(str(tmp_path), engine="hybrid") if again else reopened
        rel = db.relation("t")
        for commit_id, (rows, bitmaps) in before.items():
            assert {r.values for r in rel.checkout(commit_id)} == rows, commit_id
            assert rel.engine.checkout_commit_bitmaps(commit_id) == bitmaps
        assert {r.values for r in rel.scan(branch)} == expected
        assert_pk_index_agrees(db, branch)
        db.close()


@pytest.mark.parametrize("strict", ["1", "0"])
def test_flipped_branch_frame_limit(tmp_path, strict, monkeypatch):
    """A flipped byte in the branch-point limit a version-first at-head
    branch's frame carries: strict recovery raises rather than replay a
    wrong branch point; degraded recovery opens at the frame before, with
    the rows it held: the later, applied commit on master goes with it."""
    monkeypatch.setenv("REPRO_STRICT_RECOVERY", strict)
    db = seed_database(tmp_path, "version-first")
    rel = db.relation("t")
    previous = rel.graph.head("master")
    rel.branch("dev", from_branch="master")
    txn = db.transactions("t").begin()
    txn.insert("master", record(400, 4))
    txn.commit()
    db.close()
    path = tmp_path / "t" / "version_graph.log"
    payloads = read_framed(str(path))
    index = len(payloads) - 2
    (event,) = decode_events(payloads[index])
    assert event["op"] == "create_branch" and event["state"] == 11
    # The limit is the event's last field, one byte.
    assert payloads[index][-1] == 11
    flip_frame_byte(path, index, len(payloads[index]) - 1)
    if strict == "1":
        with pytest.raises(CorruptionError):
            Decibel.open(str(tmp_path), engine="version-first")
        return
    reopened = Decibel.open(str(tmp_path), engine="version-first")
    assert any("version graph" in note for note in reopened.last_recovery.notes)
    rel = reopened.relation("t")
    assert not rel.graph.has_branch("dev")
    baseline = {(i, i * 10) for i in range(10)} | {(100, 1)}
    assert rel.graph.head("master") == previous
    assert {r.values for r in rel.scan("master")} == baseline
    assert_pk_index_agrees(reopened)


@pytest.mark.parametrize("engine", ENGINES)
def test_write_uncommitted_at_a_fork_does_not_survive_reopen(tmp_path, engine):
    """An uncommitted insert on master, then a fork off master's head, then
    close and reopen: both branches reopen at their head commits, without
    the insert, and commits made after the reopen do not bring it back,
    live or after a second reopen."""
    db = Decibel(str(tmp_path), engine=engine)
    rel = db.create_relation("t", SCHEMA)
    rel.init([record(1)])
    rel.insert("master", record(2))
    rel.branch("child", from_branch="master")
    db.close()

    db = Decibel.open(str(tmp_path), engine=engine)
    rel = db.relation("t")
    assert live_keys(db, "master") == live_keys(db, "child") == {1}
    rel.insert("master", record(3))
    on_master = rel.commit("master")
    rel.insert("child", record(4))
    on_child = rel.commit("child")
    # Later appends move both commits off their segments' heads.
    rel.insert("master", record(5))
    rel.insert("child", record(6))
    assert {r.key(SCHEMA) for r in rel.checkout(on_master)} == {1, 3}
    assert {r.key(SCHEMA) for r in rel.checkout(on_child)} == {1, 4}
    db.close()

    db = Decibel.open(str(tmp_path), engine=engine)
    assert live_keys(db, "master") == {1, 3}
    assert live_keys(db, "child") == {1, 4}
    assert_pk_index_agrees(db, "master")
    assert_pk_index_agrees(db, "child")


@pytest.mark.parametrize(("point", "engine", "torn_bytes"), ENGINE_COMMIT_CASES)
def test_two_branch_crash_at_last_commit(tmp_path, point, engine, torn_bytes):
    """The crash hits the second branch's commit after the first one is
    durable: recovery redoes what is missing, and only once."""
    probe = seed_database(tmp_path / "probe", engine)
    probe.relation("t").branch("dev", from_branch="master")
    with inject() as injector:
        two_branch_transaction(probe).commit()
    last_hit = injector.counts[point]
    assert last_hit >= 2

    db = seed_database(tmp_path / "db", engine)
    db.relation("t").branch("dev", from_branch="master")
    txn = two_branch_transaction(db)
    with pytest.raises(InjectedCrash):
        with inject(FaultSchedule(point, hit=last_hit, torn_bytes=torn_bytes)):
            txn.commit("under test")
    reopened = Decibel.open(str(tmp_path / "db"), engine=engine)
    assert txn.transaction_id in reopened.last_recovery.committed
    baseline = set(range(10)) | {100}
    assert live_keys(reopened) == baseline | {400}
    assert live_keys(reopened, "dev") == baseline | {300}
    assert key_copies(reopened, "master", 400) == 1
    assert key_copies(reopened, "dev", 300) == 1
    again = Decibel.open(str(tmp_path / "db"), engine=engine)
    assert live_keys(again) == baseline | {400}
    assert live_keys(again, "dev") == baseline | {300}
    assert_pk_index_agrees(again, "master")
    assert_pk_index_agrees(again, "dev")


@pytest.mark.parametrize(("point", "engine", "torn_bytes"), MERGE_CASES)
def test_merge_crash(tmp_path, point, engine, torn_bytes):
    """A crash inside a merge's commit leaves the target at its pre-merge
    head or at the merged state, never in between; a lost merge can be run
    again."""
    db = seed_database(tmp_path, engine)
    rel = db.relation("t")
    rel.branch("dev", from_branch="master")
    txn = db.transactions("t").begin()
    txn.insert("dev", record(300, 3))
    txn.delete("dev", 3)
    txn.commit()
    pre_merge_head = rel.graph.head("master")
    with pytest.raises(InjectedCrash):
        with inject(FaultSchedule(point, torn_bytes=torn_bytes)):
            rel.merge("master", "dev")
    reopened = Decibel.open(str(tmp_path), engine=engine)
    rel = reopened.relation("t")
    baseline = set(range(10)) | {100}
    merged = (baseline | {300}) - {3}
    assert live_keys(reopened, "dev") == merged
    if rel.graph.head("master") == pre_merge_head:
        assert live_keys(reopened) == baseline, "a lost merge leaked rows"
        rel.merge("master", "dev")
    else:
        assert rel.graph.get_commit(rel.graph.head("master")).is_merge
    assert live_keys(reopened) == merged
    again = Decibel.open(str(tmp_path), engine=engine)
    merge_head = again.relation("t").graph.head("master")
    assert live_keys(again) == merged
    assert {
        r.key(SCHEMA) for r in again.relation("t").checkout(merge_head)
    } == merged
    assert_pk_index_agrees(again, "master")


#: (point, engine, torn bytes) for a crash in the commit after a merge:
#: the heap flush and the graph frame, each whole or torn as their own
#: matrices tear them.
AFTER_MERGE_CASES = [
    (point, engine, torn)
    for point, torns in (
        ("heap-flush-pre-fsync", (0, 3, 4)),
        ("graph-persist-pre-fsync", (0, 3)),
    )
    for torn in torns
    for engine in ENGINES
]


@pytest.mark.parametrize(("point", "engine", "torn_bytes"), AFTER_MERGE_CASES)
def test_merge_of_an_unflushed_source_survives_a_crash(
    tmp_path, point, engine, torn_bytes
):
    """Dev's writes are neither committed nor flushed when dev merges into
    master.  The merge commit makes the copies master now reads durable
    (the bitmap engines share dev's copies rather than copy them), so a
    crash in a later commit on another branch leaves master merged."""
    db = seed_database(tmp_path, engine)
    rel = db.relation("t")
    rel.branch("dev", from_branch="master")
    rel.branch("other", from_branch="master")
    rel.insert("dev", record(300, 3))
    rel.update("dev", record(5, 55))
    rel.merge("master", "dev")
    rel.insert("other", record(700, 7))
    with pytest.raises(InjectedCrash):
        with inject(FaultSchedule(point, torn_bytes=torn_bytes)):
            rel.commit("other")
    reopened = Decibel.open(str(tmp_path), engine=engine)
    baseline = set(range(10)) | {100}
    assert live_keys(reopened) == baseline | {300}
    rows = {r.key(SCHEMA): r.values[1] for r in reopened.relation("t").scan("master")}
    assert rows[5] == 55 and rows[300] == 3
    assert live_keys(reopened, "dev") == baseline
    assert live_keys(reopened, "other") in (baseline, baseline | {700})
    assert_pk_index_agrees(reopened, "master")
    assert_pk_index_agrees(reopened, "dev")


@pytest.mark.parametrize("torn_bytes", [0, 3])
@pytest.mark.parametrize("engine", ENGINES)
def test_retire_branch_crash(tmp_path, engine, torn_bytes):
    """Retiring a branch is one graph frame: a torn frame leaves the branch
    active, an intact one retires it, and the data survives either way."""
    db = seed_database(tmp_path, engine)
    rel = db.relation("t")
    rel.branch("dev", from_branch="master")
    with pytest.raises(InjectedCrash):
        with inject(FaultSchedule("graph-persist-pre-fsync", torn_bytes=torn_bytes)):
            rel.graph.retire_branch("dev")
            db.flush()
    reopened = Decibel.open(str(tmp_path), engine=engine)
    graph = reopened.relation("t").graph
    assert graph.branch("dev").active is (torn_bytes > 0)
    baseline = set(range(10)) | {100}
    assert live_keys(reopened, "dev") == baseline
    if graph.branch("dev").active:
        graph.retire_branch("dev")
    txn = reopened.transactions("t").begin()
    txn.insert("master", record(400, 4))
    txn.commit()
    again = Decibel.open(str(tmp_path), engine=engine)
    assert again.relation("t").graph.branch_names(active_only=True) == ["master"]
    assert live_keys(again) == baseline | {400}
    assert live_keys(again, "dev") == baseline


#: (engine, crashpoint, torn bytes) at which recovery's own redo commit
#: dies: the graph frame untorn (the torn case is
#: ``test_double_crash_during_recovery``).
REDO_CRASH_CASES = [("graph-persist-pre-fsync", engine, 0) for engine in ENGINES]


@pytest.mark.parametrize(("point", "engine", "torn_bytes"), REDO_CRASH_CASES)
def test_crash_inside_redo_converges(tmp_path, point, engine, torn_bytes):
    """A crash inside recovery's redo commit still converges on the next
    open, with the redone insert present exactly once."""
    db = seed_database(tmp_path, engine)
    txn = db.transactions("t").begin()
    txn.insert("master", record(600, 6))
    with pytest.raises(InjectedCrash):
        with inject(FaultSchedule("graph-persist-pre-fsync", torn_bytes=3)):
            txn.commit("first crash")
    with pytest.raises(InjectedCrash):
        with inject(FaultSchedule(point, torn_bytes=torn_bytes)):
            Decibel.open(str(tmp_path), engine=engine)
    reopened = Decibel.open(str(tmp_path), engine=engine)
    assert live_keys(reopened) == set(range(10)) | {100, 600}
    assert key_copies(reopened, "master", 600) == 1
    again = Decibel.open(str(tmp_path), engine=engine)
    assert again.last_recovery.needs_redo == set()
    assert live_keys(again) == set(range(10)) | {100, 600}
    assert_pk_index_agrees(again)


def test_consistency_check_counts_the_chain_walk(tmp_path):
    """A built version-first branch whose live bits lost a live key fails
    the consistency check: the check reads the chain walk, not the bits it
    verifies."""
    db = seed_database(tmp_path, "version-first")
    storage = db.relation("t").engine
    assert storage.live_bits_built("master")
    db._verify_consistency()
    segment_id, ordinal = storage.key_location("master", 7)
    storage._local_bitmaps[segment_id].clear(ordinal, "master")
    with pytest.raises(CorruptionError, match="disagrees with live records"):
        db._verify_consistency()


class TestRecoveryDetails:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_crash_between_commit_and_apply_is_redone(self, tmp_path, engine):
        """A committed-but-unapplied transaction is redone exactly once."""
        db = seed_database(tmp_path, engine)
        txn = db.transactions("t").begin()
        txn.insert("master", record(500, 5))
        with pytest.raises(InjectedCrash):
            # The graph frame is appended inside engine.commit, after the WAL
            # COMMIT record; tearing it leaves the transaction committed but
            # not applied.
            with inject(FaultSchedule("graph-persist-pre-fsync", torn_bytes=3)):
                txn.commit("will need redo")
        reopened = Decibel.open(str(tmp_path), engine=engine)
        report = reopened.last_recovery
        assert txn.transaction_id in report.committed
        assert 500 in live_keys(reopened)
        rows = [
            r
            for r in reopened.relation("t").scan("master")
            if r.key(SCHEMA) == 500
        ]
        assert len(rows) == 1, "redo duplicated the insert"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_lost_first_commit_id_is_reused_cleanly(self, tmp_path, engine):
        """A branch's first commit dies with its graph frame torn.  The next
        commit reuses the lost id, and checking it out shows the new state,
        not the lost one's leftovers."""
        db = seed_database(tmp_path, engine)
        rel = db.relation("t")
        rel.branch("dev", from_branch="master")
        rel.insert("dev", record(300, 3))
        with pytest.raises(InjectedCrash):
            with inject(FaultSchedule("graph-persist-pre-fsync", torn_bytes=3)):
                rel.commit("dev")
        lost = rel.graph.head("dev")
        reopened = Decibel.open(str(tmp_path), engine=engine)
        rel = reopened.relation("t")
        baseline = set(range(10)) | {100}
        assert live_keys(reopened, "dev") == baseline
        rel.delete("dev", 3)
        reused = rel.commit("dev")
        assert reused == lost
        again = Decibel.open(str(tmp_path), engine=engine)
        assert again.relation("t").graph.head("dev") == reused
        expected = baseline - {3}
        assert live_keys(again, "dev") == expected
        assert {
            r.key(SCHEMA) for r in again.relation("t").checkout(reused)
        } == expected

    @pytest.mark.parametrize("engine", ENGINES)
    def test_clean_reopen_has_no_work(self, tmp_path, engine):
        db = seed_database(tmp_path, engine)
        db.close()
        reopened = Decibel.open(str(tmp_path), engine=engine)
        report = reopened.last_recovery
        assert report.needs_redo == set()
        assert live_keys(reopened) == set(range(10)) | {100}

    @pytest.mark.parametrize("crash", ["loser-commit", "create-branch"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_open_after_crash_builds_no_key_index(self, tmp_path, engine, crash):
        """Recovery with nothing to redo leaves the key index unbuilt; the
        first pk lookup builds it once."""
        db = seed_database(tmp_path, engine)
        if crash == "loser-commit":
            txn = db.transactions("t").begin()
            txn.insert("master", record(200, 2))
            # The torn COMMIT record makes the transaction a loser.
            with pytest.raises(InjectedCrash):
                with inject(
                    FaultSchedule("wal-group-commit-pre-fsync", torn_bytes=3)
                ):
                    txn.commit()
        else:
            with pytest.raises(InjectedCrash):
                with inject(FaultSchedule("graph-persist-pre-fsync")):
                    db.relation("t").branch("dev", from_branch="master")
        reopened = Decibel.open(str(tmp_path), engine=engine)
        assert reopened.last_recovery.needs_redo == set()
        key_index = reopened.relation("t").engine.key_index
        assert not key_index.built and key_index.builds == 0
        assert_pk_index_agrees(reopened)
        assert key_index.builds == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_double_crash_during_recovery(self, tmp_path, engine):
        """Crashing *inside recovery* still converges on the next open."""
        db = seed_database(tmp_path, engine)
        txn = db.transactions("t").begin()
        txn.insert("master", record(600, 6))
        # The first crash tears the commit's graph frame, so recovery has a
        # redo (and a redo commit) to perform.
        with pytest.raises(InjectedCrash):
            with inject(FaultSchedule("graph-persist-pre-fsync", torn_bytes=3)):
                txn.commit("first crash")
        # Second crash: die during the recovery's own redo commit.
        with pytest.raises(InjectedCrash):
            with inject(FaultSchedule("graph-persist-pre-fsync", torn_bytes=3)):
                Decibel.open(str(tmp_path), engine=engine)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        assert 600 in live_keys(reopened)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_transaction_ids_unique_across_restart(self, tmp_path, engine):
        db = seed_database(tmp_path, engine)
        txn = db.transactions("t").begin()
        txn.insert("master", record(700, 7))
        with pytest.raises(InjectedCrash):
            # BEGIN and WRITE are already in the log when the COMMIT fsync
            # dies, so reopen must resume ids past this transaction's.
            with inject(FaultSchedule("wal-group-commit-pre-fsync")):
                txn.commit("loser")
        reopened = Decibel.open(str(tmp_path), engine=engine)
        new_txn = reopened.transactions("t").begin()
        assert new_txn.transaction_id != txn.transaction_id

    @pytest.mark.parametrize("engine", ENGINES)
    def test_torn_wal_tail_is_noted_once(self, tmp_path, engine):
        seed_database(tmp_path, engine).close()
        wal = tmp_path / "wal.log"
        os.truncate(wal, os.path.getsize(wal) - 3)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        torn = [
            note
            for note in reopened.last_recovery.notes
            if "truncated torn WAL tail" in note
        ]
        assert len(torn) == 1, reopened.last_recovery.notes

    @pytest.mark.parametrize("engine", ["tuple-first", "hybrid"])
    def test_flipped_graph_frame_byte_is_detected(
        self, tmp_path, engine, monkeypatch
    ):
        """A bit flip inside the graph frame that carries master's bitmap
        deltas raises on open in strict mode instead of restoring a wrong
        bitmap (and a wrong row count)."""
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", "1")
        db = seed_database(tmp_path, engine)
        manager = db.transactions("t")
        for key in range(200, 206):
            txn = manager.begin()
            txn.insert("master", record(key, key))
            txn.commit()
        db.close()
        path = tmp_path / "t" / "version_graph.log"
        payloads = read_framed(str(path))
        # The frame of the commit that inserted key 200: five frames follow.
        index = len(payloads) - 6
        (event,) = decode_events(payloads[index])
        assert event["branch"] == "master" and event["state"]
        # The first byte of the RLE bytes that end the commit's state.
        state = event["state"]
        _, rle = state if isinstance(state, tuple) else list(state.values())[-1]
        assert rle and payloads[index].endswith(rle)
        flip_frame_byte(path, index, len(payloads[index]) - len(rle))
        with pytest.raises(CorruptionError):
            Decibel.open(str(tmp_path), engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_flipped_last_graph_frame_reopens_at_previous_commit_plus_redo(
        self, tmp_path, engine, monkeypatch
    ):
        """Degraded recovery drops a last graph frame with a flipped byte:
        master reopens at its previous commit, no bitmap comes from the
        damaged deltas, and the WAL redoes the committed transaction on top
        of it, row for row."""
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", "0")
        db = seed_database(tmp_path, engine)
        previous = db.relation("t").graph.head("master")
        baseline = {record(i, i * 10).values for i in range(10)} | {(100, 1)}
        txn = db.transactions("t").begin()
        txn.update("master", record(5, 555))
        txn.delete("master", 7)
        txn.insert("master", record(200, 2))
        with pytest.raises(InjectedCrash):
            with inject(FaultSchedule("graph-persist-pre-fsync")):
                txn.commit("frame gets damaged")
        path = tmp_path / "t" / "version_graph.log"
        flip_frame_byte(path, len(read_framed(str(path))) - 1, 2)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        report = reopened.last_recovery
        assert report.needs_redo == {txn.transaction_id}
        assert any("version graph" in note for note in report.notes)
        expected = (baseline - {(5, 50), (7, 70)}) | {(5, 555), (200, 2)}
        rel = reopened.relation("t")
        assert {r.values for r in rel.scan("master")} == expected
        head = rel.graph.head("master")
        assert rel.graph.get_commit(head).parents == (previous,)
        assert {r.values for r in rel.checkout(previous)} == baseline
        assert {r.values for r in rel.checkout(head)} == expected
        assert_pk_index_agrees(reopened)
        again = Decibel.open(str(tmp_path), engine=engine)
        assert again.last_recovery.needs_redo == set()
        assert {r.values for r in again.relation("t").scan("master")} == expected

    @pytest.mark.parametrize("strict", ["1", "0"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_committed_write_the_schema_rejects_is_never_redone_in_part(
        self, tmp_path, engine, strict, monkeypatch
    ):
        """A committed, unapplied transaction whose logged WRITE the schema
        rejects (a float, as builds that checked records only at flush
        could log) is never partly redone.  Strict recovery raises naming
        the log and the transaction; degraded recovery skips the whole
        transaction with a note and still redoes the one after it."""
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", strict)
        seed_database(tmp_path, engine).close()
        baseline = {record(i, i * 10).values for i in range(10)} | {(100, 1)}
        poisoned, later = 50, 51

        def write(txn, kind, values):
            return LogRecord(
                LogRecordType.WRITE,
                txn,
                branch="master",
                payload={"kind": kind, "values": values},
                relation="t",
            )

        entries = [
            LogRecord(LogRecordType.BEGIN, poisoned, relation="t"),
            write(poisoned, "insert", [200, 2]),
            write(poisoned, "update", [5, 2.5]),
            LogRecord(LogRecordType.COMMIT, poisoned, relation="t"),
            LogRecord(LogRecordType.BEGIN, later, relation="t"),
            write(later, "insert", [300, 3]),
            LogRecord(LogRecordType.COMMIT, later, relation="t"),
        ]
        with open(tmp_path / "wal.log", "ab") as handle:
            for entry in entries:
                handle.write(frame(entry.to_json().encode("utf-8")))
        if strict == "1":
            with pytest.raises(CorruptionError) as caught:
                Decibel.open(str(tmp_path), engine=engine)
            assert caught.value.file == str(tmp_path / "wal.log")
            assert f"transaction {poisoned} " in str(caught.value)
            return
        reopened = Decibel.open(str(tmp_path), engine=engine)
        notes = reopened.last_recovery.notes
        assert [n for n in notes if f"transaction {poisoned}:" in n], notes
        expected = baseline | {(300, 3)}
        assert {r.values for r in reopened.relation("t").scan("master")} == expected
        assert_pk_index_agrees(reopened)
        reopened.close()
        again = Decibel.open(str(tmp_path), engine=engine)
        assert again.last_recovery.needs_redo == set()
        assert again.last_recovery.notes == []
        assert {r.values for r in again.relation("t").scan("master")} == expected


# -- hypothesis-driven matrix -------------------------------------------------

workload_steps = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "branch"]),
        st.integers(min_value=0, max_value=19),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=8,
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    steps=workload_steps,
    crash_index=st.integers(min_value=0, max_value=len(CRASHPOINTS) - 1),
)
@pytest.mark.parametrize("engine", ENGINES)
def test_generated_workloads_recover(tmp_path_factory, engine, steps, crash_index):
    """Random workloads, crashed at a random point, recover to model state."""
    directory = tmp_path_factory.mktemp("db")
    point = CRASHPOINTS[crash_index]
    db = Decibel(str(directory), engine=engine)
    rel = db.create_relation("t", SCHEMA)
    rel.init([record(i, i) for i in range(10)])
    model = {"master": {i: i for i in range(10)}}
    branches = ["master"]

    # Apply the committed prefix of the workload (everything but the last
    # step) through individual committed transactions, mirrored in the model.
    manager = db.transactions("t")
    committed_steps, final_step = steps[:-1], steps[-1]
    for action, key, payload in committed_steps:
        branch = branches[key % len(branches)]
        if action == "branch":
            name = f"b{len(branches)}"
            rel.branch(name, from_branch=branch)
            model[name] = dict(model[branch])
            branches.append(name)
            continue
        txn = manager.begin()
        if action == "insert" and key not in model[branch]:
            txn.insert(branch, record(key, payload))
            model[branch][key] = payload
        elif action == "update" and key in model[branch]:
            txn.update(branch, record(key, payload))
            model[branch][key] = payload
        elif action == "delete" and key in model[branch]:
            txn.delete(branch, key)
            del model[branch][key]
        txn.commit()

    # The final step runs under an armed crashpoint.
    action, key, payload = final_step
    branch = branches[key % len(branches)]
    crashed = False
    victim = None
    if action == "branch" or key % 2 == 0:
        victim = manager.begin()
        victim.insert(branch, record(1000 + key, payload))
    else:
        victim = manager.begin()
        if key in model[branch]:
            victim.delete(branch, key)
        else:
            victim.insert(branch, record(key, payload))
    try:
        with inject(FaultSchedule(point)):
            victim.commit("maybe dies")
    except InjectedCrash:
        crashed = True

    reopened = Decibel.open(str(directory), engine=engine)
    report = reopened.last_recovery
    survived = not crashed or victim.transaction_id in report.committed
    for name in branches:
        expected = dict(model[name])
        if survived and name == branch:
            # Replay the victim's effect into the model.
            if action == "branch" or key % 2 == 0:
                expected[1000 + key] = payload
            elif key in expected:
                del expected[key]
            else:
                expected[key] = payload
        got = {
            r.key(SCHEMA): r.values[1]
            for r in reopened.relation("t").scan(name)
        }
        assert got == expected, (
            f"branch {name!r} diverged after crash at {point} "
            f"(crashed={crashed}, survived={survived})"
        )


class TestServingLayerCrash:
    """The PR-8 recovery path, driven through the serving layer.

    A server session's commit dies at the WAL group-commit fsync.  The
    client got no ACK, so either outcome is legitimate -- the commit
    record reached the log (visible in full after recovery) or it did
    not (no trace) -- but a *partial* commit or a lost previously-ACKed
    commit is never acceptable.  The multi-writer no-lost-ACK variant
    lives in tests/test_server_faults.py.
    """

    def test_crashed_server_commit_is_all_or_nothing(self, tmp_path):
        from repro.errors import DecibelError
        from repro.server import DecibelClient, ServerConfig, ServerThread

        db = seed_database(tmp_path, "hybrid")
        server = ServerThread(db, ServerConfig(worker_threads=2), own_db=True)
        host, port = server.start()
        with DecibelClient(host, port, max_attempts=1) as client:
            client.connect()
            # One ACKed commit before the crash: it must survive.
            client.insert("t", [300, 3])
            client.commit("durable")
            # The next commit dies at its group fsync: no ACK, no trace.
            client.insert("t", [400, 4])
            with inject(FaultSchedule("wal-group-commit-pre-fsync")) as injector:
                with pytest.raises((DecibelError, ConnectionError, OSError)):
                    client.commit("dies at fsync")
                server.stop()
                assert injector.crashed
        reopened = Decibel.open(str(tmp_path), engine="hybrid")
        live = live_keys(reopened)
        baseline = set(range(10)) | {100, 300}
        assert live in (baseline, baseline | {400}), (
            f"recovered state is neither pre- nor post-commit: {sorted(live)}"
        )
