"""End-to-end crash-recovery matrix: workloads x crashpoints x engines.

Every test follows the same shape: run a workload through the transactional
API, inject a crash at a named point inside the final transaction's commit,
reopen the database directory with :meth:`Decibel.open`, and assert the two
durability invariants:

* **Committed is durable** -- every transaction whose COMMIT record reached
  the log is fully visible after recovery (redone if needed).
* **Losers are invisible** -- a transaction that crashed before its commit
  point leaves no trace.

A hypothesis-driven variant generates the workload (insert / update /
delete / branch mixes) and checks recovered state against an in-memory
model.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.record import Record
from repro.core.schema import Schema
from repro.db.database import Decibel
from repro.errors import CorruptionError
from repro.testing.faults import FaultSchedule, InjectedCrash, inject

#: Every named crashpoint the durable write paths register, spanning the WAL
#: COMMIT fsync, metadata atomic-writes, and commit-history appends.
CRASHPOINTS = [
    "wal-group-commit-pre-fsync",
    "graph-persist-mid-write",
    "graph-persist-pre-rename",
    "segment-meta-mid-write",
    "segment-meta-pre-rename",
    "history-append-pre-fsync",
    "commit-locations-mid-write",
    "commit-locations-pre-rename",
    "hybrid-meta-pre-fsync",
]

#: The crashpoints that guard an append to a live log (the WAL, commit
#: histories, the hybrid segment-metadata log), where a crash can also leave
#: a torn partial record behind.
APPEND_CRASHPOINTS = [
    "wal-group-commit-pre-fsync",
    "history-append-pre-fsync",
    "hybrid-meta-pre-fsync",
]

ENGINES = ["tuple-first", "version-first", "hybrid"]

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


def live_keys(db, branch="master"):
    return {r.key(SCHEMA) for r in db.relation("t").scan(branch)}


def assert_pk_index_agrees(db, branch="master"):
    """The reopened branch's pk map (rebuilt from storage) matches a scan."""
    storage = db.relation("t").engine
    expected = {r.key(SCHEMA): r.values for r in storage.scan_branch(branch)}
    assert sorted(storage.pk_index.keys(branch)) == sorted(expected)
    for key, values in expected.items():
        assert storage.record_for_key(branch, key).values == values


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
        crashed = self._crash(point, txn)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        assert live_keys(reopened) == set(range(10)) | {100}
        rows = {
            r.key(SCHEMA): r.values[1] for r in reopened.relation("t").scan("master")
        }
        if crashed and not self._committed(reopened, txn):
            assert rows[5] == 50, "uncommitted update leaked through recovery"
        else:
            assert rows[5] == 999, "committed update was lost"
        assert_pk_index_agrees(reopened)

    def test_delete_crash(self, tmp_path, engine, point):
        db = seed_database(tmp_path, engine)
        txn = db.transactions("t").begin()
        txn.delete("master", 7)
        crashed = self._crash(point, txn)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        keys = live_keys(reopened)
        if crashed and not self._committed(reopened, txn):
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
        crashed = self._crash(point, txn)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        # Master is untouched by the dev transaction either way.
        assert live_keys(reopened) == set(range(10)) | {100}
        dev = live_keys(reopened, "dev")
        if crashed and not self._committed(reopened, txn):
            assert dev == set(range(10)) | {100}
        else:
            assert dev == (set(range(10)) | {100, 300}) - {3}
        assert_pk_index_agrees(reopened, "master")
        assert_pk_index_agrees(reopened, "dev")

    # -- helpers ----------------------------------------------------------

    def _crash(self, point, txn):
        """Commit under an armed crashpoint; True if the crash fired."""
        try:
            schedule = FaultSchedule(point, torn_bytes=self.torn_bytes)
            with inject(schedule) as injector:
                txn.commit("under test")
        except InjectedCrash:
            assert injector.fired is not None
            return True
        return False

    @staticmethod
    def _committed(db, txn):
        """True if the transaction's COMMIT record survived in the log.

        Recovery checkpoints the WAL, so consult the recovery report rather
        than the (now truncated) log.
        """
        report = db.last_recovery
        return txn.transaction_id in report.committed

    def _crash_and_verify(self, tmp_path, engine, point, txn, victim_key):
        crashed = self._crash(point, txn)
        reopened = Decibel.open(str(tmp_path), engine=engine)
        keys = live_keys(reopened)
        baseline = set(range(10)) | {100}
        assert baseline <= keys, "committed baseline data was lost"
        if crashed and not self._committed(reopened, txn):
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


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("point", CRASHPOINTS)
class TestCrashMatrix(_CrashWorkloads):
    pass


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("point", APPEND_CRASHPOINTS)
class TestTornAppendMatrix(_CrashWorkloads):
    """The crash also tears the last 3 bytes off the log being appended,
    as if the record only partly reached the disk: recovery must truncate
    the torn frame and still land on the pre- or post-commit state."""

    torn_bytes = 3


class TestRecoveryDetails:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_crash_between_commit_and_apply_is_redone(self, tmp_path, engine):
        """A committed-but-unapplied transaction is redone exactly once."""
        db = seed_database(tmp_path, engine)
        txn = db.transactions("t").begin()
        txn.insert("master", record(500, 5))
        with pytest.raises(InjectedCrash):
            # The graph persist happens inside engine.commit, after the WAL
            # COMMIT record: the transaction is committed but not applied.
            with inject(FaultSchedule("graph-persist-mid-write")):
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
    def test_clean_reopen_has_no_work(self, tmp_path, engine):
        db = seed_database(tmp_path, engine)
        db.close()
        reopened = Decibel.open(str(tmp_path), engine=engine)
        report = reopened.last_recovery
        assert report.needs_redo == set()
        assert live_keys(reopened) == set(range(10)) | {100}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_double_crash_during_recovery(self, tmp_path, engine):
        """Crashing *inside recovery* still converges on the next open."""
        db = seed_database(tmp_path, engine)
        txn = db.transactions("t").begin()
        txn.insert("master", record(600, 6))
        with pytest.raises(InjectedCrash):
            with inject(FaultSchedule("graph-persist-mid-write")):
                txn.commit("first crash")
        # Second crash: die during the recovery's own redo commit.
        with pytest.raises(InjectedCrash):
            with inject(FaultSchedule("graph-persist-mid-write")):
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
    def test_flipped_commit_history_byte_is_detected(
        self, tmp_path, engine, monkeypatch
    ):
        """A bit-flipped commit-history entry raises on open in strict mode
        instead of restoring a wrong bitmap (and a wrong row count)."""
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", "1")
        db = seed_database(tmp_path, engine)
        manager = db.transactions("t")
        for key in range(200, 206):
            txn = manager.begin()
            txn.insert("master", record(key, key))
            txn.commit()
        db.close()
        histories = sorted((tmp_path / "t").glob("commits_master*.hist"))
        assert histories
        for path in histories:
            data = bytearray(path.read_bytes())
            data[27] ^= 0x01  # inside the first entry's RLE payload
            path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            Decibel.open(str(tmp_path), engine=engine)


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
