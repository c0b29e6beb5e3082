"""Concurrency suite for the serving layer.

The claims under test, straight from the design:

* **Snapshot isolation** -- a soak of 16+ concurrent sessions (writers
  committing row batches on sibling branches, readers counting them) never
  observes a partially applied commit: every count is a whole number of
  committed batches and never goes backwards.
* **Deadlines release resources** -- a write blocked on a peer's branch
  lock fails with a structured retryable error when its budget expires,
  and the branch is fully usable immediately afterwards.
* **Overload degrades, never hangs** -- admission control answers with a
  fast, structured ``overloaded`` error carrying a retry hint.
* **Interleaved session state machines stay consistent** -- a
  hypothesis-generated interleaving of inserts / commits / aborts /
  queries across sessions always leaves exactly the committed rows
  visible.
"""

from __future__ import annotations

import itertools
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.record import Record
from repro.core.schema import Schema
from repro.db.database import Decibel
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    TransactionError,
    UnavailableError,
)
from repro.server import DecibelClient, ServerConfig, ServerThread

SCHEMA = Schema.of_ints(2)


def make_server(tmp_path, rows=0, **config_kwargs):
    db = Decibel(str(tmp_path / "data"))
    rel = db.create_relation("r", SCHEMA)
    rel.init([Record((i, i)) for i in range(rows)])
    config = ServerConfig(
        worker_threads=8,
        idle_timeout_s=30.0,
        io_timeout_s=15.0,
        **config_kwargs,
    )
    thread = ServerThread(db, config, own_db=True)
    return db, thread


class TestSnapshotIsolationSoak:
    BRANCHES = 4
    READERS_PER_BRANCH = 3
    BATCH = 5
    COMMITS = 5

    def test_sixteen_session_soak(self, tmp_path):
        """4 writer + 12 reader sessions; zero isolation violations."""
        db, server = make_server(
            tmp_path, rows=0, max_sessions=24, max_queue_depth=64
        )
        host, port = server.start()
        branches = [f"b{i}" for i in range(self.BRANCHES)]
        with DecibelClient(host, port) as admin:
            admin.connect()
            for branch in branches:
                admin.create_branch("r", branch, from_branch="master")

        errors: list[BaseException] = []
        violations: list[str] = []
        writers_done = threading.Event()
        key_blocks = itertools.count()

        def writer(branch):
            try:
                with DecibelClient(host, port, default_deadline_s=30.0) as c:
                    c.connect()
                    c.use_branch(branch)
                    for _ in range(self.COMMITS):
                        base = next(key_blocks) * self.BATCH
                        for k in range(self.BATCH):
                            c.insert("r", [base + k, base + k])
                        c.commit(f"batch {base} on {branch}")
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def reader(branch):
            try:
                with DecibelClient(host, port, default_deadline_s=30.0) as c:
                    c.connect()
                    last = 0
                    while not writers_done.is_set():
                        res = c.query(
                            f"SELECT COUNT(*) FROM r WHERE r.Version = '{branch}'"
                        )
                        (count,) = res.rows[0]
                        if count % self.BATCH != 0:
                            violations.append(
                                f"{branch}: count {count} is not a whole "
                                f"number of {self.BATCH}-row commits"
                            )
                            return
                        if count < last:
                            violations.append(
                                f"{branch}: count went backwards "
                                f"({last} -> {count})"
                            )
                            return
                        last = count
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(b,)) for b in branches
        ] + [
            threading.Thread(target=reader, args=(b,))
            for b in branches
            for _ in range(self.READERS_PER_BRANCH)
        ]
        assert len(threads) >= 16
        for t in threads:
            t.start()
        for t in threads[: self.BRANCHES]:
            t.join(timeout=120)
        writers_done.set()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "soak threads hung"
        server.stop()
        assert errors == [], f"session errors: {errors!r}"
        assert violations == [], "\n".join(violations)

        # Final state: every branch holds exactly its committed batches.
        reopened = Decibel.open(str(tmp_path / "data"))
        total = 0
        for branch in branches:
            count = reopened.relation("r").engine.count_branch(branch)
            assert count % self.BATCH == 0
            total += count
        assert total == self.BRANCHES * self.COMMITS * self.BATCH
        reopened.close()


class TestDeadlines:
    def test_blocked_writer_deadline_frees_the_branch(self, tmp_path):
        db, server = make_server(tmp_path, rows=4)
        host, port = server.start()
        try:
            with DecibelClient(host, port) as holder, DecibelClient(
                host, port
            ) as blocked:
                holder.connect()
                blocked.connect()
                # holder takes the master branch lock and sits on it.
                holder.insert("r", [500, 500])
                # blocked cannot get the lock inside its budget: it must get
                # a structured retryable error, not a hang.
                start = time.monotonic()
                with pytest.raises(
                    (DeadlineExceededError, TransactionError)
                ) as excinfo:
                    blocked.insert("r", [501, 501], deadline_s=0.4)
                assert time.monotonic() - start < 5.0
                assert excinfo.value.retryable
                blocked.abort()
                # holder finishes; the branch must be immediately usable.
                holder.commit("holder wins")
                blocked.insert("r", [501, 501], deadline_s=10.0)
                blocked.commit("blocked retries fine")
                res = blocked.query(
                    "SELECT COUNT(*) FROM r WHERE r.Version = 'master'"
                )
                assert res.rows == [(6,)]
        finally:
            server.stop()

    def test_expired_query_returns_deadline_error(self, tmp_path):
        # Enough rows that the scan passes many cancellation checkpoints.
        # The predicate keeps every row but makes COUNT(*) scan them; a bare
        # COUNT(*) is a bitmap popcount that reads no row at all.
        query = "SELECT COUNT(*) FROM r WHERE r.Version = 'master' AND r.id >= 0"
        db, server = make_server(tmp_path, rows=20_000)
        host, port = server.start()
        try:
            with DecibelClient(host, port) as c:
                c.connect()
                saw_deadline = False
                for _ in range(20):
                    try:
                        c.query(
                            query,
                            deadline_s=0.001,
                        )
                    except DeadlineExceededError as exc:
                        assert exc.code == "deadline-exceeded"
                        assert exc.retryable
                        saw_deadline = True
                        break
                assert saw_deadline, "1ms budget never expired over 20 tries"
                # The session (and its snapshot bookkeeping) must still work.
                res = c.query(
                    query,
                    deadline_s=30.0,
                )
                assert res.rows == [(20_000,)]
                stats = c.server_stats()
                assert stats["snapshots_active"] == 0, "deadline leaked a snapshot"
        finally:
            server.stop()


class TestOverload:
    def test_session_overflow_is_rejected_fast(self, tmp_path):
        db, server = make_server(tmp_path, rows=2, max_sessions=2)
        host, port = server.start()
        held = []
        try:
            for _ in range(2):
                c = DecibelClient(host, port)
                c.connect()
                held.append(c)
            extra = DecibelClient(host, port, max_attempts=2)
            start = time.monotonic()
            with pytest.raises((OverloadedError, UnavailableError)) as excinfo:
                extra.ping()
            elapsed = time.monotonic() - start
            assert elapsed < 3.0, f"overload rejection took {elapsed:.1f}s"
            assert excinfo.value.retryable
            if isinstance(excinfo.value, OverloadedError):
                assert excinfo.value.retry_after_s > 0
            extra.close()
            # Capacity freed -> a new session is admitted.
            held.pop().close()
            time.sleep(0.05)
            replacement = DecibelClient(host, port)
            assert replacement.ping()
            replacement.close()
        finally:
            for c in held:
                c.close()
            server.stop()

    def test_queue_depth_overflow_is_structured(self, tmp_path):
        db, server = make_server(tmp_path, rows=2, max_queue_depth=0)
        host, port = server.start()
        try:
            with DecibelClient(host, port, max_attempts=2) as c:
                # Control plane stays up even at zero queue depth.
                assert c.ping()
                start = time.monotonic()
                with pytest.raises(OverloadedError) as excinfo:
                    c.query("SELECT COUNT(*) FROM r WHERE r.Version = 'master'")
                assert time.monotonic() - start < 3.0
                assert excinfo.value.retry_after_s > 0
                stats = c.server_stats()
                assert stats["overloaded_rejections"] >= 1
        finally:
            server.stop()


class TestInterleavings:
    """Hypothesis-generated op interleavings across two sessions."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "commit", "abort", "query"]),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=14,
        )
    )
    def test_interleaved_sessions_expose_only_committed_rows(
        self, tmp_path_factory, ops
    ):
        tmp_path = tmp_path_factory.mktemp("interleave")
        db, server = make_server(tmp_path, rows=0)
        host, port = server.start()
        keys = itertools.count()
        try:
            with DecibelClient(host, port) as a, DecibelClient(host, port) as b:
                a.connect()
                b.connect()
                # Each session works its own branch so the interleaving
                # exercises session state machines, not lock contention
                # (the soak and deadline tests cover contention).
                a.create_branch("r", "s0", from_branch="master")
                a.create_branch("r", "s1", from_branch="master")
                a.use_branch("s0")
                b.use_branch("s1")
                sessions = [a, b]
                pending = [0, 0]
                committed = [0, 0]
                for op, who in ops:
                    c = sessions[who]
                    if op == "insert":
                        k = next(keys)
                        c.insert("r", [k, k])
                        pending[who] += 1
                    elif op == "commit":
                        c.commit()
                        committed[who] += pending[who]
                        pending[who] = 0
                    elif op == "abort":
                        c.abort()
                        pending[who] = 0
                    else:
                        for idx in (0, 1):
                            res = c.query(
                                "SELECT COUNT(*) FROM r "
                                f"WHERE r.Version = 's{idx}'"
                            )
                            assert res.rows == [(committed[idx],)], (
                                f"s{idx}: saw {res.rows} with "
                                f"{committed[idx]} committed rows and "
                                f"{pending} pending"
                            )
                # Abort-time cleanup: pending writes must vanish.
                a.abort()
                b.abort()
                for idx in (0, 1):
                    res = a.query(
                        f"SELECT COUNT(*) FROM r WHERE r.Version = 's{idx}'"
                    )
                    assert res.rows == [(committed[idx],)]
        finally:
            server.stop()
