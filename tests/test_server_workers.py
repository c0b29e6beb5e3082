"""The server's worker set: threads start only when every worker is busy.

:class:`~repro.server.server.WorkerSet` replaces a ``ThreadPoolExecutor``
that counted a worker idle only after its result was delivered, so two
lock-step sessions kept starting threads up to the cap.  These tests pin
the thread count to the concurrency the server sees, the cap, and the
executor contract the server relies on: any exception reaches the future,
``submit`` after shutdown raises ``RuntimeError``, a request still running
at interpreter exit finishes, and an
:class:`~repro.testing.faults.InjectedCrash` in a worker kills the server.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.core.record import Record
from repro.core.schema import Schema
from repro.db.database import Decibel
from repro.errors import DecibelError
from repro.server import DecibelClient, ServerConfig, ServerThread
from repro.server.server import DecibelServer, WorkerSet
from repro.testing.faults import FaultSchedule, InjectedCrash, inject

SRC = Path(__file__).resolve().parent.parent / "src"
SCHEMA = Schema.of_ints(2)
POINT_SQL = "SELECT * FROM r WHERE r.Version = 'master' AND r.id = {}"


@pytest.fixture
def served(tmp_path):
    """A started server over a 20-row relation; yields its thread."""

    def start(**config):
        db = Decibel(str(tmp_path / "data"))
        db.create_relation("r", SCHEMA).init([Record((i, i)) for i in range(20)])
        thread = ServerThread(db, ServerConfig(**config), own_db=True)
        thread.start()
        started.append(thread)
        return thread

    started: list[ServerThread] = []
    yield start
    for thread in started:
        thread.stop()


def test_lock_step_sessions_start_one_worker_each(served):
    server = served()  # the default cap of 8 workers
    host, port = server.address
    gate = threading.Barrier(2, timeout=30)
    answers: list[list] = [[], []]
    errors: list[BaseException] = []

    def session(index: int) -> None:
        try:
            with DecibelClient(host, port) as client:
                client.connect()
                for step in range(200):
                    gate.wait()
                    answers[index].append(client.query(POINT_SQL.format(step % 20)).rows)
        except BaseException as exc:  # reported below
            errors.append(exc)
            gate.abort()

    threads = [threading.Thread(target=session, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    assert answers[0] == answers[1] == [[(i % 20, i % 20)] for i in range(200)]
    with DecibelClient(host, port) as client:
        client.connect()
        assert client.server_stats()["workers_started"] <= 2


def test_workers_never_exceed_the_cap(served, monkeypatch):
    running = 0
    peak = 0
    threads_seen: set[str] = set()
    lock = threading.Lock()

    def slow(server, session, params):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
            threads_seen.add(threading.current_thread().name)
        time.sleep(0.1)
        with lock:
            running -= 1
        return {"slept": params["n"]}

    monkeypatch.setitem(DecibelServer._OPS, "slow", slow)
    server = served(worker_threads=3)
    host, port = server.address
    answers: dict[int, dict] = {}
    errors: list[BaseException] = []

    def request(n: int) -> None:
        try:
            with DecibelClient(host, port) as client:
                client.connect()
                answers[n] = client.call("slow", n=n)
        except BaseException as exc:  # reported below
            errors.append(exc)

    clients = [threading.Thread(target=request, args=(n,)) for n in range(8)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=60)
    assert not errors, errors
    assert answers == {n: {"slept": n} for n in range(8)}
    assert peak == 3
    assert len(threads_seen) == 3
    assert all(name.startswith("decibel-worker") for name in threads_seen)
    assert server.server._pool.started == 3


def test_submit_after_shutdown_raises():
    pool = WorkerSet(2, thread_name_prefix="test-worker")
    queued = pool.submit(sum, (1, 2))
    pool.shutdown(wait=True)
    assert queued.result(timeout=5) == 3
    with pytest.raises(RuntimeError):
        pool.submit(sum, (1, 2))


def test_a_request_running_at_exit_finishes(tmp_path):
    """Workers are joined when the interpreter exits.  A request still
    running after ``shutdown(wait=False)`` -- as the server's stop leaves a
    straggler -- finishes its work, and a worker set never shut down does
    not keep the process alive."""
    marker = tmp_path / "finished"
    script = textwrap.dedent(
        f"""
        import threading, time
        from repro.server.server import WorkerSet

        running = threading.Event()

        def request():
            running.set()
            time.sleep(0.5)
            with open({str(marker)!r}, "w") as out:
                out.write("done")

        stopped = WorkerSet(2)
        stopped.submit(request)
        running.wait()
        stopped.shutdown(wait=False)
        never_stopped = WorkerSet(2)
        assert never_stopped.submit(pow, 2, 3).result() == 8
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert marker.read_text() == "done"


def test_any_exception_reaches_the_future():
    pool = WorkerSet(1)
    try:

        def crash():
            raise InjectedCrash("worker died")

        with pytest.raises(InjectedCrash):
            pool.submit(crash).result(timeout=5)
        # The worker survives to serve the next request.
        assert pool.submit(pow, 2, 10).result(timeout=5) == 1024
        assert pool.started == 1
    finally:
        pool.shutdown(wait=True)


def test_many_submitters_keep_the_counts():
    """Eight threads submit 250 requests each to at most four workers with
    a short switch interval: each request runs once, at most four at a
    time, and once all are answered every started worker counts as idle
    (a lost update to the idle count would leave it off)."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    pool = WorkerSet(4)
    running = 0
    peak = 0
    lock = threading.Lock()

    def request(n: int) -> int:
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
        with lock:
            running -= 1
        return n

    futures: list = []

    def submitter(first: int) -> None:
        mine = [pool.submit(request, n) for n in range(first, first + 250)]
        with lock:
            futures.extend(mine)

    try:
        threads = [
            threading.Thread(target=submitter, args=(250 * i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(f.result(timeout=60) for f in futures) == list(range(2000))
        assert peak <= 4
        assert 1 <= pool.started <= 4
        assert pool._idle == pool.started
    finally:
        sys.setswitchinterval(previous)
        pool.shutdown(wait=True)


def test_injected_crash_in_a_worker_kills_the_server(served):
    server = served()
    host, port = server.address
    with DecibelClient(host, port, max_attempts=1) as client:
        client.connect()
        client.insert("r", [100, 100])
        with inject(FaultSchedule("heap-flush-pre-fsync")) as injector:
            with pytest.raises((DecibelError, ConnectionError, OSError)):
                client.commit("dies")
        assert injector.crashed
    assert server.server._dead
    # A dead server serves nothing: a new session is hung up on.
    with DecibelClient(host, port, max_attempts=1) as late:
        with pytest.raises((DecibelError, ConnectionError, OSError)):
            late.connect()
            late.query(POINT_SQL.format(1))
