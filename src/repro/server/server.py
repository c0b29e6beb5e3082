"""The Decibel serving layer: concurrent sessions over one dataset.

An asyncio socket server speaking the length-prefixed JSON protocol of
:mod:`repro.server.protocol`.  Each connection is a *session* with its own
branch context and per-relation open transactions; blocking engine work
runs on a :class:`WorkerSet` of at most ``worker_threads`` threads, so the
event loop only ever shuffles frames.  A worker thread starts only when a
request arrives and every started worker is busy, so the thread count
follows the concurrency the server actually sees: two lock-step sessions
keep two workers, whatever the cap.

The robustness envelope, in one place:

* **Admission control** -- at most ``max_sessions`` concurrent
  connections (excess connections get a fast ``overloaded`` error with a
  ``retry_after_s`` hint and are closed) and at most ``max_queue_depth``
  requests executing at once (excess *requests* get the same error while
  the connection survives).
* **Deadlines** -- every request runs under a
  :class:`~repro.core.cancel.CancelScope` derived from the client's
  ``deadline_ms`` (clamped to ``max_deadline_s``).  Operators observe the
  scope at per-batch checkpoints, so an expired query unwinds through the
  normal ``finally`` paths: locks release, buffered writes abort.
* **Socket hygiene** -- idle connections and mid-frame stalls are bounded
  by ``idle_timeout_s`` / ``io_timeout_s``; a slow client costs its own
  connection, never a worker thread.
* **Snapshot-isolated reads** -- queries run against a
  :class:`~repro.versioning.snapshots.Snapshot`, never the live heads, so
  readers see pre-commit or post-commit states only and never block
  writers.  A primary-key point query plans an index scan through the
  snapshot as it does embedded: the engine's key-copy index finds the
  key's copies and the pinned commit's live bits pick the one it holds.
* **Group commit** -- every transaction's COMMIT record goes through
  :meth:`~repro.core.wal.WriteAheadLog.append_group`, so concurrent
  session committers share WAL fsyncs (leader syncs the batch, followers
  wait).
* **Graceful drain** -- shutdown stops admitting, waits for in-flight
  requests up to ``drain_timeout_s``, cancels stragglers, then flushes
  and checkpoints.

Fault injection: an :class:`~repro.testing.faults.InjectedCrash` escaping
a worker thread marks the whole server dead -- every connection is
aborted without a response and no further frame is ever sent, modelling a
process kill mid-request for the crash-recovery suite.
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import math
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.cancel import CancelScope, use_scope
from repro.core.record import Record
from repro.db.database import Decibel
from repro.errors import (
    DeadlineExceededError,
    DecibelError,
    OverloadedError,
    ProtocolError,
    QueryCancelledError,
    UnavailableError,
)
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    error_response,
    ok_response,
    read_frame,
    write_frame,
)
from repro.testing.faults import InjectedCrash


@dataclass
class ServerConfig:
    """Tunables for one :class:`DecibelServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick; read the bound port from .address
    #: Admission control: connection + request-queue bounds.
    max_sessions: int = 32
    max_queue_depth: int = 64
    worker_threads: int = 8
    #: Deadline policy (seconds).
    default_deadline_s: float = 10.0
    max_deadline_s: float = 60.0
    #: Extra wall-clock grace past a request's deadline before the server
    #: stops waiting for its worker thread and answers deadline-exceeded
    #: itself (the thread still unwinds at its next checkpoint).
    deadline_grace_s: float = 2.0
    #: Socket hygiene (seconds).
    idle_timeout_s: float = 60.0
    io_timeout_s: float = 10.0
    drain_timeout_s: float = 5.0
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Retry hint attached to overload rejections.
    retry_after_s: float = 0.05


#: Fixed log-scale bucket upper bounds: 100 microseconds doubling up to
#: ~14 minutes.  Fixed (not adaptive) so two histograms -- or two runs --
#: are always bucket-for-bucket comparable.
LATENCY_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    0.0001 * (2 ** i) for i in range(24)
)


class LatencyHistogram:
    """Log-scale latency histogram with cheap percentile estimates.

    Observations are O(log buckets) via bisect; percentiles are read off
    bucket upper bounds, so an estimate errs at most one octave high and
    never under-reports.  The final overflow bucket reports the true
    maximum.  Written only from the event loop (one writer), so the
    ``stats`` op can read it without locking.
    """

    __slots__ = ("counts", "count", "total_s", "max_s")

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        index = bisect.bisect_left(LATENCY_BUCKET_BOUNDS, seconds)
        self.counts[index] += 1
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 < q <= 1)."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(LATENCY_BUCKET_BOUNDS):
                    return LATENCY_BUCKET_BOUNDS[index]
                return self.max_s
        return self.max_s

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "max_s": self.max_s,
            "p50_s": self.percentile(0.50),
            "p90_s": self.percentile(0.90),
            "p99_s": self.percentile(0.99),
        }


@dataclass
class ServerStats:
    """Operational counters, exposed via the ``stats`` op."""

    sessions_opened: int = 0
    sessions_rejected: int = 0
    requests: int = 0
    overloaded_rejections: int = 0
    deadline_exceeded: int = 0
    cancelled: int = 0
    errors: int = 0
    #: op name -> latency histogram over every dispatched request of that op.
    op_latency: dict[str, LatencyHistogram] = field(default_factory=dict)

    def observe(self, op: str, seconds: float) -> None:
        histogram = self.op_latency.get(op)
        if histogram is None:
            histogram = self.op_latency[op] = LatencyHistogram()
        histogram.observe(seconds)

    def snapshot(self) -> dict[str, int]:
        return {
            "sessions_opened": self.sessions_opened,
            "sessions_rejected": self.sessions_rejected,
            "requests": self.requests,
            "overloaded_rejections": self.overloaded_rejections,
            "deadline_exceeded": self.deadline_exceeded,
            "cancelled": self.cancelled,
            "errors": self.errors,
        }

    def latency_snapshot(self) -> dict[str, dict[str, float]]:
        return {
            op: histogram.snapshot()
            for op, histogram in sorted(self.op_latency.items())
        }


#: Worker sets whose threads may still be running (:func:`_stop_at_exit`).
_live_worker_sets: "weakref.WeakSet[WorkerSet]" = weakref.WeakSet()


def _stop_at_exit() -> None:
    """Shut every worker set down, as the interpreter begins to exit.

    The workers are not daemon threads, so the interpreter then joins
    them: a request still running finishes its engine work rather than
    being killed partway, as with ``ThreadPoolExecutor``'s own exit hook.
    """
    for workers in list(_live_worker_sets):
        workers.shutdown(wait=False)


threading._register_atexit(_stop_at_exit)  # type: ignore[attr-defined]


class WorkerSet(Executor):
    """The server's worker threads, each started only when it is needed.

    ``submit`` starts a thread only when the queued requests outnumber the
    idle workers, up to ``max_workers``; a started worker serves requests
    until :meth:`shutdown`.  A worker counts itself idle *before* it
    delivers its result, so a client that answers each response with its
    next request always finds that worker idle.  (A ``ThreadPoolExecutor``
    counts a worker idle only after the result is delivered, so a busy
    lock-step session keeps starting threads up to the cap, each with its
    own malloc arena.)

    The executor contract is the standard one: an exception of any kind,
    :class:`~repro.testing.faults.InjectedCrash` included, reaches the
    future; work queued before a shutdown still runs; ``submit`` after it
    raises ``RuntimeError``.  The workers are not daemon threads: at
    interpreter exit every worker set is shut down and its workers are
    joined, so ``shutdown(wait=False)`` never cuts a running request short.
    """

    def __init__(self, max_workers: int, thread_name_prefix: str = "worker"):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._max_workers = max_workers
        self._prefix = thread_name_prefix
        self._ready = threading.Condition(threading.Lock())
        self._work: deque[tuple[Future, Callable[[], Any]]] = deque()
        #: Started workers not running a request (some may be about to
        #: take a queued one).
        self._idle = 0
        self._threads: list[threading.Thread] = []
        self._shutdown = False
        _live_worker_sets.add(self)

    @property
    def started(self) -> int:
        """Number of worker threads started so far."""
        return len(self._threads)

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        future: Future = Future()
        with self._ready:
            if self._shutdown:
                raise RuntimeError("cannot schedule new futures after shutdown")
            self._work.append((future, functools.partial(fn, *args, **kwargs)))
            if len(self._work) > self._idle and len(self._threads) < self._max_workers:
                self._idle += 1  # the new worker takes the request
                thread = threading.Thread(
                    target=self._serve,
                    name=f"{self._prefix}_{len(self._threads)}",
                )
                self._threads.append(thread)
                thread.start()
            else:
                self._ready.notify()
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        with self._ready:
            self._shutdown = True
            if cancel_futures:
                while self._work:
                    self._work.popleft()[0].cancel()
            self._ready.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()

    def _serve(self) -> None:
        while True:
            with self._ready:
                while not self._work and not self._shutdown:
                    self._ready.wait()
                if not self._work:
                    return
                future, call = self._work.popleft()
                self._idle -= 1
            if future.set_running_or_notify_cancel():
                try:
                    result = call()
                except BaseException as exc:
                    self._idle_again()
                    future.set_exception(exc)
                else:
                    self._idle_again()
                    future.set_result(result)
                    del result
            else:
                self._idle_again()
            del future, call  # hold no request while waiting for the next

    def _idle_again(self) -> None:
        with self._ready:
            self._idle += 1


@dataclass
class _Session:
    """Per-connection state: branch context and open transactions."""

    session_id: int
    branch: str = "master"
    #: relation name -> open transaction buffering this session's writes.
    transactions: dict[str, Any] = field(default_factory=dict)
    #: request id -> cancel scope of an executing request (for ``cancel``).
    scopes: dict[object, CancelScope] = field(default_factory=dict)
    writer: asyncio.StreamWriter | None = None


class DecibelServer:
    """Serves one :class:`~repro.db.database.Decibel` dataset."""

    def __init__(
        self,
        db: Decibel,
        config: ServerConfig | None = None,
        *,
        own_db: bool = False,
    ):
        self.db = db
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        self._own_db = own_db
        self._server: asyncio.base_events.Server | None = None
        self._pool = WorkerSet(
            self.config.worker_threads, thread_name_prefix="decibel-worker"
        )
        self._sessions: dict[int, _Session] = {}
        self._session_ids = iter(range(1, 1 << 62))
        self._inflight = 0
        self._draining = False
        self._dead = False

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.wait_for(
            asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            ),
            timeout=10.0,
        )

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop admitting, drain in-flight work, flush, and close.

        With ``drain`` the server waits up to ``drain_timeout_s`` for
        executing requests to finish, then cancels the stragglers'
        scopes and waits briefly for them to unwind.  A dead (crashed)
        server skips the flush/checkpoint -- a dead process could not
        have written them.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await asyncio.wait_for(self._server.wait_closed(), timeout=10.0)
        if drain and not self._dead:
            deadline = time.monotonic() + self.config.drain_timeout_s
            while self._inflight > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            for session in list(self._sessions.values()):
                for scope in list(session.scopes.values()):
                    scope.cancel("server shutting down")
            straggler_deadline = time.monotonic() + 1.0
            while self._inflight > 0 and time.monotonic() < straggler_deadline:
                await asyncio.sleep(0.01)
        for session in list(self._sessions.values()):
            if session.writer is not None:
                session.writer.transport.abort()
        if not self._dead:
            await self._flush_bounded()
        self._pool.shutdown(wait=False)

    async def _flush_bounded(self) -> None:
        loop = asyncio.get_running_loop()
        fut = loop.run_in_executor(None, self._flush_sync)
        try:
            await asyncio.wait_for(fut, timeout=self.config.drain_timeout_s + 10.0)
        except (asyncio.TimeoutError, InjectedCrash, Exception):
            pass

    def _flush_sync(self) -> None:
        try:
            self.db.flush()
            self.db.wal.checkpoint()
        finally:
            if self._own_db:
                self.db.close()

    def _simulate_death(self) -> None:
        """An injected crash escaped a worker: the process is now 'dead'.

        Every transport is aborted without a goodbye frame (a killed
        process cannot say goodbye) and no further request is served.
        Recovery is exercised by reopening the dataset directory with
        :meth:`Decibel.open`, exactly as after a real crash.
        """
        self._dead = True
        self._draining = True
        for session in list(self._sessions.values()):
            if session.writer is not None:
                session.writer.transport.abort()
        if self._server is not None:
            self._server.close()

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._dead:
            writer.transport.abort()
            return
        if self._draining:
            await self._respond_bounded(
                writer, error_response(None, UnavailableError("server is draining"))
            )
            writer.close()
            return
        if len(self._sessions) >= self.config.max_sessions:
            # Fast rejection: the client learns immediately (with a retry
            # hint) instead of queueing behind admitted sessions.
            self.stats.sessions_rejected += 1
            await self._respond_bounded(
                writer,
                error_response(
                    None,
                    OverloadedError(
                        f"session limit of {self.config.max_sessions} reached",
                        retry_after_s=self.config.retry_after_s,
                    ),
                ),
            )
            writer.close()
            return
        session = _Session(session_id=next(self._session_ids), writer=writer)
        self._sessions[session.session_id] = session
        self.stats.sessions_opened += 1
        try:
            while not self._draining and not self._dead:
                try:
                    request = await read_frame(
                        reader,
                        idle_timeout_s=self.config.idle_timeout_s,
                        io_timeout_s=self.config.io_timeout_s,
                        max_bytes=self.config.max_frame_bytes,
                    )
                except ProtocolError as exc:
                    # The framing is broken; answer once, then hang up.
                    await self._respond_bounded(writer, error_response(None, exc))
                    break
                except (asyncio.TimeoutError, ConnectionError, OSError):
                    break  # idle/slow client or dropped connection
                if request is None:
                    break  # clean EOF
                response = await self._dispatch_bounded(session, request)
                if response is None:
                    break  # server died mid-request
                if not await self._respond_bounded(writer, response):
                    break
        finally:
            self._sessions.pop(session.session_id, None)
            for scope in list(session.scopes.values()):
                scope.cancel("client disconnected")
            await self._abort_session_bounded(session)
            try:
                writer.close()
            except Exception:
                pass

    async def _respond_bounded(
        self, writer: asyncio.StreamWriter, response: dict[str, Any]
    ) -> bool:
        if self._dead:
            return False
        try:
            await write_frame(
                writer,
                response,
                io_timeout_s=self.config.io_timeout_s,
                max_bytes=self.config.max_frame_bytes,
            )
            return True
        except (asyncio.TimeoutError, ConnectionError, OSError):
            return False

    async def _abort_session_bounded(self, session: _Session) -> None:
        """Roll back a disconnecting session's open transactions."""
        transactions = list(session.transactions.values())
        session.transactions.clear()
        if not transactions or self._dead:
            return
        loop = asyncio.get_running_loop()

        def _abort_all() -> None:
            for txn in transactions:
                try:
                    txn.abort()
                except InjectedCrash:
                    return  # the 'process' died; a dead process aborts nothing
                except Exception:
                    pass

        try:
            await asyncio.wait_for(
                loop.run_in_executor(self._pool, _abort_all), timeout=10.0
            )
        except asyncio.TimeoutError:
            pass

    # -- request dispatch --------------------------------------------------------

    async def _dispatch_bounded(
        self, session: _Session, request: dict[str, Any]
    ) -> dict[str, Any] | None:
        op = request.get("op")
        started = time.perf_counter()
        try:
            return await self._dispatch_request_bounded(session, request)
        finally:
            # Rejections and deadline answers count too: the histogram is
            # the client-observed latency of the op, not just happy paths.
            if isinstance(op, str):
                self.stats.observe(op, time.perf_counter() - started)

    async def _dispatch_request_bounded(
        self, session: _Session, request: dict[str, Any]
    ) -> dict[str, Any] | None:
        request_id = request.get("id")
        self.stats.requests += 1
        version = request.get("v")
        if version != PROTOCOL_VERSION:
            return error_response(
                request_id,
                ProtocolError(
                    f"unsupported protocol version {version!r} "
                    f"(this server speaks {PROTOCOL_VERSION})"
                ),
            )
        op = request.get("op")
        if not isinstance(op, str):
            return error_response(request_id, ProtocolError("request is missing 'op'"))
        params = {
            key: value
            for key, value in request.items()
            if key not in ("v", "id", "op", "deadline_ms")
        }

        # Control-plane ops are O(1) and exempt from queue-depth admission:
        # they must keep working precisely when the server is busy.
        if op == "ping":
            return ok_response(request_id, {"pong": True})
        if op == "hello":
            return ok_response(request_id, self._op_hello(session))
        if op == "stats":
            return ok_response(request_id, self._op_stats())
        if op == "cancel":
            return ok_response(request_id, self._op_cancel(session, params))

        if self._inflight >= self.config.max_queue_depth:
            self.stats.overloaded_rejections += 1
            return error_response(
                request_id,
                OverloadedError(
                    f"request queue depth of {self.config.max_queue_depth} reached",
                    retry_after_s=self.config.retry_after_s,
                ),
            )

        deadline_s = self._clamp_deadline(request.get("deadline_ms"))
        scope = CancelScope(label=f"{op}#{request_id}", timeout_s=deadline_s)
        session.scopes[request_id] = scope
        self._inflight += 1
        loop = asyncio.get_running_loop()
        fut = loop.run_in_executor(
            self._pool,
            functools.partial(self._execute, session, op, params, scope),
        )
        fut.add_done_callback(self._reap_worker)
        try:
            result = await asyncio.wait_for(
                asyncio.shield(fut), timeout=deadline_s + self.config.deadline_grace_s
            )
        except asyncio.TimeoutError:
            # The worker overran even the grace period (stuck in a
            # non-checkpointed region).  Cancel its scope so it unwinds at
            # the next checkpoint and answer for it; _reap_worker consumes
            # whatever it eventually raises.
            scope.cancel("deadline grace expired")
            self.stats.deadline_exceeded += 1
            return error_response(
                request_id,
                DeadlineExceededError(
                    f"request {op!r} exceeded its {deadline_s:.3f}s deadline",
                    elapsed_s=scope.elapsed(),
                ),
            )
        except InjectedCrash:
            self._simulate_death()
            return None
        except DeadlineExceededError as exc:
            self.stats.deadline_exceeded += 1
            return error_response(request_id, exc)
        except QueryCancelledError as exc:
            self.stats.cancelled += 1
            return error_response(request_id, exc)
        except DecibelError as exc:
            self.stats.errors += 1
            return error_response(request_id, exc)
        except Exception as exc:
            self.stats.errors += 1
            return error_response(request_id, DecibelError(f"internal error: {exc}"))
        finally:
            self._inflight -= 1
            session.scopes.pop(request_id, None)
        return ok_response(request_id, result)

    def _reap_worker(self, fut: "asyncio.Future[Any]") -> None:
        """Consume a worker future's outcome after the awaiter gave up.

        Runs on the event loop.  If an injected crash surfaces *after*
        the deadline path stopped awaiting this future, the server must
        still die -- a real process would have.
        """
        if fut.cancelled():
            return
        try:
            exc = fut.exception()
        except (asyncio.CancelledError, asyncio.InvalidStateError):
            return
        if isinstance(exc, InjectedCrash) and not self._dead:
            self._simulate_death()

    def _clamp_deadline(self, deadline_ms: object) -> float:
        if isinstance(deadline_ms, (int, float)) and deadline_ms > 0:
            return min(float(deadline_ms) / 1000.0, self.config.max_deadline_s)
        return min(self.config.default_deadline_s, self.config.max_deadline_s)

    # -- blocking ops (worker threads) -------------------------------------------

    def _execute(
        self,
        session: _Session,
        op: str,
        params: dict[str, Any],
        scope: CancelScope,
    ) -> dict[str, Any]:
        handler = self._OPS.get(op)
        if handler is None:
            raise ProtocolError(f"unknown op {op!r}")
        with use_scope(scope):
            scope.check()
            return handler(self, session, params)

    def _op_hello(self, session: _Session) -> dict[str, Any]:
        return {
            "server": "decibel-repro",
            "protocol": PROTOCOL_VERSION,
            "session_id": session.session_id,
            "branch": session.branch,
            "relations": sorted(self.db.relations()),
            "limits": {
                "max_frame_bytes": self.config.max_frame_bytes,
                "max_deadline_s": self.config.max_deadline_s,
                "default_deadline_s": self.config.default_deadline_s,
            },
        }

    def _op_stats(self) -> dict[str, Any]:
        wal = self.db.wal
        return {
            "sessions": len(self._sessions),
            "inflight": self._inflight,
            "draining": self._draining,
            "snapshots_active": self.db.snapshot_manager.active,
            "workers_started": self._pool.started,
            "wal_fsyncs": wal.fsync_count,
            "wal_group_batches": wal.group_batches,
            "op_latency": self.stats.latency_snapshot(),
            **self.stats.snapshot(),
        }

    def _op_cancel(self, session: _Session, params: dict[str, Any]) -> dict[str, Any]:
        target = params.get("target_id")
        scope = session.scopes.get(target)
        if scope is not None:
            scope.cancel("cancelled by client request")
            self.stats.cancelled += 1
        return {"cancelled": scope is not None}

    def _op_query(self, session: _Session, params: dict[str, Any]) -> dict[str, Any]:
        sql = params.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("'query' requires a string 'sql' parameter")
        # Reads run against a pinned snapshot: concurrent commits are
        # invisible, and the query never takes a lock a writer could want.
        with self.db.snapshot() as snap:
            result = snap.database.query(sql)
        payload: dict[str, Any] = {
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
        }
        if any(result.branch_annotations):
            payload["branches"] = [
                sorted(branches) for branches in result.branch_annotations
            ]
        return payload

    def _session_transaction(self, session: _Session, relation: str) -> Any:
        txn = session.transactions.get(relation)
        if txn is None:
            txn = self.db.transactions(relation).begin()
            session.transactions[relation] = txn
        return txn

    def _write_params(
        self, session: _Session, params: dict[str, Any]
    ) -> tuple[str, str]:
        relation = params.get("relation")
        if not isinstance(relation, str):
            raise ProtocolError("write ops require a string 'relation' parameter")
        branch = params.get("branch") or session.branch
        return relation, branch

    def _op_insert(self, session: _Session, params: dict[str, Any]) -> dict[str, Any]:
        relation, branch = self._write_params(session, params)
        values = params.get("values")
        if not isinstance(values, list):
            raise ProtocolError("'insert' requires a list 'values' parameter")
        txn = self._session_transaction(session, relation)
        txn.insert(branch, Record(tuple(values)))
        return {"pending": txn.pending_writes}

    def _op_update(self, session: _Session, params: dict[str, Any]) -> dict[str, Any]:
        relation, branch = self._write_params(session, params)
        values = params.get("values")
        if not isinstance(values, list):
            raise ProtocolError("'update' requires a list 'values' parameter")
        txn = self._session_transaction(session, relation)
        txn.update(branch, Record(tuple(values)))
        return {"pending": txn.pending_writes}

    def _op_delete(self, session: _Session, params: dict[str, Any]) -> dict[str, Any]:
        relation, branch = self._write_params(session, params)
        key = params.get("key")
        if not isinstance(key, int):
            raise ProtocolError("'delete' requires an integer 'key' parameter")
        txn = self._session_transaction(session, relation)
        txn.delete(branch, key)
        return {"pending": txn.pending_writes}

    def _op_commit(self, session: _Session, params: dict[str, Any]) -> dict[str, Any]:
        message = params.get("message", "")
        commits: dict[str, dict[str, str]] = {}
        try:
            for relation in sorted(session.transactions):
                txn = session.transactions[relation]
                commits[relation] = txn.commit(
                    message=message if isinstance(message, str) else ""
                )
        finally:
            # Whatever happened (success, deadline, conflict), the session's
            # transaction slate is clean afterwards: committed transactions
            # are finished and failed ones were aborted by Transaction.commit
            # itself on its error path.
            session.transactions.clear()
        return {"commits": commits}

    def _op_abort(self, session: _Session, params: dict[str, Any]) -> dict[str, Any]:
        aborted = sorted(session.transactions)
        try:
            for relation in aborted:
                session.transactions[relation].abort()
        finally:
            session.transactions.clear()
        return {"aborted": aborted}

    def _op_use_branch(
        self, session: _Session, params: dict[str, Any]
    ) -> dict[str, Any]:
        branch = params.get("branch")
        if not isinstance(branch, str) or not branch:
            raise ProtocolError("'use_branch' requires a string 'branch' parameter")
        session.branch = branch
        return {"branch": branch}

    def _op_branch(self, session: _Session, params: dict[str, Any]) -> dict[str, Any]:
        relation, from_branch = self._write_params(session, params)
        name = params.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("'branch' requires a string 'name' parameter")
        engine = self.db.relation(relation).engine
        with engine.write_mutex:
            engine.create_branch(name, from_branch=params.get("from") or from_branch)
        return {"branch": name}

    def _op_merge(self, session: _Session, params: dict[str, Any]) -> dict[str, Any]:
        relation = params.get("relation")
        target = params.get("target")
        source = params.get("source")
        if (
            not isinstance(relation, str)
            or not isinstance(target, str)
            or not isinstance(source, str)
        ):
            raise ProtocolError(
                "'merge' requires string 'relation', 'target' and 'source' parameters"
            )
        engine = self.db.relation(relation).engine
        with engine.write_mutex:
            merge = engine.merge(target, source)
        return {
            "commit": merge.commit_id,
            "conflicts": len(merge.conflicts),
        }

    _OPS: dict[str, Callable[["DecibelServer", _Session, dict[str, Any]], dict[str, Any]]] = {
        "query": _op_query,
        "insert": _op_insert,
        "update": _op_update,
        "delete": _op_delete,
        "commit": _op_commit,
        "abort": _op_abort,
        "use_branch": _op_use_branch,
        "branch": _op_branch,
        "merge": _op_merge,
    }


class ServerThread:
    """Run a :class:`DecibelServer` on a background event-loop thread.

    The harness tests and benchmarks use: start it, connect blocking
    clients against ``.address``, stop it.  Context-manager friendly::

        with ServerThread(db) as address:
            client = DecibelClient(*address)
    """

    def __init__(
        self,
        db: Decibel,
        config: ServerConfig | None = None,
        *,
        own_db: bool = False,
    ):
        self.server = DecibelServer(db, config, own_db=own_db)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="decibel-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise UnavailableError("server thread failed to start in time")
        if self._startup_error is not None:
            raise UnavailableError(
                f"server failed to start: {self._startup_error}"
            )
        return self.server.address

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def stop(self, *, drain: bool = True) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=drain), loop
        )
        try:
            future.result(timeout=self.server.config.drain_timeout_s + 30.0)
        except Exception:
            pass
        # Stop the loop only after the shutdown future has resolved: stopping
        # from inside the coroutine would halt the loop before the
        # cross-thread future's done-callback runs, deadlocking the caller.
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:
            pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()
