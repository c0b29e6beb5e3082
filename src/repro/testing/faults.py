"""Deterministic fault injection for crash-recovery tests.

Durability code cannot be trusted until it has been crashed, on purpose, at
every point where a real power failure could interrupt it.  This module gives
the durable I/O paths named *crashpoints*: zero-cost markers such as
``wal-group-commit-pre-fsync`` (the WAL's one fsync, on a COMMIT record) or
``graph-persist-pre-fsync`` (the version-graph log append) placed immediately
before or after the system call whose interruption they simulate.  A test
arms the harness with a :class:`FaultSchedule` (crashpoint name, which hit to
fire on, and optionally how many trailing bytes to tear off the target file),
runs a workload, and the matching crashpoint raises :class:`InjectedCrash` --
simulating the process dying at exactly that instruction.

Two properties make the simulation honest:

* **Determinism** -- a schedule fires on the *N*-th arrival at a named point,
  so the same workload + schedule always crashes in the same place.
* **Death is permanent** -- once a schedule has fired, *every* subsequent
  crashpoint raises immediately, and durable writers call
  :func:`check_crashed` before touching the disk.  Cleanup handlers
  (``finally`` blocks that would log an ABORT record, release code that would
  flush) therefore cannot write anything a genuinely dead process could not
  have written.

Torn writes are simulated by truncating the tail of the target file *before*
raising, modelling a write that only partially reached the platter.

The harness is inert unless a test has armed it via :func:`inject`; the
per-crashpoint cost in production is one global read and a ``None`` check.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


class InjectedCrash(BaseException):
    """A simulated process death, raised at an armed crashpoint.

    Derives from :class:`BaseException` so that ``except Exception`` recovery
    code cannot accidentally swallow the "crash" and carry on writing.
    """


@dataclass
class FaultSchedule:
    """One planned crash: fire at the ``hit``-th arrival at ``crashpoint``.

    ``torn_bytes`` > 0 additionally truncates that many bytes from the end of
    the file the crashpoint is guarding, simulating a torn (partial) write.
    """

    crashpoint: str
    hit: int = 1
    torn_bytes: int = 0


@dataclass
class FaultInjector:
    """Mutable state for one armed :func:`inject` scope."""

    schedules: list[FaultSchedule]
    counts: dict[str, int] = field(default_factory=dict)
    crashed: bool = False
    fired: FaultSchedule | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def arrive(self, name: str, path: str | None) -> None:
        # Serialized so concurrent server sessions racing through the same
        # crashpoint still count hits deterministically.
        with self._lock:
            if self.crashed:
                raise InjectedCrash(f"process is dead (crashed at {self.fired!r})")
            self.counts[name] = self.counts.get(name, 0) + 1
            for schedule in self.schedules:
                if schedule.crashpoint == name and self.counts[name] == schedule.hit:
                    if schedule.torn_bytes > 0 and path is not None:
                        _tear_tail(path, schedule.torn_bytes)
                    self.crashed = True
                    self.fired = schedule
                    raise InjectedCrash(
                        f"injected crash at {name!r} (hit {schedule.hit})"
                    )


def _tear_tail(path: str, torn_bytes: int) -> None:
    """Truncate the last ``torn_bytes`` bytes of ``path``, if it exists."""
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    os.truncate(path, max(0, size - torn_bytes))


_active: FaultInjector | None = None


def crashpoint(name: str, path: str | None = None) -> None:
    """Mark a durability-relevant instruction; dies here when armed.

    ``path`` names the file whose write the crashpoint guards, so torn-write
    schedules know what to truncate.  A no-op unless :func:`inject` is active.
    """
    injector = _active
    if injector is not None:
        injector.arrive(name, path)


def check_crashed() -> None:
    """Raise if a crash has already been injected in this scope.

    Durable writers call this before touching the disk so that code running
    after the simulated death (``finally`` blocks, lock release paths) cannot
    persist anything a real dead process could not have.
    """
    injector = _active
    if injector is not None and injector.crashed:
        raise InjectedCrash(f"process is dead (crashed at {injector.fired!r})")


@contextmanager
def inject(*schedules: FaultSchedule) -> Iterator[FaultInjector]:
    """Arm the harness with ``schedules`` for the duration of the block.

    Yields the :class:`FaultInjector` so tests can assert which schedule
    fired (``injector.fired``) and how often each point was reached
    (``injector.counts``).  Nesting is not supported: the harness is global
    because the code under test reaches it through module-level calls.
    """
    global _active
    if _active is not None:
        raise RuntimeError("fault injection scopes cannot nest")
    injector = FaultInjector(list(schedules))
    _active = injector
    try:
        yield injector
    finally:
        _active = None


# -- network-layer faults --------------------------------------------------------
#
# The serving layer adds a second fault surface: the wire.  Network faults
# are *not* process deaths -- a dropped connection leaves both endpoints
# running -- so they get their own schedule type and arming scope.  The
# framing code places named netpoints (``server-send-frame``,
# ``client-recv-frame``, ...) around socket reads and writes; an armed
# schedule tells that point to misbehave on its N-th arrival.


@dataclass
class NetFaultSchedule:
    """One planned network fault at the ``hit``-th arrival at ``netpoint``.

    ``action`` selects the misbehaviour:

    * ``"close"`` -- drop the connection immediately (peer sees a reset /
      truncated stream);
    * ``"truncate"`` -- transmit only ``keep_bytes`` bytes of the frame,
      then drop the connection (a mid-frame kill: the peer reads a torn
      length-prefixed frame);
    * ``"delay"`` -- stall the operation for ``delay_s`` seconds before
      letting it proceed (a slow or stalled peer; drives idle/slow-client
      timeout paths).
    """

    netpoint: str
    hit: int = 1
    action: str = "close"
    delay_s: float = 0.0
    keep_bytes: int = 0


@dataclass
class NetFaultInjector:
    """Mutable state for one armed :func:`inject_net` scope."""

    schedules: list[NetFaultSchedule]
    counts: dict[str, int] = field(default_factory=dict)
    fired: list[NetFaultSchedule] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def arrive(self, name: str) -> NetFaultSchedule | None:
        """Record an arrival; return the schedule to apply, if any fires."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1
            for schedule in self.schedules:
                if schedule.netpoint == name and self.counts[name] == schedule.hit:
                    self.fired.append(schedule)
                    return schedule
        return None


_net_active: NetFaultInjector | None = None


def netpoint(name: str) -> NetFaultSchedule | None:
    """Mark a wire operation; returns the fault to apply when armed.

    Unlike :func:`crashpoint`, the caller applies the fault itself (closing
    its transport, sleeping, truncating its send) because the right
    misbehaviour is endpoint-specific.  A no-op returning ``None`` unless
    :func:`inject_net` is active.
    """
    injector = _net_active
    if injector is not None:
        return injector.arrive(name)
    return None


@contextmanager
def inject_net(*schedules: NetFaultSchedule) -> Iterator[NetFaultInjector]:
    """Arm network-fault schedules for the duration of the block.

    Independent of :func:`inject` (the two may be combined to crash a
    server while its clients suffer wire faults).  Yields the injector so
    tests can assert what fired.
    """
    global _net_active
    if _net_active is not None:
        raise RuntimeError("network fault injection scopes cannot nest")
    injector = NetFaultInjector(list(schedules))
    _net_active = injector
    try:
        yield injector
    finally:
        _net_active = None
