"""Crash-safe file primitives: atomic replace, CRC-framed logs, CRC-stamped JSON.

The durable metadata files that are rewritten whole (the catalog and WAL
checkpoints; no branch or commit writes either) go through
:func:`atomic_write`, which follows the classic safe-replace protocol:

1. write the full payload to a temporary sibling file,
2. ``fsync`` the temporary file so its bytes are on the platter,
3. ``os.replace`` it over the target (atomic on POSIX),
4. ``fsync`` the containing directory so the rename itself is durable.

A crash at any step leaves either the old complete file or the new complete
file -- never a torn mixture.  Named crashpoints (``{label}-mid-write``,
``{label}-pre-rename``) are registered at the two interesting interruption
windows so the fault-injection harness can prove that property.

Append-only logs (the WAL, the version-graph log) share one record framing,
:func:`frame`: CRC32 of the payload and its length, then the payload.
:func:`append_framed` writes one record with one fsync
(crashpoint ``{label}-pre-fsync``), so the per-commit metadata costs
O(delta), not a rewrite of the whole file.  :func:`iter_framed` (and
:func:`read_framed`, its list form) is the one open-time reader for all of
them; it truncates a torn tail and raises on corruption followed by
readable records.  :func:`frames` splits bytes already in memory into
payloads and never repairs anything.

JSON metadata is additionally wrapped in a CRC envelope
(``{"crc32": ..., "data": ...}``) by :func:`dump_checked_json`;
:func:`load_checked_json` verifies the checksum and raises a structured
:class:`~repro.errors.CorruptionError` on mismatch instead of silently
misreading bit-flipped state.  Envelopes are versionless and backwards
compatible: a legacy unstamped file loads as-is.

``REPRO_STRICT_RECOVERY=0`` switches recovery from strict (raise on any
corruption) to degraded mode (quarantine the corrupt piece, note it in
:func:`drain_recovery_notes`, and keep going with what is readable).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Generator, Iterator

from repro.errors import CorruptionError
from repro.testing.faults import check_crashed, crashpoint

#: Framing header for append-only record logs: CRC32 of the payload, then the
#: payload length, little-endian.
_FRAME = struct.Struct("<II")

#: Bytes :func:`frame` adds in front of every payload.
FRAME_HEADER_SIZE = _FRAME.size


def frame(payload: bytes) -> bytes:
    """``payload`` behind its CRC32 + length header (one log record)."""
    return _FRAME.pack(zlib.crc32(payload), len(payload)) + payload


def fsync_dir(directory: str) -> None:
    """Flush a directory's entry table so renames/creates in it are durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def atomic_write(path: str, data: bytes, label: str | None = None) -> None:
    """Atomically replace ``path`` with ``data`` (tmp + fsync + rename).

    ``label`` names the crashpoints guarding this write: ``{label}-mid-write``
    fires with only half the payload in the temporary file (proving the
    target is untouched by a torn write) and ``{label}-pre-rename`` fires
    with the payload fully synced but not yet visible under ``path``.
    """
    check_crashed()
    name = label if label is not None else "atomic-write"
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        half = len(data) // 2
        handle.write(data[:half])
        handle.flush()
        crashpoint(f"{name}-mid-write", path=tmp)
        handle.write(data[half:])
        handle.flush()
        os.fsync(handle.fileno())
    crashpoint(f"{name}-pre-rename", path=tmp)
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(os.path.abspath(path)))


def append_framed(path: str, payload: bytes, label: str | None = None) -> None:
    """Durably append one checksummed, length-prefixed record to a log file.

    O(1) per append (write + fsync) where :func:`atomic_write` would rewrite
    the whole file.  ``{label}-pre-fsync`` fires after the bytes are written
    but before they are forced to disk, so the harness can tear the append.
    """
    check_crashed()
    name = label if label is not None else "framed-append"
    created = not os.path.exists(path)
    with open(path, "ab") as handle:
        handle.write(frame(payload))
        handle.flush()
        crashpoint(f"{name}-pre-fsync", path=path)
        os.fsync(handle.fileno())
    if created:
        fsync_dir(os.path.dirname(os.path.abspath(path)))


def frames(
    data: bytes | bytearray, path: str = "<memory>", description: str = "record log"
) -> Generator[bytes, None, tuple[int, CorruptionError | None]]:
    """Yield the payload of every complete, checksummed frame of ``data``.

    Stops at the first torn or corrupt frame and never touches a file: the
    generator's return value is the offset it stopped at and the error that
    stopped it (``None`` at a clean end), which :func:`iter_framed` uses to
    repair the file.
    """
    offset = 0
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            return offset, CorruptionError(
                path,
                f"torn {description} record header",
                offset=offset,
                expected=_FRAME.size,
                actual=len(data) - offset,
            )
        crc, length = _FRAME.unpack_from(data, offset)
        body_start = offset + _FRAME.size
        if body_start + length > len(data):
            return offset, CorruptionError(
                path,
                f"torn {description} record payload",
                offset=offset,
                expected=length,
                actual=len(data) - body_start,
            )
        payload = data[body_start : body_start + length]
        actual_crc = zlib.crc32(payload)
        if actual_crc != crc:
            return offset, CorruptionError(
                path,
                f"{description} record CRC32 mismatch",
                offset=offset,
                expected=crc,
                actual=actual_crc,
            )
        yield payload
        offset = body_start + length
    return offset, None


def iter_framed(path: str, description: str = "record log") -> Iterator[bytes]:
    """Yield every complete record of an :func:`append_framed` log, in order.

    Once the last complete record has been yielded, a torn or corrupt tail
    is truncated away (with a recovery note); in strict mode a corrupt
    record *followed by* bytes that still parse as a valid record raises
    instead, since truncating would discard readable data.  The repair runs
    only when the iteration is exhausted.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    offset, error = yield from frames(data, path, description)
    if error is not None:
        if strict_recovery() and _frame_parses_beyond(data, offset):
            raise error
        os.truncate(path, offset)
        with open(path, "rb") as handle:
            os.fsync(handle.fileno())
        add_recovery_note(f"truncated torn {description} tail: {error}")


def read_framed(path: str, description: str = "record log") -> list[bytes]:
    """Every complete record of an :func:`append_framed` log, tail repaired
    as :func:`iter_framed` repairs it."""
    return list(iter_framed(path, description))


def _frame_parses_beyond(data: bytes, offset: int) -> bool:
    """True if a complete checksummed frame exists at any later alignment."""
    tail = data[offset:]
    for start in range(max(0, len(tail) - _FRAME.size)):
        crc, length = _FRAME.unpack_from(tail, start)
        if length == 0 or start + _FRAME.size + length > len(tail):
            continue
        if zlib.crc32(tail[start + _FRAME.size : start + _FRAME.size + length]) == crc:
            return True
    return False


def _canonical_json(obj: object) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def dump_checked_json(obj: object) -> bytes:
    """Serialize ``obj`` inside a CRC32 envelope for :func:`atomic_write`."""
    payload = _canonical_json(obj)
    envelope = {"crc32": zlib.crc32(payload), "data": obj}
    return json.dumps(envelope, separators=(",", ":"), sort_keys=True).encode("utf-8")


def load_checked_json(path: str) -> object:
    """Read a file written by :func:`dump_checked_json`, verifying its CRC.

    Raises :class:`CorruptionError` when the file is not valid JSON or the
    envelope checksum disagrees with its contents.  A legacy file that never
    carried an envelope is returned as-is (no checksum to verify).
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorruptionError(
            path, f"not valid JSON: {exc.msg}", offset=exc.pos
        ) from exc
    if isinstance(obj, dict) and set(obj) == {"crc32", "data"}:
        payload = _canonical_json(obj["data"])
        actual = zlib.crc32(payload)
        if actual != obj["crc32"]:
            raise CorruptionError(
                path,
                "CRC32 mismatch on stamped payload",
                expected=obj["crc32"],
                actual=actual,
            )
        return obj["data"]
    return obj


def dump_json_atomic(path: str, obj: object, label: str | None = None) -> None:
    """CRC-stamp ``obj`` and atomically write it to ``path``."""
    atomic_write(path, dump_checked_json(obj), label=label)


def strict_recovery() -> bool:
    """True (the default) when corruption must raise; False to degrade.

    Controlled by ``REPRO_STRICT_RECOVERY``: any value other than ``0``,
    ``false`` or ``no`` keeps recovery strict.
    """
    value = os.environ.get("REPRO_STRICT_RECOVERY", "1").strip().lower()
    return value not in ("0", "false", "no")


#: Quarantine log for degraded-mode recovery.  Loaders that skip a corrupt
#: piece (a torn WAL tail, a bad segment page) append a human-readable note
#: here; :meth:`repro.db.database.Decibel.open` drains it into the recovery
#: report so degradation is visible, never silent.
_recovery_notes: list[str] = []


def add_recovery_note(note: str) -> None:
    """Record that recovery skipped or repaired something."""
    _recovery_notes.append(note)


def drain_recovery_notes() -> list[str]:
    """Return and clear all accumulated recovery notes."""
    notes = list(_recovery_notes)
    _recovery_notes.clear()
    return notes
