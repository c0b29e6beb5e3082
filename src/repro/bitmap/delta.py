"""Delta-compressed commit histories.

Commits in the tuple-first and hybrid layouts snapshot the bitmap of the
committing branch.  To keep historical commits out of the live index, each
branch (or, in hybrid, each (branch, segment) pair) has a *commit history
file*: when a commit is made, the XOR of the new snapshot with the previous
one is RLE-compressed and appended (paper Section 3.2).  Checking out a commit
replays deltas from the start of the file.  To bound replay length the history
keeps a second "layer" of composite deltas, each the XOR-aggregate of a run of
base deltas, so checkout skips ahead composite-by-composite and finishes with
at most ``layer_interval - 1`` base deltas.

On disk each entry is one CRC-checked frame of the shared log format
(:func:`repro.core.durable.append_framed`), so a torn final entry is
truncated on load and a flipped byte anywhere else raises
:class:`~repro.errors.CorruptionError` instead of replaying a wrong delta.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

from repro.bitmap.bitmap import Bitmap
from repro.bitmap.rle import rle_decode, rle_encode
from repro.core.durable import (
    FRAME_HEADER_SIZE,
    add_recovery_note,
    append_framed,
    atomic_write,
    frame,
    read_framed,
)
from repro.errors import CommitNotFoundError, CorruptionError, StorageError

#: Entry header inside each frame: kind, commit index, logical bit length
#: and set-bit count of the delta; the RLE payload follows.
_ENTRY_HEADER = struct.Struct("<BIII")

_KIND_BASE = 0
_KIND_COMPOSITE = 1

#: Number of base deltas aggregated into one composite (layer-2) delta.
DEFAULT_LAYER_INTERVAL = 8


@dataclass
class _Entry:
    kind: int
    index: int  # commit ordinal for base entries; last covered ordinal for composites
    payload: bytes
    num_bits: int
    #: Set bits in the (uncompressed) delta.  Zero means the delta is a
    #: no-op, so checkout and reload can skip it without decompressing.
    popcount: int = 0


class CommitHistory:
    """The commit history of one branch (or one branch within one segment).

    Parameters
    ----------
    path:
        File that persists the history; ``None`` keeps it in memory only.
    layer_interval:
        How many base deltas are folded into each composite delta.  The paper
        uses two layers and found checkout performance adequate; the interval
        is exposed so the ablation benchmark can compare against a flat chain
        (``layer_interval=0`` disables composites).
    """

    def __init__(
        self,
        path: str | None = None,
        layer_interval: int = DEFAULT_LAYER_INTERVAL,
    ):
        self.path = path
        self.layer_interval = layer_interval
        self._entries: list[_Entry] = []
        self._commit_ids: list[str] = []
        self._commit_ordinals: dict[str, int] = {}
        self._last_snapshot = Bitmap()
        self._pending_for_composite: list[bytes] = []
        self._num_bits_history: list[int] = []
        if path is not None and os.path.exists(path):
            self._load()

    # -- writing --------------------------------------------------------------

    def record_commit(self, commit_id: str, snapshot: Bitmap) -> None:
        """Record ``snapshot`` as the bitmap state at ``commit_id``."""
        if commit_id in self._commit_ordinals:
            raise StorageError(f"commit {commit_id!r} already recorded")
        delta = snapshot ^ self._last_snapshot
        num_bits = max(len(snapshot), len(self._last_snapshot))
        payload = rle_encode(delta.to_bytes())
        ordinal = len(self._commit_ids)
        entry = _Entry(_KIND_BASE, ordinal, payload, num_bits, delta.count())
        self._entries.append(entry)
        self._append_to_disk(entry)
        self._commit_ids.append(commit_id)
        self._commit_ordinals[commit_id] = ordinal
        self._num_bits_history.append(num_bits)
        self._last_snapshot = snapshot.copy()
        if self.layer_interval:
            self._pending_for_composite.append(delta.to_bytes())
            if len(self._pending_for_composite) == self.layer_interval:
                self._emit_composite(ordinal)

    def _emit_composite(self, last_ordinal: int) -> None:
        composite = 0
        max_len = 0
        for raw in self._pending_for_composite:
            composite ^= int.from_bytes(raw, "little")
            max_len = max(max_len, len(raw))
        raw_bytes = composite.to_bytes(max(max_len, 1), "little")
        payload = rle_encode(raw_bytes)
        entry = _Entry(
            _KIND_COMPOSITE, last_ordinal, payload, max_len * 8, composite.bit_count()
        )
        self._entries.append(entry)
        self._append_to_disk(entry)
        self._pending_for_composite = []

    # -- reading --------------------------------------------------------------

    @property
    def commit_ids(self) -> list[str]:
        """Commit ids recorded so far, oldest first."""
        return list(self._commit_ids)

    def __len__(self) -> int:
        return len(self._commit_ids)

    def __contains__(self, commit_id: str) -> bool:
        return commit_id in self._commit_ordinals

    def latest_snapshot(self) -> Bitmap:
        """The bitmap state at the most recent commit."""
        return self._last_snapshot.copy()

    def checkout(self, commit_id: str) -> Bitmap:
        """Reconstruct the bitmap snapshot stored at ``commit_id``.

        Composites covering a full prefix of the target's deltas are applied
        first; the remaining base deltas are applied one by one.  Entries
        whose stored popcount is zero are no-op deltas (a commit with no
        bitmap change, or a composite whose run cancelled out): they are
        skipped -- still advancing the composite cover -- without being
        decompressed or materialized.
        """
        try:
            target = self._commit_ordinals[commit_id]
        except KeyError:
            raise CommitNotFoundError(
                f"commit {commit_id!r} not present in this history"
            ) from None
        state = 0
        applied_through = -1
        if self.layer_interval:
            for entry in self._entries:
                if entry.kind is not _KIND_COMPOSITE:
                    continue
                if entry.index <= target:
                    if entry.popcount:
                        state ^= int.from_bytes(rle_decode(entry.payload), "little")
                    applied_through = entry.index
                else:
                    break
        for entry in self._entries:
            if entry.kind is not _KIND_BASE:
                continue
            if entry.index <= applied_through:
                continue
            if entry.index > target:
                break
            if entry.popcount:
                state ^= int.from_bytes(rle_decode(entry.payload), "little")
        num_bits = self._num_bits_history[target]
        return Bitmap._from_int(state, max(num_bits, state.bit_length()))

    # -- sizes ----------------------------------------------------------------

    def size_bytes(self) -> int:
        """Bytes of every framed entry (base and composite), as on disk."""
        return sum(
            FRAME_HEADER_SIZE + _ENTRY_HEADER.size + len(entry.payload)
            for entry in self._entries
        )

    def base_delta_bytes(self) -> int:
        """Bytes used by base-layer deltas only."""
        return sum(
            len(entry.payload)
            for entry in self._entries
            if entry.kind == _KIND_BASE
        )

    # -- persistence ----------------------------------------------------------

    def _entry_bytes(self, entry: _Entry) -> bytes:
        return (
            _ENTRY_HEADER.pack(
                entry.kind, entry.index, entry.num_bits, entry.popcount
            )
            + entry.payload
        )

    def _append_to_disk(self, entry: _Entry) -> None:
        if self.path is not None:
            append_framed(
                self.path, self._entry_bytes(entry), label="history-append"
            )

    def _load(self) -> None:
        # A torn final entry (a crash mid-append) is truncated by the reader:
        # the graph is persisted after the history append succeeds, so the
        # snapshot it carried was never referenced.
        for raw in read_framed(self.path, "commit-history"):
            kind, index, num_bits, popcount = _ENTRY_HEADER.unpack_from(raw)
            payload = raw[_ENTRY_HEADER.size :]
            self._entries.append(_Entry(kind, index, payload, num_bits, popcount))
            if kind == _KIND_BASE:
                self._num_bits_history.append(num_bits)
        # Commit ids are placeholders until the engine re-registers them from
        # the version graph via rebind_commit_ids.
        num_base = len(self._num_bits_history)
        self._commit_ids = [f"commit-{i}" for i in range(num_base)]
        self._commit_ordinals = {cid: i for i, cid in enumerate(self._commit_ids)}
        self._recompute_derived()

    def _recompute_derived(self) -> None:
        """Rebuild the running snapshot and the pending-composite run.

        Rebuilding ``_pending_for_composite`` matters for append-after-reload
        correctness: without it, composites emitted after a reload would
        cover a run missing its pre-reload prefix, and checkout would skip
        deltas a composite never actually folded in.
        """
        state = 0
        pending: list[bytes] = []
        for entry in self._entries:
            if entry.kind == _KIND_BASE:
                raw = rle_decode(entry.payload) if entry.popcount else b""
                if entry.popcount:
                    state ^= int.from_bytes(raw, "little")
                pending.append(raw)
            else:
                pending = []
        num_bits = self._num_bits_history[-1] if self._num_bits_history else 0
        self._last_snapshot = Bitmap._from_int(state, max(num_bits, state.bit_length()))
        self._pending_for_composite = pending if self.layer_interval else []

    def rebind_commit_ids(self, commit_ids: list[str]) -> None:
        """Replace placeholder commit ids after reloading from disk.

        ``commit_ids`` comes from the version graph, the root of recoverable
        state.  The graph is persisted *after* history appends, so after a
        crash it may name a strict prefix of the recorded snapshots; the
        orphan tail (snapshots of commits the graph never saw) is discarded.
        A graph naming *more* commits than the history holds is real
        corruption and raises.
        """
        if len(commit_ids) > len(self._commit_ids):
            raise CorruptionError(
                self.path or "<memory>",
                "version graph references more commits than this history "
                "recorded",
                expected=len(commit_ids),
                actual=len(self._commit_ids),
            )
        if len(commit_ids) < len(self._commit_ids):
            self._discard_orphans(len(commit_ids))
        self._commit_ids = list(commit_ids)
        self._commit_ordinals = {cid: i for i, cid in enumerate(commit_ids)}

    def _discard_orphans(self, count: int) -> None:
        """Drop recorded snapshots beyond the first ``count`` commits.

        These are orphans from a crash between the history append and the
        graph persist; no durable state references them.  Composites whose
        run reaches into the orphan tail are dropped with it.
        """
        orphans = len(self._commit_ids) - count
        self._entries = [e for e in self._entries if e.index < count]
        self._num_bits_history = self._num_bits_history[:count]
        self._recompute_derived()
        if self.path is not None:
            blob = b"".join(frame(self._entry_bytes(e)) for e in self._entries)
            atomic_write(self.path, blob, label="history-rewrite")
        add_recovery_note(
            f"discarded {orphans} orphan commit snapshot(s) from "
            f"{self.path or '<memory>'}"
        )
