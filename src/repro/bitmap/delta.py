"""Delta-compressed commit histories.

Commits in the tuple-first and hybrid layouts snapshot the bitmap of the
committing branch.  To keep historical commits out of the live index, each
branch (or, in hybrid, each (branch, segment) pair) has a *commit history*:
when a commit changes the bitmap, the XOR of the new snapshot with the
previous one is RLE-compressed and recorded (paper Section 3.2).  A commit
that leaves the bitmap unchanged records nothing, so checking out a commit
replays the deltas up to the history's latest entry at or before it.  To
bound replay length the history keeps a second "layer" of composite deltas,
each the XOR-aggregate of a run of base deltas, so checkout skips ahead
composite-by-composite and finishes with at most ``layer_interval - 1`` base
deltas.

A history starts at its *base*: the state before its first delta, which a
checkout before that delta returns.  The base is empty unless the engine
gives one.  Hybrid gives a forked branch's history the segment's bits at
the fork, the read state of the commit the branch was created from, so the
first delta records only what the branch changed since.  Tuple-first's
per-branch histories start empty.

Histories live in memory.  :meth:`CommitHistory.record_commit` returns the
delta it recorded as its bit length and RLE bytes, which the engine puts in
the commit's version-graph event; that CRC-framed event is the commit's only
metadata write.  A reopen rebuilds each history from the same base by
feeding the graph's commit states back, in commit order, through
:meth:`CommitHistory.replay`; composites are rebuilt along the way and never
written.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.bitmap.bitmap import Bitmap
from repro.bitmap.rle import rle_decode, rle_encode
from repro.errors import StorageError

#: Number of base deltas aggregated into one composite (layer-2) delta.
DEFAULT_LAYER_INTERVAL = 8


@dataclass
class _Delta:
    payload: bytes  # RLE of the delta's bytes
    num_bits: int  # logical bit length of the snapshot


class CommitHistory:
    """The commit history of one branch (or one branch within one segment).

    Entries are keyed by the graph-wide commit sequence number, so a history
    answers for any commit of its branch, whether or not that commit changed
    this bitmap.

    Parameters
    ----------
    layer_interval:
        How many base deltas are folded into each composite delta.  The paper
        uses two layers and found checkout performance adequate; the interval
        is exposed so the ablation benchmark can compare against a flat chain
        (``layer_interval=0`` disables composites).
    base:
        The state before the first entry (default: empty).  It is shared,
        not copied, so the caller must not change it afterwards.
    """

    def __init__(
        self, layer_interval: int = DEFAULT_LAYER_INTERVAL, base: Bitmap | None = None
    ):
        self.layer_interval = layer_interval
        self._sequences: list[int] = []
        self._deltas: list[_Delta] = []
        #: RLE of each composite; empty when its run of deltas cancels out.
        self._composites: list[bytes] = []
        self._base = base if base is not None else Bitmap()
        #: Replaced, never changed in place: it may be the base itself.
        self._last_snapshot = self._base
        #: XOR of the base deltas not yet folded into a composite.
        self._pending = 0

    # -- writing --------------------------------------------------------------

    def record_commit(
        self, sequence: int, snapshot: Bitmap
    ) -> tuple[int, bytes] | None:
        """Record ``snapshot`` as the bitmap state at commit ``sequence``.

        Returns the recorded delta as ``(bit length, RLE bytes)``, or
        ``None`` when the bitmap is unchanged since the previous entry
        (nothing is recorded).
        """
        self._check_order(sequence)
        delta = snapshot ^ self._last_snapshot
        if not delta.any():
            return None
        payload = rle_encode(delta.to_bytes())
        self._append(sequence, payload, len(delta), delta)
        self._last_snapshot = snapshot.copy()
        return len(delta), payload

    def replay(self, sequence: int, recorded: tuple[int, bytes]) -> None:
        """Re-record a delta that :meth:`record_commit` returned."""
        self._check_order(sequence)
        num_bits, payload = recorded
        delta = Bitmap.from_bytes(rle_decode(payload), num_bits)
        self._append(sequence, payload, num_bits, delta)
        self._last_snapshot = self._last_snapshot ^ delta

    def _check_order(self, sequence: int) -> None:
        if self._sequences and sequence <= self._sequences[-1]:
            raise StorageError(
                f"commit {sequence} recorded out of order (last is "
                f"{self._sequences[-1]})"
            )

    def _append(
        self, sequence: int, payload: bytes, num_bits: int, delta: Bitmap
    ) -> None:
        self._deltas.append(_Delta(payload, num_bits))
        if self.layer_interval:
            self._pending ^= delta._as_int()
            if len(self._deltas) % self.layer_interval == 0:
                composite = self._pending
                raw = composite.to_bytes((composite.bit_length() + 7) // 8, "little")
                self._composites.append(rle_encode(raw))
                self._pending = 0
        # Last: a concurrent checkout bisects the sequences first, so it sees
        # the entry only once its delta and composite are in place.
        self._sequences.append(sequence)

    # -- reading --------------------------------------------------------------

    def __len__(self) -> int:
        """Number of recorded deltas (commits that changed the bitmap)."""
        return len(self._deltas)

    def latest_snapshot(self) -> Bitmap:
        """The bitmap state at the most recent entry (the base before any).

        It is shared, not copied: the caller must not change it."""
        return self._last_snapshot

    def checkout(self, sequence: int) -> Bitmap:
        """The bitmap state at commit ``sequence``.

        That is the state at the latest entry at or before it; the base
        when the history has no such entry.  Composites covering a full
        prefix of those deltas are applied to the base first, the
        remaining deltas one by one.
        """
        count = bisect_right(self._sequences, sequence)
        if not count:
            return self._base.copy()
        covered = count // self.layer_interval if self.layer_interval else 0
        state = self._base._as_int()
        for composite in self._composites[:covered]:
            if composite:
                state ^= int.from_bytes(rle_decode(composite), "little")
        for delta in self._deltas[covered * self.layer_interval : count]:
            state ^= int.from_bytes(rle_decode(delta.payload), "little")
        num_bits = self._deltas[count - 1].num_bits
        return Bitmap._from_int(state, max(num_bits, state.bit_length()))

    def size_bytes(self) -> int:
        """Bytes of recorded delta payloads (the RLE bytes of every delta)."""
        return sum(len(delta.payload) for delta in self._deltas)
