"""Tuple-oriented bitmap index.

One bitmap row per tuple; bit ``i`` of tuple T's row says whether T is live in
branch ``i``.  All rows live in a single logical block of memory (paper
Section 3.1): here a flat ``bytearray`` of fixed-width rows that is doubled
(and every row re-copied) when the number of branches outgrows the current
row width -- exactly the expansion cost the paper attributes to branching
under this orientation.

Multi-branch queries are cheap: a single pass over the rows yields, for each
tuple, the set of branches containing it.  Assembling the full bitmap of one
branch, by contrast, requires scanning every row, which is why single-branch
scans underperform with this orientation.
"""

from __future__ import annotations

from typing import Iterator

from repro.bitmap.base import BitmapIndex, BitmapOrientation
from repro.bitmap.bitmap import Bitmap
from repro.errors import BranchExistsError


class TupleOrientedBitmapIndex(BitmapIndex):
    """A single block of per-tuple branch-membership rows."""

    orientation = BitmapOrientation.TUPLE

    def __init__(self, initial_row_bytes: int = 1):
        self._branch_slots: dict[str, int] = {}
        self._row_bytes = max(1, initial_row_bytes)
        self._rows = bytearray()
        self._num_tuples = 0
        #: Number of whole-block expansions performed (exposed for the
        #: orientation ablation benchmark).
        self.expansions = 0

    # -- branch management ----------------------------------------------------

    def add_branch(self, branch: str, clone_from: str | None = None) -> None:
        if branch in self._branch_slots:
            raise BranchExistsError(f"branch {branch!r} already in index")
        slot = len(self._branch_slots)
        if slot >= self._row_bytes * 8:
            self._expand_rows()
        self._branch_slots[branch] = slot
        if clone_from is not None:
            self._require_branch(clone_from)
            source = self._branch_slots[clone_from]
            for tuple_index in range(self._num_tuples):
                if self._get_bit(tuple_index, source):
                    self._set_bit(tuple_index, slot)

    def has_branch(self, branch: str) -> bool:
        return branch in self._branch_slots

    def branches(self) -> list[str]:
        return list(self._branch_slots)

    # -- bit manipulation -----------------------------------------------------

    def set(self, tuple_index: int, branch: str) -> None:
        self._require_branch(branch)
        self._ensure_tuple(tuple_index)
        self._set_bit(tuple_index, self._branch_slots[branch])

    def clear(self, tuple_index: int, branch: str) -> None:
        self._require_branch(branch)
        self._ensure_tuple(tuple_index)
        self._clear_bit(tuple_index, self._branch_slots[branch])

    def is_set(self, tuple_index: int, branch: str) -> bool:
        self._require_branch(branch)
        if tuple_index >= self._num_tuples:
            return False
        return self._get_bit(tuple_index, self._branch_slots[branch])

    # -- whole-branch views ---------------------------------------------------

    def branch_bitmap(self, branch: str) -> Bitmap:
        self._require_branch(branch)
        slot = self._branch_slots[branch]
        # The entire block must be scanned: the bits of one branch are spread
        # across every tuple's row.  The scan tests the slot's byte directly
        # and builds the result through the bitmap's bulk path.
        rows = self._rows
        row_bytes = self._row_bytes
        slot_byte = slot >> 3
        mask = 1 << (slot & 7)
        return Bitmap.from_indices(
            [
                tuple_index
                for tuple_index in range(self._num_tuples)
                if rows[tuple_index * row_bytes + slot_byte] & mask
            ],
            num_bits=self._num_tuples,
        )

    def live_count(self, branch: str) -> int:
        """Count the branch's bits in place, without assembling its bitmap."""
        self._require_branch(branch)
        slot = self._branch_slots[branch]
        mask = 1 << (slot & 7)
        column = self._rows[slot >> 3 :: self._row_bytes]
        return sum(1 for byte in column if byte & mask)

    def restore_branch(self, branch: str, bitmap: Bitmap) -> None:
        self._require_branch(branch)
        slot = self._branch_slots[branch]
        top = max(self._num_tuples, len(bitmap))
        if top:
            self._ensure_tuple(top - 1)
        for tuple_index in range(self._num_tuples):
            if bitmap.get(tuple_index):
                self._set_bit(tuple_index, slot)
            else:
                self._clear_bit(tuple_index, slot)

    def num_tuples(self) -> int:
        return self._num_tuples

    def size_bytes(self) -> int:
        return len(self._rows)

    # -- tuple-major iteration (the strength of this orientation) -------------

    def iter_rows(self) -> Iterator[tuple[int, list[str]]]:
        """Yield ``(tuple_index, [branches containing it])`` in one pass."""
        slot_to_branch = {slot: name for name, slot in self._branch_slots.items()}
        for tuple_index in range(self._num_tuples):
            base = tuple_index * self._row_bytes
            row = self._rows[base : base + self._row_bytes]
            members = []
            for byte_index, byte in enumerate(row):
                while byte:
                    low = byte & -byte
                    slot = byte_index * 8 + low.bit_length() - 1
                    byte ^= low
                    name = slot_to_branch.get(slot)
                    if name is not None:
                        members.append(name)
            yield tuple_index, members

    # -- internals ------------------------------------------------------------

    def _ensure_tuple(self, tuple_index: int) -> None:
        if tuple_index < self._num_tuples:
            return
        new_count = tuple_index + 1
        self._rows.extend(
            b"\x00" * ((new_count - self._num_tuples) * self._row_bytes)
        )
        self._num_tuples = new_count

    def _expand_rows(self) -> None:
        new_row_bytes = self._row_bytes * 2
        new_rows = bytearray(self._num_tuples * new_row_bytes)
        for tuple_index in range(self._num_tuples):
            old_base = tuple_index * self._row_bytes
            new_base = tuple_index * new_row_bytes
            new_rows[new_base : new_base + self._row_bytes] = self._rows[
                old_base : old_base + self._row_bytes
            ]
        self._rows = new_rows
        self._row_bytes = new_row_bytes
        self.expansions += 1

    def _set_bit(self, tuple_index: int, slot: int) -> None:
        offset = tuple_index * self._row_bytes + (slot >> 3)
        self._rows[offset] |= 1 << (slot & 7)

    def _clear_bit(self, tuple_index: int, slot: int) -> None:
        offset = tuple_index * self._row_bytes + (slot >> 3)
        self._rows[offset] &= ~(1 << (slot & 7)) & 0xFF

    def _get_bit(self, tuple_index: int, slot: int) -> bool:
        offset = tuple_index * self._row_bytes + (slot >> 3)
        return bool(self._rows[offset] & (1 << (slot & 7)))
