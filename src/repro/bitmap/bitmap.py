"""A growable bitset.

Bitmaps are the indexing structure of the tuple-first and hybrid layouts: one
bit per (tuple, branch) pair records whether the tuple is live in the branch.
The backing store is a ``bytearray`` that grows by doubling, matching the
amortized growth strategy described for branch creation in the paper
(Section 3.2).  Bulk logical operations convert to Python integers, which
gives word-at-a-time AND/OR/XOR without a native extension; iteration over
set bits works 64-bit-word-at-a-time, stripping the lowest set bit with
``word & -word`` instead of probing bits one by one.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator

#: Bits per iteration word used by :meth:`Bitmap.iter_words`.
WORD_BITS = 64
_WORD_BYTES = WORD_BITS // 8


class Bitmap:
    """A dynamically sized bitset with bulk logical operations."""

    __slots__ = ("_bytes", "_num_bits", "_count")

    def __init__(self, num_bits: int = 0):
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        self._num_bits = num_bits
        self._bytes = bytearray((num_bits + 7) // 8)
        #: Cached population count; ``None`` after any mutation.
        self._count: int | None = 0

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_indices(cls, indices: Iterable[int], num_bits: int = 0) -> "Bitmap":
        """A bitmap with exactly the given bit positions set."""
        bitmap = cls(num_bits)
        bitmap.set_many(indices)
        return bitmap

    @classmethod
    def from_bytes(cls, data: bytes, num_bits: int) -> "Bitmap":
        """Rebuild a bitmap from :meth:`to_bytes` output.

        ``num_bits`` must be covered by ``data``: accepting an oversized bit
        count would silently fabricate zero bits that were never serialized.
        """
        needed = (num_bits + 7) // 8
        if needed > len(data):
            raise ValueError(
                f"num_bits={num_bits} needs {needed} bytes, got {len(data)}"
            )
        bitmap = cls(num_bits)
        bitmap._bytes = bytearray(data[:needed])
        bitmap._count = None
        return bitmap

    def copy(self) -> "Bitmap":
        """An independent copy of this bitmap."""
        clone = Bitmap(self._num_bits)
        clone._bytes = bytearray(self._bytes)
        clone._count = self._count
        return clone

    # -- size -----------------------------------------------------------------

    def __len__(self) -> int:
        """The logical number of bits tracked (set or not)."""
        return self._num_bits

    @property
    def size_bytes(self) -> int:
        """Bytes used by the backing store."""
        return len(self._bytes)

    def _ensure(self, index: int) -> None:
        if index < 0:
            raise IndexError("bit index must be non-negative")
        if index >= self._num_bits:
            self._num_bits = index + 1
        needed = (self._num_bits + 7) // 8
        if needed > len(self._bytes):
            # Grow by doubling to amortize repeated appends.
            new_size = max(needed, 2 * len(self._bytes), 8)
            self._bytes.extend(b"\x00" * (new_size - len(self._bytes)))

    # -- single-bit operations ------------------------------------------------

    def set(self, index: int) -> None:
        """Set bit ``index`` to 1, growing the bitmap if needed."""
        self._ensure(index)
        self._bytes[index >> 3] |= 1 << (index & 7)
        self._count = None

    def clear(self, index: int) -> None:
        """Set bit ``index`` to 0, growing the bitmap if needed."""
        self._ensure(index)
        self._bytes[index >> 3] &= ~(1 << (index & 7)) & 0xFF
        self._count = None

    def get(self, index: int) -> bool:
        """True if bit ``index`` is set.  Out-of-range bits read as 0."""
        if index < 0:
            raise IndexError("bit index must be non-negative")
        if index >= self._num_bits:
            return False
        return bool(self._bytes[index >> 3] & (1 << (index & 7)))

    def __getitem__(self, index: int) -> bool:
        return self.get(index)

    # -- bulk mutation --------------------------------------------------------

    def set_many(self, indices: Iterable[int]) -> None:
        """Set every bit in ``indices``, growing once and writing in one pass."""
        if not isinstance(indices, (list, tuple)):
            indices = list(indices)
        if not indices:
            return
        if min(indices) < 0:
            raise IndexError("bit index must be non-negative")
        self._ensure(max(indices))
        buf = self._bytes
        for index in indices:
            buf[index >> 3] |= 1 << (index & 7)
        self._count = None

    # -- bulk operations ------------------------------------------------------

    def _as_int(self) -> int:
        return int.from_bytes(self._bytes, "little")

    @classmethod
    def _from_int(cls, value: int, num_bits: int) -> "Bitmap":
        bitmap = cls(num_bits)
        num_bytes = (num_bits + 7) // 8
        bitmap._bytes = bytearray(value.to_bytes(max(num_bytes, 1), "little")[:num_bytes])
        if len(bitmap._bytes) < num_bytes:
            bitmap._bytes.extend(b"\x00" * (num_bytes - len(bitmap._bytes)))
        bitmap._count = None
        return bitmap

    def _binary(self, other: "Bitmap", op) -> "Bitmap":
        num_bits = max(self._num_bits, other._num_bits)
        return Bitmap._from_int(op(self._as_int(), other._as_int()), num_bits)

    def __and__(self, other: "Bitmap") -> "Bitmap":
        return self._binary(other, lambda a, b: a & b)

    def __or__(self, other: "Bitmap") -> "Bitmap":
        return self._binary(other, lambda a, b: a | b)

    def __xor__(self, other: "Bitmap") -> "Bitmap":
        return self._binary(other, lambda a, b: a ^ b)

    def and_not(self, other: "Bitmap") -> "Bitmap":
        """Bits set in ``self`` but not in ``other`` (set difference)."""
        return self._binary(other, lambda a, b: a & ~b)

    # -- buffer-reusing variants ----------------------------------------------

    def _store_int(self, value: int, num_bits: int) -> "Bitmap":
        """Overwrite this bitmap's contents in place (buffer reuse)."""
        self._num_bits = num_bits
        needed = (num_bits + 7) // 8
        if len(self._bytes) < needed:
            self._bytes.extend(b"\x00" * (needed - len(self._bytes)))
        self._bytes[:needed] = value.to_bytes(max(needed, 1), "little")[:needed]
        if len(self._bytes) > needed:
            # Bits beyond num_bits must stay zero (iteration invariant).
            self._bytes[needed:] = b"\x00" * (len(self._bytes) - needed)
        self._count = None
        return self

    def union_update(self, other: "Bitmap") -> "Bitmap":
        """In-place ``self |= other``, reusing this bitmap's buffer."""
        return self._store_int(
            self._as_int() | other._as_int(), max(self._num_bits, other._num_bits)
        )

    def intersection_update(self, other: "Bitmap") -> "Bitmap":
        """In-place ``self &= other``, reusing this bitmap's buffer."""
        return self._store_int(
            self._as_int() & other._as_int(), max(self._num_bits, other._num_bits)
        )

    def difference_update(self, other: "Bitmap") -> "Bitmap":
        """In-place ``self &= ~other``, reusing this bitmap's buffer."""
        return self._store_int(
            self._as_int() & ~other._as_int(), max(self._num_bits, other._num_bits)
        )

    def and_not_into(self, other: "Bitmap", out: "Bitmap") -> "Bitmap":
        """Write ``self & ~other`` into ``out`` (reusing its buffer) and return it."""
        return out._store_int(
            self._as_int() & ~other._as_int(), max(self._num_bits, other._num_bits)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self._as_int() == other._as_int()

    def __hash__(self) -> int:  # pragma: no cover - bitmaps rarely hashed
        return hash(self._as_int())

    # -- queries --------------------------------------------------------------

    def count(self) -> int:
        """Number of set bits (population count), cached between mutations."""
        if self._count is None:
            self._count = self._as_int().bit_count()
        return self._count

    def any(self) -> bool:
        """True if at least one bit is set."""
        return any(self._bytes)

    def end(self) -> int:
        """One past the highest set bit; 0 when no bit is set."""
        return self._as_int().bit_length()

    def prefix(self, num_bits: int) -> "Bitmap":
        """A copy holding only the first ``num_bits`` bits."""
        return Bitmap._from_int(self._as_int() & ((1 << num_bits) - 1), num_bits)

    def iter_words(self) -> Iterator[tuple[int, int]]:
        """Yield ``(word index, word)`` for every nonzero 64-bit word.

        Fully zero words -- dead stretches of the heap -- are skipped without
        per-bit work, which is what lets scans jump over dead pages.
        """
        data = self._bytes
        num_full = len(data) >> 3
        if num_full:
            words = struct.unpack_from(f"<{num_full}Q", data)
            for word_index, word in enumerate(words):
                if word:
                    yield word_index, word
        tail = len(data) & 7
        if tail:
            word = int.from_bytes(data[num_full << 3 :], "little")
            if word:
                yield num_full, word

    def iter_set_bits(self) -> Iterator[int]:
        """Yield the indices of set bits in ascending order, word-at-a-time.

        The word loop is inlined (rather than layered over
        :meth:`iter_words`) so dense bitmaps do not pay a nested generator
        resume per bit.
        """
        data = self._bytes
        num_full = len(data) >> 3
        if num_full:
            words = struct.unpack_from(f"<{num_full}Q", data)
            for word_index, word in enumerate(words):
                if word:
                    base = word_index << 6
                    while word:
                        low = word & -word
                        yield base + low.bit_length() - 1
                        word ^= low
        if len(data) & 7:
            word = int.from_bytes(data[num_full << 3 :], "little")
            base = num_full << 6
            while word:
                low = word & -word
                yield base + low.bit_length() - 1
                word ^= low

    def to_indices(self) -> list[int]:
        """The set bit positions as a list."""
        return list(self.iter_set_bits())

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The backing bytes, trimmed to the logical bit length."""
        return bytes(self._bytes[: (self._num_bits + 7) // 8])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Bitmap(bits={self._num_bits}, set={self.count()})"
