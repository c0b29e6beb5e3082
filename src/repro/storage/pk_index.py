"""The primary-key index of all three engines: the engine-wide key-copy index.

The tuple-first layout keeps "a primary-key index indicating the most recent
version of each primary key in each branch" (paper Section 3.2), and the
segmented layouts need the same with a (segment, position) location.  Taken
literally that is one ``{key -> location}`` map per branch, and every fork
clones the parent's map, so its cost is branches x rows.

This module deviates from the paper.  Each engine keeps one
:class:`KeyCopyIndex` instead: each key maps to *every* stored copy of it,
whatever branch wrote it (a version-first tombstone is a stored copy too).
The branch's live bitmaps already say which copy that branch sees -- at
most one copy of a key is live in a branch, and never a tombstone -- so a
branch lookup walks the key's copies and tests each copy's live bit in
place.  Forks, deletes and bitmap restores never touch the index; its size
is the number of stored copies, independent of the branch count.
"""

from __future__ import annotations

from typing import Callable, ContextManager, Generic, Iterable, Sequence, TypeVar

LocationT = TypeVar("LocationT")


class KeyCopyIndex(Generic[LocationT]):
    """Maps each primary key to the locations of all its stored copies.

    The index is derived data and append-only: a new physical copy (an
    insert, an update, a merge's field-level resolution, a version-first
    tombstone) adds a location, nothing ever removes one.  After a reopen, or once its engine is
    closed, it is unbuilt and is read from storage on the first lookup,
    through ``stored_copies()``, which yields ``(key, location)`` for every
    stored record.  Copies added while the index is unbuilt are skipped:
    the build reads them from storage.  The build holds ``lock`` -- the
    lock the engine's writers hold -- so no copy is appended to storage
    while the build reads it.
    """

    def __init__(
        self,
        stored_copies: Callable[[], Iterable[tuple[int, LocationT]]],
        lock: ContextManager,
    ):
        self._stored_copies = stored_copies
        self._lock = lock
        #: key -> its one location, or a list of them (see ``_add_copy``).
        self._copies: dict[int, object] | None = None
        #: Number of builds from storage (opens must stay lazy).
        self.builds = 0

    @property
    def built(self) -> bool:
        """True if the copies are in memory."""
        return self._copies is not None

    def start_empty(self) -> None:
        """Mark the index built and empty (a fresh engine has no copies)."""
        self._copies = {}

    def drop(self) -> None:
        """Return to unbuilt: the next lookup reads the copies from storage
        again.  A closed engine drops its index, so a caller still holding
        the engine does not pin every key's copies."""
        with self._lock:
            self._copies = None

    def add(self, key: int, location: LocationT) -> None:
        """Record a new stored copy of ``key`` at ``location``."""
        if self._copies is not None:
            _add_copy(self._copies, key, location)

    def copies(self, key: int) -> Sequence[LocationT]:
        """Every stored copy of ``key``, oldest first (building if needed)."""
        copies = self._copies
        if copies is None:
            copies = self._build()
        held = copies.get(key)
        if held is None:
            return ()
        return held if type(held) is list else (held,)

    def __len__(self) -> int:
        """Number of stored copies indexed (0 while unbuilt)."""
        if self._copies is None:
            return 0
        return sum(
            len(held) if type(held) is list else 1 for held in self._copies.values()
        )

    def _build(self) -> dict[int, object]:
        with self._lock:
            if self._copies is not None:  # another thread built it first
                return self._copies
            copies: dict[int, object] = {}
            for key, location in self._stored_copies():
                _add_copy(copies, key, location)
            self._copies = copies
            self.builds += 1
            return copies


def _add_copy(copies: dict[int, object], key: int, location: object) -> None:
    """Most keys have one copy: it is held bare, and a list is allocated
    only for a key's second copy (locations are never lists)."""
    held = copies.get(key)
    if held is None:
        copies[key] = location
    elif type(held) is list:
        held.append(location)
    else:
        copies[key] = [held, location]
