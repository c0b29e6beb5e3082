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

Layout: the copies read from storage are two parallel ``array('q')``s,
``keys`` sorted and ``locations``, 16 bytes per copy (a dict of boxed ints
costs about 110); a lookup bisects ``keys``.  Copies added after the build
go to a small ``{key: location or [locations]}`` dict.  They are never
folded into the arrays: a fold costs a copy of both arrays, which a writer
would pay, so an engine that is never reopened holds every copy in the
dict.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Callable, ContextManager, Iterable, Sequence

if TYPE_CHECKING:
    #: A built index: sorted keys, their locations (parallel to the keys),
    #: and the copies added since the build (key -> location, or a list).
    _State = tuple[array[int], array[int], dict[int, object]]


class KeyCopyIndex:
    """Maps each primary key to the locations of all its stored copies.

    The index is derived data and append-only: a new physical copy (an
    insert, an update, a merge's field-level resolution, a version-first
    tombstone) adds a location, nothing ever removes one.  After a reopen,
    or once its engine is closed, it is unbuilt and is read from storage on
    the first lookup, through ``stored_copies()``, which yields one
    ``(key column, first location)`` chunk per page: the column's ``i``-th
    key is stored at location ``first + i``.  The build sorts the keys with
    a stable sort, so a key's copies stay in storage order, oldest first.

    Copies added while the index is unbuilt are skipped: the build reads
    them from storage.  The build holds ``lock`` -- the lock the engine's
    writers hold -- so no copy is appended to storage while the build reads
    it.  Readers take no lock: the built state is published as one tuple
    whose arrays are never mutated, so a reader sees a whole ``(keys,
    locations)`` pair or none.
    """

    def __init__(
        self,
        stored_copies: Callable[[], Iterable[tuple[Sequence[int], int]]],
        lock: ContextManager,
    ):
        self._stored_copies = stored_copies
        self._lock = lock
        #: ``(keys, locations, recent)`` once built, else None.
        self._state: _State | None = None
        #: Number of builds from storage (opens must stay lazy).
        self.builds = 0

    @property
    def built(self) -> bool:
        """True if the copies are in memory."""
        return self._state is not None

    def start_empty(self) -> None:
        """Mark the index built and empty (a fresh engine has no copies)."""
        self._state = (array("q"), array("q"), {})

    def drop(self) -> None:
        """Return to unbuilt: the next lookup reads the copies from storage
        again.  A closed engine drops its index, so a caller still holding
        the engine does not pin every key's copies."""
        with self._lock:
            self._state = None

    def add(self, key: int, location: int) -> None:
        """Record a new stored copy of ``key`` at ``location``."""
        state = self._state
        if state is not None:
            _add_copy(state[2], key, location)

    def copies(self, key: int) -> Sequence[int]:
        """Every stored copy of ``key``, oldest first (building if needed)."""
        state = self._state
        if state is None:
            state = self._build()
        keys, locations, recent = state
        held = recent.get(key)
        stored: Sequence[int] = ()
        if keys:  # empty until a build: a fresh engine's copies are recent
            try:
                low = bisect_left(keys, key)
            except TypeError:  # not a number (a string literal): no stored key
                low = len(keys)
            if low < len(keys) and keys[low] == key:
                high = low + 1
                if high < len(keys) and keys[high] == key:
                    high = bisect_right(keys, key, high)
                stored = locations[low:high]
        if held is None:
            return stored
        if type(held) is not list:
            held = (held,)
        return [*stored, *held] if stored else held

    def __len__(self) -> int:
        """Number of stored copies indexed (0 while unbuilt)."""
        state = self._state
        if state is None:
            return 0
        keys, _, recent = state
        return len(keys) + sum(
            len(held) if type(held) is list else 1 for held in recent.values()
        )

    def _build(self) -> _State:
        with self._lock:
            state = self._state
            if state is not None:  # another thread built it first
                return state
            keys = array("q")
            locations = array("q")
            for column, first in self._stored_copies():
                if type(column) is not array or column.typecode != "q":
                    column = array("q", column)
                keys.extend(column)
                locations.extend(range(first, first + len(column)))
            # One stable argsort, over a list (whose items index faster
            # than an array's); arrays built from lists carry no slack.
            key_list = keys.tolist()
            order = sorted(range(len(key_list)), key=key_list.__getitem__)
            key_list.sort()
            keys = array("q", key_list)
            del key_list  # before the locations' list: a lower peak
            state = (keys, array("q", [locations[i] for i in order]), {})
            self._state = state
            self.builds += 1
            return state


def _add_copy(copies: dict[int, object], key: int, location: int) -> None:
    """Most keys have one copy: it is held bare, and a list is allocated
    only for a key's second copy (locations are never lists)."""
    held = copies.get(key)
    if held is None:
        copies[key] = location
    elif type(held) is list:
        held.append(location)
    else:
        copies[key] = [held, location]
