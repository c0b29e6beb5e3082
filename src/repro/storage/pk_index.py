"""Primary-key indexes: per-branch maps, and the engine-wide key-copy index.

The tuple-first layout keeps "a primary-key index indicating the most recent
version of each primary key in each branch" (paper Section 3.2), and hybrid
needs the same with a (segment, position) location.  Taken literally that is
one ``{key -> location}`` map per branch, and every fork clones the parent's
map, so its cost is branches x rows.

This module deviates from the paper for those two layouts.  They keep one
:class:`KeyCopyIndex` per engine instead: each key maps to *every* stored
copy of it, whatever branch wrote it.  The branch's live bitmaps already say
which copy that branch sees -- at most one copy of a key is live in a branch
-- so a branch lookup walks the key's copies and tests each copy's live bit
in place.  Forks, deletes and bitmap restores never touch the index; its
size is the number of stored copies, independent of the branch count.

Version-first has no live bitmaps, so it keeps the paper's per-branch map
(:class:`PrimaryKeyIndex`); its scans read that map too.
"""

from __future__ import annotations

from typing import (
    Callable,
    ContextManager,
    Generic,
    Iterable,
    Iterator,
    Sequence,
    TypeVar,
)

from repro.errors import BranchNotFoundError

LocationT = TypeVar("LocationT")


class KeyCopyIndex(Generic[LocationT]):
    """Maps each primary key to the locations of all its stored copies.

    The index is derived data and append-only: a new physical copy (an
    insert, an update, a merge's field-level resolution) adds a location,
    nothing ever removes one.  After a reopen, or once its engine is
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


class PrimaryKeyIndex(Generic[LocationT]):
    """Maps (branch, primary key) to the latest physical location of the key.

    Branches registered through :meth:`register_lazy` hold no entries until
    first touched: the first key operation against such a branch invokes the
    registered hydrator (which rebuilds the map from storage) and caches the
    result.  This keeps cold opens O(branches
    touched), not O(total data).
    """

    def __init__(self):
        self._branches: dict[str, dict[int, LocationT]] = {}
        self._lazy: set[str] = set()
        self._hydrator: Callable[[str], dict[int, LocationT]] | None = None

    # -- branch management ----------------------------------------------------

    def add_branch(self, branch: str, clone_from: str | None = None) -> None:
        """Register ``branch``, optionally cloning another branch's entries."""
        self._lazy.discard(branch)
        if clone_from is None:
            self._branches.setdefault(branch, {})
        else:
            self._branches[branch] = dict(self._branch(clone_from))

    def register_lazy(
        self,
        branches: Iterable[str],
        hydrator: Callable[[str], dict[int, LocationT]],
    ) -> None:
        """Register ``branches`` whose entries materialize on first touch.

        ``hydrator(branch)`` must produce the full key map without going
        back through this index (no reentrancy).
        """
        self._hydrator = hydrator
        for branch in branches:
            if branch not in self._branches:
                self._lazy.add(branch)

    def has_branch(self, branch: str) -> bool:
        """True if ``branch`` is registered (loaded or pending lazy load)."""
        return branch in self._branches or branch in self._lazy

    def branch_loaded(self, branch: str) -> bool:
        """True if ``branch``'s entries are materialized in memory."""
        return branch in self._branches

    def drop_branch(self, branch: str) -> None:
        """Forget all entries of ``branch``."""
        if branch in self._lazy:
            self._lazy.discard(branch)
            return
        self._branch(branch)
        del self._branches[branch]

    def replace_branch(self, branch: str, entries: dict[int, LocationT]) -> None:
        """Overwrite the whole key map of ``branch`` (used by checkouts)."""
        self._lazy.discard(branch)
        self._branches[branch] = dict(entries)

    # -- key operations ---------------------------------------------------------

    def put(self, branch: str, key: int, location: LocationT) -> None:
        """Record that ``key``'s latest version in ``branch`` lives at ``location``."""
        self._branch(branch)[key] = location

    def get(self, branch: str, key: int) -> LocationT | None:
        """The latest location of ``key`` in ``branch``, or None if absent."""
        return self._branch(branch).get(key)

    def remove(self, branch: str, key: int) -> None:
        """Forget ``key`` in ``branch`` (after a delete)."""
        self._branch(branch).pop(key, None)

    def contains(self, branch: str, key: int) -> bool:
        """True if ``key`` currently exists in ``branch``."""
        return key in self._branch(branch)

    def keys(self, branch: str) -> Iterator[int]:
        """All live primary keys of ``branch``."""
        return iter(self._branch(branch))

    def entries(self, branch: str) -> dict[int, LocationT]:
        """A copy of the full key map of ``branch``."""
        return dict(self._branch(branch))

    def items(self, branch: str) -> Iterator[tuple[int, LocationT]]:
        """Live ``(key, location)`` pairs of ``branch`` without copying.

        Callers must not mutate the index while iterating.
        """
        return iter(self._branch(branch).items())

    def locations(self, branch: str) -> Iterator[LocationT]:
        """Live locations of ``branch`` without copying the key map.

        Callers must not mutate the index while iterating.
        """
        return iter(self._branch(branch).values())

    def live_count(self, branch: str) -> int:
        """Number of live keys in ``branch``."""
        return len(self._branch(branch))

    # -- internals --------------------------------------------------------------

    def _branch(self, branch: str) -> dict[int, LocationT]:
        try:
            return self._branches[branch]
        except KeyError:
            if branch in self._lazy and self._hydrator is not None:
                self._lazy.discard(branch)
                entries = dict(self._hydrator(branch))
                self._branches[branch] = entries
                return entries
            raise BranchNotFoundError(
                f"branch {branch!r} is not present in the primary-key index"
            ) from None
