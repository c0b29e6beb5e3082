"""Per-branch primary-key indexes.

To support efficient updates and deletes, the tuple-first layout keeps "a
primary-key index indicating the most recent version of each primary key in
each branch" (paper Section 3.2); the hybrid layout needs the same thing with
a (segment, position) location instead of a global tuple index.  The index is
a mapping from branch name to ``{primary key -> location}``, where the
location type is whatever the owning engine uses.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Iterator, TypeVar

from repro.errors import BranchNotFoundError

LocationT = TypeVar("LocationT")


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
