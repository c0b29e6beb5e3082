"""Branch-oriented bitmap index.

One bitmap per branch; bit ``i`` of branch B's bitmap says whether tuple ``i``
is live in B.  Each branch's bitmap lives in its own growable buffer, so
overflowing one branch only grows that branch's bitmap (paper Section 3.1).
This orientation makes single-branch scans and whole-branch snapshot commits
cheap, which is why the evaluation uses it for tuple-first and hybrid
(Section 5, preamble).
"""

from __future__ import annotations

from repro.bitmap.base import BitmapIndex, BitmapOrientation
from repro.bitmap.bitmap import Bitmap
from repro.errors import BranchExistsError


class BranchOrientedBitmapIndex(BitmapIndex):
    """A ``{branch name -> Bitmap}`` index."""

    orientation = BitmapOrientation.BRANCH

    def __init__(self):
        self._bitmaps: dict[str, Bitmap] = {}

    # -- branch management ----------------------------------------------------

    def add_branch(self, branch: str, clone_from: str | None = None) -> None:
        if branch in self._bitmaps:
            raise BranchExistsError(f"branch {branch!r} already in index")
        if clone_from is None:
            self._bitmaps[branch] = Bitmap()
        else:
            self._require_branch(clone_from)
            # A branch operation is a straight memory copy of the parent's
            # bitmap (paper Section 3.2).
            self._bitmaps[branch] = self._bitmaps[clone_from].copy()

    def has_branch(self, branch: str) -> bool:
        return branch in self._bitmaps

    def branches(self) -> list[str]:
        return list(self._bitmaps)

    def drop_branch(self, branch: str) -> None:
        """Remove a branch's bitmap (used when retiring merged-away heads)."""
        self._require_branch(branch)
        del self._bitmaps[branch]

    # -- bit manipulation -----------------------------------------------------

    def _bitmap(self, branch: str) -> Bitmap:
        """``branch``'s bitmap itself, looked up once (no copy)."""
        try:
            return self._bitmaps[branch]
        except KeyError:
            self._require_branch(branch)  # raises BranchNotFoundError
            raise

    def set(self, tuple_index: int, branch: str) -> None:
        self._bitmap(branch).set(tuple_index)

    def clear(self, tuple_index: int, branch: str) -> None:
        self._bitmap(branch).clear(tuple_index)

    def is_set(self, tuple_index: int, branch: str) -> bool:
        return self._bitmap(branch).get(tuple_index)

    # -- whole-branch views ---------------------------------------------------

    def branch_bitmap(self, branch: str) -> Bitmap:
        return self._bitmap(branch).copy()

    def live_count(self, branch: str) -> int:
        """The branch bitmap's cached popcount, read in place (no copy)."""
        return self._bitmap(branch).count()

    def restore_branch(self, branch: str, bitmap: Bitmap) -> None:
        self._require_branch(branch)
        self._bitmaps[branch] = bitmap.copy()

    def num_tuples(self) -> int:
        return max((len(bitmap) for bitmap in self._bitmaps.values()), default=0)

    def size_bytes(self) -> int:
        return sum(bitmap.size_bytes for bitmap in self._bitmaps.values())
