"""Bitmaps and bitmap indexes.

The tuple-first and hybrid layouts track which branches each tuple is live in
using bitmap indexes (paper Section 3.1).  This subpackage provides:

* :class:`~repro.bitmap.bitmap.Bitmap` -- a growable bitset with the bulk
  logical operations (AND/OR/XOR/ANDNOT) the engines rely on.
* :mod:`~repro.bitmap.rle` -- the run-length codec used to compress commit
  deltas.
* :class:`~repro.bitmap.delta.CommitHistory` -- per-branch commit histories
  of XOR deltas between commit snapshots, with a second composite layer for
  faster checkout (paper Section 3.2).
* Branch-oriented and tuple-oriented bitmap indexes
  (:mod:`~repro.bitmap.branch_bitmap`, :mod:`~repro.bitmap.tuple_bitmap`),
  the two organizations compared in the paper.
"""

from repro.bitmap.bitmap import Bitmap
from repro.bitmap.rle import rle_decode, rle_encode
from repro.bitmap.delta import CommitHistory
from repro.bitmap.base import BitmapIndex, BitmapOrientation
from repro.bitmap.branch_bitmap import BranchOrientedBitmapIndex
from repro.bitmap.tuple_bitmap import TupleOrientedBitmapIndex

__all__ = [
    "Bitmap",
    "rle_encode",
    "rle_decode",
    "CommitHistory",
    "BitmapIndex",
    "BitmapOrientation",
    "BranchOrientedBitmapIndex",
    "TupleOrientedBitmapIndex",
]


def make_bitmap_index(orientation: "BitmapOrientation | str") -> "BitmapIndex":
    """Create a bitmap index of the requested orientation.

    Accepts either a :class:`BitmapOrientation` or its string value
    (``"branch"`` / ``"tuple"``).
    """
    if isinstance(orientation, str):
        orientation = BitmapOrientation(orientation)
    if orientation is BitmapOrientation.BRANCH:
        return BranchOrientedBitmapIndex()
    return TupleOrientedBitmapIndex()
