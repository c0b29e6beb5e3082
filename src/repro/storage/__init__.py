"""Versioned storage engines.

The three physical representations evaluated in the paper (Section 3):

* :class:`~repro.storage.tuple_first.TupleFirstEngine` -- all branches share
  one heap file; a bitmap index tracks which branches each tuple is live in.
* :class:`~repro.storage.version_first.VersionFirstEngine` -- each branch's
  modifications live in that branch's own segment file, chained to its
  ancestors by branch-point offsets.
* :class:`~repro.storage.hybrid.HybridEngine` -- version-first style segments,
  each with a local bitmap index, plus a global branch-to-segment bitmap.

All engines implement :class:`~repro.storage.base.VersionedStorageEngine`.
"""

from repro.storage.base import (
    EngineStats,
    MergeResult,
    StorageEngineKind,
    VersionedStorageEngine,
)
from repro.storage.segments import Segment, SegmentSet
from repro.storage.tuple_first import TupleFirstEngine
from repro.storage.version_first import VersionFirstEngine
from repro.storage.hybrid import HybridEngine

__all__ = [
    "EngineStats",
    "MergeResult",
    "StorageEngineKind",
    "VersionedStorageEngine",
    "Segment",
    "SegmentSet",
    "TupleFirstEngine",
    "VersionFirstEngine",
    "HybridEngine",
    "create_engine",
]


def create_engine(kind, directory, schema, **kwargs):
    """Create a storage engine by kind.

    ``kind`` may be a :class:`StorageEngineKind` or one of the strings
    ``"tuple-first"``, ``"version-first"``, ``"hybrid"``.
    """
    if isinstance(kind, str):
        kind = StorageEngineKind(kind)
    if kind is StorageEngineKind.TUPLE_FIRST:
        return TupleFirstEngine(directory, schema, **kwargs)
    if kind is StorageEngineKind.VERSION_FIRST:
        return VersionFirstEngine(directory, schema, **kwargs)
    if kind is StorageEngineKind.HYBRID:
        return HybridEngine(directory, schema, **kwargs)
    raise ValueError(f"no engine for kind {kind!r}")
