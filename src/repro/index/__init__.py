"""Versioned index subsystem.

First-class indexing for the three Decibel storage engines:

- :mod:`repro.index.maintenance` is the per-engine facade the engines
  notify on every mutation and the optimizer consults when planning
  :class:`~repro.query.logical.IndexScan` nodes.  It owns the per-branch
  primary-key maps, which are derived data: nothing is persisted, and a
  branch's map is rebuilt from storage the first time it is touched.
- :mod:`repro.index.secondary` maintains in-memory secondary indexes on
  declared predicate columns (equality and range over INT/STRING).
"""

from repro.index.maintenance import IndexMaintenance
from repro.index.secondary import SecondaryIndex

__all__ = ["IndexMaintenance", "SecondaryIndex"]
