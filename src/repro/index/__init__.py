"""Versioned index subsystem.

First-class indexing for the three Decibel storage engines:

- :mod:`repro.index.maintenance` is the per-engine facade the engines
  notify on every mutation and the optimizer consults when planning
  :class:`~repro.query.logical.IndexScan` nodes.  Primary-key questions
  it passes to the engine, whose pk index (:mod:`repro.storage.pk_index`)
  is derived data: nothing is persisted, and it is rebuilt from storage
  on first use after a reopen.
- :mod:`repro.index.secondary` maintains in-memory secondary indexes on
  declared predicate columns (equality and range over INT/STRING).
"""

from repro.index.maintenance import IndexMaintenance
from repro.index.secondary import SecondaryIndex

__all__ = ["IndexMaintenance", "SecondaryIndex"]
