"""Relational storage substrate.

This subpackage stands in for the MIT SimpleDB engine that the original
Decibel prototype was built on.  It provides the pieces the versioned storage
engines need: schemas and fixed-width record encoding, slotted pages, heap
files, a buffer pool with pinning and LRU eviction, a two-phase-locking lock
manager, a minimal write-ahead log, and columnar query operators.
"""

from repro.core.schema import Column, ColumnType, Schema
from repro.core.record import Record, RecordCodec
from repro.core.page import Page, PageId
from repro.core.heapfile import HeapFile, RecordId
from repro.core.buffer_pool import BufferPool
from repro.core.predicates import (
    And,
    ColumnPredicate,
    Or,
    Not,
    Predicate,
    TruePredicate,
)
from repro.core.operators import (
    Filter,
    GroupAggregate,
    HashJoin,
    Limit,
    Project,
    SeqScan,
)
from repro.core.catalog import Catalog, RelationInfo
from repro.core.locks import LockManager, LockMode
from repro.core.transactions import Transaction, TransactionManager
from repro.core.wal import LogRecord, LogRecordType, WriteAheadLog

__all__ = [
    "Column",
    "ColumnType",
    "Schema",
    "Record",
    "RecordCodec",
    "Page",
    "PageId",
    "HeapFile",
    "RecordId",
    "BufferPool",
    "Predicate",
    "ColumnPredicate",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "SeqScan",
    "Filter",
    "Project",
    "HashJoin",
    "GroupAggregate",
    "Limit",
    "Catalog",
    "RelationInfo",
    "LockManager",
    "LockMode",
    "Transaction",
    "TransactionManager",
    "WriteAheadLog",
    "LogRecord",
    "LogRecordType",
]
