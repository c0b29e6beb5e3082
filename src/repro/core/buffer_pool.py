"""A buffer pool caching pages read from heap and segment files.

The paper's prototype keeps pages in "a fairly conventional buffer pool
architecture" (Section 2.1).  This implementation is a pin-aware LRU cache
keyed by :class:`~repro.core.page.PageId`.  Files load pages through
:meth:`BufferPool.get_page`, supplying a loader callback used on a miss;
dirty pages are written back through a flusher callback on eviction or an
explicit :meth:`flush_all`.

The pool is sized by **bytes**, not pages: a page-count cap made the
effective memory budget a function of the configured page size (512 pages
was 32 MiB at the 64 KiB default but only 2 MiB at the benchmark's 4 KiB
pages, which thrashed on 100k-row heaps).  A page-count cap is still
accepted for tests that want to force eviction with a handful of pages.

A frame is charged its page's :meth:`~repro.core.page.Page.memory_footprint`:
the encoded image plus any cached column view, which is all a page holds
(pages never keep decoded rows).  A page reports a change of footprint to
the pool as it happens (:attr:`~repro.core.page.Page.on_resize`), so the
charge is always exact, and a column view that pushes the pool past its
budget evicts other frames at once.  Reader threads cache views while
others load pages, so every change to the frame table and its charge is
made under one lock; page loads run outside it.

One-pass sequential scans of files larger than the whole pool can bypass
admission (``transient=True``): resident pages are still served from the
pool, but misses are read through without inserting, so a big scan does not
evict every hot page while producing frames it will never revisit.

Benchmarks call :meth:`clear` between runs to approximate the cold-cache
(flushed OS page cache) measurements of the paper.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.core.page import Page, PageId
from repro.errors import StorageError

#: Default byte budget of the pool (the old default of 512 pages at the
#: 64 KiB default page size, now independent of page size).
DEFAULT_POOL_BYTES = 32 * 1024 * 1024


@dataclass
class BufferPoolStats:
    """Counters describing buffer pool behaviour since the last reset."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0
    #: Transient (scan-bypass) reads that skipped pool admission on a miss.
    bypasses: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0
        self.bypasses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of page requests served from the pool."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _Frame:
    page: Page
    dirty: bool = False
    pin_count: int = 0
    flusher: Callable[[Page], None] | None = field(default=None, repr=False)
    #: Bytes this frame is charged against the pool budget:
    #: ``page.memory_footprint()`` (image plus any cached column payload),
    #: kept current by the page's resize reports.
    charged_bytes: int = 0


class BufferPool:
    """A pin-aware LRU page cache shared by all files of one engine.

    Parameters
    ----------
    capacity_bytes:
        Memory budget for cached page data.  Eviction keeps the sum of
        resident page footprints (raw image plus cached column payload; see
        :meth:`Page.memory_footprint`) at or under this budget.
    capacity_pages:
        Optional additional cap on the number of resident pages (mainly for
        tests that exercise eviction with a few small pages).
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_POOL_BYTES,
        *,
        capacity_pages: int | None = None,
    ):
        if capacity_bytes < 1:
            raise StorageError("buffer pool needs a positive byte budget")
        if capacity_pages is not None and capacity_pages < 1:
            raise StorageError("buffer pool needs capacity for at least one page")
        self.capacity_bytes = capacity_bytes
        self.capacity_pages = capacity_pages
        self._frames: OrderedDict[PageId, _Frame] = OrderedDict()
        self._resident_bytes = 0
        self.stats = BufferPoolStats()
        #: Guards ``_frames``, ``_resident_bytes`` and ``stats``; reentrant
        #: because a replaced page's resize report runs inside put_page.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def resident_bytes(self) -> int:
        """Bytes of page data currently held by the pool."""
        return self._resident_bytes

    # -- core API -------------------------------------------------------------

    def get_page(
        self,
        page_id: PageId,
        loader: Callable[[], Page],
        flusher: Callable[[Page], None] | None = None,
        transient: bool = False,
    ) -> Page:
        """Return the page for ``page_id``, loading it on a miss.

        ``loader`` is invoked only when the page is not resident.  ``flusher``
        is remembered and used to write the page back if it is dirty when
        evicted or flushed.  With ``transient=True`` a miss is read through
        without admitting the page (scan-resistant one-pass reads); hits are
        served from the pool either way.
        """
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.stats.hits += 1
                self._frames.move_to_end(page_id)
                return frame.page
            self.stats.misses += 1
        page = loader()
        with self._lock:
            if transient:
                self.stats.bypasses += 1
                return page
            frame = self._frames.get(page_id)
            if frame is not None:
                # Another thread loaded the page meanwhile: keep one copy.
                self._frames.move_to_end(page_id)
                return frame.page
            self._admit(page_id, _Frame(page=page, flusher=flusher))
        return page

    def put_page(
        self,
        page: Page,
        *,
        dirty: bool = False,
        flusher: Callable[[Page], None] | None = None,
    ) -> None:
        """Insert (or overwrite) ``page`` in the pool."""
        with self._lock:
            existing = self._frames.get(page.page_id)
            if existing is None:
                frame = _Frame(page=page, dirty=dirty, flusher=flusher)
                self._admit(page.page_id, frame)
                return
            existing.page = page
            page.on_resize = self._page_resized
            existing.dirty = existing.dirty or dirty
            if flusher is not None:
                existing.flusher = flusher
            self._frames.move_to_end(page.page_id)
            self._page_resized(page)

    def mark_dirty(self, page_id: PageId) -> None:
        """Mark a resident page as modified."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                raise StorageError(f"page {page_id} is not resident")
            frame.dirty = True

    # -- pinning --------------------------------------------------------------

    def pin(self, page_id: PageId) -> None:
        """Pin a resident page so it cannot be evicted."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                raise StorageError(f"cannot pin non-resident page {page_id}")
            frame.pin_count += 1

    def unpin(self, page_id: PageId) -> None:
        """Release one pin on a resident page."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                raise StorageError(f"cannot unpin non-resident page {page_id}")
            if frame.pin_count <= 0:
                raise StorageError(f"page {page_id} is not pinned")
            frame.pin_count -= 1

    # -- flushing and invalidation --------------------------------------------

    def flush_all(self) -> None:
        """Write back every dirty page that has a flusher."""
        with self._lock:
            for frame in self._frames.values():
                self._flush_frame(frame)

    def invalidate_file(self, file_name: str) -> None:
        """Drop (flushing if dirty) every cached page of ``file_name``."""
        with self._lock:
            to_drop = [
                page_id
                for page_id in self._frames
                if page_id.file_name == file_name
            ]
            for page_id in to_drop:
                frame = self._frames.pop(page_id)
                self._flush_frame(frame)
                self._resident_bytes -= frame.charged_bytes

    def clear(self) -> None:
        """Flush and drop every cached page (cold-cache simulation)."""
        with self._lock:
            self.flush_all()
            self._frames.clear()
            self._resident_bytes = 0

    # -- internals ------------------------------------------------------------

    def _flush_frame(self, frame: _Frame) -> None:
        if frame.dirty and frame.flusher is not None:
            frame.flusher(frame.page)
            frame.dirty = False
            self.stats.flushes += 1

    def _over_budget(self, incoming_bytes: int) -> bool:
        if self._resident_bytes + incoming_bytes > self.capacity_bytes:
            return True
        return (
            self.capacity_pages is not None
            and len(self._frames) >= self.capacity_pages
        )

    def _page_resized(self, page: Page) -> None:
        """True up the charge of ``page``'s frame after its footprint
        changed (a column view cached or dropped), evicting other frames
        while a growth leaves the pool over budget."""
        with self._lock:
            frame = self._frames.get(page.page_id)
            if frame is None or frame.page is not page:
                return  # evicted or replaced: nothing is charged for it
            footprint = page.memory_footprint()
            self._resident_bytes += footprint - frame.charged_bytes
            frame.charged_bytes = footprint
            while self._resident_bytes > self.capacity_bytes:
                if not self._evict(keep=page.page_id):
                    break

    def _admit(self, page_id: PageId, frame: _Frame) -> None:
        incoming = frame.page.memory_footprint()
        frame.charged_bytes = incoming
        while self._frames and self._over_budget(incoming):
            if not self._evict():
                break
        self._frames[page_id] = frame
        self._resident_bytes += incoming
        frame.page.on_resize = self._page_resized

    def _evict(self, keep: PageId | None = None) -> bool:
        """Evict the least recently used unpinned frame other than
        ``keep``; False if there is none.

        With everything pinned the pool grows rather than fail a read,
        mirroring the forgiving behaviour of the prototype.
        """
        for page_id, frame in self._frames.items():
            if frame.pin_count == 0 and page_id != keep:
                break
        else:
            return False
        victim = self._frames.pop(page_id)
        self._flush_frame(victim)
        self._resident_bytes -= victim.charged_bytes
        self.stats.evictions += 1
        return True
