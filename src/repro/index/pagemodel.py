"""Disk-page and LRU-buffer model for I/O accounting.

The paper's I/O experiments (§3.4, §3.5, §5) count page accesses of an
R*-tree whose nodes occupy fixed-size disk pages, in front of an LRU
buffer (128 KB in §3.4; 32 pages of 4 KB in §5).  We model exactly that:
every tree node is one page; traversals report node visits to an
:class:`LRUBuffer`, which counts buffer hits and actual (missed) reads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Optional


class LRUBuffer:
    """Least-recently-used page buffer with hit/miss accounting."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError("buffer needs at least one page")
        self.capacity_pages = capacity_pages
        self._pages: "OrderedDict[Hashable, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, page_id: Hashable) -> bool:
        """Record an access; returns True on a buffer hit."""
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            self.hits += 1
            return True
        self.misses += 1
        self._pages[page_id] = None
        if len(self._pages) > self.capacity_pages:
            self._pages.popitem(last=False)
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        self._pages.clear()
        self.reset_counters()


@dataclass
class PageLayout:
    """Byte-level page layout of an R*-tree (paper §3.4/§5 assumptions).

    The paper assumes per object: 16 bytes MBR, 16 bytes MER, 20 bytes
    RMBR, 40 bytes 5-C, and 32 bytes of additional information.  The
    directory stores an MBR plus a child pointer per entry.
    """

    page_size: int = 4096
    mbr_bytes: int = 16
    pointer_bytes: int = 4
    info_bytes: int = 32
    #: extra approximation bytes stored per leaf entry (0 = MBR only).
    extra_leaf_bytes: int = 0
    #: bytes of the geometric key itself (16 = plain MBR).
    key_bytes: int = 16

    def leaf_capacity(self) -> int:
        entry = self.key_bytes + self.extra_leaf_bytes + self.info_bytes
        return max(2, self.page_size // entry)

    def directory_capacity(self) -> int:
        entry = self.mbr_bytes + self.pointer_bytes
        return max(2, self.page_size // entry)

    def buffer_pages(self, buffer_bytes: int) -> int:
        return max(1, buffer_bytes // self.page_size)


#: approximation storage sizes in bytes used by the paper (§3.4, §5).
APPROX_BYTES = {
    "MBR": 16,
    "MER": 16,
    "MEC": 12,
    "RMBR": 20,
    "4-C": 32,
    "5-C": 40,
    "MBC": 12,
    "MBE": 20,
}


@dataclass
class AccessCounter:
    """Page-visit recorder shared by tree traversals.

    ``buffer=None`` counts raw node visits (no buffering).
    """

    buffer: Optional[LRUBuffer] = None
    node_visits: int = 0
    page_reads: int = 0
    _seen: set = field(default_factory=set)

    def visit(self, page_id: Hashable) -> None:
        self.node_visits += 1
        if self.buffer is None:
            self.page_reads += 1
            return
        if not self.buffer.access(page_id):
            self.page_reads += 1

    def reset(self) -> None:
        self.node_visits = 0
        self.page_reads = 0
        if self.buffer is not None:
            self.buffer.reset_counters()
