"""Alternative page-buffer replacement policies (FIFO, Clock, 2Q-lite).

The paper's experiments fix an LRU buffer (§3.4: 128 KB LRU; §5: 32
pages).  To check how sensitive the reported I/O ratios are to that
choice, this module adds the classic alternatives with the same
interface as :class:`~repro.index.pagemodel.LRUBuffer` — ``access``
returns True on a hit and counts hits and misses.  The buffer-policy
ablation bench sweeps them against each other.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Hashable

from .pagemodel import LRUBuffer


class FIFOBuffer:
    """First-in-first-out page buffer (no recency update on hits)."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError("buffer needs at least one page")
        self.capacity_pages = capacity_pages
        self._queue: Deque[Hashable] = deque()
        self._resident: set = set()
        self.hits = 0
        self.misses = 0

    def access(self, page_id: Hashable) -> bool:
        if page_id in self._resident:
            self.hits += 1
            return True
        self.misses += 1
        self._queue.append(page_id)
        self._resident.add(page_id)
        if len(self._queue) > self.capacity_pages:
            evicted = self._queue.popleft()
            self._resident.discard(evicted)
        return False

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        self._queue.clear()
        self._resident.clear()
        self.reset_counters()


class ClockBuffer:
    """Second-chance (clock) replacement: an approximation of LRU."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError("buffer needs at least one page")
        self.capacity_pages = capacity_pages
        self._frames: "OrderedDict[Hashable, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, page_id: Hashable) -> bool:
        if page_id in self._frames:
            self._frames[page_id] = True  # reference bit
            self.hits += 1
            return True
        self.misses += 1
        if len(self._frames) >= self.capacity_pages:
            self._evict()
        self._frames[page_id] = False
        return False

    def _evict(self) -> None:
        # Sweep the clock hand: clear reference bits until an
        # unreferenced frame is found.
        while True:
            page_id, referenced = next(iter(self._frames.items()))
            if referenced:
                self._frames[page_id] = False
                self._frames.move_to_end(page_id)
            else:
                del self._frames[page_id]
                return

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        self._frames.clear()
        self.reset_counters()


#: buffer policy registry used by the ablation bench and the CLI.
BUFFER_POLICIES: Dict[str, type] = {
    "lru": LRUBuffer,
    "fifo": FIFOBuffer,
    "clock": ClockBuffer,
}


def make_buffer(policy: str, capacity_pages: int):
    """Construct a buffer by policy name ('lru', 'fifo' or 'clock')."""
    try:
        cls = BUFFER_POLICIES[policy.lower()]
    except KeyError:
        raise ValueError(
            f"unknown buffer policy {policy!r}; expected one of "
            f"{sorted(BUFFER_POLICIES)}"
        ) from None
    return cls(capacity_pages)
