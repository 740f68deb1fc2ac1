"""Global clustering of object geometry on data pages ([BK 94]).

The paper closes with: "the major cost factor in the final version of
our join processor is the time spent for fetching objects from disk into
main memory ... [BK 94] The Impact of Global Clustering on Spatial
Database Systems" — i.e. *where* the exact geometry of objects lives on
disk becomes the bottleneck once the CPU costs are fixed.

This module models exactly that knob.  An :class:`ObjectStore` packs the
variable-size exact representations of a relation's objects onto
fixed-size pages in a chosen **placement order**:

* ``insertion`` — the unclustered baseline (object id order);
* ``hilbert``  — global clustering along the Hilbert curve;
* ``zorder``   — global clustering along the z-order curve;
* ``random``   — adversarial placement (worst case).

Reading an object touches all its pages through a buffer; the join's
object-access cost is then the number of page *misses* over the access
sequence that the MBR-join emits.  Spatially clustered placement turns
the join's spatial locality into buffer hits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..datasets.relations import SpatialRelation
from .hilbert import HilbertMapper
from .pagemodel import LRUBuffer
from .zorder import interleave_bits

#: bytes per stored vertex: two 8-byte doubles (paper §3.4 stores 16-byte
#: MBRs, i.e. 4 coordinates a 4 bytes; exact geometry uses doubles).
BYTES_PER_VERTEX = 16

#: per-object header (id + ring structure + bookkeeping).
OBJECT_HEADER_BYTES = 32

PLACEMENT_ORDERS = ("insertion", "hilbert", "zorder", "random")


def object_size_bytes(num_vertices: int) -> int:
    """Storage footprint of one object's exact representation."""
    return OBJECT_HEADER_BYTES + num_vertices * BYTES_PER_VERTEX


@dataclass
class StoredObject:
    """Placement record of one object."""

    oid: int
    size_bytes: int
    pages: Tuple[int, ...]


class ObjectStore:
    """Packs a relation's exact geometry onto fixed-size disk pages.

    Objects are laid out contiguously in the chosen placement order;
    an object whose tail crosses a page boundary simply continues on the
    next page (spanned records), so large objects occupy
    ``ceil(size / page_size)`` consecutive pages at most one page more.
    """

    def __init__(
        self,
        relation: SpatialRelation,
        page_size: int = 4096,
        order: str = "insertion",
        seed: int = 0,
        hilbert_order: int = 12,
    ):
        if order not in PLACEMENT_ORDERS:
            raise ValueError(
                f"unknown placement order {order!r}; expected one of "
                f"{PLACEMENT_ORDERS}"
            )
        if page_size < 256:
            raise ValueError("page_size must be >= 256 bytes")
        self.page_size = page_size
        self.order = order
        self._records: Dict[int, StoredObject] = {}
        self._place(relation, order, seed, hilbert_order)

    def _place(
        self,
        relation: SpatialRelation,
        order: str,
        seed: int,
        hilbert_order: int,
    ) -> None:
        objs = list(relation)
        if order == "hilbert":
            mapper = HilbertMapper.for_rects(
                [o.mbr for o in objs], order=hilbert_order
            )
            objs.sort(key=lambda o: mapper.index_of_rect(o.mbr))
        elif order == "zorder":
            mapper = HilbertMapper.for_rects(
                [o.mbr for o in objs], order=hilbert_order
            )

            def z_key(o):
                x, y = mapper.cell_of(o.mbr.center)
                return interleave_bits(x, y, hilbert_order)

            objs.sort(key=z_key)
        elif order == "random":
            random.Random(seed).shuffle(objs)
        cursor = 0  # byte offset into the linear store
        for obj in objs:
            size = object_size_bytes(obj.polygon.num_vertices)
            first_page = cursor // self.page_size
            last_page = (cursor + size - 1) // self.page_size
            self._records[obj.oid] = StoredObject(
                oid=obj.oid,
                size_bytes=size,
                pages=tuple(range(first_page, last_page + 1)),
            )
            cursor += size

    # -- access ---------------------------------------------------------------

    def pages_of(self, oid: int) -> Tuple[int, ...]:
        return self._records[oid].pages

    def read_object(self, oid: int, buffer: Optional[LRUBuffer] = None) -> int:
        """Touch all pages of one object; returns the number of misses."""
        misses = 0
        for page in self._records[oid].pages:
            if buffer is None or not buffer.access(page):
                misses += 1
        return misses

    # -- statistics -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)


@dataclass
class ClusteringReport:
    """Object-access I/O of one join under one placement order."""

    order: str
    page_reads: int
    buffer_hits: int
    objects_fetched: int

    @property
    def hit_ratio(self) -> float:
        total = self.page_reads + self.buffer_hits
        return self.buffer_hits / total if total else 0.0


def simulate_join_object_access(
    pairs: Iterable[Tuple[int, int]],
    store_a: ObjectStore,
    store_b: ObjectStore,
    buffer_pages: int = 32,
    buffer=None,
) -> ClusteringReport:
    """Replay a join's object-fetch sequence against the stores.

    ``pairs`` is the candidate-pair id sequence in the order the
    MBR-join emits it; each pair fetches the exact geometry of both
    objects.  The two stores share one buffer (as §5 of the paper shares
    one LRU across the join).
    """
    if buffer is None:
        buffer = LRUBuffer(buffer_pages)
    hits_before = buffer.hits
    page_reads = 0
    fetched = 0
    for oid_a, oid_b in pairs:
        page_reads += store_a.read_object(oid_a, buffer)
        # Stores share page ids; namespace B's pages to avoid collisions.
        page_reads += _read_namespaced(store_b, oid_b, buffer)
        fetched += 2
    return ClusteringReport(
        order=f"{store_a.order}/{store_b.order}",
        page_reads=page_reads,
        buffer_hits=buffer.hits - hits_before,
        objects_fetched=fetched,
    )


def _read_namespaced(store: ObjectStore, oid: int, buffer) -> int:
    misses = 0
    for page in store.pages_of(oid):
        if not buffer.access(("b", page)):
            misses += 1
    return misses


def compare_placements(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    pairs: Sequence[Tuple[int, int]],
    page_size: int = 4096,
    buffer_pages: int = 32,
    orders: Sequence[str] = ("insertion", "hilbert", "zorder", "random"),
) -> List[ClusteringReport]:
    """One report per placement order for the same join pair sequence."""
    out: List[ClusteringReport] = []
    for order in orders:
        store_a = ObjectStore(relation_a, page_size=page_size, order=order)
        store_b = ObjectStore(relation_b, page_size=page_size, order=order)
        report = simulate_join_object_access(
            pairs, store_a, store_b, buffer_pages=buffer_pages
        )
        report.order = order
        out.append(report)
    return out
