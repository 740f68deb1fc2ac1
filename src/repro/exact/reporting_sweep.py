"""Bentley-Ottmann-style *reporting* sweep for segment intersections.

The paper's plane-sweep (§4.1, after Shamos-Hoey [SH 76]) is a
*detection* algorithm: it stops at the first intersection because the
intersection join only needs a boolean.  Operations downstream of the
join — notably the map overlay (:mod:`repro.core.overlay`) — need *all*
intersection points.  This module provides that reporting sweep.

The implementation uses Bentley-Ottmann's event-queue skeleton (start /
end events in x-order) but checks each newly started segment against the
whole active set instead of only its status neighbours: for the segment
counts handled per object pair in this repository, the constant factor
of the simple active list wins over maintaining a balanced status tree
in Python, and the result set is identical.

Robustness policy: intersection events are keyed on rounded coordinates
so numerically identical crossing points are processed once; segments
sharing endpoints report the shared endpoint only when
``include_endpoints`` is set.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..geometry.predicates import Coord
from ..geometry.segment import segment_intersection_point, segments_intersect

Segment = Tuple[Coord, Coord]

#: rounding applied to event keys (decimal digits); crossings closer
#: than this collapse into one reported point.
EVENT_DECIMALS = 12


def report_intersections(
    segments: Sequence[Segment],
    include_endpoints: bool = True,
) -> List[Tuple[Coord, int, int]]:
    """All pairwise intersection points of ``segments``.

    Returns ``(point, i, j)`` triples with ``i < j`` indexing into
    ``segments``.  Overlapping collinear pairs report a representative
    point of the shared stretch.  The sweep prunes by x-interval
    overlap: ``O(n log n + n * a)`` where ``a`` is the largest number of
    segments simultaneously crossing the sweep line.
    """
    events: List[Tuple[float, int, int]] = []  # (x, kind, index); kind 0=start
    starts: List[Coord] = []
    ends: List[Coord] = []
    for idx, (p, q) in enumerate(segments):
        if (p[0], p[1]) <= (q[0], q[1]):
            lo, hi = p, q
        else:
            lo, hi = q, p
        starts.append(lo)
        ends.append(hi)
        heapq.heappush(events, (lo[0], 0, idx))
        heapq.heappush(events, (hi[0], 1, idx))

    active: List[int] = []  # indices of segments crossing the sweep line
    out: List[Tuple[Coord, int, int]] = []
    reported: Set[Tuple[int, int]] = set()
    while events:
        x, kind, idx = heapq.heappop(events)
        if kind == 1:
            if idx in active:
                active.remove(idx)
            continue
        seg = (starts[idx], ends[idx])
        for other in active:
            pair = (other, idx) if other < idx else (idx, other)
            if pair in reported:
                continue
            other_seg = (starts[other], ends[other])
            point = _pair_intersection(seg, other_seg, include_endpoints)
            if point is not None:
                reported.add(pair)
                out.append((point, pair[0], pair[1]))
        active.append(idx)
    out.sort(key=lambda t: (round(t[0][0], EVENT_DECIMALS), round(t[0][1], EVENT_DECIMALS), t[1], t[2]))
    return out


def _pair_intersection(
    seg_a: Segment, seg_b: Segment, include_endpoints: bool
) -> Optional[Coord]:
    p1, p2 = seg_a
    q1, q2 = seg_b
    if not segments_intersect(p1, p2, q1, q2):
        return None
    point = segment_intersection_point(p1, p2, q1, q2)
    if point is None:
        # Collinear overlap: report the left end of the shared stretch.
        candidates = [p for p in (p1, p2) if _on_closed(p, q1, q2)]
        candidates += [q for q in (q1, q2) if _on_closed(q, p1, p2)]
        if not candidates:
            return None
        point = min(candidates)
    if not include_endpoints and _is_endpoint(point, seg_a, seg_b):
        return None
    return point


def _is_endpoint(point: Coord, seg_a: Segment, seg_b: Segment) -> bool:
    tol = 10 ** -EVENT_DECIMALS
    for endpoint in (*seg_a, *seg_b):
        if abs(point[0] - endpoint[0]) <= tol and abs(point[1] - endpoint[1]) <= tol:
            return True
    return False


def _on_closed(p: Coord, a: Coord, b: Coord) -> bool:
    return (
        min(a[0], b[0]) - 1e-12 <= p[0] <= max(a[0], b[0]) + 1e-12
        and min(a[1], b[1]) - 1e-12 <= p[1] <= max(a[1], b[1]) + 1e-12
    )


def quadratic_intersections(
    segments: Sequence[Segment],
    include_endpoints: bool = True,
) -> List[Tuple[Coord, int, int]]:
    """O(n²) oracle for :func:`report_intersections`."""
    out: List[Tuple[Coord, int, int]] = []
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            point = _pair_intersection(
                _normalised(segments[i]), _normalised(segments[j]), include_endpoints
            )
            if point is not None:
                out.append((point, i, j))
    out.sort(key=lambda t: (round(t[0][0], EVENT_DECIMALS), round(t[0][1], EVENT_DECIMALS), t[1], t[2]))
    return out


def _normalised(seg: Segment) -> Segment:
    p, q = seg
    return (p, q) if (p[0], p[1]) <= (q[0], q[1]) else (q, p)


def polygon_pair_intersections(
    edges_a: Iterable[Segment], edges_b: Iterable[Segment]
) -> List[Coord]:
    """Boundary crossing points between two polygons' edge sets.

    Bipartite variant used by the overlay diagnostics: only A-B pairs are
    reported, A-A and B-B crossings are ignored.
    """
    list_a = list(edges_a)
    list_b = list(edges_b)
    segments = list_a + list_b
    cut = len(list_a)
    points = []
    for point, i, j in report_intersections(segments):
        if (i < cut) != (j < cut):
            points.append(point)
    return points
