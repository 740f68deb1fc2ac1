"""Geometric-operation cost accounting (paper §4.3, Table 6).

The paper compares exact-geometry algorithms by counting their dominant
geometric operations and weighting them with measured times (HP720
workstation).  We reproduce the same measure: every algorithm in
:mod:`repro.exact` reports its operations to an :class:`OperationCounter`
whose weighted sum is the paper's cost (reported in ms, like Table 7).

The original weights are kept as module constants;
:func:`measure_host_weights` re-measures them on the current host for
comparison (the *measure* is weight-relative, so either set works).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

#: operation kinds counted by the exact-geometry algorithms.
EDGE_INTERSECTION = "edge_intersection_test"
EDGE_LINE = "edge_line_intersection_test"
POSITION = "position_test"
EDGE_RECT = "edge_rectangle_intersection_test"
RECT_INTERSECTION = "rectangle_intersection_test"
TRAPEZOID_INTERSECTION = "trapezoid_intersection_test"

#: Table 6 weights in seconds (10^-6 s units in the paper).
PAPER_WEIGHTS: Dict[str, float] = {
    EDGE_INTERSECTION: 15e-6,
    EDGE_LINE: 18e-6,
    POSITION: 36e-6,
    EDGE_RECT: 28e-6,
    RECT_INTERSECTION: 28e-6,
    TRAPEZOID_INTERSECTION: 38e-6,
}


@dataclass
class OperationCounter:
    """Counts weighted geometric operations of one or more runs."""

    weights: Dict[str, float] = field(default_factory=lambda: dict(PAPER_WEIGHTS))
    counts: Dict[str, int] = field(default_factory=dict)

    def count(self, op: str, n: int = 1) -> None:
        self.counts[op] = self.counts.get(op, 0) + n

    def cost_seconds(self) -> float:
        """Weighted cost in seconds."""
        return sum(self.weights.get(op, 0.0) * n for op, n in self.counts.items())

    def cost_ms(self) -> float:
        """Weighted cost in milliseconds (Table 7 unit is 10^-3 s)."""
        return self.cost_seconds() * 1e3

    def total_operations(self) -> int:
        return sum(self.counts.values())

    def reset(self) -> None:
        self.counts.clear()


def measure_host_weights(repetitions: int = 20000) -> Dict[str, float]:
    """Re-measure Table 6 on the current host (seconds per operation)."""
    from ..geometry.segment import (
        segment_intersects_rect,
        segment_y_at,
        segments_intersect,
    )
    from ..index.trstar import Trapezoid

    import random

    rng = random.Random(7)

    def pts(n):
        return [(rng.random(), rng.random()) for _ in range(n)]

    weights: Dict[str, float] = {}

    samples = [tuple(pts(4)) for _ in range(64)]
    start = time.perf_counter()
    for i in range(repetitions):
        a, b, c, d = samples[i % 64]
        segments_intersect(a, b, c, d)
    weights[EDGE_INTERSECTION] = (time.perf_counter() - start) / repetitions
    # Edge-line: same primitive against a horizontal line, approximated by
    # the segment test against a horizontal segment.
    start = time.perf_counter()
    for i in range(repetitions):
        a, b, c, _d = samples[i % 64]
        segments_intersect(a, b, (0.0, c[1]), (1.0, c[1]))
    weights[EDGE_LINE] = (time.perf_counter() - start) / repetitions

    start = time.perf_counter()
    for i in range(repetitions):
        a, b, c, d = samples[i % 64]
        segment_y_at(a, b, c[0])
        segment_y_at(c, d, c[0])
    weights[POSITION] = (time.perf_counter() - start) / repetitions

    start = time.perf_counter()
    for i in range(repetitions):
        a, b, c, d = samples[i % 64]
        segment_intersects_rect(a, b, min(c[0], d[0]), min(c[1], d[1]),
                                max(c[0], d[0]), max(c[1], d[1]))
    weights[EDGE_RECT] = (time.perf_counter() - start) / repetitions

    from ..geometry.rectangle import Rect

    rects = [
        (
            Rect(min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1])),
            Rect(min(c[0], d[0]), min(c[1], d[1]), max(c[0], d[0]), max(c[1], d[1])),
        )
        for a, b, c, d in samples
    ]
    start = time.perf_counter()
    for i in range(repetitions):
        r1, r2 = rects[i % 64]
        r1.intersects(r2)
    weights[RECT_INTERSECTION] = (time.perf_counter() - start) / repetitions

    traps = [
        (
            Trapezoid(0.0, rng.random(), 0.1, rng.random(), 0.0, 0.5),
            Trapezoid(rng.random(), 1.0, rng.random(), 1.0, 0.2, 0.8),
        )
        for _ in range(64)
    ]
    start = time.perf_counter()
    for i in range(repetitions // 4):
        t1, t2 = traps[i % 64]
        t1.intersects(t2)
    weights[TRAPEZOID_INTERSECTION] = (
        (time.perf_counter() - start) / (repetitions // 4)
    )
    return weights
