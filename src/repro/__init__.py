"""repro — Multi-Step Processing of Spatial Joins (SIGMOD 1994).

A from-scratch Python reproduction of Brinkhoff, Kriegel, Schneider,
Seeger: "Multi-Step Processing of Spatial Joins", including the
three-step join processor, all conservative/progressive approximations,
the R*-tree and TR*-tree access methods, and the exact-geometry
algorithms the paper compares.

Quick start::

    from repro import SpatialJoinProcessor, JoinConfig
    from repro.datasets import europe, strategy_a

    series = strategy_a(europe())
    result = SpatialJoinProcessor().join(series.relation_a, series.relation_b)
    print(len(result), result.stats.summary())
"""

from .core import (
    FilterConfig,
    FilterOutcome,
    JoinConfig,
    JoinResult,
    MapOverlay,
    MultiStepStats,
    SpatialJoinProcessor,
    geometric_filter,
    nested_loops_join,
)
from .geometry import Polygon, Rect

__version__ = "1.1.0"

__all__ = [
    "FilterConfig",
    "FilterOutcome",
    "JoinConfig",
    "JoinResult",
    "MapOverlay",
    "MultiStepStats",
    "Polygon",
    "Rect",
    "SpatialJoinProcessor",
    "geometric_filter",
    "nested_loops_join",
    "__version__",
]
