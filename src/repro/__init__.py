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

Import rule: every name has one import path, its defining module.  A
package ``__init__`` re-exports a name only if its defining module is
already loaded by a serial join (``repro join`` of two stored
relations), apart from the few names ``benchmarks/e2e`` imports
through their packages; so ``import repro.cli`` loads only the join
path, and every other subsystem is imported from its own module (e.g.
``repro.core.overlay.MapOverlay``).
"""

from .core.filters import FilterConfig, FilterOutcome, geometric_filter
from .core.join import (
    JoinConfig,
    JoinResult,
    SpatialJoinProcessor,
    nested_loops_join,
)
from .core.stats import MultiStepStats
from .geometry.polygon import Polygon
from .geometry.rectangle import Rect

__version__ = "1.1.0"

__all__ = [
    "FilterConfig",
    "FilterOutcome",
    "JoinConfig",
    "JoinResult",
    "MultiStepStats",
    "Polygon",
    "Rect",
    "SpatialJoinProcessor",
    "geometric_filter",
    "nested_loops_join",
    "__version__",
]
