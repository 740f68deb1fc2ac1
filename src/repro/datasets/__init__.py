"""Synthetic cartographic datasets and the paper's test series.

Import each name from its defining module (``repro.datasets.store``,
``repro.datasets.generators``, ...).  The re-exports below are defined
on the join path, apart from the small test-series module.
"""

from .relations import SpatialRelation, europe
from .testseries import strategy_a, strategy_b

__all__ = ["SpatialRelation", "europe", "strategy_a", "strategy_b"]
