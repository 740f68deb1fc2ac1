"""The multi-step spatial join processor (the paper's contribution).

Import each name from its defining module (``repro.core.join``,
``repro.core.partition``, ``repro.core.session``, ...).  The two
re-exports below are defined on the join path and cost no import.
"""

from .join import JoinConfig, SpatialJoinProcessor

__all__ = ["JoinConfig", "SpatialJoinProcessor"]
