"""Spatial access methods: R*-tree, MBR-join, page model, TR*-tree.

Import each name from its defining module (``repro.index.rstar``,
``repro.index.rplus``, ``repro.index.trstar``, ...).  The two re-exports
below are defined on the join path and cost no import.
"""

from .join import JoinStats, rstar_join

__all__ = ["JoinStats", "rstar_join"]
