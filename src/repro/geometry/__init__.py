"""Pure-Python 2-D computational geometry kernel.

Everything in :mod:`repro` is built on this package: robust predicates,
segments, axis-aligned rectangles, simple polygons with holes, convex
operations (hull / SAT / clipping / calipers), circles (Welzl) and
ellipses (Khachiyan).

Import each name from its defining module (``repro.geometry.convex``,
``repro.geometry.clipping``, ...).  The two re-exports below are
defined on the join path and cost no import.
"""

from .polygon import Polygon
from .rectangle import Rect

__all__ = ["Polygon", "Rect"]
