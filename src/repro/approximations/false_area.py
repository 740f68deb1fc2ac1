"""The false-area test for hit identification (§3.3).

For conservative approximations ``Appr`` with stored false areas
``fa(obj) = area(Appr(obj)) − area(obj)``::

    area(Appr(obj1) ∩ Appr(obj2)) > fa(obj1) + fa(obj2)
        ⇒  obj1 ∩ obj2 ≠ ∅

Intuition: the intersection of the approximations is too large to be
covered by the false areas of both objects alone, so some of it must be
object–object overlap.  Only one extra parameter (the false area) is
stored per object.
"""

from __future__ import annotations

from ..geometry.polygon import Polygon
from .base import Approximation, approx_intersection_area


def false_area_test(
    poly1: Polygon,
    appr1: Approximation,
    poly2: Polygon,
    appr2: Approximation,
) -> bool:
    """True if the false-area test *proves* that the objects intersect.

    ``False`` means "no proof", not "disjoint".
    """
    fa1 = appr1.area() - poly1.area()
    fa2 = appr2.area() - poly2.area()
    inter = approx_intersection_area(appr1, appr2)
    return inter > fa1 + fa2


def false_area_test_stored(
    appr1: Approximation,
    fa1: float,
    appr2: Approximation,
    fa2: float,
) -> bool:
    """False-area test with precomputed (stored) false areas.

    This matches the paper's storage model where ``fa`` is one extra
    parameter kept next to the approximation.
    """
    inter = approx_intersection_area(appr1, appr2)
    return inter > fa1 + fa2
