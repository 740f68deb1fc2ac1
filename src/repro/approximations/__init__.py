"""Conservative and progressive object approximations (paper §3).

Conservative (object ⊆ approximation): MBR, RMBR, m-corner (4-C, 5-C),
convex hull, minimum bounding circle, minimum bounding ellipse.

Progressive (approximation ⊆ object): maximum enclosed circle, maximum
enclosed rectangle.

Import each name from its defining module (``repro.approximations.
factory``, ``repro.approximations.mer``, ...); this package re-exports
nothing.
"""
