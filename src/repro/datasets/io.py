"""Relation persistence in WKT (Well-Known Text).

Spatial relations serialise to plain-text files with one ``POLYGON``
per line, the interchange format every spatial DBS of the paper's era
(and today's PostGIS) understands.  Only the geometry subset the
library models is supported: ``POLYGON`` with optional hole rings.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import List, Union

from ..geometry.polygon import Polygon
from ..geometry.predicates import Coord
from .relations import SpatialRelation

_RING_RE = re.compile(r"\(([^()]*)\)")


def polygon_to_wkt(polygon: Polygon, precision: int = 17) -> str:
    """Serialise one polygon to a ``POLYGON (...)`` string.

    The default ``precision=17`` emits ``repr``-faithful coordinates
    (Python's shortest round-trip float representation), so parsing the
    text back yields bit-identical float64 values.  That keeps every
    content-addressed consumer stable across a disk round-trip — in
    particular :attr:`repro.datasets.columnar.ColumnarRelation.fingerprint`,
    which keys the session segment cache and the service result cache;
    a truncating precision would silently give the reloaded relation a
    new fingerprint and defeat both caches.  Pass a smaller precision
    explicitly to trade fidelity for compactness.
    """
    if precision >= 17:
        # repr() is the shortest string that round-trips the exact
        # float64; float() first in case a numpy scalar sneaks in.
        def fmt(value: float) -> str:
            return repr(float(value))
    else:
        def fmt(value: float) -> str:
            return f"{value:.{precision}g}"

    def ring_text(ring) -> str:
        pts = list(ring) + [ring[0]]  # WKT closes rings explicitly
        inner = ", ".join(f"{fmt(x)} {fmt(y)}" for x, y in pts)
        return f"({inner})"

    rings = [ring_text(polygon.shell)]
    rings.extend(ring_text(hole) for hole in polygon.holes)
    return f"POLYGON ({', '.join(rings)})"


def polygon_from_wkt(text: str) -> Polygon:
    """Parse a ``POLYGON (...)`` string (holes supported).

    Raises ``ValueError`` on malformed text and on a ``nan`` or ``inf``
    coordinate: every predicate is false for NaN, so such a polygon
    would silently drop out of every join instead of failing.
    """
    stripped = text.strip()
    if not stripped.upper().startswith("POLYGON"):
        raise ValueError(f"not a POLYGON WKT: {stripped[:40]!r}")
    rings: List[List[Coord]] = []
    for ring_text in _RING_RE.findall(stripped):
        coords: List[Coord] = []
        for pair in ring_text.split(","):
            parts = pair.split()
            if len(parts) != 2:
                raise ValueError(f"malformed coordinate pair: {pair!r}")
            x, y = float(parts[0]), float(parts[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(
                    f"non-finite coordinate pair: {pair.strip()!r}"
                )
            coords.append((x, y))
        rings.append(coords)
    if not rings:
        raise ValueError("POLYGON with no rings")
    return Polygon(rings[0], holes=rings[1:])


def save_relation(
    relation: SpatialRelation, path: Union[str, Path], precision: int = 17
) -> None:
    """Write a relation as one WKT polygon per line.

    The file starts with a ``# relation: <name>`` comment so round-trips
    preserve the relation name.  With the default precision the
    round-trip is exact: ``load_relation(path)`` rebuilds bit-identical
    coordinates, the same ``ColumnarRelation.fingerprint``, and
    therefore full segment/result-cache hits (see :func:`polygon_to_wkt`).
    """
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"# relation: {relation.name}\n")
        for obj in relation:
            fh.write(polygon_to_wkt(obj.polygon, precision) + "\n")


def load_relation(path: Union[str, Path]) -> SpatialRelation:
    """Read a relation written by :func:`save_relation`."""
    path = Path(path)
    name = path.stem
    polygons: List[Polygon] = []
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                match = re.match(r"#\s*relation:\s*(.+)", line)
                if match:
                    name = match.group(1).strip()
                continue
            try:
                polygons.append(polygon_from_wkt(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return SpatialRelation(name, polygons)


def relations_equal(
    rel_a: SpatialRelation, rel_b: SpatialRelation, tol: float = 1e-9
) -> bool:
    """Structural equality of two relations (used by round-trip tests).

    Compares every ring — shells *and* hole rings — coordinate by
    coordinate.  (An earlier version only counted holes and compared
    shell points, so two relations with identical shells but different
    hole geometry compared equal.)
    """
    if len(rel_a) != len(rel_b):
        return False
    for obj_a, obj_b in zip(rel_a, rel_b):
        pa, pb = obj_a.polygon, obj_b.polygon
        if len(pa.holes) != len(pb.holes):
            return False
        rings_a = (pa.shell, *pa.holes)
        rings_b = (pb.shell, *pb.holes)
        for ring_a, ring_b in zip(rings_a, rings_b):
            if len(ring_a) != len(ring_b):
                return False
            if any(
                abs(x1 - x2) > tol or abs(y1 - y2) > tol
                for (x1, y1), (x2, y2) in zip(ring_a, ring_b)
            ):
                return False
    return True
