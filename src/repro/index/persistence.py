"""Binary persistence of object representations (point list vs TR*-tree).

Section 4.2 of the paper: "The TR*-tree is persistently stored on
secondary storage and is completely transferred into main memory when
the complete polygon is required ... In particular, it is not required
to build up the TR*-tree in main memory or to convert its pointers."
And §5 prices that design: "the TR*-tree representation increases the
access cost for an investigated object by a factor of 1.5" because "the
TR*-tree representation has a higher storage cost than a representation
by simple point lists".

This module makes both statements concrete:

* :func:`serialize_point_list` / :func:`deserialize_point_list` — the
  baseline representation (rings of packed doubles);
* :func:`serialize_trstar` / :func:`deserialize_trstar` — a pointerless
  page-image of the TR*-tree (preorder node records with child counts),
  restorable without re-running the decomposition or the R* insertion
  heuristics;
* :func:`storage_overhead_factor` — the measured §5 constant: TR*-tree
  bytes over point-list bytes for a relation.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from ..geometry.polygon import Polygon
from .rstar import Node
from .trstar import Trapezoid, TRStarTree

_MAGIC_POINTS = b"RPPL"  # repro point list
_MAGIC_TRSTAR = b"RPTR"  # repro TR*-tree

#: struct formats: all little-endian, doubles for coordinates.
_HEADER = struct.Struct("<4sI")
_RING_HEADER = struct.Struct("<I")
_POINT = struct.Struct("<dd")
_NODE_HEADER = struct.Struct("<BI")  # is_leaf flag, member count
_TRAPEZOID = struct.Struct("<6d")


# ---------------------------------------------------------------------------
# Point-list representation (the paper's baseline)
# ---------------------------------------------------------------------------


def serialize_point_list(polygon: Polygon) -> bytes:
    """Pack a polygon as rings of ``(x, y)`` doubles."""
    rings = [polygon.shell, *polygon.holes]
    parts = [_HEADER.pack(_MAGIC_POINTS, len(rings))]
    for ring in rings:
        parts.append(_RING_HEADER.pack(len(ring)))
        for x, y in ring:
            parts.append(_POINT.pack(x, y))
    return b"".join(parts)


def deserialize_point_list(data: bytes) -> Polygon:
    """Inverse of :func:`serialize_point_list`."""
    magic, ring_count = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC_POINTS:
        raise ValueError("not a point-list blob")
    offset = _HEADER.size
    rings: List[List[Tuple[float, float]]] = []
    for _ in range(ring_count):
        (count,) = _RING_HEADER.unpack_from(data, offset)
        offset += _RING_HEADER.size
        ring = []
        for _ in range(count):
            x, y = _POINT.unpack_from(data, offset)
            offset += _POINT.size
            ring.append((x, y))
        rings.append(ring)
    return Polygon(rings[0], holes=rings[1:] or None)


# ---------------------------------------------------------------------------
# TR*-tree representation (pointerless page image)
# ---------------------------------------------------------------------------


def serialize_trstar(tree: TRStarTree) -> bytes:
    """Pack a TR*-tree as a preorder stream of node records.

    Each record holds an is-leaf flag and a member count, followed by
    either trapezoids (leaf) or nothing (directory; its children follow
    in preorder).  Node MBRs are *not* stored — they are recomputed
    lazily on first use, which keeps the image compact; the paper's
    point is avoiding pointer conversion and rebuild heuristics, both of
    which this format achieves.
    """
    parts = [_HEADER.pack(_MAGIC_TRSTAR, tree.max_entries)]

    def write_node(node: Node) -> None:
        if node.is_leaf:
            parts.append(_NODE_HEADER.pack(1, len(node.entries)))
            for entry in node.entries:
                trap: Trapezoid = entry.item
                parts.append(
                    _TRAPEZOID.pack(
                        trap.xl_bot,
                        trap.xr_bot,
                        trap.xl_top,
                        trap.xr_top,
                        trap.y_bot,
                        trap.y_top,
                    )
                )
        else:
            parts.append(_NODE_HEADER.pack(0, len(node.children)))
            for child in node.children:
                write_node(child)

    write_node(tree.root)
    return b"".join(parts)


def deserialize_trstar(data: bytes) -> TRStarTree:
    """Inverse of :func:`serialize_trstar` (no re-insertion, no rebuild)."""
    magic, max_entries = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC_TRSTAR:
        raise ValueError("not a TR*-tree blob")
    offset = _HEADER.size

    def read_node() -> Tuple[Node, int, int]:
        nonlocal offset
        is_leaf, count = _NODE_HEADER.unpack_from(data, offset)
        offset += _NODE_HEADER.size
        if is_leaf:
            node = Node(level=0)
            from .rstar import Entry

            size = 0
            for _ in range(count):
                values = _TRAPEZOID.unpack_from(data, offset)
                offset += _TRAPEZOID.size
                trap = Trapezoid(*values)
                node.entries.append(Entry(trap.mbr(), trap))
                size += 1
            return node, 0, size
        children = []
        depth = 0
        size = 0
        for _ in range(count):
            child, child_depth, child_size = read_node()
            children.append(child)
            depth = max(depth, child_depth)
            size += child_size
        node = Node(level=depth + 1)
        node.children = children
        return node, depth + 1, size

    tree = TRStarTree(max_entries=max_entries)
    root, _depth, size = read_node()
    tree.root = root
    tree.size = size
    return tree


# ---------------------------------------------------------------------------
# The §5 storage constant, measured
# ---------------------------------------------------------------------------


def point_list_bytes(polygon: Polygon) -> int:
    return len(serialize_point_list(polygon))


def trstar_bytes(tree: TRStarTree) -> int:
    return len(serialize_trstar(tree))


def storage_overhead_factor(relation, max_entries: int = 3) -> float:
    """Measured TR*-tree-to-point-list storage ratio of a relation.

    The paper assumes 1.5 in its §5 cost model; this measures the actual
    ratio for the synthetic stand-in relations (trapezoid decompositions
    have roughly twice the coordinates of the boundary they cover, while
    the tiny directory adds a few percent).
    """
    points_total = 0
    trees_total = 0
    for obj in relation:
        points_total += point_list_bytes(obj.polygon)
        trees_total += trstar_bytes(obj.trstar(max_entries))
    if points_total == 0:
        return 1.0
    return trees_total / points_total
