"""Spatial relations: object collections with cached derived data.

A :class:`SpatialRelation` is the paper's "set of spatial objects defined
on the same attributes".  Objects cache their approximations and TR*-tree
representations so a benchmark sweep over many filter configurations pays
each preprocessing cost once — mirroring the paper's model where
approximations are computed at insertion time and stored in the SAM.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..approximations.base import Approximation
from ..approximations.batch import stored_family
from ..approximations.factory import compute_approximation
from ..geometry.polygon import Polygon
from ..geometry.rectangle import Rect
from ..index.rstar import RStarTree, rtree_over
from .columnar import ColumnarRelation
from .generators import cartographic_polygons, relation_statistics

if TYPE_CHECKING:
    from ..index.trstar import TRStarTree


class SpatialObject:
    """One spatial object: id + polygon + cached derived representations."""

    __slots__ = ("oid", "polygon", "_approximations", "_trstar")

    def __init__(self, oid: int, polygon: Polygon):
        self.oid = oid
        self.polygon = polygon
        self._approximations: Dict[str, Approximation] = {}
        self._trstar: Dict[int, TRStarTree] = {}

    def approximation(self, kind: str) -> Approximation:
        """The (cached) approximation of the given kind."""
        approx = self._approximations.get(kind)
        if approx is None:
            approx = compute_approximation(self.polygon, kind)
            self._approximations[kind] = approx
        return approx

    def trstar(self, max_entries: int = 3) -> TRStarTree:
        """The (cached) TR*-tree representation."""
        tree = self._trstar.get(max_entries)
        if tree is None:
            from ..exact.trstar_test import build_trstar

            tree = build_trstar(self.polygon, max_entries=max_entries)
            self._trstar[max_entries] = tree
        return tree

    @property
    def mbr(self) -> Rect:
        return self.polygon.mbr()

    def __repr__(self) -> str:
        return f"SpatialObject({self.oid}, {self.polygon!r})"


class SpatialRelation:
    """An ordered collection of spatial objects."""

    def __init__(self, name: str, polygons: Iterable[Polygon]):
        self.name = name
        self.objects: List[SpatialObject] = [
            SpatialObject(i, poly) for i, poly in enumerate(polygons)
        ]

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self):
        return iter(self.objects)

    def __getitem__(self, idx: int) -> SpatialObject:
        return self.objects[idx]

    def polygons(self) -> List[Polygon]:
        return [obj.polygon for obj in self.objects]

    def mbr_items(self) -> List[Tuple[Rect, SpatialObject]]:
        return [(obj.mbr, obj) for obj in self.objects]

    def statistics(self) -> Dict[str, float]:
        """#objects, m∅, mmin, mmax (paper Figure 2)."""
        return relation_statistics(self.polygons())

    def build_rtree(
        self,
        max_entries: int = 32,
        directory_max: Optional[int] = None,
        bulk: bool = False,
    ) -> RStarTree:
        """R*-tree over the objects' MBRs; leaf items are row indices.

        Item ``i`` is ``self.objects[i]``'s row, the index every column
        of :meth:`columnar` and every edge-table row share, so the
        MBR-join's candidates feed the filter and the exact step as
        they are.  Readers that want an object take
        ``self.objects[item]``.  Built by :func:`rtree_over` on the
        ``columnar().mbrs`` rows (the floats of ``obj.mbr``).
        """
        return rtree_over(
            self.columnar().mbrs, max_entries, directory_max, bulk=bulk
        )

    def rtree(self, max_entries: int = 32) -> RStarTree:
        """The (cached) R*-tree of :meth:`build_rtree` for read-only use.

        Built on first use per node capacity and shared by every join,
        window and nearest-neighbour query over this relation; dropped
        under the same rule as :meth:`columnar` (the object list was
        replaced or resized).  Callers must not insert into or delete
        from it — :meth:`build_rtree` returns a private tree for that.
        """
        cached = getattr(self, "_rtrees", None)
        if (
            cached is None
            or cached[0] is not self.objects
            or cached[1] != len(self.objects)
        ):
            cached = (self.objects, len(self.objects), {})
            self._rtrees = cached
        trees = cached[2]
        tree = trees.get(max_entries)
        if tree is None:
            tree = trees[max_entries] = self.build_rtree(max_entries)
        return tree

    def precompute_approximations(self, kinds: Sequence[str]) -> None:
        """Force computation of the given approximation kinds.

        Kinds with a stored form come from the get-or-build point
        (:meth:`ColumnarRelation.approx`), which also seeds every
        object's cache; the others are built object by object.
        """
        for kind in kinds:
            if stored_family(kind):
                self.columnar().approx(kind)
            else:
                for obj in self.objects:
                    obj.approximation(kind)

    def columnar(
        self, eager_kinds: Sequence[str] = ()
    ) -> ColumnarRelation:
        """The (cached) columnar store over this relation's objects.

        Built on first use and reused by every consumer — the vectorized
        partitioner, the batched engine's filter columns, and the
        shared-memory wire format of the parallel executor.  The store
        snapshots the object list at build time; the cache is
        invalidated when the list is replaced or resized (in-place
        *element* mutation is not supported — objects are immutable
        after construction everywhere in this codebase).
        ``eager_kinds`` forces the approximation columns of those kinds
        to be packed now rather than on first join — generators and
        loaders can call ``relation.columnar(eager_kinds=("5-C",
        "MER"))`` to pay the packing cost at build time.
        """
        store = getattr(self, "_columnar", None)
        if (
            store is None
            or store._source is not self.objects
            or len(store) != len(self.objects)
        ):
            store = ColumnarRelation(self)
            self._columnar = store
        for kind in eager_kinds:
            store.approx(kind)
        return store

    def __repr__(self) -> str:
        stats = self.statistics()
        return (
            f"SpatialRelation({self.name!r}, objects={stats['objects']}, "
            f"m_avg={stats['m_avg']:.1f})"
        )


# ---------------------------------------------------------------------------
# The two reference relations of the paper (synthetic stand-ins).
# ---------------------------------------------------------------------------

#: Figure 2 statistics of the paper's real relations.
EUROPE_PROFILE = {"objects": 810, "m_avg": 84, "m_min": 4, "m_max": 869}
BW_PROFILE = {"objects": 374, "m_avg": 527, "m_min": 6, "m_max": 2087}

_CACHE: Dict[Tuple[str, int, Optional[int]], SpatialRelation] = {}


def europe(seed: int = 1994, size: Optional[int] = None) -> SpatialRelation:
    """Synthetic stand-in for the paper's *Europe* relation.

    ``size`` overrides the object count (the vertex statistics stay
    Europe-like); used by scaled-down CI runs.
    """
    key = ("Europe", seed, size)
    if key not in _CACHE:
        n = size if size is not None else EUROPE_PROFILE["objects"]
        polys = cartographic_polygons(
            n_objects=n,
            mean_vertices=EUROPE_PROFILE["m_avg"],
            min_vertices=EUROPE_PROFILE["m_min"],
            max_vertices=EUROPE_PROFILE["m_max"],
            roughness=0.24,
            seed=seed,
        )
        _CACHE[key] = SpatialRelation("Europe", polys)
    return _CACHE[key]


def bw(seed: int = 1994, size: Optional[int] = None) -> SpatialRelation:
    """Synthetic stand-in for the paper's *BW* relation."""
    key = ("BW", seed, size)
    if key not in _CACHE:
        n = size if size is not None else BW_PROFILE["objects"]
        polys = cartographic_polygons(
            n_objects=n,
            mean_vertices=BW_PROFILE["m_avg"],
            min_vertices=BW_PROFILE["m_min"],
            max_vertices=BW_PROFILE["m_max"],
            roughness=0.26,
            seed=seed + 1,
        )
        _CACHE[key] = SpatialRelation("BW", polys)
    return _CACHE[key]
