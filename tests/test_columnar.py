"""The columnar relation store: round trips, caching, and semantics.

Three guarantees under test:

1. **Bit-for-bit columns** — every column of ``ColumnarRelation`` (and
   of the per-kind ``BatchApproxArrays`` it packs) equals the scalar
   accessors (``obj.mbr``, ``appr.area()``, vertex tuples) exactly,
   including degenerate shapes (zero-area slivers, 2-point hulls).
   Hypothesis drives the relation generator across seeds.
2. **Pack once per (relation, kind)** — repeated batched joins over the
   same relations never re-run the per-object packing (the ISSUE-3
   repack-waste regression).
3. **One packing rule per kind** — a kind with a stored form is read
   from the relations' columns; a kind without one (RMBR, MBE) is
   packed per join, only for the objects that reach the filter.  The
   option that used to toggle this is gone and is rejected.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.datasets.relations as relations_module
from helpers import random_relation_pair, stats_fingerprint
from repro.approximations.batch import BatchApproxArrays
from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.partition import partitioned_join, tile_relation
from repro.datasets.columnar import (
    ColumnarRelation,
    pack_rings,
    unpack_polygon,
)
from repro.datasets.relations import SpatialRelation
from repro.geometry.polygon import Polygon

KINDS = ("MBR", "RMBR", "4-C", "5-C", "CH", "MBC", "MBE", "MEC", "MER")

relation_seeds = st.integers(min_value=0, max_value=10_000)

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# 1. Bit-for-bit column round trips (hypothesis over generated relations).
# ---------------------------------------------------------------------------


@SETTINGS
@given(seed=relation_seeds)
def test_base_columns_match_scalar_accessors(seed):
    rel_a, rel_b = random_relation_pair(seed, n_objects=8)
    for rel in (rel_a, rel_b):
        store = rel.columnar()
        assert store is rel.columnar(), "store must be cached"
        assert len(store) == len(rel)
        assert store.oids.tolist() == [obj.oid for obj in rel]
        for i, obj in enumerate(rel):
            m = obj.mbr
            assert store.mbrs[i].tolist() == [m.xmin, m.ymin, m.xmax, m.ymax]
            assert store.areas[i] == obj.polygon.area()


@SETTINGS
@given(seed=relation_seeds)
def test_approx_columns_match_scalar_accessors(seed):
    rel_a, _ = random_relation_pair(seed, n_objects=6)
    store = rel_a.columnar()
    for kind in KINDS:
        enc = store.approx(kind)
        assert len(enc) == len(rel_a)
        for i, obj in enumerate(rel_a):
            appr = obj.approximation(kind)
            m = appr.mbr()
            assert enc.mbrs[i].tolist() == [m.xmin, m.ymin, m.xmax, m.ymax]
            # Exact equality: the stored false area is the same python
            # float subtraction the scalar §3.3 test performs.
            assert enc.false_areas[i] == appr.area() - obj.polygon.area()
            if enc.family == "circle":
                c = appr.circle()
                assert enc.circles[i].tolist() == [
                    c.center[0], c.center[1], c.radius,
                ]
            elif enc.family == "convex":
                verts = appr.convex_vertices()
                count = len(verts)
                assert bool(enc.degenerate[i]) == (count < 3)
                row = list(zip(enc.vx[i].tolist(), enc.vy[i].tolist()))
                assert row[:count] == [(x, y) for x, y in verts]
                if count:  # padding repeats the first vertex exactly
                    assert all(p == row[0] for p in row[count:])


@SETTINGS
@given(seed=relation_seeds)
def test_ring_columns_round_trip_polygons(seed):
    rel_a, rel_b = random_relation_pair(seed, n_objects=8)
    for rel in (rel_a, rel_b):
        columns = rel.columnar().rings
        assert columns.oids.tolist() == [obj.oid for obj in rel]
        for i, obj in enumerate(rel):
            rebuilt = unpack_polygon(columns, i)
            assert rebuilt.shell == obj.polygon.shell
            assert rebuilt.holes == obj.polygon.holes
            assert rebuilt.area() == obj.polygon.area()
            assert rebuilt.mbr() == obj.polygon.mbr()


def test_ring_columns_round_trip_holes_and_degenerates():
    """Holes and zero-area shells survive the packed-ring round trip."""
    donut = Polygon(
        [(0, 0), (10, 0), (10, 10), (0, 10)],
        holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
    )
    sliver = Polygon([(0, 0), (4, 0), (2, 0)])  # zero area, collinear
    rel = SpatialRelation("H", [donut, sliver])
    columns = pack_rings(rel.objects)
    for i, obj in enumerate(rel):
        rebuilt = unpack_polygon(columns, i)
        # from_normalized adoption: bit-identical, even though the
        # constructor would flip the zero-area shell's orientation.
        assert rebuilt.shell == obj.polygon.shell
        assert rebuilt.holes == obj.polygon.holes
        assert rebuilt.area() == obj.polygon.area()


def _assert_edge_table_identity(rel):
    """The relation's edge table against the scalar polygon accessors."""
    geometry = rel.columnar().ring_geometry()
    table = geometry.table
    assert table.offsets[0] == 0 and table.offsets[-1] == table.coords.shape[1]
    for row, obj in enumerate(rel):
        assert geometry.row_of(obj) == row
        x1, y1, x2, y2 = (column.tolist() for column in geometry.edges(row))
        edges = list(obj.polygon.edges())
        assert list(zip(zip(x1, y1), zip(x2, y2))) == edges
        xs = [x for ring in obj.polygon.rings() for x, _ in ring]
        ys = [y for ring in obj.polygon.rings() for _, y in ring]
        assert geometry.bounds(row) == (min(xs), min(ys), max(xs), max(ys))
        m = obj.mbr
        assert table.mbrs[row].tolist() == [m.xmin, m.ymin, m.xmax, m.ymax]
        span = slice(table.offsets[row], table.offsets[row + 1])
        assert table.boxes[:, span].T.tolist() == [
            [min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1])]
            for a, b in edges
        ]


@SETTINGS
@given(seed=relation_seeds)
def test_edge_table_matches_polygon_edges(seed):
    for rel in random_relation_pair(seed, n_objects=8):
        _assert_edge_table_identity(rel)


def test_edge_table_holes_degenerates_and_cartographic():
    """Multi-ring objects between single-ring ones, zero-area rings, and
    the cartographic generator's polygons."""
    from repro.datasets.generators import cartographic_polygons

    square = [(0, 0), (10, 0), (10, 10), (0, 10)]
    donut = Polygon(square, holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]])
    sieve = Polygon(
        square,
        holes=[[(1, 1), (2, 1), (2, 2)], [(7, 7), (9, 7), (9, 9), (7, 9)]],
    )
    sliver = Polygon([(0, 0), (4, 0), (2, 0)])  # zero area, collinear
    flat_hole = Polygon(square, holes=[[(3, 3), (5, 3), (4, 3)]])
    maps = cartographic_polygons(n_objects=6, mean_vertices=40, seed=11)
    _assert_edge_table_identity(SpatialRelation(
        "H", [sliver, donut, maps[0], sieve, flat_hole, *maps[1:], donut]
    ))
    _assert_edge_table_identity(SpatialRelation("one", [sieve]))
    empty = SpatialRelation("none", []).columnar().ring_geometry().table
    assert empty.coords.shape == (4, 0) and empty.offsets.tolist() == [0]


class _CountingColumn(np.ndarray):
    """Counts every indexing of a column or of anything derived from it."""

    reads = 0

    def __getitem__(self, key):
        _CountingColumn.reads += 1
        return super().__getitem__(key)


def test_edge_table_build_has_no_per_object_step():
    """Building the table indexes the ring columns a fixed number of
    times — the same for 20 objects as for 2 000."""
    from repro.datasets.columnar import RingColumns
    from repro.exact.refine import RingGeometry

    def column_reads(n_objects):
        rel = SpatialRelation("tiny", [
            Polygon([(i, 0.0), (i + 0.5, 0.0), (i + 0.5, 0.5)])
            for i in range(n_objects)
        ])
        columns = RingColumns(
            *(column.view(_CountingColumn) for column in rel.columnar().rings)
        )
        _CountingColumn.reads = 0
        geometry = RingGeometry(columns, rel.objects)
        assert geometry.table.coords.shape == (4, 3 * n_objects)
        return _CountingColumn.reads

    assert 0 < column_reads(20) == column_reads(2000) <= 40


# ---------------------------------------------------------------------------
# 2. Packing happens once per (relation, kind).
# ---------------------------------------------------------------------------


def _register_spy(monkeypatch):
    calls = []
    original = BatchApproxArrays._register

    def spy(self, obj):
        calls.append(self.kind)
        return original(self, obj)

    monkeypatch.setattr(BatchApproxArrays, "_register", spy)
    return calls


def test_batched_join_packs_once_per_relation_and_kind(monkeypatch):
    rel_a, rel_b = random_relation_pair(301, n_objects=10)
    calls = _register_spy(monkeypatch)
    config = JoinConfig(engine="batched", exact_method="vectorized")

    first = SpatialJoinProcessor(config).join(rel_a, rel_b)
    packed_once = len(calls)
    assert packed_once > 0, "the filter kinds must have been packed"

    again = SpatialJoinProcessor(config).join(rel_a, rel_b)
    third = SpatialJoinProcessor(config).join(rel_a, rel_b)
    assert len(calls) == packed_once, (
        "repeated joins over the same relations must not re-pack"
    )
    assert first.id_pairs() == again.id_pairs() == third.id_pairs()

    for rel in (rel_a, rel_b):
        for kind, count in rel.columnar().pack_counts.items():
            assert count == 1, (rel.name, kind)


def test_same_relation_joined_against_two_partners_packs_once(monkeypatch):
    rel_a, rel_b = random_relation_pair(302, n_objects=8)
    _, rel_c = random_relation_pair(303, n_objects=8)
    config = JoinConfig(engine="batched", exact_method="vectorized")
    SpatialJoinProcessor(config).join(rel_a, rel_b)

    calls = _register_spy(monkeypatch)
    SpatialJoinProcessor(config).join(rel_a, rel_c)
    # Only rel_c's objects are new; rel_a reuses its cached columns.
    assert set(calls) <= {"5-C", "MER"}
    kinds = {kind for kind in calls}
    assert len(calls) == len(rel_c) * len(kinds)


def _build_spy(monkeypatch):
    """Record the kind of every per-object ``compute_approximation``."""
    builds = []
    original = relations_module.compute_approximation

    def counting(polygon, kind):
        builds.append(kind)
        return original(polygon, kind)

    monkeypatch.setattr(relations_module, "compute_approximation", counting)
    return builds


def _reaching_objects(rel_a, rel_b) -> int:
    """Objects in at least one MBR-intersecting pair (closed rectangles)."""
    a = rel_a.columnar().mbrs[:, None, :]
    b = rel_b.columnar().mbrs[None, :, :]
    meet = ((a[..., 0] <= b[..., 2]) & (b[..., 0] <= a[..., 2])
            & (a[..., 1] <= b[..., 3]) & (b[..., 1] <= a[..., 3]))
    return int(meet.any(axis=1).sum() + meet.any(axis=0).sum())


@pytest.mark.parametrize("unstored", ["RMBR", "MBE"])
def test_stored_kinds_come_from_columns_unstored_kinds_per_join(
    monkeypatch, unstored
):
    """The per-kind rule of ``BatchGeometricFilter.encoder``.

    RMBR and MBE have no stored form: each join packs the kind for the
    objects that reach the filter, and each object derives it once.
    MER has one: it is built once per relation, read from the columns
    by every later join, and gathered (never re-packed) by serial
    partitioned tiles.
    """
    builds = _build_spy(monkeypatch)
    calls = _register_spy(monkeypatch)
    rel_a, rel_b = random_relation_pair(304, n_objects=14, degenerate=False)
    reach = _reaching_objects(rel_a, rel_b)
    assert 0 < reach < len(rel_a) + len(rel_b)  # else nothing is proven
    config = JoinConfig(
        engine="batched", exact_method="vectorized",
        filter=FilterConfig(conservative=unstored, progressive="MER"),
    )

    first = SpatialJoinProcessor(config).join(rel_a, rel_b)
    assert builds.count(unstored) == reach
    assert builds.count("MER") == len(rel_a) + len(rel_b)
    for _ in range(2):
        calls.clear()
        again = SpatialJoinProcessor(config).join(rel_a, rel_b)
        assert again.id_pairs() == first.id_pairs()
        assert calls == [unstored] * reach  # packed per join; MER adopted
    assert builds.count(unstored) == reach  # the objects' caches keep it
    for rel in (rel_a, rel_b):
        assert rel.columnar().pack_counts == {"MER": 1}

    builds.clear()
    calls.clear()
    parted = partitioned_join(rel_a, rel_b, grid=(3, 3), config=config)
    assert sorted(parted.id_pairs()) == sorted(first.id_pairs())
    assert builds == []
    assert "MER" not in calls  # tiles gather the parent's MER rows
    for rel in (rel_a, rel_b):
        assert rel.columnar().pack_counts == {"MER": 1}


@pytest.mark.parametrize(
    "conservative,progressive",
    [("CH", None), ("4-C", None), ("5-C", None), ("MBC", None),
     (None, "MER"), (None, "MEC")],
    ids=["CH", "4-C", "5-C", "MBC", "MER", "MEC"],
)
def test_serial_tiles_gather_every_stored_kind(
    monkeypatch, conservative, progressive
):
    """``tile_relation`` cuts every stored kind from the parent's columns.

    Once the relations hold a kind, serial partitioned tiles neither
    derive nor pack it: a tile's columns are the parent's rows bit for
    bit, and the tiled pairs equal the serial join's.
    """
    kind = conservative or progressive
    rel_a, rel_b = random_relation_pair(306, n_objects=14, degenerate=False)
    config = JoinConfig(
        engine="batched", exact_method="vectorized",
        filter=FilterConfig(
            conservative=conservative, progressive=progressive
        ),
    )
    serial = SpatialJoinProcessor(config).join(rel_a, rel_b)
    builds = _build_spy(monkeypatch)
    calls = _register_spy(monkeypatch)

    parted = partitioned_join(rel_a, rel_b, grid=(3, 3), config=config)
    assert sorted(parted.id_pairs()) == sorted(serial.id_pairs())
    assert builds == [] and calls == []
    for rel in (rel_a, rel_b):
        assert rel.columnar().pack_counts == {kind: 1}

    parent = rel_a.columnar().approx(kind).columns()
    rows = np.arange(len(rel_a))[1::3]
    tile = tile_relation(
        "tile", [rel_a.objects[i] for i in rows], [parent], rows
    )
    gathered = tile.columnar().approx(kind).columns()
    assert gathered.kind == kind
    for name, column in parent.arrays.items():
        np.testing.assert_array_equal(gathered.arrays[name], column[rows])
    assert tile.columnar().pack_counts == {}
    assert builds == [] and calls == []


def test_from_columnar_adopts_without_packing(monkeypatch):
    rel_a, rel_b = random_relation_pair(305, n_objects=8)
    store_a = rel_a.columnar().approx("CH")
    store_b = rel_b.columnar().approx("CH")
    calls = _register_spy(monkeypatch)
    combined = BatchApproxArrays.from_columnar("CH", [store_a, store_b])
    assert calls == []
    assert len(combined) == len(rel_a) + len(rel_b)
    objects = list(rel_a) + list(rel_b)
    rows = combined.rows(objects)
    assert calls == [], "adopted objects must be pure gathers"
    assert rows.tolist() == list(range(len(objects)))
    np.testing.assert_array_equal(
        combined.mbrs, np.concatenate([store_a.mbrs, store_b.mbrs])
    )
    np.testing.assert_array_equal(
        combined.false_areas,
        np.concatenate([store_a.false_areas, store_b.false_areas]),
    )
    # A foreign object still registers incrementally on top.
    extra = SpatialRelation("X", [Polygon([(0, 0), (1, 0), (0.5, 1)])])
    row = combined.rows([extra.objects[0]])
    assert row.tolist() == [len(objects)]
    assert len(calls) == 1
    assert combined.mbrs.shape == (len(objects) + 1, 4)


def test_columnar_cache_invalidated_when_objects_replaced():
    rel_a, _ = random_relation_pair(306, n_objects=4)
    store = rel_a.columnar()
    rel_a.objects = list(rel_a.objects)[:2]  # replace the backing list
    fresh = rel_a.columnar()
    assert fresh is not store
    assert len(fresh) == 2


def test_columnar_cache_invalidated_on_inplace_resize():
    """Appending to the live object list must rebuild the columns."""
    from repro.core.partition import partitioned_join
    from repro.datasets.relations import SpatialObject

    rel_a, rel_b = random_relation_pair(307, n_objects=4)
    store = rel_a.columnar()
    rel_a.objects.append(
        SpatialObject(len(rel_a), Polygon([(0, 0), (2, 0), (1, 2)]))
    )
    fresh = rel_a.columnar()
    assert fresh is not store
    assert len(fresh) == len(rel_a)
    assert fresh.mbrs.shape == (len(rel_a), 4)
    # End to end: the partitioned join (which partitions via the MBR
    # columns) must see the appended object exactly like the plain join.
    config = JoinConfig(exact_method="vectorized")
    plain = SpatialJoinProcessor(config).join(rel_a, rel_b)
    parted = partitioned_join(rel_a, rel_b, grid=(2, 2), config=config)
    assert sorted(parted.id_pairs()) == sorted(plain.id_pairs())


def test_config_rejects_the_retired_columnar_option():
    with pytest.raises(TypeError, match="columnar"):
        JoinConfig(columnar=True)


# ---------------------------------------------------------------------------
# 4. Derived structures of the serial path are built once per relation.
# ---------------------------------------------------------------------------


def test_rtree_is_memoised_per_capacity_and_invalidated_like_columnar():
    rel_a, _ = random_relation_pair(321, n_objects=10)
    tree = rel_a.rtree()
    assert rel_a.rtree() is tree and rel_a.rtree(32) is tree
    assert rel_a.rtree(8) is not tree and rel_a.rtree(8) is rel_a.rtree(8)
    # build_rtree keeps handing out private trees (callers may insert).
    assert rel_a.build_rtree() is not tree
    assert rel_a.build_rtree() is not rel_a.build_rtree()
    assert sorted(e.item.oid for e in tree.all_entries()) == [
        o.oid for o in rel_a
    ]
    # Same rule as columnar(): a replaced or resized list drops the cache.
    rel_a.objects = rel_a.objects[:-1]
    shorter = rel_a.rtree()
    assert shorter is not tree and shorter.size == len(rel_a)
    rel_a.objects.append(rel_a.objects[0])
    assert rel_a.rtree() is not shorter


def test_serial_joins_reuse_trees_and_edge_arrays(monkeypatch):
    rel_a, rel_b = random_relation_pair(322, n_objects=10)
    config = JoinConfig(engine="batched", exact_method="vectorized",
                        exact_batch=8)
    builds = []
    original = SpatialRelation.build_rtree

    def counting(self, *args, **kwargs):
        builds.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SpatialRelation, "build_rtree", counting)
    first = SpatialJoinProcessor(config).join(rel_a, rel_b)
    geometry = rel_a.columnar().ring_geometry()
    assert geometry is rel_a.columnar().ring_geometry()
    table = geometry.table
    assert first.stats.refine_batches, "the join must have used the table"
    again = SpatialJoinProcessor(config).join(rel_a, rel_b)
    assert sorted(builds) == sorted([rel_a.name, rel_b.name])
    assert rel_a.columnar().ring_geometry().table is table
    assert first.id_pairs() == again.id_pairs()
    assert stats_fingerprint(first.stats) == stats_fingerprint(again.stats)
