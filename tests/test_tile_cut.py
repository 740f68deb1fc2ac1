"""The tile cut, the tile runner and the one R*-tree builder.

A tile is a :class:`ColumnarRelation` over rows of a parent
(:meth:`ColumnarRelation.cut`): gathered oids, MBR rows, stored
approximation rows and edge table, with the parent's objects or, from
mapped columns, objects built on their first read.  :func:`run_tile`
joins two tiles; :func:`fold_tiles` merges tile outcomes in key order.
:func:`rtree_over` is the R*-tree every join path builds over an MBR
column.  These tests pin each piece against the structure it replaced:
the per-object trees, the parent's rows and the serial join.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.datasets.relations as relations_module
from helpers import random_relation_pair
from repro.approximations.batch import stored_family
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.partition import (
    GridPartitioner,
    fold_tiles,
    owning_tile,
    run_tile,
)
from repro.datasets.columnar import ColumnarRelation
from repro.datasets.relations import SpatialObject
from repro.index.join import JoinStats, rstar_join
from repro.index.rstar import RStarTree, rtree_over


@pytest.fixture(scope="module")
def pair():
    return random_relation_pair(7, n_objects=24)


def _shape(node):
    """A tree's structure: levels, node MBRs and leaf items, in order."""
    if node.is_leaf:
        return ("leaf", tuple((e.rect, e.item) for e in node.entries))
    return (
        node.level,
        node.mbr(),
        tuple(_shape(child) for child in node.children),
    )


def _stored(relation, config):
    """The parent's stored columns of every kind ``config`` reads."""
    store = relation.columnar()
    return [
        store.approx(kind).columns()
        for kind in config.approximation_kinds()
        if stored_family(kind)
    ]


def _cut(relation, rows, config, objects=True):
    store = relation.columnar()
    return ColumnarRelation.cut(
        store.name, store.rings, rows, _stored(relation, config),
        store.objects if objects else None,
    )


# ---------------------------------------------------------------------------
# rtree_over
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("capacity", [3, 8, 32])
def test_rtree_over_inserts_build_the_per_object_tree(pair, capacity):
    """Row-order inserts over the MBR column give the tree that inserting
    every object's MBR with its row as item gives."""
    relation = pair[0]
    reference = RStarTree(max_entries=capacity)
    for row, obj in enumerate(relation.objects):
        reference.insert(obj.mbr, row)
    tree = rtree_over(relation.columnar().mbrs, capacity)
    assert tree.size == reference.size == len(relation)
    assert _shape(tree.root) == _shape(reference.root)
    tree.check_invariants()


def test_rtree_over_bulk_is_the_str_bulk_load(pair):
    relation = pair[1]
    items = [(obj.mbr, row) for row, obj in enumerate(relation.objects)]
    reference = RStarTree.bulk_load(items, max_entries=4)
    tree = rtree_over(relation.columnar().mbrs, 4, bulk=True)
    assert tree.bulk_loaded
    assert _shape(tree.root) == _shape(reference.root)
    assert _shape(relation.columnar().partition_tree(4).root) == _shape(
        tree.root
    )


def test_rtree_over_expand_grows_every_row_as_rect_expand(pair):
    relation = pair[0]
    half = 0.37
    tree = rtree_over(relation.columnar().mbrs, 8, expand=half)
    rects = {entry.item: entry.rect for entry in tree.all_entries()}
    assert sorted(rects) == list(range(len(relation)))
    for row, obj in enumerate(relation.objects):
        assert rects[row] == obj.mbr.expand(half)


def test_rtree_over_no_rows_is_an_empty_tree():
    tree = rtree_over(np.empty((0, 4)), 8)
    assert tree.size == 0
    other = rtree_over(np.array([[0.0, 0.0, 1.0, 1.0]]), 8)
    assert list(rstar_join(tree, other)) == []
    assert list(rstar_join(other, tree)) == []


def test_rtree_over_join_equals_the_relations_trees(pair):
    """Step 1 on two ``rtree_over`` trees: the relations' own pairs, in
    the same order, with the same node-pair counters."""
    rel_a, rel_b = pair
    expected_stats, stats = JoinStats(), JoinStats()
    expected = list(rstar_join(
        rel_a.build_rtree(8), rel_b.build_rtree(8), stats=expected_stats
    ))
    got = list(rstar_join(
        rtree_over(rel_a.columnar().mbrs, 8),
        rtree_over(rel_b.columnar().mbrs, 8),
        stats=stats,
    ))
    assert expected and got == expected
    assert stats == expected_stats


# ---------------------------------------------------------------------------
# ColumnarRelation.cut
# ---------------------------------------------------------------------------


def test_cut_gathers_the_parent_rows(pair):
    relation = pair[0]
    config = JoinConfig()
    parent = relation.columnar()
    rows = np.array([5, 0, 17, 3, 11], dtype=np.intp)
    tile = _cut(relation, rows, config)
    assert tile.oids.tolist() == parent.oids[rows].tolist()
    assert np.array_equal(tile.mbrs, parent.mbrs[rows])
    assert all(
        tile.objects[i] is relation.objects[row]
        for i, row in enumerate(rows.tolist())
    )
    for columns in _stored(relation, config):
        got = tile.approx(columns.kind).columns()
        for name, array in columns.arrays.items():
            assert np.array_equal(got.arrays[name], array[rows]), name
    assert tile.pack_counts == {}
    # Copies: the tile outlives a parent mapping that is closed.
    assert not np.shares_memory(tile.oids, parent.rings.oids)
    assert not np.shares_memory(tile.mbrs, parent.mbrs)


def test_cut_of_mapped_columns_builds_an_object_on_first_read(
    pair, monkeypatch
):
    """Without parent objects a tile builds object ``i`` only when it is
    read, once, bit-identical and with its stored approximations
    installed: reading them computes nothing."""
    relation = pair[1]
    config = JoinConfig()
    rows = np.array([2, 9, 4], dtype=np.intp)
    tile = _cut(relation, rows, config, objects=False)
    built, computed = [], []
    original_init = SpatialObject.__init__
    original_compute = relations_module.compute_approximation

    def counting_init(self, oid, polygon):
        built.append(oid)
        original_init(self, oid, polygon)

    def counting_compute(polygon, kind):
        computed.append(kind)
        return original_compute(polygon, kind)

    monkeypatch.setattr(SpatialObject, "__init__", counting_init)
    monkeypatch.setattr(
        relations_module, "compute_approximation", counting_compute
    )
    assert len(tile.objects) == 3
    assert built == []
    obj = tile.objects[1]
    assert obj is tile.objects[1]
    parent = relation.objects[9]
    assert built == [parent.oid]
    assert obj.oid == parent.oid
    assert obj.polygon.shell == parent.polygon.shell
    assert obj.polygon.holes == parent.polygon.holes
    kinds = [kind for kind in config.approximation_kinds()
             if stored_family(kind)]
    assert kinds
    for kind in kinds:
        got, want = obj.approximation(kind), parent.approximation(kind)
        assert got.mbr() == want.mbr()
        assert got.area() == want.area()
    assert computed == []
    assert built == [parent.oid]


def test_cut_of_no_rows_joins_to_nothing(pair):
    rel_a, rel_b = pair
    config = JoinConfig()
    empty = _cut(rel_a, np.empty(0, dtype=np.intp), config)
    assert len(empty.objects) == 0
    assert empty.mbrs.shape == (0, 4)
    tile_b = _cut(rel_b, np.arange(len(rel_b), dtype=np.intp), config)
    pairs, stats = run_tile(config, empty, tile_b)
    assert pairs == []
    assert stats.candidate_pairs == 0


# ---------------------------------------------------------------------------
# run_tile / fold_tiles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("predicate", ["intersects", "within"])
def test_run_tile_over_every_row_is_the_serial_join(pair, predicate):
    """A tile of all rows, owning every pair, is the serial join: same
    oid pairs, order and counters."""
    rel_a, rel_b = pair
    config = JoinConfig(predicate=predicate)
    tiles = [
        _cut(rel, np.arange(len(rel), dtype=np.intp), config)
        for rel in (rel_a, rel_b)
    ]
    pairs, stats = run_tile(config, *tiles)
    serial = SpatialJoinProcessor(config).join(rel_a, rel_b)
    assert serial.pairs
    assert pairs == serial.id_pairs()
    assert stats == serial.stats


def test_run_tile_owner_keeps_the_pairs_of_its_reference_tile(pair):
    """Each grid tile keeps exactly the pairs the scalar rule assigns to
    it, so the tiles' pairs partition the serial result."""
    rel_a, rel_b = pair
    config = JoinConfig()
    grid = (3, 3)
    plan = GridPartitioner().plan(rel_a, rel_b, grid)
    by_id_a = {obj.oid: obj for obj in rel_a}
    by_id_b = {obj.oid: obj for obj in rel_b}
    found = []
    for key, idx_a, idx_b in plan.entries:
        if not (idx_a.size and idx_b.size):
            continue
        owned, _ = run_tile(
            config, _cut(rel_a, idx_a, config), _cut(rel_b, idx_b, config),
            (plan.space, grid, key),
        )
        for a, b in owned:
            assert owning_tile(
                by_id_a[a].mbr, by_id_b[b].mbr, plan.space, *grid
            ) == key
        found.extend(owned)
    serial = SpatialJoinProcessor(config).join(rel_a, rel_b)
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(serial.id_pairs())


def test_fold_tiles_does_not_depend_on_the_order_tiles_finish(pair):
    rel_a, rel_b = pair
    config = JoinConfig()
    grid = (2, 2)
    plan = GridPartitioner().plan(rel_a, rel_b, grid)
    outcomes = [
        (key, *run_tile(
            config, _cut(rel_a, idx_a, config), _cut(rel_b, idx_b, config),
            (plan.space, grid, key),
        ))
        for key, idx_a, idx_b in plan.entries
        if idx_a.size and idx_b.size
    ]
    assert len(outcomes) > 1
    in_order = plan.partition_shells()
    pairs, stats = fold_tiles(rel_a, rel_b, in_order, outcomes)
    shuffled = list(outcomes)
    random.Random(3).shuffle(shuffled)
    shuffled_shells = plan.partition_shells()
    pairs_s, stats_s = fold_tiles(rel_a, rel_b, shuffled_shells, shuffled)
    assert [(a.oid, b.oid) for a, b in pairs] == [
        (a.oid, b.oid) for a, b in pairs_s
    ]
    assert stats == stats_s
    assert in_order == shuffled_shells
    assert sum(p.output_pairs for p in in_order) == len(pairs)
