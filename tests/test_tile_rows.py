"""Tiles are rows of their parents' stores: the runner, the worker store, the tree.

A tile of a partitioned join is two row-index arrays over its parents'
column stores.  :func:`run_tile` joins those rows on the parent stores
themselves (step 1 on R*-trees over the rows' MBRs whose leaf items are
parent rows); :func:`fold_tiles` merges tile outcomes in key order.  In
the parent the stores are the relations' in-memory ``columnar()``; a
pool worker reads :class:`_MappedRelation`, one store over a relation's
mapped shared segments, kept for the pool's life, whose objects are
built on first read.  :func:`rtree_over` is the R*-tree every join path
builds over an MBR column.  These tests pin each piece against the
structure it replaced: per-object trees, relations of the tile's own
objects and the serial join.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.datasets.relations as relations_module
from helpers import random_relation_pair
from repro.approximations.batch import stored_family
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.core.parallel_exec import _MappedRelation
from repro.core.partition import (
    GridPartitioner,
    fold_tiles,
    owning_tile,
    run_tile,
)
from repro.core.session import JoinSession
from repro.datasets.relations import SpatialObject, SpatialRelation
from repro.index.join import JoinStats, rstar_join
from repro.index.rstar import RStarTree, rtree_over


@pytest.fixture(scope="module")
def pair():
    return random_relation_pair(7, n_objects=24)


def _shape(node, label=lambda item: item):
    """A tree's structure: levels, node MBRs and leaf items, in order."""
    if node.is_leaf:
        return ("leaf", tuple((e.rect, label(e.item)) for e in node.entries))
    return (
        node.level,
        node.mbr(),
        tuple(_shape(child, label) for child in node.children),
    )


def _stored_kinds(config):
    return [k for k in config.approximation_kinds() if stored_family(k)]


def _every_row(relation):
    return np.arange(len(relation), dtype=np.intp)


@pytest.fixture
def mapped(pair):
    """``(stores, kinds)``: a worker's stores over the pair's segments,
    shipped with every stored kind the default config reads."""
    kinds = _stored_kinds(JoinConfig())
    with JoinSession() as session:
        segments, _ = session.ship(pair, kinds)
        stores = [_MappedRelation(seg.spec_for(kinds)) for seg in segments]
        try:
            yield stores, kinds
        finally:
            for store in stores:
                store.close()


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
    none = rtree_over(
        np.array([[0.0, 0.0, 1.0, 1.0]]), 8, rows=np.empty(0, dtype=np.intp)
    )
    assert none.size == 0
    assert list(rstar_join(none, other)) == []


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


@pytest.mark.parametrize("capacity", [3, 8])
def test_rtree_over_rows_is_the_gathered_tree_labelled_by_parent_row(
    pair, capacity
):
    """``rows=`` builds the tree of ``mbrs[rows]`` with item ``i``
    relabelled ``rows[i]``; its join is the gathered trees' join with
    rows mapped back, in the same order and with the same counters."""
    rel_a, rel_b = pair
    rows_a = np.array([17, 2, 9, 5, 0, 21, 12, 3], dtype=np.intp)
    rows_b = np.arange(len(rel_b), dtype=np.intp)[::2]
    mbrs_a, mbrs_b = rel_a.columnar().mbrs, rel_b.columnar().mbrs
    tree = rtree_over(mbrs_a, capacity, rows=rows_a)
    gathered = rtree_over(mbrs_a[rows_a], capacity)
    assert _shape(tree.root) == _shape(
        gathered.root, label=lambda i: int(rows_a[i])
    )
    stats, gathered_stats = JoinStats(), JoinStats()
    got = list(rstar_join(
        tree, rtree_over(mbrs_b, capacity, rows=rows_b), stats=stats
    ))
    want = [
        (int(rows_a[i]), int(rows_b[j]))
        for i, j in rstar_join(
            gathered, rtree_over(mbrs_b[rows_b], capacity),
            stats=gathered_stats,
        )
    ]
    assert want and got == want
    assert stats == gathered_stats


# ---------------------------------------------------------------------------
# A worker's store over the mapped segments
# ---------------------------------------------------------------------------


def test_mapped_store_reads_the_parent_rows(pair, mapped):
    """A worker's store holds the parent's oids, MBR rows, stored
    approximation rows and edge table bit for bit, packs nothing, and
    reads the mapped columns in place."""
    stores, kinds = mapped
    for relation, store in zip(pair, stores):
        parent = relation.columnar()
        assert store.oids.tolist() == parent.oids.tolist()
        assert store.mbrs.tobytes() == parent.mbrs.tobytes()
        assert kinds
        for kind in kinds:
            got = store.approx(kind).columns()
            for name, array in parent.approx(kind).columns().arrays.items():
                assert got.arrays[name].tobytes() == array.tobytes(), name
        mine, theirs = store.ring_geometry().table, parent.ring_geometry().table
        for ours, want in zip(mine, theirs):
            assert ours.tobytes() == want.tobytes()
        assert store.ring_geometry() is store.ring_geometry()
        assert store.pack_counts == {}
        assert len(store.objects) == len(relation)
        # No copy per store: the oids are the mapped ring column.
        assert np.shares_memory(store.oids, store.rings.oids)


def test_mapped_store_builds_an_object_on_first_read(pair, mapped, monkeypatch):
    """A worker's store builds object ``i`` only when it is read, once,
    bit-identical and with its stored approximations installed: reading
    them computes nothing."""
    stores, kinds = mapped
    relation, store = pair[1], stores[1]
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
    assert built == []
    obj = store.objects[9]
    assert obj is store.objects[9]
    parent = relation.objects[9]
    assert built == [parent.oid]
    assert obj.oid == parent.oid
    assert obj.polygon.shell == parent.polygon.shell
    assert obj.polygon.holes == parent.polygon.holes
    assert kinds
    for kind in kinds:
        got, want = obj.approximation(kind), parent.approximation(kind)
        assert got.mbr() == want.mbr()
        assert got.area() == want.area()
    assert computed == []
    assert built == [parent.oid]


def test_a_block_mapped_later_serves_the_objects_built_before(
    pair, monkeypatch
):
    """A kind shipped after a worker built an object reaches that object
    too: no later scalar read of it computes the kind."""
    relation = pair[0]
    with JoinSession() as session:
        (segment,), _ = session.ship((relation,), ("MER",))
        store = _MappedRelation(segment.spec_for(("MER",)))
        try:
            obj = store.objects[4]
            session.ship((relation,), ("MBC",))
            store.map_blocks(segment.spec_for(("MER", "MBC")).approx)
            assert store.pack_counts == {}
            computed = []
            monkeypatch.setattr(
                relations_module, "compute_approximation",
                lambda polygon, kind: computed.append(kind),
            )
            want = relation.objects[4].approximation("MBC")
            assert obj.approximation("MBC").area() == want.area()
            assert store.objects[5].approximation("MBC").mbr() == (
                relation.objects[5].approximation("MBC").mbr()
            )
            assert computed == []
        finally:
            store.close()


# ---------------------------------------------------------------------------
# run_tile / fold_tiles
# ---------------------------------------------------------------------------


def test_tile_of_no_rows_joins_to_nothing(pair):
    rel_a, rel_b = pair
    config = JoinConfig()
    pairs, stats = run_tile(
        config, rel_a.columnar(), rel_b.columnar(),
        np.empty(0, dtype=np.intp), _every_row(rel_b),
    )
    assert pairs == []
    assert stats.candidate_pairs == 0


@pytest.mark.parametrize("predicate", ["intersects", "within"])
def test_run_tile_over_every_row_is_the_serial_join(pair, mapped, predicate):
    """A tile of all rows, owning every pair, is the serial join: same
    oid pairs, order and counters — on the in-memory stores and on a
    worker's mapped stores alike."""
    rel_a, rel_b = pair
    config = JoinConfig(predicate=predicate)
    serial = SpatialJoinProcessor(config).join(rel_a, rel_b)
    assert serial.pairs
    stores, _ = mapped
    for store_a, store_b in ((rel_a.columnar(), rel_b.columnar()), stores):
        pairs, stats = run_tile(
            config, store_a, store_b, _every_row(rel_a), _every_row(rel_b)
        )
        assert pairs == serial.id_pairs()
        assert stats == serial.stats


@pytest.mark.parametrize("engine", ["batched", "streaming"])
@pytest.mark.parametrize("predicate", ["intersects", "within"])
def test_run_tile_over_rows_is_the_join_of_those_objects(
    pair, mapped, engine, predicate
):
    """A tile over some parent rows, in any order, is the join of two
    relations holding those objects in that order: same pairs, order and
    counters, with nothing gathered or rebuilt for the tile."""
    rel_a, rel_b = pair
    config = JoinConfig(predicate=predicate, engine=engine)
    rng = np.random.default_rng(5)
    rows_a = rng.permutation(len(rel_a))[:20].astype(np.intp)
    rows_b = np.sort(rng.permutation(len(rel_b))[:20]).astype(np.intp)
    sub_a, sub_b = SpatialRelation("a", []), SpatialRelation("b", [])
    sub_a.objects = [rel_a.objects[i] for i in rows_a.tolist()]
    sub_b.objects = [rel_b.objects[i] for i in rows_b.tolist()]
    want = SpatialJoinProcessor(config).join(sub_a, sub_b)
    assert want.pairs
    stores, _ = mapped
    for store_a, store_b in ((rel_a.columnar(), rel_b.columnar()), stores):
        pairs, stats = run_tile(config, store_a, store_b, rows_a, rows_b)
        assert pairs == want.id_pairs()
        assert stats == want.stats


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
            config, rel_a.columnar(), rel_b.columnar(), idx_a, idx_b,
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
            config, rel_a.columnar(), rel_b.columnar(), idx_a, idx_b,
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
