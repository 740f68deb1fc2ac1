"""End-to-end workflows across modules (the downstream-user scenarios)."""

import pytest

from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig, SpatialJoinProcessor, nested_loops_join
from repro.core.overlay import MapOverlay
from repro.core.parallel import simulate_parallel_join
from repro.core.partition import partitioned_join
from repro.datasets.io import load_relation, save_relation
from repro.datasets.relations import europe
from repro.datasets.testseries import strategy_a
from repro.index.clustering import ObjectStore, simulate_join_object_access
from repro.index.hilbert import hilbert_pack_rtree
from repro.index.join import rstar_join
from repro.index.rplus import RPlusTree, rplus_mbr_join


@pytest.fixture(scope="module")
def series():
    return strategy_a(europe(size=70))


@pytest.fixture(scope="module")
def join_result(series):
    return SpatialJoinProcessor().join(series.relation_a, series.relation_b)


class TestRoundTrip:
    def test_wkt_roundtrip_preserves_join(self, tmp_path, series):
        """Save both relations as WKT, reload, join — identical result."""
        path_a = tmp_path / "a.wkt"
        path_b = tmp_path / "b.wkt"
        save_relation(series.relation_a, str(path_a))
        save_relation(series.relation_b, str(path_b))
        reloaded_a = load_relation(str(path_a))
        reloaded_b = load_relation(str(path_b))
        original = sorted(
            SpatialJoinProcessor()
            .join(series.relation_a, series.relation_b)
            .id_pairs()
        )
        reloaded = sorted(
            SpatialJoinProcessor().join(reloaded_a, reloaded_b).id_pairs()
        )
        assert original == reloaded


class TestEveryConfigurationAgrees:
    """The paper's core invariant: filters and backends change cost only."""

    def test_all_filter_configs_same_result(self, series):
        expected = sorted(nested_loops_join(series.relation_a, series.relation_b))
        configs = [
            FilterConfig(conservative=None, progressive=None),
            FilterConfig(conservative="RMBR", progressive=None),
            FilterConfig(conservative="5-C", progressive="MER"),
            FilterConfig(conservative="CH", progressive="MEC"),
        ]
        for fc in configs:
            result = SpatialJoinProcessor(JoinConfig(filter=fc)).join(
                series.relation_a, series.relation_b
            )
            assert sorted(result.id_pairs()) == expected, fc

    def test_partitioned_equals_plain_under_any_grid(self, series, join_result):
        expected = sorted(join_result.id_pairs())
        for grid in ((1, 1), (2, 3), (5, 5)):
            part = partitioned_join(
                series.relation_a, series.relation_b, grid=grid
            )
            assert sorted(part.id_pairs()) == expected, grid

    def test_mbr_join_backends_agree(self, series):
        items_a = series.relation_a.mbr_items()
        items_b = series.relation_b.mbr_items()
        rstar_a = series.relation_a.build_rtree(max_entries=8)
        rstar_b = series.relation_b.build_rtree(max_entries=8)
        objects_a = series.relation_a.objects
        objects_b = series.relation_b.objects
        reference = sorted(
            (objects_a[a].oid, objects_b[b].oid)
            for a, b in rstar_join(rstar_a, rstar_b)
        )
        packed = sorted(
            (a.oid, b.oid)
            for a, b in rstar_join(
                hilbert_pack_rtree(items_a, max_entries=8),
                hilbert_pack_rtree(items_b, max_entries=8),
            )
        )
        rplus = sorted(
            (a.oid, b.oid)
            for a, b in rplus_mbr_join(
                RPlusTree.bulk_load(items_a, max_entries=8),
                RPlusTree.bulk_load(items_b, max_entries=8),
            )
        )
        assert packed == reference
        assert rplus == reference


class TestCapacityPlanning:
    """Join -> clustering report -> parallel speedup, one pipeline."""

    def test_full_planning_workflow(self, series, join_result):
        pairs = join_result.id_pairs()
        store_a = ObjectStore(series.relation_a, order="hilbert")
        store_b = ObjectStore(series.relation_b, order="hilbert")
        io_report = simulate_join_object_access(pairs, store_a, store_b)
        assert io_report.objects_fetched == 2 * len(pairs)

        parallel = simulate_parallel_join(
            series.relation_a,
            series.relation_b,
            grid=(4, 4),
            processor_counts=(1, 4),
        )
        assert sorted(parallel.result.id_pairs()) == sorted(pairs)
        one, four = (sim for _, sim in parallel.simulations)
        assert four.speedup >= one.speedup


class TestOverlayConsistency:
    def test_overlay_area_independent_of_filter_config(self, series):
        plain = MapOverlay(
            JoinConfig(filter=FilterConfig(conservative=None, progressive=None))
        ).intersection(series.relation_a, series.relation_b)
        filtered = MapOverlay(
            JoinConfig(filter=FilterConfig(conservative="5-C", progressive="MER"))
        ).intersection(series.relation_a, series.relation_b)
        assert plain.total_area() == pytest.approx(
            filtered.total_area(), rel=1e-9
        )
