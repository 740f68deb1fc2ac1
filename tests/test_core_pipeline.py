"""Integration tests: the multi-step join pipeline against the oracle.

DESIGN.md invariant 7: the multi-step join result equals the
nested-loops exact join result for *every* filter configuration.
"""

import pytest

from repro.core.filters import (
    NO_FILTER,
    FilterConfig,
    FilterOutcome,
    geometric_filter,
)
from repro.core.join import JoinConfig, SpatialJoinProcessor, nested_loops_join
from repro.core.stats import MultiStepStats


class TestPipelineCorrectness:
    @pytest.mark.parametrize(
        "filter_config",
        [
            FilterConfig(),                                    # paper default
            NO_FILTER,                                         # MBR only
            FilterConfig(conservative="RMBR", progressive="MEC"),
            FilterConfig(conservative="CH", progressive=None),
            FilterConfig(conservative=None, progressive="MER"),
            FilterConfig(use_false_area_test=True),
            FilterConfig(progressive_first=True),
            FilterConfig(conservative="MBC", progressive="MEC"),
            FilterConfig(conservative="MBE", progressive=None),
            FilterConfig(conservative="4-C", progressive="MER"),
        ],
        ids=lambda fc: fc.describe() if isinstance(fc, FilterConfig) else str(fc),
    )
    def test_every_filter_config_matches_oracle(
        self, tiny_series, tiny_oracle, filter_config
    ):
        proc = SpatialJoinProcessor(
            JoinConfig(filter=filter_config, exact_method="vectorized")
        )
        result = proc.join(tiny_series.relation_a, tiny_series.relation_b)
        assert set(result.id_pairs()) == tiny_oracle

    def test_default_join_refines_in_batches(self, tiny_series):
        """The default join runs the batched exact step, no fallbacks."""
        rel_a, rel_b = tiny_series.relation_a, tiny_series.relation_b
        result = SpatialJoinProcessor().join(rel_a, rel_b)
        assert result.stats.refine_batches > 0
        assert result.stats.refine_fallback_pairs == 0
        assert sorted(result.id_pairs()) == sorted(
            nested_loops_join(rel_a, rel_b)
        )

    def test_unknown_exact_method_rejected(self):
        with pytest.raises(ValueError):
            JoinConfig(exact_method="magic")

    def test_join_iter_streams_same_pairs(self, tiny_series, tiny_oracle):
        proc = SpatialJoinProcessor(JoinConfig(exact_method="vectorized"))
        got = {
            (a.oid, b.oid)
            for a, b in proc.join_iter(
                tiny_series.relation_a, tiny_series.relation_b
            )
        }
        assert got == tiny_oracle


class TestPipelineStats:
    def test_stats_partition_candidates(self, tiny_series):
        proc = SpatialJoinProcessor(JoinConfig(exact_method="vectorized"))
        stats = proc.join(
            tiny_series.relation_a, tiny_series.relation_b
        ).stats
        assert (
            stats.filter_false_hits
            + stats.filter_hits
            + stats.remaining_candidates
            == stats.candidate_pairs
        )
        assert (
            stats.exact_hits + stats.exact_false_hits
            == stats.remaining_candidates
        )

    def test_total_hits_equal_result_size(self, tiny_series):
        proc = SpatialJoinProcessor(JoinConfig(exact_method="vectorized"))
        result = proc.join(tiny_series.relation_a, tiny_series.relation_b)
        assert result.stats.total_hits == len(result)

    def test_filter_identifies_pairs(self, tiny_series):
        """The paper's default filter resolves a substantial share (~46%)."""
        proc = SpatialJoinProcessor(JoinConfig(exact_method="vectorized"))
        stats = proc.join(
            tiny_series.relation_a, tiny_series.relation_b
        ).stats
        assert stats.identification_rate() > 0.25

    def test_no_filter_identifies_nothing(self, tiny_series):
        proc = SpatialJoinProcessor(
            JoinConfig(filter=NO_FILTER, exact_method="vectorized")
        )
        stats = proc.join(
            tiny_series.relation_a, tiny_series.relation_b
        ).stats
        assert stats.identified_pairs == 0
        assert stats.remaining_candidates == stats.candidate_pairs

    def test_buffered_join_counts_pages(self, tiny_series):
        proc = SpatialJoinProcessor(
            JoinConfig(exact_method="vectorized", buffer_pages=16)
        )
        result = proc.join(tiny_series.relation_a, tiny_series.relation_b)
        assert result.stats.mbr_join.output_pairs == result.stats.candidate_pairs

    def test_summary_keys(self, tiny_series):
        proc = SpatialJoinProcessor(JoinConfig(exact_method="vectorized"))
        summary = proc.join(
            tiny_series.relation_a, tiny_series.relation_b
        ).stats.summary()
        for key in (
            "candidate_pairs",
            "filter_false_hits",
            "filter_hits",
            "remaining_candidates",
            "total_hits",
            "identification_rate",
        ):
            assert key in summary


class TestGeometricFilterUnit:
    def test_filter_never_misclassifies(self, tiny_series):
        """FALSE_HIT pairs never intersect; HIT pairs always intersect."""
        from repro.geometry.fastops import polygons_intersect_fast

        config = FilterConfig()
        checked = 0
        for obj_a in tiny_series.relation_a.objects[:25]:
            for obj_b in tiny_series.relation_b.objects[:25]:
                if not obj_a.mbr.intersects(obj_b.mbr):
                    continue
                outcome = geometric_filter(obj_a, obj_b, config)
                truth = polygons_intersect_fast(obj_a.polygon, obj_b.polygon)
                if outcome is FilterOutcome.HIT:
                    assert truth
                elif outcome is FilterOutcome.FALSE_HIT:
                    assert not truth
                checked += 1
        assert checked > 0

    def test_stats_recording(self, tiny_series):
        stats = MultiStepStats()
        config = FilterConfig()
        obj_a = tiny_series.relation_a[0]
        obj_b = tiny_series.relation_b[0]
        geometric_filter(obj_a, obj_b, config, stats)
        assert stats.conservative_tests + stats.progressive_tests >= 1

    def test_progressive_first_order(self, tiny_series):
        stats = MultiStepStats()
        config = FilterConfig(progressive_first=True)
        obj = tiny_series.relation_a[0]
        outcome = geometric_filter(obj, obj, config, stats)
        # Identical objects: progressive approximations intersect.
        assert outcome is FilterOutcome.HIT
        assert stats.filter_hits_progressive == 1
        assert stats.conservative_tests == 0  # progressive decided first


class TestCostModels:
    def test_version_ordering_of_figure18(self):
        """v1 (no approx, sweep) > v2 (approx, sweep) > v3 (approx, TR*)."""
        from repro.core.costs import JoinScenario, total_join_cost

        pairs = 86_000
        v1 = total_join_cost(
            JoinScenario(pairs, 0.0, 4000, uses_trstar=False), "v1"
        )
        v2 = total_join_cost(
            JoinScenario(
                pairs, 0.46, 5200, uses_trstar=False, uses_approximations=True
            ),
            "v2",
        )
        v3 = total_join_cost(
            JoinScenario(
                pairs, 0.46, 5200, uses_trstar=True, uses_approximations=True
            ),
            "v3",
        )
        assert v1.total > v2.total > v3.total
        # §5: total improvement by a factor of more than 3.
        assert v1.total / v3.total > 3.0

    def test_breakdown_dict(self):
        from repro.core.costs import JoinScenario, total_join_cost

        bd = total_join_cost(JoinScenario(1000, 0.5, 100, uses_trstar=True))
        d = bd.as_dict()
        assert d["total_s"] == pytest.approx(
            d["mbr_join_s"] + d["object_access_s"] + d["exact_test_s"]
        )

    def test_approximation_impact(self):
        from repro.core.costs import approximation_impact

        impact = approximation_impact(
            base_join_pages=1000, enlarged_join_pages=1200, identified_pairs=5000
        )
        assert impact.loss_pages == 200
        assert impact.gain_pages == 5000
        assert impact.total_gain_pages == 4800
