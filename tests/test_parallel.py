"""Simulated CPU/I-O parallelism (§6 future work)."""

import pytest

from repro.core.join import nested_loops_join
from repro.core.parallel import (
    ParallelSimulation,
    ProcessorLoad,
    TileCost,
    schedule_lpt,
    simulate_parallel_join,
    tile_costs,
)
from repro.core.partition import PartitionStats
from repro.datasets.relations import europe


def make_costs(seconds):
    return [
        TileCost(tile=(i, 0), cpu_seconds=s, io_seconds=0.0)
        for i, s in enumerate(seconds)
    ]


class TestScheduling:
    def test_single_processor_runs_everything(self):
        sim = schedule_lpt(make_costs([3, 1, 2]), 1)
        assert sim.makespan_seconds == pytest.approx(6.0)
        assert sim.speedup == pytest.approx(1.0)

    def test_lpt_within_four_thirds_of_optimum(self):
        # the classic LPT worst-ish case: optimum 6 (3+3 | 2+2+2), LPT 7
        sim = schedule_lpt(make_costs([3, 3, 2, 2, 2]), 2)
        optimum = 6.0
        assert optimum <= sim.makespan_seconds <= optimum * 4 / 3
        assert sim.speedup == pytest.approx(12.0 / sim.makespan_seconds)

    def test_speedup_bounded_by_processors(self):
        costs = make_costs([1.0] * 16)
        for p in (1, 2, 4, 8):
            sim = schedule_lpt(costs, p)
            assert sim.speedup <= p + 1e-9
            assert sim.efficiency <= 1.0 + 1e-9

    def test_one_giant_tile_limits_speedup(self):
        sim = schedule_lpt(make_costs([10, 0.1, 0.1, 0.1]), 8)
        assert sim.speedup < 1.1

    def test_zero_processors_rejected(self):
        with pytest.raises(ValueError):
            schedule_lpt(make_costs([1]), 0)

    def test_empty_tile_list(self):
        sim = schedule_lpt([], 4)
        assert sim.makespan_seconds == 0.0
        assert sim.speedup == 1.0
        assert sim.imbalance == 1.0

    def test_imbalance_of_balanced_load(self):
        sim = schedule_lpt(make_costs([1, 1, 1, 1]), 2)
        assert sim.imbalance == pytest.approx(1.0)


class TestTileCosts:
    def test_costs_proportional_to_work(self):
        partitions = [
            PartitionStats(tile=(0, 0), objects_a=10, objects_b=10,
                           candidate_pairs=100),
            PartitionStats(tile=(1, 0), objects_a=5, objects_b=5,
                           candidate_pairs=25),
        ]
        costs = tile_costs(partitions)
        assert costs[0].cpu_seconds == pytest.approx(4 * costs[1].cpu_seconds)
        assert costs[0].io_seconds == pytest.approx(2 * costs[1].io_seconds)
        assert costs[0].total_seconds > costs[1].total_seconds

    def test_empty_tile_costs_nothing(self):
        costs = tile_costs([PartitionStats(tile=(0, 0))])
        assert costs[0].total_seconds == 0.0


class TestSimulatedJoin:
    def test_result_matches_plain_join(self):
        rel_a = europe(size=40)
        rel_b = europe(seed=5, size=40)
        report = simulate_parallel_join(rel_a, rel_b, grid=(3, 3))
        got = sorted(report.result.id_pairs())
        expected = sorted(nested_loops_join(rel_a, rel_b))
        assert got == expected

    def test_speedup_curve_monotone(self):
        rel_a = europe(size=60)
        rel_b = europe(seed=7, size=60)
        report = simulate_parallel_join(
            rel_a, rel_b, grid=(4, 4), processor_counts=(1, 2, 4, 8)
        )
        speedups = [sim.speedup for _, sim in report.simulations]
        assert speedups == sorted(speedups)
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[-1] > 1.5  # 16 tiles on 8 processors must help

    def test_finer_grid_interacts_with_skew(self):
        rel_a = europe(size=60)
        rel_b = europe(seed=7, size=60)
        coarse = simulate_parallel_join(
            rel_a, rel_b, grid=(2, 2), processor_counts=(4,)
        )
        fine = simulate_parallel_join(
            rel_a, rel_b, grid=(6, 6), processor_counts=(4,)
        )
        # finer tiles give the scheduler more freedom: speedup must not drop
        assert fine.simulations[0][1].speedup >= coarse.simulations[0][1].speedup - 0.25

    @pytest.mark.parallel
    def test_measured_speedup_reported_next_to_model(self):
        rel_a = europe(size=40)
        rel_b = europe(seed=5, size=40)
        report = simulate_parallel_join(
            rel_a, rel_b, grid=(3, 3), processor_counts=(1, 2),
            measure=True,
        )
        assert [m.workers for m in report.measured] == [1, 2]
        assert report.measured[0].speedup == pytest.approx(1.0)
        for run in report.measured:
            assert run.wall_seconds > 0
        table = report.speedup_table()
        assert [row[0] for row in table] == [1, 2]
        for _, modeled, measured in table:
            assert modeled >= 1.0
            assert measured is not None

    def test_unmeasured_report_has_empty_measured_column(self):
        rel_a = europe(size=30)
        rel_b = europe(seed=9, size=30)
        report = simulate_parallel_join(rel_a, rel_b, grid=(2, 2),
                                        processor_counts=(1, 4))
        assert report.measured == []
        assert [row[2] for row in report.speedup_table()] == [None, None]

    def test_processor_loads_partition_tiles(self):
        rel_a = europe(size=30)
        rel_b = europe(seed=9, size=30)
        report = simulate_parallel_join(
            rel_a, rel_b, grid=(3, 3), processor_counts=(3,)
        )
        sim = report.simulations[0][1]
        assert isinstance(sim, ParallelSimulation)
        scheduled = sum(len(p.tiles) for p in sim.processors)
        assert scheduled == len(report.result.partitions)
        for load in sim.processors:
            assert isinstance(load, ProcessorLoad)
            assert load.busy_seconds >= 0
