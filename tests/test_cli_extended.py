"""CLI coverage for overlay / distance / knn / estimate and ``join
--workers`` (the multi-process tile executor)."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def wkt_pair(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    path_a = str(tmp / "a.wkt")
    path_b = str(tmp / "b.wkt")
    assert main(
        ["generate", "--objects", "25", "--vertices", "20", "--out", path_a]
    ) == 0
    assert main(
        ["generate", "--objects", "25", "--vertices", "20", "--seed", "7",
         "--out", path_b]
    ) == 0
    return path_a, path_b


class TestOverlayCommand:
    def test_overlay_runs(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(["overlay", path_a, path_b]) == 0
        out = capsys.readouterr().out
        assert "intersection pieces" in out
        assert "total area" in out

    def test_overlay_top_limits_output(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        main(["overlay", path_a, path_b, "--top", "2"])
        out = capsys.readouterr().out
        piece_lines = [l for l in out.splitlines() if " x B" in l]
        assert len(piece_lines) <= 2


class TestDistanceCommand:
    def test_distance_runs(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(["distance", path_a, path_b, "--epsilon", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "within-distance join" in out
        assert "exact tests" in out

    def test_distance_pairs_flag(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        main(["distance", path_a, path_b, "--epsilon", "0.05", "--pairs"])
        out = capsys.readouterr().out
        pair_lines = [l for l in out.splitlines() if "\t" in l]
        assert pair_lines  # at eps=0.05 something must match

    def test_distance_requires_epsilon(self, wkt_pair):
        path_a, path_b = wkt_pair
        with pytest.raises(SystemExit):
            main(["distance", path_a, path_b])

    def test_negative_epsilon_rejected(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(
            ["distance", path_a, path_b, "--epsilon", "-0.1"]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "epsilon" in err

    def test_non_finite_epsilon_rejected(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(
            ["distance", path_a, path_b, "--epsilon", "nan"]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "finite" in err


class TestKnnCommand:
    def test_knn_runs(self, wkt_pair, capsys):
        path_a, _ = wkt_pair
        assert main(["knn", path_a, "--point", "0.5", "0.5", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("mindist=") == 4

    def test_knn_distances_sorted(self, wkt_pair, capsys):
        path_a, _ = wkt_pair
        main(["knn", path_a, "--point", "0.1", "0.9", "--k", "6"])
        out = capsys.readouterr().out
        dists = [
            float(line.rsplit("mindist=", 1)[1])
            for line in out.splitlines()
            if "mindist=" in line
        ]
        assert dists == sorted(dists)

    @pytest.mark.parametrize("k", ("0", "-3"))
    def test_k_below_one_rejected(self, wkt_pair, capsys, k):
        path_a, _ = wkt_pair
        assert main(
            ["knn", path_a, "--point", "0.5", "0.5", "--k", k]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "k must be" in err

    def test_non_numeric_k_rejected(self, wkt_pair):
        path_a, _ = wkt_pair
        with pytest.raises(SystemExit):
            main(["knn", path_a, "--point", "0.5", "0.5", "--k", "four"])


class TestJoinWorkers:
    def _result_pairs(self, out):
        return int(
            [l for l in out.splitlines() if "result pairs" in l][0].split()[2]
        )

    def test_serial_default_no_executor_banner(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(["join", path_a, path_b, "--exact", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "parallel executor" not in out
        assert "result pairs" in out

    @pytest.mark.parallel
    def test_workers_four_matches_serial(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(["join", path_a, path_b, "--exact", "vectorized"]) == 0
        serial_out = capsys.readouterr().out
        assert main(
            ["join", path_a, path_b, "--exact", "vectorized",
             "--workers", "4"]
        ) == 0
        parallel_out = capsys.readouterr().out
        assert "parallel executor: 4 workers" in parallel_out
        assert self._result_pairs(parallel_out) == (
            self._result_pairs(serial_out)
        )

    @pytest.mark.parallel
    def test_workers_pairs_output_matches_serial(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair

        def pair_lines(out):
            return sorted(l for l in out.splitlines() if "\t" in l)

        main(["join", path_a, path_b, "--exact", "vectorized", "--pairs"])
        serial = pair_lines(capsys.readouterr().out)
        main(["join", path_a, path_b, "--exact", "vectorized", "--pairs",
              "--workers", "2", "--grid", "3", "3"])
        parallel = pair_lines(capsys.readouterr().out)
        assert parallel == serial

    def test_bad_workers_value_rejected(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(["join", path_a, path_b, "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "workers" in err and "serial" in err

    def test_non_numeric_workers_rejected(self, wkt_pair):
        path_a, path_b = wkt_pair
        with pytest.raises(SystemExit):
            main(["join", path_a, path_b, "--workers", "many"])

    def test_bad_grid_value_rejected(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(
            ["join", path_a, path_b, "--workers", "2", "--grid", "0", "4"]
        ) == 2
        err = capsys.readouterr().err
        assert "grid" in err and "1x1" in err

    def test_bad_grid_rejected_even_for_serial_join(self, wkt_pair, capsys):
        """Grid validation happens at the config boundary, not mid-join."""
        path_a, path_b = wkt_pair
        assert main(
            ["join", path_a, path_b, "--grid", "3", "-2"]
        ) == 2
        err = capsys.readouterr().err
        assert "grid" in err and "1x1" in err

    def test_bad_scheduler_rejected(self, wkt_pair):
        path_a, path_b = wkt_pair
        with pytest.raises(SystemExit):
            main(["join", path_a, path_b, "--workers", "2",
                  "--scheduler", "chaotic"])

    def test_bad_target_tasks_rejected(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        for bad in ("0", "-4"):
            assert main(
                ["join", path_a, path_b, "--workers", "2",
                 "--partitioner", "rtree", "--target-tasks", bad]
            ) == 2
            err = capsys.readouterr().err
            assert "target_tasks" in err

    def test_non_numeric_target_tasks_rejected(self, wkt_pair):
        path_a, path_b = wkt_pair
        with pytest.raises(SystemExit):
            main(["join", path_a, path_b, "--target-tasks", "lots"])

    @pytest.mark.parametrize("flag", ["--no-columnar", "--columnar"])
    def test_retired_columnar_flag_is_a_usage_error(
        self, wkt_pair, capsys, flag
    ):
        path_a, path_b = wkt_pair
        with pytest.raises(SystemExit) as exit_info:
            main(["join", path_a, path_b, "--workers", "2", flag])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments" in err

    @pytest.mark.parallel
    def test_target_tasks_budget_matches_serial(self, wkt_pair, capsys):
        """A tiny tree budget changes the decomposition, never the
        pairs."""
        path_a, path_b = wkt_pair

        def pair_lines(out):
            return sorted(l for l in out.splitlines() if "\t" in l)

        main(["join", path_a, path_b, "--exact", "vectorized", "--pairs"])
        serial = pair_lines(capsys.readouterr().out)
        assert main(
            ["join", path_a, path_b, "--exact", "vectorized", "--pairs",
             "--workers", "2", "--partitioner", "rtree",
             "--target-tasks", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "tree-guided tasks (rtree)" in out
        assert pair_lines(out) == serial

    @pytest.mark.parallel
    def test_stealing_scheduler_matches_serial(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair

        def pair_lines(out):
            return sorted(l for l in out.splitlines() if "\t" in l)

        main(["join", path_a, path_b, "--exact", "vectorized", "--pairs"])
        serial = pair_lines(capsys.readouterr().out)
        assert main(
            ["join", path_a, path_b, "--exact", "vectorized", "--pairs",
             "--workers", "2", "--grid", "3", "3",
             "--scheduler", "stealing"]
        ) == 0
        out = capsys.readouterr().out
        assert "scheduler stealing" in out
        assert pair_lines(out) == serial


class TestJoinPartitioner:
    def _pair_lines(self, out):
        return sorted(l for l in out.splitlines() if "\t" in l)

    @pytest.mark.parallel
    def test_rtree_partitioner_matches_serial(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        main(["join", path_a, path_b, "--exact", "vectorized", "--pairs"])
        serial = self._pair_lines(capsys.readouterr().out)
        assert main(
            ["join", path_a, path_b, "--exact", "vectorized", "--pairs",
             "--workers", "2", "--partitioner", "rtree"]
        ) == 0
        out = capsys.readouterr().out
        assert "parallel executor: 2 workers" in out
        assert "tree-guided tasks (rtree)" in out
        assert "grid" not in [
            l for l in out.splitlines() if "parallel executor" in l
        ][0]
        assert self._pair_lines(out) == serial

    @pytest.mark.parallel
    def test_grid_banner_unchanged(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(
            ["join", path_a, path_b, "--exact", "vectorized",
             "--workers", "2", "--grid", "3", "3",
             "--partitioner", "grid"]
        ) == 0
        out = capsys.readouterr().out
        assert "tile tasks on a 3x3 grid" in out

    def test_unknown_partitioner_rejected(self, wkt_pair):
        path_a, path_b = wkt_pair
        with pytest.raises(SystemExit):
            main(["join", path_a, path_b, "--workers", "2",
                  "--partitioner", "voronoi"])


class TestJoinBatch:
    @pytest.mark.parallel
    def test_join_batch_reuses_segments_and_pool(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(
            ["join-batch", path_a, path_b, "--exact", "vectorized",
             "--workers", "2", "--grid", "3", "3", "--repeat", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "join 1/3" in out and "join 3/3" in out
        warm_lines = [
            l for l in out.splitlines()
            if "0 new shared bytes" in l and "2 cached segments reused" in l
        ]
        assert len(warm_lines) == 2, out
        assert "1 pools forked" in out
        assert "4 segment cache hits" in out
        assert "best warm join" in out

    def test_join_batch_single_repeat_serial_workers(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(
            ["join-batch", path_a, path_b, "--exact", "vectorized",
             "--repeat", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "join 1/1" in out
        assert "0 pools forked" in out  # workers=1 never forks a pool

    def test_join_batch_bad_repeat_rejected(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(
            ["join-batch", path_a, path_b, "--repeat", "0"]
        ) == 2
        err = capsys.readouterr().err
        assert "repeat" in err

    def test_join_batch_bad_grid_rejected(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(
            ["join-batch", path_a, path_b, "--grid", "0", "2"]
        ) == 2
        err = capsys.readouterr().err
        assert "grid" in err and "1x1" in err


class TestEstimateCommand:
    def test_estimate_runs(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        assert main(["estimate", path_a, path_b]) == 0
        out = capsys.readouterr().out
        assert "expected candidates" in out
        assert "expected cost" in out

    def test_estimate_roughly_matches_join(self, wkt_pair, capsys):
        path_a, path_b = wkt_pair
        main(["estimate", path_a, path_b])
        est_out = capsys.readouterr().out
        estimated = float(
            [l for l in est_out.splitlines() if "expected candidates" in l][0]
            .split()[-1]
        )
        main(["join", path_a, path_b])
        join_out = capsys.readouterr().out
        measured = float(
            [l for l in join_out.splitlines() if "candidates" in l][0]
            .split()[-1]
        )
        assert measured / 10 <= max(estimated, 1) <= measured * 10
