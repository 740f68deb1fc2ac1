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

    def test_distance_runs_the_join_row_pipeline(
        self, wkt_pair, capsys, monkeypatch
    ):
        """``distance`` is ``join --predicate distance``: same pair lines,
        in order, and no scalar polygon distance on the way."""
        from repro.core import distance

        def scalar_distance(*args):
            raise AssertionError("scalar polygon_distance called")

        monkeypatch.setattr(distance, "polygon_distance", scalar_distance)
        path_a, path_b = wkt_pair
        epsilon = "0.05"
        assert main(
            ["distance", path_a, path_b, "--epsilon", epsilon, "--pairs"]
        ) == 0
        out = capsys.readouterr().out
        exact = [l for l in out.splitlines() if "exact tests" in l]
        assert int(exact[0].split()[-1]) > 0
        assert main(
            ["join", path_a, path_b, "--predicate", "distance",
             "--epsilon", epsilon, "--pairs"]
        ) == 0
        joined = capsys.readouterr().out

        def pair_lines(text):
            return [l for l in text.splitlines() if "\t" in l]

        assert pair_lines(out)
        assert pair_lines(out) == pair_lines(joined)

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

    @pytest.mark.parametrize("command", ["join", "join-batch"])
    def test_retired_scheduler_flag_is_a_usage_error(
        self, wkt_pair, capsys, command
    ):
        path_a, path_b = wkt_pair
        with pytest.raises(SystemExit) as exit_info:
            main([command, path_a, path_b, "--workers", "2",
                  "--scheduler", "static"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments" in err

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


class TestArgumentErrors:
    """Bad arguments exit 2 with one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("command", [
        ["store", "ls", "{missing}"],
        ["store", "rm", "{missing}", "abc"],
        ["join", "store:a", "store:b", "--store-dir", "{missing}"],
        ["join-batch", "store:a", "store:b", "--store-dir", "{missing}"],
        ["serve", "--port", "0", "--store-dir", "{missing}"],
    ])
    def test_missing_store_dir_is_not_created(self, tmp_path, capsys,
                                              command):
        missing = tmp_path / "no-store"
        args = [arg.format(missing=missing) for arg in command]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: no store at {missing}\n"
        assert not missing.exists()

    @pytest.mark.parametrize("command", [
        ["info", "{missing}"],
        ["join", "{missing}", "{a}"],
        ["join-batch", "{a}", "{missing}"],
        ["query", "{missing}", "--point", "0.5", "0.5"],
        ["overlay", "{missing}", "{a}"],
        ["distance", "{a}", "{missing}", "--epsilon", "0.01"],
        ["knn", "{missing}", "--point", "0.5", "0.5"],
        ["estimate", "{a}", "{missing}"],
    ])
    def test_missing_wkt_file(self, wkt_pair, tmp_path, capsys, command):
        missing = str(tmp_path / "nope.wkt")
        args = [arg.format(missing=missing, a=wkt_pair[0])
                for arg in command]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load {missing!r}: ")
        assert "Traceback" not in err

    def test_malformed_wkt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.wkt"
        bad.write_text("POINT (1 2)\n")
        assert main(["info", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot load {str(bad)!r}: "
        )

    def test_degenerate_window(self, wkt_pair, capsys):
        assert main(["query", wkt_pair[0], "--window", "1", "1", "0", "0"]) == 2
        assert "degenerate rect" in capsys.readouterr().err

    @pytest.mark.parametrize("objects", ["0", "1", "2"])
    def test_too_few_objects(self, tmp_path, capsys, objects):
        out = tmp_path / "g.wkt"
        with pytest.raises(SystemExit) as exit_info:
            main(["generate", "--objects", objects, "--out", str(out)])
        assert exit_info.value.code == 2
        assert "--objects: must be >= 3" in capsys.readouterr().err
        assert not out.exists()

    def test_three_objects_is_enough(self, tmp_path):
        out = str(tmp_path / "g.wkt")
        assert main(["generate", "--objects", "3", "--out", out]) == 0

    def test_negative_top(self, wkt_pair, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["overlay", *wkt_pair, "--top", "-1"])
        assert exit_info.value.code == 2
        assert "--top: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["query", "{a}", "--point", "nan", "0.5"],
        ["query", "{a}", "--window", "0", "0", "inf", "1"],
        ["knn", "{a}", "--point", "inf", "0", "--k", "2"],
    ])
    def test_non_finite_coordinates(self, wkt_pair, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(a=wkt_pair[0]) for arg in command])
        assert exit_info.value.code == 2
        assert "must be finite" in capsys.readouterr().err
