"""Spatial histogram estimation vs measurement and the uniform model."""

import random

import pytest

from repro.core.histogram import (
    SpatialHistogram,
    estimate_join_candidates_histogram,
    joint_histograms,
)
from repro.core.selectivity import estimate_candidates
from repro.datasets.relations import SpatialRelation, europe
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.index.join import nested_loops_mbr_join


def square_at(x, y, size):
    return Polygon([(x, y), (x + size, y), (x + size, y + size), (x, y + size)])


def clustered_relation(name, seed, n=120, cluster=(0.2, 0.2), spread=0.08):
    """Objects tightly packed into one corner (heavy skew)."""
    rng = random.Random(seed)
    cx, cy = cluster
    polys = [
        square_at(cx + rng.uniform(0, spread), cy + rng.uniform(0, spread), 0.01)
        for _ in range(n)
    ]
    return SpatialRelation(name, polys)


class TestHistogramStructure:
    def test_counts_total(self):
        rel = europe(size=60)
        hist = SpatialHistogram.of(rel)
        assert hist.total == 60
        assert sum(
            hist.cell_count(ix, iy)
            for ix in range(hist.nx)
            for iy in range(hist.ny)
        ) == 60

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            SpatialHistogram(Rect(0, 0, 1, 1), nx=0)

    def test_degenerate_bounds_padded(self):
        hist = SpatialHistogram(Rect(0.5, 0.5, 0.5, 0.5))
        hist.add(Rect(0.5, 0.5, 0.5, 0.5))
        assert hist.total == 1

    def test_skew_detects_clustering(self):
        uniform = europe(size=100)
        clustered = clustered_relation("C", 3)
        assert SpatialHistogram.of(clustered).skew() > SpatialHistogram.of(
            uniform
        ).skew()

    def test_occupied_cells(self):
        clustered = clustered_relation("C", 5)
        hist = SpatialHistogram.of(clustered, nx=8, ny=8)
        assert 1 <= hist.occupied_cells() <= 8 * 8


class TestWindowEstimate:
    def test_whole_space_window_counts_everything(self):
        rel = europe(size=80)
        hist = SpatialHistogram.of(rel)
        est = hist.estimate_window_count(hist.bounds.expand(1.0))
        assert est == pytest.approx(80, rel=0.02)

    def test_empty_window(self):
        rel = europe(size=50)
        hist = SpatialHistogram.of(rel)
        est = hist.estimate_window_count(Rect(99, 99, 100, 100))
        assert est == pytest.approx(0.0, abs=1e-9)

    def test_window_estimate_tracks_measurement(self):
        rel = europe(size=150)
        hist = SpatialHistogram.of(rel, nx=24, ny=24)
        rng = random.Random(11)
        for _ in range(10):
            x, y = rng.uniform(0, 0.7), rng.uniform(0, 0.7)
            window = Rect(x, y, x + 0.3, y + 0.3)
            measured = sum(1 for o in rel if o.mbr.intersects(window))
            estimated = hist.estimate_window_count(window)
            assert measured / 3 <= max(estimated, 0.5) <= max(measured * 3, 3)


class TestJoinEstimate:
    def test_grids_must_match(self):
        rel = europe(size=20)
        with pytest.raises(ValueError):
            estimate_join_candidates_histogram(
                SpatialHistogram.of(rel, nx=8, ny=8),
                SpatialHistogram.of(rel, nx=16, ny=16),
            )

    def test_estimate_reasonable_on_cartographic_data(self):
        rel_a = europe(size=80)
        rel_b = europe(seed=3, size=80)
        hist_a, hist_b = joint_histograms(rel_a, rel_b)
        estimated = estimate_join_candidates_histogram(hist_a, hist_b)
        measured = len(
            list(nested_loops_mbr_join(rel_a.mbr_items(), rel_b.mbr_items()))
        )
        assert measured / 5 <= estimated <= measured * 5

    def test_histogram_beats_uniform_on_clustered_data(self):
        """The whole point: local densities matter under skew."""
        rel_a = clustered_relation("A", 1)
        rel_b = clustered_relation("B", 2)
        measured = len(
            list(nested_loops_mbr_join(rel_a.mbr_items(), rel_b.mbr_items()))
        )
        uniform_est = estimate_candidates(rel_a, rel_b)
        hist_a, hist_b = joint_histograms(rel_a, rel_b, nx=24, ny=24)
        hist_est = estimate_join_candidates_histogram(hist_a, hist_b)
        uniform_err = abs(uniform_est - measured)
        hist_err = abs(hist_est - measured)
        assert hist_err <= uniform_err

    def test_disjoint_clusters_estimate_near_zero(self):
        rel_a = clustered_relation("A", 1, cluster=(0.1, 0.1))
        rel_b = clustered_relation("B", 2, cluster=(0.8, 0.8))
        hist_a, hist_b = joint_histograms(rel_a, rel_b, nx=16, ny=16)
        estimated = estimate_join_candidates_histogram(hist_a, hist_b)
        assert estimated == pytest.approx(0.0, abs=1.0)
