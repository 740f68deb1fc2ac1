"""Tests for the within (inclusion) join and the containment tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approximations.containment import (
    certainly_contains,
    certainly_not_contains,
)
from repro.approximations.factory import compute_approximation
from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig, SpatialJoinProcessor
from repro.datasets.generators import cartographic_polygons
from repro.datasets.relations import SpatialRelation
from repro.geometry.fastops import polygon_within_fast
from repro.geometry.polygon import Polygon
from tests.conftest import square, star_polygon

stars = st.builds(
    star_polygon,
    n=st.integers(min_value=5, max_value=30),
    seed=st.integers(min_value=0, max_value=3000),
)


class TestPolygonWithin:
    def test_nested_squares(self):
        assert polygon_within_fast(square(0, 0, 0.3), square(0, 0, 1.0))

    def test_not_within_when_overlapping(self):
        assert not polygon_within_fast(square(0.8, 0, 0.5), square(0, 0, 1.0))

    def test_not_within_when_disjoint(self):
        assert not polygon_within_fast(square(5, 5, 0.3), square(0, 0, 1.0))

    def test_not_within_when_larger(self):
        assert not polygon_within_fast(square(0, 0, 2.0), square(0, 0, 1.0))

    def test_hole_carves_out_containment(self):
        outer = Polygon(
            [(-2, -2), (2, -2), (2, 2), (-2, 2)],
            holes=[[(-1, -1), (1, -1), (1, 1), (-1, 1)]],
        )
        inner = square(0, 0, 0.3)   # sits inside the hole
        assert not polygon_within_fast(inner, outer)
        corner = square(1.5, 1.5, 0.2)  # in the solid ring part
        assert polygon_within_fast(corner, outer)

    def test_inner_surrounding_hole_of_outer(self):
        outer = Polygon(
            [(-3, -3), (3, -3), (3, 3), (-3, 3)],
            holes=[[(-0.2, -0.2), (0.2, -0.2), (0.2, 0.2), (-0.2, 0.2)]],
        )
        ring_spanning = square(0, 0, 1.0)  # covers the hole
        assert not polygon_within_fast(ring_spanning, outer)

    @given(stars, st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=30, deadline=None)
    def test_shrunk_copy_always_within(self, poly, factor):
        inner = poly.scaled(round(factor, 3))
        assert polygon_within_fast(inner, poly)


class TestContainmentApproxTests:
    @pytest.fixture(scope="class")
    def shapes(self):
        big = star_polygon(n=24, seed=1, radius=2.0)
        small = big.scaled(0.25)
        far = star_polygon(5, 5, n=12, seed=2, radius=0.3)
        return big, small, far

    @pytest.mark.parametrize("kind", ["MBR", "5-C", "CH", "MBC", "MBE"])
    def test_certainly_contains_positive(self, shapes, kind):
        big, small, _far = shapes
        outer = compute_approximation(big, kind)
        inner = compute_approximation(small, "MER")
        # small ⊆ big, so MER(small) ⊆ big ⊆ outer: must be provable for
        # polygon-shaped inners (exact) and circle inners (conservative).
        assert certainly_contains(outer, inner)

    @pytest.mark.parametrize("kind", ["MBR", "5-C", "MBC", "MBE"])
    def test_certainly_not_contains_for_distant(self, shapes, kind):
        big, _small, far = shapes
        outer = compute_approximation(big, kind)
        inner = compute_approximation(far, "MER")
        assert certainly_not_contains(outer, inner)

    @given(stars, stars, st.sampled_from(["MBR", "5-C", "MBC"]))
    @settings(max_examples=30, deadline=None)
    def test_soundness(self, p1, p2, kind):
        """The two tests never contradict each other."""
        outer = compute_approximation(p2, kind)
        inner = compute_approximation(p1, "MER")
        assert not (
            certainly_contains(outer, inner)
            and certainly_not_contains(outer, inner)
        )


class TestWithinJoinPipeline:
    @pytest.fixture(scope="class")
    def layers(self):
        cities = SpatialRelation(
            "cities", cartographic_polygons(40, 40, coverage=0.95, seed=5)
        )
        # Small patches, some inside cities, some straddling borders.
        forests = SpatialRelation(
            "forests",
            [
                p.scaled(0.35)
                for p in cartographic_polygons(90, 24, coverage=1.0, seed=6)
            ],
        )
        return forests, cities

    def oracle(self, forests, cities):
        out = set()
        for f in forests:
            for c in cities:
                if polygon_within_fast(f.polygon, c.polygon):
                    out.add((f.oid, c.oid))
        return out

    def test_matches_oracle_with_filter(self, layers):
        forests, cities = layers
        proc = SpatialJoinProcessor(JoinConfig(predicate="within"))
        result = proc.join(forests, cities)
        assert set(result.id_pairs()) == self.oracle(forests, cities)
        assert len(result) > 0, "workload should produce some within pairs"

    def test_matches_oracle_without_filter(self, layers):
        forests, cities = layers
        proc = SpatialJoinProcessor(
            JoinConfig(
                predicate="within",
                filter=FilterConfig(conservative=None, progressive=None),
            )
        )
        result = proc.join(forests, cities)
        assert set(result.id_pairs()) == self.oracle(forests, cities)

    def test_filter_identifies_pairs(self, layers):
        forests, cities = layers
        proc = SpatialJoinProcessor(JoinConfig(predicate="within"))
        stats = proc.join(forests, cities).stats
        # The MBR-containment pretest alone removes many candidates.
        assert stats.filter_false_hits > 0

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValueError):
            JoinConfig(predicate="overlaps")
