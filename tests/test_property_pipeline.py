"""End-to-end property tests: pipeline == oracle on random workloads.

DESIGN.md invariants 4-7, exercised on hypothesis-generated miniature
relations rather than the fixed tiny_europe fixture: random cluster
layouts, random filter configurations, random exact backends.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig, SpatialJoinProcessor, nested_loops_join
from repro.datasets.relations import SpatialRelation
from tests.conftest import star_polygon


def random_relation(seed: int, count: int) -> SpatialRelation:
    """A relation of scattered star polygons with clustered centers."""
    rng = random.Random(seed)
    polys = []
    for i in range(count):
        cx = rng.random() * 2.0
        cy = rng.random() * 2.0
        polys.append(
            star_polygon(
                cx,
                cy,
                n=rng.randint(5, 25),
                radius=0.08 + rng.random() * 0.3,
                seed=seed * 1000 + i,
            )
        )
    return SpatialRelation(f"rand-{seed}", polys)


filter_configs = st.builds(
    FilterConfig,
    conservative=st.sampled_from([None, "MBR", "MBC", "RMBR", "4-C", "5-C", "CH", "MBE"]),
    progressive=st.sampled_from([None, "MEC", "MER"]),
    use_false_area_test=st.booleans(),
    progressive_first=st.booleans(),
)


class TestPipelineProperty:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        config=filter_configs,
    )
    @settings(max_examples=12, deadline=None)
    def test_any_filter_matches_oracle(self, seed, config):
        rel_a = random_relation(seed, 22)
        rel_b = random_relation(seed + 1, 22)
        proc = SpatialJoinProcessor(
            JoinConfig(filter=config, exact_method="vectorized")
        )
        got = set(proc.join(rel_a, rel_b).id_pairs())
        want = set(nested_loops_join(rel_a, rel_b))
        assert got == want, f"config={config.describe()}"

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        method=st.sampled_from(["trstar", "planesweep", "quadratic"]),
    )
    # Regression: the plane sweep's status order corrupted when polygon
    # edges shared their left endpoint (equal y keys inserted in
    # arbitrary order), silently dropping a result pair at this seed.
    @example(seed=403, method="planesweep")
    @settings(max_examples=8, deadline=None)
    def test_any_exact_processor_matches_oracle(self, seed, method):
        """The paper's scalar processors decide every MBR-join
        candidate of the join like the batched exact step."""
        from repro.exact.bruteforce import polygons_intersect_quadratic
        from repro.exact.planesweep import polygons_intersect_planesweep
        from repro.exact.trstar_test import polygons_intersect_trstar

        processor = {
            "trstar": lambda a, b: polygons_intersect_trstar(
                a.trstar(3), b.trstar(3)),
            "planesweep": lambda a, b: polygons_intersect_planesweep(
                a.polygon, b.polygon),
            "quadratic": lambda a, b: polygons_intersect_quadratic(
                a.polygon, b.polygon),
        }[method]
        rel_a = random_relation(seed, 15)
        rel_b = random_relation(seed + 7, 15)
        got = {
            (a.oid, b.oid)
            for a in rel_a
            for b in rel_b
            if a.mbr.intersects(b.mbr) and processor(a, b)
        }
        want = set(SpatialJoinProcessor().join(rel_a, rel_b).id_pairs())
        assert got == want
        assert want == set(nested_loops_join(rel_a, rel_b))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_join_symmetry(self, seed):
        """Intersection joins are symmetric: join(A,B) == join(B,A)^T."""
        rel_a = random_relation(seed, 18)
        rel_b = random_relation(seed + 3, 18)
        proc = SpatialJoinProcessor(JoinConfig(exact_method="vectorized"))
        ab = set(proc.join(rel_a, rel_b).id_pairs())
        ba = {(b, a) for a, b in proc.join(rel_b, rel_a).id_pairs()}
        assert ab == ba

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_self_join_contains_diagonal(self, seed):
        rel = random_relation(seed, 20)
        proc = SpatialJoinProcessor(JoinConfig(exact_method="vectorized"))
        pairs = set(proc.join(rel, rel).id_pairs())
        for obj in rel:
            assert (obj.oid, obj.oid) in pairs

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_within_implies_intersects(self, seed):
        rel_a = random_relation(seed, 15)
        rel_b = random_relation(seed + 5, 15)
        inter = set(
            SpatialJoinProcessor(JoinConfig(exact_method="vectorized"))
            .join(rel_a, rel_b)
            .id_pairs()
        )
        within = set(
            SpatialJoinProcessor(
                JoinConfig(predicate="within", exact_method="vectorized")
            )
            .join(rel_a, rel_b)
            .id_pairs()
        )
        assert within <= inter
