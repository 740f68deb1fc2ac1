"""Differential suite: store-loaded relations join byte-identically.

The persistent store's correctness bar (ISSUE 10): a relation
materialised from store pages (``RelationStore.load_relation`` — mmap
columns, pre-seeded columnar cache, fingerprint trusted from the
manifest) must be indistinguishable *in results* from the same relation
built from live Python objects.  Both paths run through warm
:class:`JoinSession` instances — the store session warmed from the
store's pages exactly as a restarted server would be — and every
combination of engine {streaming, batched} x partitioner {grid, rtree}
x workers {1, 4} must produce the
identical sorted pair list and the identical merged stats fingerprint,
with the plain serial pipeline as the third witness.

``REPRO_PAR_QUICK=1`` shrinks the worker sweep for the CI quick job.
"""

from __future__ import annotations

import os
import pytest

from helpers import random_relation_pair, stats_fingerprint
from repro.core import JoinConfig, SpatialJoinProcessor
from repro.core.session import JoinSession
from repro.datasets import RelationStore

pytestmark = pytest.mark.parallel

QUICK = os.environ.get("REPRO_PAR_QUICK") == "1"

SEED = 421
WORKERS = (1,) if QUICK else (1, 4)
GRID = (3, 3)

CASES = [
    pytest.param(engine, partitioner, id=f"{engine}-{partitioner}")
    for engine in ("streaming", "batched")
    for partitioner in ("grid", "rtree")
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Object-built relations, their store, and the plain serial oracle."""
    rel_a, rel_b = random_relation_pair(SEED, n_objects=12)
    store = RelationStore(tmp_path_factory.mktemp("store"))
    fp_a, fp_b = store.save(rel_a), store.save(rel_b)
    return {
        "rel_a": rel_a,
        "rel_b": rel_b,
        "store": store,
        "fp_a": fp_a,
        "fp_b": fp_b,
    }


@pytest.mark.parametrize("engine,partitioner", CASES)
def test_store_loaded_joins_match_object_built(corpus, engine, partitioner):
    store = corpus["store"]
    rel_a, rel_b = corpus["rel_a"], corpus["rel_b"]
    base = JoinConfig(
        exact_method="vectorized",
        engine=engine,
        partitioner=partitioner,
        batch_size=16,
    )
    grid = GRID if partitioner == "grid" else None
    plain = sorted(
        SpatialJoinProcessor(base).join(rel_a, rel_b).id_pairs()
    )

    # A fresh store-loaded pair: nothing may leak from the
    # object-built side but the page bytes themselves.
    loaded_a = store.load_relation(corpus["fp_a"])
    loaded_b = store.load_relation(corpus["fp_b"])
    assert loaded_a.columnar().fingerprint == corpus["fp_a"]

    with JoinSession(config=base) as obj_session, \
            JoinSession(config=base) as store_session:
        # The restart path under test: segments come from pages,
        # not from packing the loaded objects.
        store_session.warm_from_store(store)
        for workers in WORKERS:
            label = f"{engine}/{partitioner} workers={workers}"
            baseline = obj_session.join(
                rel_a, rel_b, grid=grid, workers=workers
            )
            replay = store_session.join(
                loaded_a, loaded_b, grid=grid, workers=workers
            )
            assert sorted(replay.id_pairs()) == sorted(
                baseline.id_pairs()
            ) == plain, label
            assert stats_fingerprint(replay.stats) == stats_fingerprint(
                baseline.stats
            ), label

        # Warming covered every store fingerprint, so the store
        # session never had to pack a segment from objects.
        stats = store_session.stats()
        assert stats["store_loads"] == 2
        assert stats["segment_cache_misses"] == 0, (
            f"{engine}/{partitioner}: the warmed "
            "session re-packed a segment the store already held"
        )
