"""Persistent-store benchmarks: cold-session warm-up, store vs objects.

The ISSUE-10 acceptance bar.  A restarted serving process must get its
shared-segment cache back without re-doing the work the segments
encode; this bench measures exactly that hand-off, both ways:

* **Object path** (the status quo): a cold :class:`JoinSession` meets
  relations whose columnar caches are empty — ``segment_for`` packs the
  ring columns (:func:`~repro.datasets.columnar.pack_rings`, a Python
  loop over every ring of every object), digests the content
  fingerprint, and copies the columns into shared memory.
* **Store path**: the same relations' pages already sit in a
  :class:`~repro.datasets.store.RelationStore`;
  :meth:`JoinSession.warm_from_store` streams them straight into
  freshly allocated segments with ``readinto`` on an I/O thread pool —
  no packing, no digesting, no numpy round trip.

Gate: the store path must be **>= 3x** faster (best of ``REPEATS``
laps, both paths timed cold each lap), and the warmed segment bytes
must equal the object-packed segment bytes exactly — a fast wrong
warm-up would be worse than none.  Results land in the human table
(``reports/store.txt``) and the machine-readable
``reports/BENCH_store.json``.  Join-level equivalence of store-loaded
relations is the differential suite's job
(``tests/test_store_equivalence.py``); this bench gates the speed.
"""

from __future__ import annotations

import time

from repro.core.parallel_exec import live_shared_segments
from repro.core.session import JoinSession
from repro.datasets.relations import SpatialRelation
from repro.datasets.store import RelationStore

#: the acceptance floor: store warm-up must beat object re-packing 3x.
SPEEDUP_FLOOR = 3.0

#: timed laps per path (each lap is fully cold); best lap is compared.
REPEATS = 3

#: threads in the warm loader's I/O pool.
IO_WORKERS = 4


def _cold_clone(relation: SpatialRelation) -> SpatialRelation:
    """The same objects behind an empty columnar cache.

    Reusing the live object list keeps polygon geometry identical while
    forcing the clone to re-run every step a cold process would: column
    packing, ring flattening, fingerprint digest.
    """
    clone = SpatialRelation(relation.name, [])
    clone.objects = relation.objects
    return clone


def _object_path_seconds(rel_a, rel_b) -> float:
    """Cold session + cold relations: pack, digest, copy to shm."""
    clone_a, clone_b = _cold_clone(rel_a), _cold_clone(rel_b)
    with JoinSession() as session:
        start = time.perf_counter()
        session.segment_for(clone_a)
        session.segment_for(clone_b)
        return time.perf_counter() - start


def _store_path_seconds(store, fingerprints) -> float:
    """Cold session + store pages: allocate segments, stream pages in."""
    with JoinSession() as session:
        start = time.perf_counter()
        session.warm_from_store(store, fingerprints, io_workers=IO_WORKERS)
        return time.perf_counter() - start


def _segment_bytes(session: JoinSession, fingerprint: str) -> bytes:
    segment = session._segments[fingerprint]
    return bytes(segment.rings.buf)


def test_store_warm_start(series_cache, report, tmp_path_factory):
    series = series_cache("Europe A")
    rel_a, rel_b = series.relation_a, series.relation_b

    store = RelationStore(tmp_path_factory.mktemp("relation_store"))
    fp_a, fp_b = store.save(rel_a), store.save(rel_b)
    page_bytes = store.load(fp_a).nbytes + store.load(fp_b).nbytes

    # Correctness before speed: a store-warmed segment must hold byte
    # -identical content to an object-packed one.
    with JoinSession() as warmed, JoinSession() as packed:
        warmed.warm_from_store(store, [fp_a, fp_b], io_workers=IO_WORKERS)
        packed.segment_for(_cold_clone(rel_a))
        packed.segment_for(_cold_clone(rel_b))
        for fingerprint in (fp_a, fp_b):
            assert _segment_bytes(warmed, fingerprint) == _segment_bytes(
                packed, fingerprint
            )
        assert warmed.stats()["store_loads"] == 2
        shared_bytes = warmed.stats()["store_load_bytes"]

    object_laps = [
        _object_path_seconds(rel_a, rel_b) for _ in range(REPEATS)
    ]
    store_laps = [
        _store_path_seconds(store, [fp_a, fp_b]) for _ in range(REPEATS)
    ]
    assert live_shared_segments() == frozenset()

    object_best = min(object_laps)
    store_best = min(store_laps)
    speedup = object_best / max(store_best, 1e-9)

    payload = {
        "relations": {
            "a": {
                "name": rel_a.name,
                "objects": len(rel_a),
                "fingerprint": fp_a,
            },
            "b": {
                "name": rel_b.name,
                "objects": len(rel_b),
                "fingerprint": fp_b,
            },
        },
        "store_page_bytes": page_bytes,
        "shared_segment_bytes": shared_bytes,
        "io_workers": IO_WORKERS,
        "repeats": REPEATS,
        "object_path_seconds": object_laps,
        "store_path_seconds": store_laps,
        "object_path_best_seconds": object_best,
        "store_path_best_seconds": store_best,
        "speedup": speedup,
        "gate": {
            "min_speedup": SPEEDUP_FLOOR,
            "passed": bool(speedup >= SPEEDUP_FLOOR),
        },
    }

    report.table(
        "Store",
        "cold-session warm-up: persistent store pages vs object re-packing",
        [
            f" |A|={len(rel_a)}, |B|={len(rel_b)}, "
            f"{page_bytes:,} page bytes on disk, "
            f"{shared_bytes:,} shared bytes warmed",
            f" object path (pack+digest+copy): "
            f"{object_best * 1e3:>8.1f} ms  (best of {REPEATS})",
            f" store path (mmap pages -> shm): "
            f"{store_best * 1e3:>8.1f} ms  (best of {REPEATS}, "
            f"{IO_WORKERS} I/O threads)",
            f" warm-start speedup:             {speedup:>8.1f}x  "
            f"(gate: >= {SPEEDUP_FLOOR:.0f}x)",
            "",
            " (segments byte-identical across both paths; join-level",
            "  equivalence enforced by tests/test_store_equivalence.py)",
        ],
    )
    report.json_artifact("store", payload)

    assert speedup >= SPEEDUP_FLOOR, (
        f"store warm-up speedup {speedup:.2f}x is below the "
        f"{SPEEDUP_FLOOR:.1f}x acceptance floor "
        f"(object {object_best * 1e3:.1f} ms vs store "
        f"{store_best * 1e3:.1f} ms)"
    )

    # Verify in passing that page-level integrity checking works on the
    # relations the bench just trusted.
    store.load(fp_a).verify()
    store.load(fp_b).verify()
