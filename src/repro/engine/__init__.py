"""Execution engines for the multi-step spatial join.

The paper's pipeline (MBR-join → geometric filter → exact geometry,
Figure 1) fixes *what* is computed per candidate pair; this package
separates *how* the candidate stream is executed.  Two interchangeable
backends implement the :class:`~repro.engine.base.Engine` interface:

Streaming engine (``engine="streaming"``, the default)
    Tuple-at-a-time filtering: each candidate pair leaves the R*-tree
    MBR-join and runs through the filter before the next pair is
    produced; a filter hit is emitted at once unless a remaining
    candidate ahead of it still waits for its exact batch.  This is the
    paper's original architecture — nothing is materialised between
    steps and memory use is bounded by the exact batch.  Per pair,
    however, it pays Python interpreter overhead for every
    approximation test.

Batched engine (``engine="batched"``)
    Set-at-a-time: candidate pairs are drained from the MBR-join in
    blocks of ``batch_size`` and the filter runs as numpy array kernels
    over the whole block — bulk MBR overlap, bulk separating-axis tests
    for the convex approximations (RMBR, 4-C, 5-C, CH, MER), bulk circle
    tests (MBC, MEC), and a bulk false-area screen.  Only pairs a kernel
    cannot decide identically to the scalar predicate (degenerate
    shapes, near-tangent circles, ellipses, false-area screen survivors)
    fall back to scalar code; remaining candidates go to the same
    batched exact step as the streaming engine's.  Results, result
    order, and every
    :class:`~repro.core.stats.MultiStepStats` counter are identical to
    the streaming engine — ``tests/test_engine_equivalence.py`` is the
    differential harness that enforces this.

Storage model — the columnar relation store
    The paper computes each approximation once at insertion time and
    *stores* it in the SAM; the system-wide analogue is
    :class:`repro.datasets.columnar.ColumnarRelation`, built and cached
    by ``relation.columnar()``.  It materialises, once per relation,
    every numpy column the pipeline consumes: object ids, ``(n, 4)``
    object-MBR rows (the input of the vectorized grid partitioner), the
    per-kind approximation arrays (approximation MBRs, stored §3.3
    false areas, circle parameters, padded convex vertex matrices —
    packed with the :class:`~repro.approximations.batch.BatchApproxArrays`
    kernels), and the flattened ring geometry that the parallel
    executor ships to workers.  Every value is copied bit-for-bit from
    the scalar accessors, so array consumers and scalar consumers see
    the same floats.  The other two derived structures of the serial
    path are memoised beside it: ``relation.rtree(max_entries)`` (the
    read-only R*-tree every join, window and kNN query traverses) and
    ``relation.columnar().ring_geometry()`` (the edge table batched
    refinement reads), both dropped when the object list is
    replaced or resized.

    The batched engine's filter decides per kind where a kind's arrays
    come from (``BatchGeometricFilter.encoder``, the one rule): a kind
    with a stored form is *adopted* from the two relations' columns
    (``BatchApproxArrays.from_columnar``), so packing happens once per
    (relation, kind), and a sweep over many filter configurations — or
    repeated joins of the same relation against different partners —
    pays no repack cost; a kind without one (RMBR, MBE) is packed per
    join, for the objects that reach the filter.  Results, order, and
    statistics are the same either way (``tests/test_columnar.py``).

Picking a batch size
    ``batch_size`` trades memory and latency against vectorisation
    efficiency.  Small batches (≤ 64) leave numpy dispatch overhead
    visible per pair; from a few hundred pairs on, the kernel cost per
    pair flattens out (the default is 1024).  Batches only buffer
    candidate *references*, so even large batches are cheap in memory —
    the practical ceiling is latency-to-first-result, since a block must
    be classified before any of its pairs can be emitted.  Rule of
    thumb: ``batch_size=1024`` for relation-scale joins, smaller only if
    results must stream out with minimal delay.

Choosing an engine from the CLI::

    python -m repro join a.wkt b.wkt --engine batched --batch-size 1024
    python -m repro join a.wkt b.wkt --engine streaming

or from code via :class:`repro.core.join.JoinConfig`::

    JoinConfig(engine="batched", batch_size=512)

``benchmarks/bench_engine_batched.py`` compares the two backends on the
paper's test series; the batched filter step is typically ≥ 3× faster at
batch sizes ≥ 256.

Refinement pipeline — the exact step as its own layer
    Step 3 (the exact-geometry test on remaining candidates) is
    independent of the engine: the order-preserving
    :class:`~repro.engine.base.RefinementPipeline` drives one
    :class:`~repro.exact.refine.BatchedRefinement` inside either
    engine.  It accumulates remaining candidates into batches of
    ``JoinConfig.exact_batch`` (CLI ``join --exact-batch N``, default
    64) and resolves each batch as one array program: the pairs' rows
    select edge ranges from the relations' edge tables (every edge, its
    bounding box and a per-object offset column, built once from the
    flattened :class:`~repro.datasets.columnar.RingColumns`); one
    ragged kernel clips each pair's edges to the intersection of the
    two objects' bounds, drops the edge pairs whose own boxes are
    disjoint, and runs the orientation test on the few that remain;
    one bulk point-in-polygon call covers the containment fallback.
    Results, order, and the Figure-1 statistics are the same at every
    batch size and equal to the paper's scalar processors (TR*-tree,
    plane sweep, quadratic), which stay in :mod:`repro.exact` for the
    §4 benchmarks and as test oracles
    (``tests/test_refine_equivalence.py`` is the differential suite);
    ``MultiStepStats.refine_batches`` / ``refine_batch_pairs`` /
    ``refine_fallback_pairs`` report how the work was executed.  In
    the multi-process executor, workers build the edge tables of their
    tile task's rows straight from the shared-memory mapped ring
    columns.  ``benchmarks/bench_refine.py`` measures the batched step
    against a per-pair loop (report in
    ``benchmarks/reports/refine.txt``); ``bench_table7_exact_cost.py``
    and ``bench_fig16_cost_vs_edges.py`` compare the paper's processors.

The compiled kernel tier — one semantics, three backends
    The bulk hot paths both engines lean on — MBR overlap, the ragged
    edge-pair kernel, point-in-polygon and the ragged edge-distance
    kernel — live
    behind the backend registry of :mod:`repro.geometry.kernels`,
    selected by ``JoinConfig(kernels=...)`` (CLI ``join --kernels``,
    env default ``REPRO_KERNELS``).  ``numpy`` is the vectorised
    reference implementation (the differential oracle); ``c`` runs
    the three per-batch kernels (ragged edge pairs, ragged edge
    distance, point-in-polygon) from ``geometry/_ckernels.c``, built
    with the local compiler on first use and cached per source hash —
    pools build and load it in the parent before forking
    (:meth:`repro.core.session.JoinSession.pool` and one-shot pools
    alike), so workers inherit the library and
    :func:`repro.core.parallel_exec._warm_worker_kernels` only loads;
    ``python`` runs the loop-form twins of every kernel, the readable
    reference the C file transliterates; ``auto`` (the default) picks
    ``c`` when the library loads and falls back to numpy with one
    logged warning.  The backend is **execution-only**: results, order, and
    every stats counter are identical across backends
    (``tests/test_kernel_tier.py`` and the hypothesis fuzz in
    ``tests/test_kernel_backends_fuzz.py`` enforce it), so
    ``canonical_key()`` strips ``kernels`` and the service result
    cache shares entries across backends.  Per-backend
    calls/pairs/seconds telemetry lands in
    ``MultiStepStats.kernel_calls`` / ``kernel_pairs`` /
    ``kernel_seconds`` (diagnostics only — excluded from equality and
    the wire format); ``benchmarks/bench_kernels.py`` (``make
    bench-kernels``) writes the per-kernel pairs/second table to
    ``benchmarks/reports/kernels.txt``.

Proximity predicates — distance and kNN joins on the same runtime
    ``JoinConfig(predicate="distance", epsilon=ε)`` joins all pairs
    with exact polygon distance ≤ ε (expanded-MBR R*-tree join, then
    MBC lower bound / MEC upper bound circle filters as masks over the
    candidate rows, then exact minimum edge distance on the kernel
    tier, one call per join); ``predicate="knn", k=N`` emits each left
    object's N nearest right objects by exact distance, bound-first in
    two rounds (the k rows nearest by MINDIST, capped at the k-th
    smallest MBR max-distance; then every row whose MINDIST can still
    beat the resulting cap), one exact-distance call per round.  Both
    are row programs over oids, MBR and circle rows and the edge table,
    report ordinary :class:`~repro.core.stats.MultiStepStats` (the
    Figure-1 invariants hold; kNN counters are the same in every task
    plan) and flow through the CLI (``join --predicate distance
    --epsilon 0.05``), sessions, and the join service unchanged.

    Both predicates also scale across the worker pool via **ε-aware
    task formation** (:meth:`~repro.core.partition.Partitioner.plan_proximity`).
    A distance join's qualifying pair can straddle tile borders by up
    to ε, so the grid strategy assigns each object to every tile its
    ε/2-expanded MBR touches (two objects within ε always share at
    least one expanded tile) and workers drop replicated candidates
    whose expanded-MBR intersection is owned by another tile *before
    any statistics counter moves* — merged Figure-1 flow counters
    equal the serial pipeline's exactly, with the replication overhead
    visible only in ``MultiStepStats.dedup_dropped``.  The tree
    strategy instead prunes the synchronized R*-tree traversal with
    ``rect_distance(mbr_a, mbr_b) > ε`` (disjoint tasks, no
    replication).  kNN decomposes by partitioning the left relation
    disjointly and giving each task the right rows within a cheap
    serial upper bound on every member's k-th-neighbour distance
    (k-th smallest MBR max-distance, one ``np.partition`` per block of
    left rows); proximity tiles gather their rows from the shared
    segments and build no object;
    merged pairs are re-sorted into the serial pipeline's exact
    left-relation order.  Results at any worker count are
    byte-identical to the workers=1 run of the same plan
    (``tests/test_proximity_parallel_equivalence.py``).  Only tiny
    joins (candidate volume below
    ``repro.core.parallel_exec.PROXIMITY_SERIAL_VOLUME``) still route
    to the serial pipeline — a plan there costs more than the join —
    and that routing never depends on execution-only fields, so the
    service result cache stays coherent (see
    :mod:`repro.core.proximity`; ``make bench-proximity`` writes the
    throughput table and ``BENCH_proximity.json``).

Parallel execution — model and reality
    Both engines describe how *one* process drains the candidate
    stream; parallelism is layered on top of them via the grid
    partitioning of :mod:`repro.core.partition`, and comes in two
    flavours.  The **simulator**
    (``simulate_parallel_join(..., engine="batched")``) deterministically
    models the paper's §6 outlook: per-tile costs under the §5 constants
    placed onto ``p`` virtual processors by LPT scheduling.  The **real
    executor** (:mod:`repro.core.parallel_exec`, ``JoinConfig(workers=N)``,
    CLI ``join --workers N``) ships each tile to a
    :class:`~concurrent.futures.ProcessPoolExecutor` worker, which runs
    the tile-local join with whichever engine the config names and
    returns owned pairs plus full statistics; the merged output is
    byte-identical to the serial pipeline
    (``tests/test_parallel_exec_equivalence.py`` enforces it, and
    ``simulate_parallel_join(..., measure=True)`` reports measured
    wall-clock speedup next to the modeled makespan).  Engine choice and
    worker count compose freely: ``workers=4, engine="batched"`` is four
    processes each running the vectorised filter on its own tiles.

Parallel wire format — shared columns
    The parent writes each relation's packed ring columns into one
    :class:`multiprocessing.shared_memory.SharedMemory` segment and a
    tile task pickles only the segment descriptors plus two index
    arrays; workers map the segments, gather their slice, and rebuild
    polygons bit-identically (``Polygon.from_normalized``).  Replicated
    objects therefore cost nothing extra on the wire — the geometry
    ships once per join, not once per tile
    (``tests/test_parallel_exec_shm.py`` pins the segment lifecycle:
    unlinked on success, worker failure, and interrupt).
    The approximations ride the same way: for every kind the join
    reads (``JoinConfig.approximation_kinds()``) the parent takes
    ``relation.columnar().approx(kind)`` — the one get-or-build point —
    and places its stored columns in a block beside the ring segment;
    workers gather a tile's rows by the same index arrays into a
    pre-seeded tile-local column store
    (``repro.core.partition.tile_relation``, which cuts the serial
    partitioned join's tiles too), so **no tile ever computes an
    approximation** of a stored kind
    (``tests/test_stored_approximations.py`` counts the calls across
    the forked workers; RMBR and MBE have no stored form and are
    packed per join, for the objects that reach the filter).  What
    each segment holds is described once, by the picklable
    :class:`~repro.core.parallel_exec.SegmentLayout` its descriptor
    carries.

Tile formation — uniform grid vs tree-guided partitioning
    What a "tile" *is* is a strategy of its own
    (``JoinConfig(partitioner=...)``, CLI ``join --partitioner``),
    implemented by the :class:`~repro.core.partition.Partitioner`
    hierarchy.  ``grid`` (default) cuts space into the uniform
    ``grid=(nx, ny)`` tiles described above: simple, predictable, but
    a cluster denser than one tile ships as a single straggler task,
    and objects straddling tile borders are re-tested in every tile
    they touch (the ``owning_tile`` rule keeps the output exact).
    ``rtree`` instead bulk-loads (or reuses, via
    ``relation.columnar().partition_tree()``) an R*-tree over each
    relation's MBR column and runs the paper's synchronized traversal
    down to a candidate-volume budget: each emitted task is one
    overlapping node pair — two row-index sets — so the tasks
    partition the candidate-pair space **disjointly** (no replicated
    exact work, no ownership filter), and a hot cluster splits into
    as many tasks as its volume warrants.  The traversal budget is
    ``JoinConfig(target_tasks=N)`` (CLI ``--target-tasks``, service
    field ``target_tasks``): the descent stops once roughly ``N``
    tasks exist, trading dispatch overhead against balance.  Hilbert
    declustering (§6 outlook; ``TreePartitioner(decluster="zorder")``
    for the z-order curve) orders the plan along the curve; dispatch
    keeps that order among equal-cost tasks.  Both partitioners emit the same
    ``ColumnarTileTask`` wire format, so sessions compose with either;
    the task plan depends only on the relations — never the worker
    count — keeping results byte-identical to the serial join
    (``tests/test_tree_partitioner_equivalence.py`` is the
    differential suite, and ``benchmarks/bench_tree_partition.py``
    shows the modeled-makespan win on a hot-tile workload, report in
    ``benchmarks/reports/tree_partition.txt``).

Tile dispatch — largest first
    Tiles reach the pool in one order: descending candidate volume
    (an LPT heuristic; equal-cost tiles keep plan order), and idle
    workers pull the next queued tile the moment they finish, so a
    skewed grid's hot tile starts first instead of serialising the
    tail of the join.  The parent folds worker outcomes in tile-key
    order, so results, order, and merged statistics are byte-identical
    to the serial partitioned join —
    ``tests/test_session_equivalence.py`` and the clustered hot-tile
    fuzz in ``tests/test_largest_first_fuzz.py`` enforce it.  A worker
    exception surfaces as ``TileExecutionError`` naming the failed
    tile.

Join sessions — amortising setup across repeated joins
    A one-shot ``parallel_partitioned_join`` forks a fresh pool and
    ships fresh shared segments every call.  Serving workloads wrap
    joins in a :class:`repro.core.session.JoinSession` instead: the
    session owns a persistent worker pool (forked once per worker
    count, reused by every later join, transparently replaced if
    broken) and a shared-segment cache keyed by relation fingerprint
    (a content digest of the packed ring columns), so repeated joins
    of the same relations ship **zero** redundant bytes
    (``result.shared_payload_bytes == 0`` warm).  Approximation blocks
    are cached under the same fingerprint, one per kind, added when a
    join first reads the kind and leased, byte-accounted, evicted and
    unlinked together with the relation's ring segment; they have
    their own counters (``approx_cache_hits`` / ``approx_cache_misses``
    on the result and in ``JoinSession.stats()``), so the segment
    counters keep counting ring payloads only.  Reuse a session
    whenever the same relations are joined more than once — under
    different predicates, engines, grids, or partners; create one-shot
    joins only for one-off queries.  The cache holds segments until
    ``evict()``/``close()``, or — for long-lived serving sessions
    joining ever-changing relations —
    ``JoinSession(max_cache_bytes=N)`` bounds it: segments of the
    least recently *joined* relations are evicted (and unlinked)
    first once the byte bound is exceeded, the running join's own
    segments are leased and never evicted mid-flight, and
    ``segment_cache_evictions`` counts what the bound cost
    (``tests/test_session_cache.py`` pins the lifecycle).  Either
    way the session is a context manager and leaves
    ``live_shared_segments()`` empty on close, the same leak-free
    guarantee as the one-shot path.
    ``benchmarks/bench_session.py`` measures first-join vs warm-join
    latency (``benchmarks/reports/session.txt``).

The persistent storage tier — warm starts that survive restarts
    Everything above amortises work *within* one process; the
    persistent store (:mod:`repro.datasets.store`) amortises it across
    process lifetimes.  ``RelationStore.save(relation)`` writes the
    relation's packed columns — the four ring columns in exactly the
    shared-segment interior layout, plus object MBRs and areas — as
    raw little-endian page files under a content-addressed directory
    (``<store_dir>/<fingerprint>/`` with a JSON manifest carrying
    dtype/shape/nbytes per column and a format version), and
    ``load()`` maps them back with ``np.memmap``: no WKT parsing, no
    ring packing, no digesting — bytes fault in on access, and
    ``load_relation()`` materialises live geometry with the columnar
    cache pre-seeded from the pages.  **Approximations are stored data
    too** (the paper keeps them with the index entry): each kind's
    packed columns — the stored form defined once by
    :class:`~repro.approximations.batch.ApproxColumns` — live as
    additive sidecar pages under
    ``<store_dir>/<fingerprint>/approx/<kind>/`` with their own small
    manifest (page specs, a blake2b digest, the kind's
    ``algorithm_version``).  They are published lazily: ``save()``
    writes the kinds the relation has already packed and never builds
    one; the first process whose ``ColumnarRelation.approx(kind)`` has
    to build a kind of a loaded relation publishes it (atomic rename,
    skipped silently on an unwritable directory); every later load
    installs what it finds and seeds the objects' scalar caches from
    the same rows, so an approximation is computed **at most once per
    (relation content, kind)** across joins, sessions and processes.
    A store without sidecars stays valid, a sidecar of another
    algorithm version is rebuilt rather than mixed, and a structurally
    broken one is a ``StoreCorruptionError`` at load.  Because the ring
    and sidecar pages mirror the segment layouts, a restarted session
    warms its segment cache by *streaming the files straight into
    shared memory*
    (:meth:`~repro.core.session.JoinSession.warm_from_store`, an
    I/O-parallel ``readinto`` loop over a thread pool — the GIL is
    released for the copies), and a warmed service answers its first
    join of a stored relation as a segment-cache hit with its
    approximation blocks already in place.  The store front
    doors: ``python -m repro store pack/ls/rm`` manages a store,
    ``join``/``join-batch``/``serve`` accept ``--store-dir`` and
    resolve ``store:<fingerprint>`` relation references through it,
    and the server's ``{"op": "warm"}`` request warms every pooled
    session (``{"op": "telemetry"}`` reports the pool-wide
    segment-cache and store-load counters from
    :meth:`JoinSession.stats`).  Corruption is a clean error, never a
    wrong join: loads validate the manifest and page sizes
    (:class:`~repro.datasets.store.StoreCorruptionError`),
    ``StoredRelation.verify()`` re-digests page bytes on demand
    (approximation pages included), and
    the differential suite (``tests/test_store_equivalence.py``)
    proves store-loaded joins byte-identical to object-built joins
    across engines, partitioners, and worker counts.
    ``benchmarks/bench_store.py`` (``make bench-store``) gates the
    point: cold-session warm-up from store pages must beat re-packing
    by ≥ 3x (``benchmarks/reports/BENCH_store.json``).

The join service — many concurrent clients, few sessions
    One session serves one caller at a time; the concurrent front-end
    is :class:`repro.service.JoinService` (package :mod:`repro.service`),
    an asyncio service that multiplexes any number of in-flight
    join/window/kNN requests onto a small pool of sessions.  It layers
    three serving-side mechanisms on top of the session runtime: a
    fingerprint-keyed **result cache** (both relations' content digests
    + the canonicalized ``JoinConfig`` — execution-only fields like
    ``workers``/``kernels`` are stripped, since the
    differential suites prove them result-neutral), **request
    coalescing** (identical in-flight requests share one execution),
    and **admission control** (a bounded pending queue with 429-style
    rejection and per-request timeouts that abandon the wait, never
    the shared execution).  Responses stay byte-identical to serial
    joins under any concurrency — ``tests/test_service.py`` is the
    concurrent differential suite.  ``python -m repro serve`` exposes
    the service as a JSON-lines-over-TCP endpoint
    (``tests/test_service_server.py`` pins the wire protocol);
    ``benchmarks/bench_service.py`` measures throughput and latency at
    1/8/32 concurrent clients, cold vs result-cache-warm
    (``benchmarks/reports/service.txt``).

Choosing the parallel executor from the CLI::

    python -m repro join a.wkt b.wkt --engine batched --workers 4 --grid 4 4
    python -m repro join a.wkt b.wkt --workers 4 --partitioner rtree
    python -m repro join-batch a.wkt b.wkt --repeat 5 --workers 4  # session
    python -m repro serve --port 8765 --sessions 2 --workers 2  # service

and the persistent store::

    python -m repro store pack ./pages a.wkt b.wkt   # pack columns once
    python -m repro store ls ./pages
    python -m repro join store:<fp_a> store:<fp_b> --store-dir ./pages
    python -m repro serve --port 8765 --store-dir ./pages  # warm op enabled

Each name is imported from its defining module
(:mod:`repro.engine.base`, :mod:`repro.engine.batched`,
:mod:`repro.engine.streaming`); this package re-exports nothing.
"""
