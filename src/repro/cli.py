"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``  — write a synthetic cartographic relation as WKT
``info``      — statistics of a WKT relation (Figure 2 style)
``join``      — multi-step join of two WKT relations
                (``--predicate intersects|within|distance|knn``)
``join-batch``— repeated joins through one persistent JoinSession
``query``     — multi-step window or point query over one WKT relation
``overlay``   — map-overlay (intersection layer) of two WKT relations
``distance``  — within-distance join of two WKT relations (the
                ``join --predicate distance`` pipeline)
``knn``       — k nearest objects to a point
``estimate``  — pre-execution join cost/selectivity estimate ([Gün 93])
``store``     — manage a persistent columnar relation store
                (``pack``/``ls``/``rm``)
``serve``     — long-lived join service over a pool of sessions

``store`` manages a :class:`~repro.datasets.store.RelationStore`
directory: ``pack`` parses WKT once and persists each relation's packed
columns as mmap-able pages keyed by content fingerprint; ``ls`` and
``rm`` inspect and prune.  ``join``/``join-batch``/``serve`` accept
``--store-dir`` and ``store:<fingerprint>`` relation references, which
skip WKT parsing entirely — and ``join-batch --store-dir`` warms the
session's shared-segment cache straight from the store pages before
the first join (the restart-recovery fast path)::

    python -m repro store pack ./store europe.wkt b.wkt
    python -m repro store ls ./store
    python -m repro join-batch store:<fp_a> store:<fp_b> \
        --store-dir ./store --workers 4

``serve`` starts the concurrent front-end of :mod:`repro.service`: a
JSON-lines-over-TCP endpoint multiplexing many simultaneous
join/window/knn requests onto ``--sessions`` persistent
:class:`~repro.core.session.JoinSession` objects, with a
fingerprint-keyed result cache, coalescing of identical in-flight
requests, and a bounded admission queue (429-style rejection when
``--max-pending`` executions are already in flight).  One request per
line, e.g.::

    python -m repro serve --port 8765 --sessions 2 --workers 2 &
    printf '%s\\n' '{"op": "join", "relation_a": "europe.wkt", \
"relation_b": "b.wkt", "engine": "batched"}' | nc localhost 8765

Imports: loading this module pulls in only the serial join path
(``core.join`` and what it imports, ``datasets.io``).  Every other
subsystem is imported inside the one command that runs it:
``generate`` the generators, ``query`` ``core.window``, ``overlay``
``core.overlay`` (and the clipping kernel), ``knn`` ``index.knn``,
``estimate`` ``core.selectivity``, ``store`` and ``--store-dir`` the
relation store, ``join --workers N`` (N > 1) the tile executor
(``core.parallel_exec`` and ``multiprocessing``), ``join-batch``
``core.session``, and ``serve`` ``repro.service``.
``tests/test_import_graph.py`` pins this.

Invalid arguments exit 2 with a one-line ``error:`` (argparse or
command boundary): an unreadable or malformed WKT file, a missing
store directory (only ``store pack`` creates one), a degenerate
``--window``, non-finite coordinates, ``--objects`` < 3, ``--top`` < 0.

Example session::

    python -m repro generate --objects 200 --vertices 84 --out europe.wkt
    python -m repro generate --objects 200 --vertices 84 --seed 7 --out b.wkt
    python -m repro info europe.wkt
    python -m repro join europe.wkt b.wkt --conservative 5-C --progressive MER
    python -m repro join europe.wkt b.wkt --workers 4 --grid 4 4
    python -m repro join-batch europe.wkt b.wkt --repeat 5 --workers 4
    python -m repro query europe.wkt --window 0.2 0.2 0.4 0.4
    python -m repro overlay europe.wkt b.wkt
    python -m repro distance europe.wkt b.wkt --epsilon 0.02
    python -m repro knn europe.wkt --point 0.5 0.5 --k 5
    python -m repro estimate europe.wkt b.wkt
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, List, Optional

from .core.filters import FilterConfig
from .core.join import (
    ENGINES,
    EXACT_METHODS,
    JoinConfig,
    SpatialJoinProcessor,
)
from .datasets.io import load_relation
from .datasets.relations import SpatialRelation
from .geometry.kernels import KERNEL_BACKENDS


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type: an integer >= ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    # argparse names the type in its "invalid int value: 'x'" message.
    parse.__name__ = "int"
    return parse


def _finite_float(text: str) -> float:
    """argparse type: a finite float (no nan / inf coordinates)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-step spatial join processing (SIGMOD '94 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic relation")
    gen.add_argument("--objects", type=_int_at_least(3), default=200,
                     help="number of objects (>= 3, default 200)")
    gen.add_argument("--vertices", type=float, default=84.0,
                     help="mean vertices per object")
    gen.add_argument("--seed", type=int, default=1994)
    gen.add_argument("--coverage", type=float, default=0.78)
    gen.add_argument("--name", default="relation")
    gen.add_argument("--out", required=True, help="output WKT file")

    info = sub.add_parser("info", help="relation statistics")
    info.add_argument("relation", help="WKT file")

    join = sub.add_parser("join", help="multi-step spatial join")
    _add_join_options(join)
    join.add_argument("--pairs", action="store_true",
                      help="print every result pair")

    batch = sub.add_parser(
        "join-batch",
        help="repeated joins through one persistent JoinSession "
             "(reused worker pool + shared-segment cache)",
    )
    _add_join_options(batch)
    batch.add_argument("--repeat", type=int, default=3,
                       help="number of joins to run through the session "
                            "(default 3); joins after the first reuse the "
                            "pool and ship zero redundant bytes")

    query = sub.add_parser("query", help="window or point query")
    query.add_argument("relation", help="WKT file")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--window", nargs=4, type=_finite_float,
                       metavar=("XMIN", "YMIN", "XMAX", "YMAX"))
    group.add_argument("--point", nargs=2, type=_finite_float,
                       metavar=("X", "Y"))

    overlay = sub.add_parser("overlay", help="map-overlay intersection layer")
    overlay.add_argument("relation_a", help="WKT file (left layer)")
    overlay.add_argument("relation_b", help="WKT file (right layer)")
    overlay.add_argument("--top", type=_int_at_least(0), default=10,
                         help="print the N largest pieces (>= 0)")

    dist = sub.add_parser("distance", help="within-distance join")
    dist.add_argument("relation_a", help="WKT file (left relation)")
    dist.add_argument("relation_b", help="WKT file (right relation)")
    dist.add_argument("--epsilon", type=float, required=True,
                      help="distance threshold in data-space units")
    dist.add_argument("--pairs", action="store_true",
                      help="print every result pair")

    knn = sub.add_parser("knn", help="k nearest objects to a point")
    knn.add_argument("relation", help="WKT file")
    knn.add_argument("--point", nargs=2, type=_finite_float, required=True,
                     metavar=("X", "Y"))
    knn.add_argument("--k", type=int, default=5)

    estimate = sub.add_parser(
        "estimate", help="pre-execution join estimate ([Gün 93])"
    )
    estimate.add_argument("relation_a", help="WKT file (left relation)")
    estimate.add_argument("relation_b", help="WKT file (right relation)")

    store = sub.add_parser(
        "store",
        help="manage a persistent columnar relation store "
             "(mmap-able pages keyed by content fingerprint)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    pack = store_sub.add_parser(
        "pack", help="pack WKT relations into the store"
    )
    pack.add_argument("store_dir", help="store directory (created if missing)")
    pack.add_argument("relations", nargs="+", metavar="WKT",
                      help="WKT files to pack")
    ls = store_sub.add_parser("ls", help="list stored relations")
    ls.add_argument("store_dir", help="store directory")
    rm = store_sub.add_parser("rm", help="remove stored relations")
    rm.add_argument("store_dir", help="store directory")
    rm.add_argument("fingerprints", nargs="+", metavar="FINGERPRINT",
                    help="fingerprints to remove (as shown by 'store ls')")

    serve = sub.add_parser(
        "serve",
        help="long-lived JSON-over-TCP join service "
             "(result cache, coalescing, backpressure)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 picks an ephemeral port, "
                            "printed on startup)")
    serve.add_argument("--sessions", type=int, default=2,
                       help="JoinSession pool size = concurrent "
                            "executions (default 2)")
    serve.add_argument("--max-pending", type=int, default=32,
                       help="bounded admission queue: distinct "
                            "executions queued or running before "
                            "requests are rejected 429-style "
                            "(default 32)")
    serve.add_argument("--result-cache", type=int, default=256,
                       help="result-cache entries (0 disables caching)")
    serve.add_argument("--request-timeout", type=float, default=None,
                       help="per-request timeout in seconds "
                            "(default: none)")
    serve.add_argument("--workers", type=int, default=1,
                       help="default worker processes per join "
                            "(requests may override)")
    serve.add_argument("--engine", default="batched",
                       choices=ENGINES,
                       help="default execution engine for requests")
    serve.add_argument("--kernels", default=None,
                       choices=KERNEL_BACKENDS,
                       help="default kernel backend for requests "
                            "(execution-only; cached results are shared "
                            "across backends)")
    serve.add_argument("--grid", nargs=2, type=int, default=(4, 4),
                       metavar=("NX", "NY"),
                       help="default partition grid (default 4 4)")
    serve.add_argument("--store-dir", default=None,
                       help="persistent relation store backing "
                            "'store:<fingerprint>' relation references "
                            "and the 'warm' op (default: no store)")
    return parser


def _add_join_options(parser: argparse.ArgumentParser) -> None:
    """The options shared by ``join`` and ``join-batch``."""
    parser.add_argument("relation_a",
                        help="WKT file or store:<fingerprint> reference "
                             "(left relation)")
    parser.add_argument("relation_b",
                        help="WKT file or store:<fingerprint> reference "
                             "(right relation)")
    parser.add_argument("--store-dir", default=None,
                        help="persistent relation store resolving "
                             "store:<fingerprint> references; join-batch "
                             "additionally warms the session's segment "
                             "cache from the store pages before the first "
                             "join")
    parser.add_argument("--predicate",
                        choices=("intersects", "within", "distance", "knn"),
                        default="intersects",
                        help="join predicate: 'intersects' (default), "
                             "'within' (a in b), 'distance' (pairs with "
                             "exact distance <= --epsilon), or 'knn' (each "
                             "left object's --k nearest right objects)")
    parser.add_argument("--epsilon", type=float, default=0.0,
                        help="distance threshold for --predicate distance "
                             "(data-space units, default 0)")
    parser.add_argument("--k", type=int, default=1,
                        help="neighbours per left object for "
                             "--predicate knn (default 1)")
    parser.add_argument("--kernels", default=None,
                        choices=KERNEL_BACKENDS,
                        help="kernel backend for the bulk filter/refine hot "
                             "paths: 'numpy' (vectorised oracle), 'c' (the "
                             "oracle's per-batch loops compiled from C with "
                             "the local compiler on first use), or 'auto' "
                             "(c when it builds and loads, else numpy; the "
                             "default, overridable via REPRO_KERNELS). "
                             "Results are identical across backends")
    parser.add_argument("--conservative", default="5-C",
                        help="conservative approximation kind or 'none'")
    parser.add_argument("--progressive", default="MER",
                        help="progressive approximation kind or 'none'")
    parser.add_argument("--exact", default="vectorized",
                        choices=EXACT_METHODS,
                        help="exact step: 'vectorized', the batched "
                             "edge-table refinement (the only choice)")
    parser.add_argument("--engine", default="batched",
                        choices=ENGINES,
                        help="execution engine: vectorized batched filter "
                             "(default) or per-pair streaming filter (see "
                             "repro.engine)")
    parser.add_argument("--batch-size", type=int, default=1024,
                        help="candidate pairs per block for --engine batched")
    parser.add_argument("--exact-batch", type=int, default=64,
                        help="remaining candidates per refinement batch "
                             "(default 64); results are identical at "
                             "every batch size")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the partitioned tile "
                             "executor; 1 (default) runs the ordinary serial "
                             "join in-process")
    parser.add_argument("--grid", nargs=2, type=int, default=(4, 4),
                        metavar=("NX", "NY"),
                        help="tile grid for --workers > 1 (default 4 4)")
    parser.add_argument("--partitioner", default="grid",
                        choices=("grid", "rtree"),
                        help="tile-formation strategy for --workers > 1: "
                             "'grid' cuts the data space into uniform "
                             "--grid tiles, 'rtree' forms tasks from the "
                             "leaf overlaps of a synchronized R*-tree "
                             "traversal with space-filling-curve "
                             "declustering (results are identical either "
                             "way)")
    parser.add_argument("--target-tasks", type=int, default=64,
                        help="task budget for --partitioner rtree: the "
                             "synchronized traversal descends until roughly "
                             "this many tree-guided tasks exist (>= 1, "
                             "default 64); inert for --partitioner grid, "
                             "which is sized by --grid")


def _join_config(args: argparse.Namespace) -> JoinConfig:
    """Build the validated JoinConfig for ``join``/``join-batch`` args.

    Raises ``ValueError`` (caught by the commands) when any setting is
    invalid — including the grid, which is validated here at the CLI
    boundary instead of deep inside the tile planner.
    """
    # --kernels left unset falls through to the JoinConfig default
    # (REPRO_KERNELS env var, else 'auto').
    kernel_override = (
        {} if args.kernels is None else {"kernels": args.kernels}
    )
    return JoinConfig(
        filter=FilterConfig(
            conservative=_none_or(args.conservative),
            progressive=_none_or(args.progressive),
        ),
        exact_method=args.exact,
        predicate=args.predicate,
        epsilon=args.epsilon,
        k=args.k,
        engine=args.engine,
        batch_size=args.batch_size,
        exact_batch=args.exact_batch,
        workers=args.workers,
        partitioner=args.partitioner,
        target_tasks=args.target_tasks,
        grid=tuple(args.grid),
        **kernel_override,
    )


def _none_or(value: str) -> Optional[str]:
    return None if value.lower() in ("none", "-", "") else value


def _open_store(store_dir: Optional[str], create: bool = False):
    """The command's RelationStore, or None when no --store-dir given.

    Only ``store pack`` creates the directory: every other command
    raises ``ValueError`` for a missing one instead of leaving an empty
    store behind a mistyped path.
    """
    if store_dir is None:
        return None
    if not create and not os.path.isdir(store_dir):
        raise ValueError(f"no store at {store_dir}")
    from .datasets.store import RelationStore

    return RelationStore(store_dir)


def _load_wkt(path: str) -> SpatialRelation:
    """Load a WKT relation argument; ``ValueError`` names the file."""
    try:
        return load_relation(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load {path!r}: {exc}") from exc


def _fail(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _resolve_relation(ref: str, store) -> SpatialRelation:
    """Load a relation argument: WKT path or ``store:<fingerprint>``.

    Store references materialise from the store's mmap pages — no WKT
    parsing, no re-packing, fingerprint trusted from the manifest.
    Raises ``ValueError`` (caught at each command boundary) for an
    unreadable WKT file, a store reference without ``--store-dir`` or
    an unknown/corrupted entry.
    """
    if not ref.startswith("store:"):
        return _load_wkt(ref)
    if store is None:
        raise ValueError(
            f"relation reference {ref!r} needs --store-dir"
        )
    from .datasets.store import StoreError

    try:
        return store.load_relation(ref[len("store:"):])
    except StoreError as exc:
        raise ValueError(str(exc)) from exc


def cmd_generate(args: argparse.Namespace) -> int:
    from .datasets.generators import cartographic_polygons
    from .datasets.io import save_relation

    polygons = cartographic_polygons(
        n_objects=args.objects,
        mean_vertices=args.vertices,
        coverage=args.coverage,
        seed=args.seed,
    )
    relation = SpatialRelation(args.name, polygons)
    save_relation(relation, args.out)
    stats = relation.statistics()
    print(
        f"wrote {args.out}: {stats['objects']} objects, "
        f"m_avg={stats['m_avg']:.0f}"
    )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    try:
        relation = _load_wkt(args.relation)
    except ValueError as exc:
        return _fail(exc)
    stats = relation.statistics()
    total_area = sum(o.polygon.area() for o in relation)
    print(f"relation: {relation.name}")
    print(f"objects:  {stats['objects']}")
    print(
        f"vertices: avg {stats['m_avg']:.1f}, "
        f"min {stats['m_min']}, max {stats['m_max']}"
    )
    print(f"total object area: {total_area:.4f}")
    return 0


def cmd_join(args: argparse.Namespace) -> int:
    try:
        store = _open_store(args.store_dir)
        rel_a = _resolve_relation(args.relation_a, store)
        rel_b = _resolve_relation(args.relation_b, store)
        config = _join_config(args)
    except ValueError as exc:
        return _fail(exc)
    if config.workers > 1:
        from .core.parallel_exec import parallel_partitioned_join

        try:
            result = parallel_partitioned_join(rel_a, rel_b, config=config)
        except ValueError as exc:
            return _fail(exc)
        if result.partitioner == "rtree":
            formation = f"{result.tile_tasks} tree-guided tasks (rtree)"
        else:
            formation = (
                f"{result.tile_tasks} tile tasks on a "
                f"{config.grid[0]}x{config.grid[1]} grid"
            )
        print(
            f"parallel executor: {config.workers} workers, "
            f"{formation}, "
            f"{result.elapsed_seconds * 1e3:.0f} ms"
        )
    else:
        result = SpatialJoinProcessor(config).join(rel_a, rel_b)
    stats = result.stats
    label = args.predicate
    if args.predicate == "distance":
        label = f"distance (eps={config.epsilon})"
    elif args.predicate == "knn":
        label = f"knn (k={config.k})"
    print(f"{label} join: {len(result)} result pairs")
    print(f"  candidates (MBR-join):  {stats.candidate_pairs}")
    print(f"  filter false hits:      {stats.filter_false_hits}")
    print(f"  filter hits:            {stats.filter_hits}")
    print(f"  exact tests:            {stats.remaining_candidates}")
    if stats.refine_batches:
        print(
            f"  refinement batches:     {stats.refine_batches} "
            f"({stats.refine_batch_pairs} pairs batched)"
        )
    print(f"  identification rate:    {stats.identification_rate():.0%}")
    if args.pairs:
        for a, b in result.id_pairs():
            print(f"{a}\t{b}")
    return 0


def cmd_join_batch(args: argparse.Namespace) -> int:
    try:
        store = _open_store(args.store_dir)
        rel_a = _resolve_relation(args.relation_a, store)
        rel_b = _resolve_relation(args.relation_b, store)
        config = _join_config(args)
    except ValueError as exc:
        return _fail(exc)
    if args.repeat < 1:
        print(f"error: --repeat must be >= 1, got {args.repeat}",
              file=sys.stderr)
        return 2
    from .core.session import JoinSession

    print(
        f"join-batch: {args.repeat} joins through one session "
        f"({config.workers} workers, {config.grid[0]}x{config.grid[1]} grid)"
    )
    latencies = []
    baseline = None
    with JoinSession(config=config) as session:
        if store is not None:
            # Warm-start: stream whichever of the two relations the
            # store holds straight into the segment cache, so even the
            # first join reuses cached segments (0 new shared bytes).
            stored = [
                fingerprint
                for fingerprint in {
                    rel_a.columnar().fingerprint,
                    rel_b.columnar().fingerprint,
                }
                if fingerprint in store
            ]
            if stored:
                report = session.warm_from_store(store, sorted(stored))
                loaded = sum(
                    1 for v in report.values() if v == "loaded"
                )
                print(
                    f"  warmed {loaded} shared segments from store "
                    f"pages ({session.store_load_bytes} bytes)"
                )
        for i in range(args.repeat):
            result = session.join(rel_a, rel_b)
            latencies.append(result.elapsed_seconds)
            print(
                f"  join {i + 1}/{args.repeat}: {len(result)} pairs, "
                f"{result.elapsed_seconds * 1e3:.0f} ms, "
                f"{result.shared_payload_bytes} new shared bytes, "
                f"{result.segment_cache_hits} cached segments reused"
            )
            pairs = sorted(result.id_pairs())
            if baseline is None:
                baseline = pairs
            elif pairs != baseline:
                print("error: a warm join diverged from the first join",
                      file=sys.stderr)
                return 3
        print(
            f"session: {session.joins_run} joins, "
            f"{session.pools_created} pools forked, "
            f"{session.segment_cache_hits} segment cache hits, "
            f"{session.cached_segment_bytes} shared bytes cached"
        )
    if len(latencies) > 1:
        warm = min(latencies[1:])
        ratio = latencies[0] / warm if warm > 0 else 1.0
        print(
            f"first join {latencies[0] * 1e3:.0f} ms, best warm join "
            f"{warm * 1e3:.0f} ms ({ratio:.1f}x)"
        )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .core.window import WindowQueryProcessor, WindowQueryStats
    from .geometry.rectangle import Rect

    try:
        window = Rect(*args.window) if args.window else None
        relation = _load_wkt(args.relation)
    except ValueError as exc:
        return _fail(exc)
    processor = WindowQueryProcessor(relation)
    stats = WindowQueryStats()
    if window is not None:
        xmin, ymin, xmax, ymax = args.window
        results = processor.window_query(window, stats)
        label = f"window ({xmin}, {ymin}, {xmax}, {ymax})"
    else:
        x, y = args.point
        results = processor.point_query((x, y), stats)
        label = f"point ({x}, {y})"
    print(f"{label}: {len(results)} objects")
    print(
        f"  candidates {stats.candidates}, filter hits {stats.filter_hits}, "
        f"exact tests {stats.exact_tests}"
    )
    for obj in results:
        print(f"  object {obj.oid} (vertices={obj.polygon.num_vertices})")
    return 0


def cmd_overlay(args: argparse.Namespace) -> int:
    try:
        rel_a = _load_wkt(args.relation_a)
        rel_b = _load_wkt(args.relation_b)
    except ValueError as exc:
        return _fail(exc)
    from .core.overlay import MapOverlay

    result = MapOverlay().intersection(rel_a, rel_b)
    print(f"overlay: {len(result)} intersection pieces")
    print(f"  total area: {result.total_area():.6f}")
    if result.failed_pairs:
        print(f"  degenerate pairs skipped: {len(result.failed_pairs)}")
    largest = sorted(result.pieces, key=lambda p: p.area, reverse=True)
    for piece in largest[: args.top]:
        print(f"  A{piece.oid_a} x B{piece.oid_b}  area={piece.area:.6f}")
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    # Validate before loading anything: a bad threshold should fail
    # fast at the argument boundary, like `join` validates its config.
    try:
        config = JoinConfig(predicate="distance", epsilon=args.epsilon)
        rel_a = _load_wkt(args.relation_a)
        rel_b = _load_wkt(args.relation_b)
    except ValueError as exc:
        return _fail(exc)
    result = SpatialJoinProcessor(config).join(rel_a, rel_b)
    stats = result.stats
    print(f"within-distance join (eps={args.epsilon}): {len(result)} pairs")
    print(f"  candidates:        {stats.candidate_pairs}")
    print(f"  circle-bound hits: {stats.filter_hits}")
    print(f"  circle-bound false hits: {stats.filter_false_hits}")
    print(f"  exact tests:       {stats.remaining_candidates}")
    if args.pairs:
        for a, b in result.id_pairs():
            print(f"{a}\t{b}")
    return 0


def cmd_knn(args: argparse.Namespace) -> int:
    from .index.knn import knn_query, validate_k

    try:
        k = validate_k(args.k)
        relation = _load_wkt(args.relation)
    except ValueError as exc:
        return _fail(exc)
    tree = relation.rtree()
    point = (args.point[0], args.point[1])
    results = knn_query(tree, point, k)
    print(f"{len(results)} nearest objects to {point}:")
    for dist, row in results:
        print(f"  object {relation.objects[row].oid}  mindist={dist:.6f}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    try:
        rel_a = _load_wkt(args.relation_a)
        rel_b = _load_wkt(args.relation_b)
    except ValueError as exc:
        return _fail(exc)
    from .core.selectivity import estimate_join

    est = estimate_join(rel_a, rel_b)
    print("pre-execution join estimate:")
    print(f"  expected candidates:   {est.candidates:.0f}")
    print(f"  expected hits:         {est.hits:.0f}")
    print(f"  expected false hits:   {est.false_hits:.0f}")
    print(f"  settled by filter:     {est.filter_effectiveness:.0%}")
    print(f"  expected exact tests:  {est.remaining_candidates:.0f}")
    print(f"  expected cost:         {est.total_seconds:.2f} s (§5 constants)")
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    from .datasets.store import StoreError

    try:
        store = _open_store(
            args.store_dir, create=args.store_command == "pack"
        )
    except ValueError as exc:
        return _fail(exc)
    if args.store_command == "pack":
        for path in args.relations:
            try:
                relation = _load_wkt(path)
            except ValueError as exc:
                return _fail(exc)
            fingerprint = store.save(relation)
            stored = store.load(fingerprint)
            print(
                f"packed {path}: {relation.name} "
                f"({len(relation)} objects, {stored.nbytes} page bytes) "
                f"-> {fingerprint}"
            )
        return 0
    if args.store_command == "ls":
        fingerprints = store.fingerprints()
        if not fingerprints:
            print(f"store {store.directory}: empty")
            return 0
        print(f"store {store.directory}: {len(fingerprints)} relations")
        for fingerprint in fingerprints:
            try:
                stored = store.load(fingerprint)
            except StoreError as exc:
                print(f"  {fingerprint}  CORRUPTED: {exc}")
                continue
            print(
                f"  {fingerprint}  {stored.name}  "
                f"objects={stored.n_objects}  bytes={stored.nbytes}"
            )
        return 0
    # rm
    status = 0
    for fingerprint in args.fingerprints:
        if store.remove(fingerprint):
            print(f"removed {fingerprint}")
        else:
            print(f"error: {fingerprint} is not in store "
                  f"{store.directory}", file=sys.stderr)
            status = 2
    return status


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.core import JoinService
    from .service.server import run_server

    try:
        kernel_override = (
            {} if args.kernels is None else {"kernels": args.kernels}
        )
        config = JoinConfig(
            workers=args.workers,
            engine=args.engine,
            grid=tuple(args.grid),
            **kernel_override,
        )
        _open_store(args.store_dir)  # a missing directory is an error
        service = JoinService(
            config=config,
            sessions=args.sessions,
            max_pending=args.max_pending,
            result_cache_entries=args.result_cache,
            request_timeout=args.request_timeout,
            store_dir=args.store_dir,
        )
    except ValueError as exc:
        return _fail(exc)

    def announce(server) -> None:
        print(
            f"join service listening on {server.host}:{server.port} "
            f"({args.sessions} sessions, max {args.max_pending} pending, "
            f"{args.result_cache} cached results)",
            flush=True,
        )

    try:
        asyncio.run(
            run_server(service, args.host, args.port, ready=announce)
        )
    except KeyboardInterrupt:
        # run_server turns SIGINT and SIGTERM into a clean stop; this
        # only triggers on a SIGINT after its handlers are removed.
        pass
    print("join service stopped")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "info": cmd_info,
    "join": cmd_join,
    "join-batch": cmd_join_batch,
    "query": cmd_query,
    "overlay": cmd_overlay,
    "distance": cmd_distance,
    "knn": cmd_knn,
    "estimate": cmd_estimate,
    "store": cmd_store,
    "serve": cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
