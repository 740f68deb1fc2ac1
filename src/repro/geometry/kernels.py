"""Kernel backend registry for the filter/refine hot paths.

The batched join engine spends its wall time in a handful of bulk
geometry kernels (``fastops``) plus the scalar plane-sweep fallback:
row-wise MBR and segment tests for the filter, and for the exact step
one ragged edge-pair kernel per refinement batch over the relations'
edge tables (``edge_pairs_intersect_ragged``), one bulk point-in-polygon
call, and for the proximity predicates one ragged edge-distance kernel
per round of pending pairs (``min_edge_distance_ragged``), capped by a
per-pair reach.
This module makes the *execution substrate* of those kernels pluggable
behind an unchanged interface — ``JoinConfig(kernels=...)`` selects a
backend per join, and every backend decides every predicate identically
(the numpy kernels are the differential oracle):

``"numpy"``
    The vectorised oracle kernels from :mod:`repro.geometry.fastops`
    and the scalar plane sweep.  Always available.
``"numba"``
    The loop kernels of :mod:`repro.geometry._kernels_loops` compiled
    with ``numba.njit(cache=True)``.  Requires numba; requesting it
    without numba installed raises a clear ``ValueError``.
``"python"``
    The same loop kernels, uncompiled.  Slow; exists so the loop logic
    is differential-testable against the oracle without numba.
``"auto"``
    ``"numba"`` when numba is importable, else ``"numpy"`` (silent
    fallback — the repo works with numba uninstalled).

Compilation is lazy and warmed explicitly: :func:`warm_up` runs every
kernel of a backend once on tiny inputs, which triggers (and caches)
the JIT work.  Worker pools call it from their process initializer so
tiles never pay a per-task re-JIT (see ``repro.core.session``).

:class:`KernelDispatcher` wraps a backend for the engine layers: it
forwards each kernel call and records per-backend call/pair/seconds
telemetry into ``MultiStepStats.kernel_*`` when bound to a stats
object.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import _kernels_loops as _loops
from . import fastops as _fastops

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover
    _numba = None

NUMBA_AVAILABLE = _numba is not None

#: valid values of ``JoinConfig.kernels``.
KERNEL_BACKENDS = ("auto", "numpy", "numba", "python")

#: kernels a backend provides (the dispatcher mirrors these names).
#: The exact step calls one kernel per batch or round, never per pair:
#: ``edge_pairs_intersect_ragged`` for intersects, ``min_edge_distance_ragged``
#: for the proximity predicates.  Per-pair building blocks that no hot
#: path calls through a backend (``fastops.edge_matrix_intersect_any``,
#: ``edges_overlapping_rect_mask``) and the reach heuristic
#: ``fastops.vertex_distance_bounds`` are plain functions, not kernels.
KERNEL_NAMES = (
    "segments_intersect_bulk",
    "points_in_polygons_bulk",
    "edge_pairs_intersect_ragged",
    "rects_intersect_bulk",
    "min_edge_distance_ragged",
    "planesweep",
)

#: uncompiled loop functions, captured before any numba rebinding.
_PYTHON_FUNCS: Dict[str, Callable] = {
    name: getattr(_loops, name) for name in _loops.JIT_FUNCTIONS
}

_NO_MBRS = np.empty((0, 4), dtype=np.float64)


class KernelSet:
    """One backend's kernel functions (see :data:`KERNEL_NAMES`)."""

    __slots__ = ("name",) + KERNEL_NAMES

    def __init__(self, name: str, **kernels: Callable):
        self.name = name
        for kernel_name in KERNEL_NAMES:
            setattr(self, kernel_name, kernels[kernel_name])


def resolve_backend(name: str = "auto") -> str:
    """Resolve a requested backend to a concrete one (never ``"auto"``)."""
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; valid: {KERNEL_BACKENDS}"
        )
    if name == "auto":
        return "numba" if NUMBA_AVAILABLE else "numpy"
    if name == "numba" and not NUMBA_AVAILABLE:
        raise ValueError(
            "kernels='numba' requested but numba is not importable; "
            "install numba or use kernels='auto' (falls back to numpy)"
        )
    return name


_SETS: Dict[str, KernelSet] = {}


def get_kernels(name: str = "auto") -> KernelSet:
    """The (cached) :class:`KernelSet` of the resolved backend."""
    backend = resolve_backend(name)
    kernel_set = _SETS.get(backend)
    if kernel_set is None:
        if backend == "numpy":
            kernel_set = _build_numpy_set()
        elif backend == "python":
            kernel_set = _build_loop_set("python", _PYTHON_FUNCS)
        else:
            kernel_set = _build_loop_set("numba", _compiled_loops())
        _SETS[backend] = kernel_set
    return kernel_set


# ---------------------------------------------------------------------------
# Backend construction
# ---------------------------------------------------------------------------


def _build_numpy_set() -> KernelSet:
    from ..exact.planesweep import polygons_intersect_planesweep

    return KernelSet(
        "numpy",
        segments_intersect_bulk=_fastops.segments_intersect_bulk,
        points_in_polygons_bulk=_fastops.points_in_polygons_bulk,
        edge_pairs_intersect_ragged=_fastops.edge_pairs_intersect_ragged,
        rects_intersect_bulk=_fastops.rects_intersect_bulk,
        min_edge_distance_ragged=_fastops.min_edge_distance_ragged,
        planesweep=polygons_intersect_planesweep,
    )


_COMPILED: Optional[Dict[str, Callable]] = None


def _compiled_loops() -> Dict[str, Callable]:
    """Compile the loop kernels with numba (idempotent).

    Module globals of ``_kernels_loops`` are rebound to the compiled
    dispatchers so inter-kernel helper calls resolve to compiled code
    when numba types them at first call.
    """
    global _COMPILED
    if _COMPILED is None:
        jit = _numba.njit(cache=True)
        compiled = {
            name: jit(fn) for name, fn in _PYTHON_FUNCS.items()
        }
        for name, fn in compiled.items():
            setattr(_loops, name, fn)
        _COMPILED = compiled
    return _COMPILED


def _column(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _index(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _build_loop_set(name: str, funcs: Dict[str, Callable]) -> KernelSet:
    """Adapt loop functions to the oracle kernels' signatures."""
    seg_rows = funcs["segments_intersect_rows"]
    pts_in_poly = funcs["points_in_polygons"]
    edge_pairs = funcs["edge_pairs_ragged"]
    rect_rows = funcs["rects_intersect_rows"]
    edge_dist = funcs["edge_distance_ragged"]
    core = funcs["sweep_core"]

    def segments_intersect_bulk(p1, p2, q1, q2):
        p1 = np.asarray(p1, dtype=np.float64)
        p2 = np.asarray(p2, dtype=np.float64)
        q1 = np.asarray(q1, dtype=np.float64)
        q2 = np.asarray(q2, dtype=np.float64)
        return seg_rows(
            _column(p1[:, 0]), _column(p1[:, 1]),
            _column(p2[:, 0]), _column(p2[:, 1]),
            _column(q1[:, 0]), _column(q1[:, 1]),
            _column(q2[:, 0]), _column(q2[:, 1]),
        )

    def points_in_polygons_bulk(px, py, qidx, ex1, ey1, ex2, ey2, mbrs=None):
        return pts_in_poly(
            _column(px), _column(py),
            _index(qidx),
            _column(ex1), _column(ey1), _column(ex2), _column(ey2),
            _NO_MBRS if mbrs is None else _column(mbrs),
        )

    def edge_pairs_intersect_ragged(table_a, table_b, rows_a, rows_b,
                                    clip, margin):
        hits, evaluated = edge_pairs(
            _column(table_a.coords), _column(table_a.boxes),
            _index(table_a.offsets),
            _column(table_b.coords), _column(table_b.boxes),
            _index(table_b.offsets),
            _index(rows_a), _index(rows_b), _column(clip), _column(margin),
        )
        return hits, int(evaluated)

    def rects_intersect_bulk(a, b):
        return rect_rows(_column(a), _column(b))

    def min_edge_distance_ragged(table_a, table_b, rows_a, rows_b,
                                 reach, margin):
        dist, evaluated = edge_dist(
            _column(table_a.coords), _column(table_a.boxes),
            _index(table_a.offsets), _column(table_a.bounds),
            _column(table_b.coords), _column(table_b.boxes),
            _index(table_b.offsets), _column(table_b.bounds),
            _index(rows_a), _index(rows_b), _column(reach), _column(margin),
        )
        return dist, int(evaluated)

    return KernelSet(
        name,
        segments_intersect_bulk=segments_intersect_bulk,
        points_in_polygons_bulk=points_in_polygons_bulk,
        edge_pairs_intersect_ragged=edge_pairs_intersect_ragged,
        rects_intersect_bulk=rects_intersect_bulk,
        min_edge_distance_ragged=min_edge_distance_ragged,
        planesweep=_make_planesweep(core),
    )


def _make_planesweep(core: Callable) -> Callable:
    """Plane-sweep wrapper around a loop/compiled sweep core.

    Restriction pre-scan, event ordering, cost-model totals and the
    final containment step replicate ``polygons_intersect_planesweep``
    exactly — only the sweep loop itself runs through ``core``.
    """

    def planesweep(poly1, poly2, counter=None, restrict_search_space=True):
        from ..exact.costmodel import EDGE_INTERSECTION, POSITION
        from ..exact.planesweep import _containment_step, _restricted_edges

        clip = poly1.mbr().intersection(poly2.mbr())
        if clip is None:
            return False
        edges = []
        edges += _restricted_edges(
            poly1, 0, clip if restrict_search_space else None, counter
        )
        edges += _restricted_edges(
            poly2, 1, clip if restrict_search_space else None, counter
        )
        has1 = any(e[0] == 0 for e in edges)
        has2 = any(e[0] == 1 for e in edges)
        if edges and has1 and has2:
            n = len(edges)
            pid = np.empty(n, dtype=np.int64)
            lx = np.empty(n, dtype=np.float64)
            ly = np.empty(n, dtype=np.float64)
            rx = np.empty(n, dtype=np.float64)
            ry = np.empty(n, dtype=np.float64)
            # Interleaved insert/delete events, scalar queue order:
            # sorted by (x, order, left_y), ties in original order.
            ev_x = np.empty(2 * n, dtype=np.float64)
            ev_ord = np.empty(2 * n, dtype=np.int64)
            ev_y = np.empty(2 * n, dtype=np.float64)
            ev_edge = np.empty(2 * n, dtype=np.int64)
            for i, (poly_id, left, right) in enumerate(edges):
                pid[i] = poly_id
                lx[i] = left[0]
                ly[i] = left[1]
                rx[i] = right[0]
                ry[i] = right[1]
                ev_x[2 * i] = left[0]
                ev_ord[2 * i] = 0
                ev_y[2 * i] = left[1]
                ev_edge[2 * i] = i
                ev_x[2 * i + 1] = right[0]
                ev_ord[2 * i + 1] = 1
                ev_y[2 * i + 1] = left[1]
                ev_edge[2 * i + 1] = i
            order = np.lexsort((ev_y, ev_ord, ev_x))
            found, positions, tests = core(
                pid, lx, ly, rx, ry,
                np.ascontiguousarray(ev_x[order]),
                np.ascontiguousarray(ev_ord[order]),
                np.ascontiguousarray(ev_edge[order]),
            )
            if counter is not None:
                if positions:
                    counter.count(POSITION, int(positions))
                if tests:
                    counter.count(EDGE_INTERSECTION, int(tests))
            if found:
                return True
        return _containment_step(poly1, poly2, counter)

    return planesweep


# ---------------------------------------------------------------------------
# Warm-up (per-process JIT pre-compilation)
# ---------------------------------------------------------------------------

_WARM_EVENTS: List[str] = []


def warm_events() -> Tuple[str, ...]:
    """Backends warmed in this process, in order (for regression tests)."""
    return tuple(_WARM_EVENTS)


def warm_up(name: str = "auto") -> str:
    """Run every kernel of the backend once on tiny inputs.

    For the numba backend this triggers (and, with ``cache=True``,
    persists) JIT compilation, so subsequent joins and tiles in the
    process run compiled code immediately.  Returns the resolved
    backend name and records the event for :func:`warm_events`.
    """
    backend = resolve_backend(name)
    kernels = get_kernels(backend)
    pts_a = np.array([[0.0, 0.0], [1.0, 1.0]])
    pts_b = np.array([[0.0, 1.0], [1.0, 0.0]])
    kernels.segments_intersect_bulk(pts_a, pts_b, pts_b, pts_a)
    ex = np.array([0.0, 1.0, 1.0, 0.0])
    ey = np.array([0.0, 0.0, 1.0, 1.0])
    ex2 = np.array([1.0, 1.0, 0.0, 0.0])
    ey2 = np.array([0.0, 1.0, 1.0, 0.0])
    qidx = np.zeros(4, dtype=np.int64)
    kernels.points_in_polygons_bulk(
        np.array([0.5]), np.array([0.5]), qidx, ex, ey, ex2, ey2,
        np.array([[0.0, 0.0, 1.0, 1.0]]),
    )
    kernels.points_in_polygons_bulk(
        np.array([0.5]), np.array([0.5]), qidx, ex, ey, ex2, ey2, None
    )
    rect = np.array([[0.0, 0.0, 1.0, 1.0]])
    kernels.rects_intersect_bulk(rect, rect)
    table = _fastops.build_edge_table(
        np.array([0, 1]), np.array([0, 4]), np.column_stack((ex, ey))
    )
    one = np.zeros(1, dtype=np.int64)
    kernels.edge_pairs_intersect_ragged(
        table, table, one, one, rect, np.array([1e-9])
    )
    kernels.min_edge_distance_ragged(
        table, table, one, one, np.array([1.0]), np.array([1e-9])
    )
    from .polygon import Polygon

    tri_a = Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])
    tri_b = Polygon([(0.4, 0.2), (1.4, 0.2), (0.9, 1.2)])
    kernels.planesweep(tri_a, tri_b, None, True)
    _WARM_EVENTS.append(backend)
    return backend


# ---------------------------------------------------------------------------
# Dispatcher with telemetry
# ---------------------------------------------------------------------------


class KernelDispatcher:
    """Forward kernel calls to a backend, recording telemetry.

    When bound to a :class:`repro.core.stats.MultiStepStats` (via
    :meth:`bind`), every call accumulates into ``kernel_calls`` /
    ``kernel_pairs`` / ``kernel_seconds`` keyed ``"<backend>.<kernel>"``
    — execution diagnostics only, excluded from stats equality and the
    service wire format.
    """

    __slots__ = ("kernels", "stats")

    def __init__(self, kernels: KernelSet, stats=None):
        self.kernels = kernels
        self.stats = stats

    @property
    def backend(self) -> str:
        return self.kernels.name

    def bind(self, stats) -> "KernelDispatcher":
        self.stats = stats
        return self

    def _record(self, kernel: str, pairs: int, seconds: float) -> None:
        stats = self.stats
        if stats is None:
            return
        key = f"{self.kernels.name}.{kernel}"
        stats.kernel_calls[key] = stats.kernel_calls.get(key, 0) + 1
        stats.kernel_pairs[key] = stats.kernel_pairs.get(key, 0) + pairs
        stats.kernel_seconds[key] = (
            stats.kernel_seconds.get(key, 0.0) + seconds
        )

    def segments_intersect_bulk(self, p1, p2, q1, q2):
        start = time.perf_counter()
        out = self.kernels.segments_intersect_bulk(p1, p2, q1, q2)
        self._record(
            "segments_intersect_bulk", len(p1), time.perf_counter() - start
        )
        return out

    def points_in_polygons_bulk(self, px, py, qidx, ex1, ey1, ex2, ey2,
                                mbrs=None):
        start = time.perf_counter()
        out = self.kernels.points_in_polygons_bulk(
            px, py, qidx, ex1, ey1, ex2, ey2, mbrs
        )
        self._record(
            "points_in_polygons_bulk", len(px), time.perf_counter() - start
        )
        return out

    def edge_pairs_intersect_ragged(self, table_a, table_b, rows_a, rows_b,
                                    clip, margin):
        """One call per refinement batch; ``pairs`` counts edge pairs."""
        start = time.perf_counter()
        hits, evaluated = self.kernels.edge_pairs_intersect_ragged(
            table_a, table_b, rows_a, rows_b, clip, margin
        )
        self._record(
            "edge_pairs_intersect_ragged", evaluated,
            time.perf_counter() - start,
        )
        return hits

    def rects_intersect_bulk(self, a, b):
        start = time.perf_counter()
        out = self.kernels.rects_intersect_bulk(a, b)
        self._record("rects_intersect_bulk", len(a),
                     time.perf_counter() - start)
        return out

    def min_edge_distance_ragged(self, table_a, table_b, rows_a, rows_b,
                                 reach, margin):
        """One call per proximity round; ``pairs`` counts edge pairs."""
        start = time.perf_counter()
        dist, evaluated = self.kernels.min_edge_distance_ragged(
            table_a, table_b, rows_a, rows_b, reach, margin
        )
        self._record(
            "min_edge_distance_ragged", evaluated,
            time.perf_counter() - start,
        )
        return dist

    def planesweep(self, poly1, poly2, counter=None,
                   restrict_search_space=True):
        start = time.perf_counter()
        out = self.kernels.planesweep(
            poly1, poly2, counter, restrict_search_space
        )
        self._record("planesweep", 1, time.perf_counter() - start)
        return out


def dispatcher_for(config_kernels: str,
                   stats=None) -> KernelDispatcher:
    """Dispatcher for a ``JoinConfig.kernels`` value."""
    return KernelDispatcher(get_kernels(config_kernels), stats)
