"""Kernel backend registry for the filter/refine hot paths and the
stored-approximation builders.

The joins spend their kernel time in a handful of bulk geometry
kernels (``fastops``): for the filter, row-wise MBR tests and one
separating-axis test per filter step over the relations' padded vertex
columns (``convex_intersect_rows``); for the exact step one ragged
edge-pair kernel per refinement batch over the relations' edge tables
(``edge_pairs_intersect_ragged``) and one bulk point-in-polygon call;
and for the proximity predicates one ragged edge-distance kernel per
round of pending pairs (``min_edge_distance_ragged``), capped by a
per-pair reach.  The stored approximations the filter reads are built
by three more kernels over the rows of an edge table: m-corners
(``m_corners_ragged``), MER (``enclosed_rects_ragged``) and MEC
(``enclosed_circles_ragged``); one polygon is a one-row table
(:func:`~repro.geometry.fastops.polygon_edge_table`).
This module makes the *execution substrate* of those kernels pluggable
behind an unchanged interface — ``JoinConfig(kernels=...)`` selects a
backend per join, builds use :func:`default_backend`, and both backends
decide every predicate identically and build bit-identical
approximations (the numpy kernels are the differential oracle):

``"numpy"``
    The vectorised oracle kernels from :mod:`repro.geometry.fastops`,
    and the Python/numpy builders of :mod:`repro.approximations`
    (``mcorner``, ``mer``, ``mec``) run row by row.  Always available.
``"c"``
    The compiled form of the oracle's four per-batch loops (ragged edge
    pairs, ragged edge distance, points in polygons, convex rows) and of
    the three builders: ``_ckernels.c`` runs each pair, point or row
    through the expressions the oracle evaluates, in the same order;
    the row-wise rectangle test is the numpy oracle's.
    Requesting it when the library cannot be built or loaded raises a
    clear ``ValueError``.
``"auto"``
    ``"c"`` when the library loads, else ``"numpy"`` (with one logged
    warning quoting why the build or load failed).

**Build and cache.**  The C library is built on first use with the
interpreter's own compiler (``sysconfig``'s ``CC``) and
``-O2 -std=c99 -fPIC -shared -ffp-contract=off``: no fused multiply-add
and no fast-math, so every float expression rounds exactly as in the
oracle.  It is cached as
``__pycache__/_ckernels-<hash>-<platform>.so`` next to the source (or
in the system temp directory where that is not writable), named by a
hash of the C source, the flags and the platform, so an edited source
builds afresh and a stale library is never loaded.  A build writes a
temp file and ``os.replace``-s it into place, so concurrent builds
never load a torn file; a cached file that fails its appended digest
(truncated, say) or does not load is rebuilt.  It is loaded with
:mod:`ctypes`.

Loading is lazy and warmed explicitly: :func:`warm_up` runs every
kernel of a backend once on tiny inputs.  Worker pools call it in the
parent before forking, so workers inherit a loaded library and never
race the compiler, and again from each worker's initializer (see
``repro.core.session``).

:class:`KernelDispatcher` wraps a backend for the engine layers: it
forwards each kernel call and records per-backend call/pair/seconds
telemetry into ``MultiStepStats.kernel_*`` when bound to a stats
object.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import fastops as _fastops

#: valid values of ``JoinConfig.kernels``.
KERNEL_BACKENDS = ("auto", "numpy", "c")

#: Always False.  The JIT backend this flag described was replaced by
#: ``"c"``; the name stays only because the end-to-end benchmark's
#: harness (``benchmarks/e2e/run.py``) reports it among its host facts.
NUMBA_AVAILABLE = False

#: kernels a backend provides (the dispatcher mirrors the first five;
#: builds call the last three directly).
#: The exact step calls one kernel per batch or round, never per pair:
#: ``edge_pairs_intersect_ragged`` for intersects, ``min_edge_distance_ragged``
#: for the proximity predicates.  The filter calls
#: ``convex_intersect_rows`` once per filter step, on the two relations'
#: stored vertex columns and the step's row indices (rows in
#: ``[0, len(vx))``; the compiled backend raises ``IndexError``
#: outside it).  The per-pair building
#: block that no hot path calls through a backend
#: (``fastops.edge_matrix_intersect_any``) and the reach heuristic
#: ``fastops.vertex_distance_bounds`` are plain functions, not kernels;
#: so is ``fastops.segments_intersect_bulk``, which ``fastops`` calls
#: directly.  The builders take an edge table (and, for m-corners and
#: MER, its ``object_rings`` / ``ring_offsets`` ring columns, which
#: index the table's edges) and return every row's approximation:
#: ``m_corners_ragged`` ``(vx, vy, counts)`` vertex buffers of ``m``
#: columns, ``enclosed_rects_ragged`` ``(n, 4)`` rectangles,
#: ``enclosed_circles_ragged`` ``(n, 3)`` circles.
KERNEL_NAMES = (
    "points_in_polygons_bulk",
    "edge_pairs_intersect_ragged",
    "rects_intersect_bulk",
    "min_edge_distance_ragged",
    "convex_intersect_rows",
    "m_corners_ragged",
    "enclosed_rects_ragged",
    "enclosed_circles_ragged",
)

_NO_MBRS = np.empty((0, 4), dtype=np.float64)


class KernelSet:
    """One backend's kernel functions (see :data:`KERNEL_NAMES`)."""

    __slots__ = ("name",) + KERNEL_NAMES

    def __init__(self, name: str, **kernels: Callable):
        self.name = name
        for kernel_name in KERNEL_NAMES:
            setattr(self, kernel_name, kernels[kernel_name])


def default_backend() -> str:
    """Default kernel backend: the ``REPRO_KERNELS`` env var or 'auto'.

    The default of ``JoinConfig.kernels`` and the backend every
    approximation build uses.  The env override lets CI (and local
    runs) force every default config and build in a test run onto one
    backend — e.g. run the differential suites once with
    ``REPRO_KERNELS=numpy`` and once with ``REPRO_KERNELS=c`` — without
    touching any call site.  Backends are execution-only, so the
    override can never change results, stored columns or cache
    fingerprints.
    """
    return os.environ.get("REPRO_KERNELS", "auto")


def resolve_backend(name: str = "auto") -> str:
    """Resolve a requested backend to a concrete one (never ``"auto"``)."""
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; valid: {KERNEL_BACKENDS}"
        )
    if name == "auto":
        return _auto_backend()
    if name == "c":
        library, error = _c_library()
        if library is None:
            raise ValueError(
                "kernels='c' requested but the C kernels could not be "
                f"built or loaded ({error}); use kernels='auto' (falls "
                "back to numpy)"
            )
    return name


@functools.lru_cache(maxsize=None)
def _auto_backend() -> str:
    library, error = _c_library()
    if library is None:
        import logging  # only the fallback warning needs it

        logging.getLogger(__name__).warning(
            "C kernels unavailable, kernels='auto' falls back to numpy: %s",
            error,
        )
        return "numpy"
    return "c"


_SETS: Dict[str, KernelSet] = {}


def get_kernels(name: str = "auto") -> KernelSet:
    """The (cached) :class:`KernelSet` of the resolved backend."""
    backend = resolve_backend(name)
    kernel_set = _SETS.get(backend)
    if kernel_set is None:
        kernel_set = _SET_FACTORIES[backend]()
        _SETS[backend] = kernel_set
    return kernel_set


def builder_kernels() -> KernelSet:
    """The kernel set approximation builds run on (:func:`default_backend`)."""
    return get_kernels(default_backend())


# ---------------------------------------------------------------------------
# The C library: build, cache, load
# ---------------------------------------------------------------------------

_C_SOURCE = Path(__file__).with_name("_ckernels.c")
#: never -ffast-math or -march=native: -ffp-contract=off keeps every
#: float expression rounding exactly as in the numpy oracle.
_C_FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")


class _CompileError(Exception):
    """The compiler could not be run, or rejected the source."""


def _cache_dirs() -> Tuple[Path, ...]:
    """Where the built library may live, in order of preference."""
    return (_C_SOURCE.parent / "__pycache__", Path(tempfile.gettempdir()))


def _library_name() -> str:
    """File name of the built library: a hash of source, flags, platform."""
    tag = f"{sys.platform}-{os.uname().machine}"
    digest = hashlib.sha256(
        _C_SOURCE.read_bytes() + " ".join((*_C_FLAGS, tag)).encode()
    ).hexdigest()[:16]
    return f"_ckernels-{digest}-{tag}.so"


@functools.lru_cache(maxsize=None)
def _c_library() -> Tuple[Optional[ctypes.CDLL], str]:
    """The loaded C kernels and ``""``, or ``None`` and why not.

    Loads the cached library of this source, building it first where
    it is missing or does not load.  Runs once per process; forked
    workers inherit the result.
    """
    name = _library_name()
    error = "no writable cache directory"
    for directory in _cache_dirs():
        path = directory / name
        library = _open_library(path)
        if library is not None:
            return library, ""
        try:
            _build_library(path)
        except _CompileError as exc:
            return None, str(exc)
        except OSError as exc:
            error = f"cannot write {directory}: {exc}"
            continue
        library = _open_library(path)
        if library is not None:
            return library, ""
        error = f"{path} was built but does not load"
    return None, error


def _build_library(path: Path) -> None:
    """Compile the C source to ``path``, atomically.

    Raises :class:`_CompileError` when the compiler is missing or fails
    (its last stderr line is the message) and ``OSError`` when
    ``path``'s directory is not writable.
    """
    # Only a compile needs these; a cached library loads without them.
    import logging
    import shlex
    import subprocess
    import sysconfig

    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp = tempfile.mkstemp(
        prefix=f"{path.name}.", suffix=".tmp", dir=path.parent
    )
    os.close(handle)
    try:
        try:
            done = subprocess.run(
                [*compiler, *_C_FLAGS, "-o", temp, str(_C_SOURCE), "-lm"],
                capture_output=True, text=True,
            )
        except OSError as exc:
            raise _CompileError(f"{compiler[0]}: {exc}") from exc
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines()
            raise _CompileError(
                lines[-1] if lines
                else f"{compiler[0]} exited with status {done.returncode}"
            )
        digest = hashlib.sha256(Path(temp).read_bytes()).digest()
        with open(temp, "ab") as built:
            built.write(digest)
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.unlink(temp)
    logging.getLogger(__name__).debug("built the C kernels into %s", path)


def _open_library(path: Path) -> Optional[ctypes.CDLL]:
    """The library at ``path`` with its signatures declared, or ``None``.

    A build appends the SHA-256 of the library to it (loaders ignore
    trailing bytes).  A file whose digest does not match, a truncated
    one say, is never handed to the loader: it would map the missing
    pages and fault on the first call.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return None
    if hashlib.sha256(data[:-32]).digest() != data[-32:]:
        return None
    try:
        library = ctypes.CDLL(str(path))
    except OSError:
        return None
    count, pointer = ctypes.c_int64, ctypes.c_void_p
    signatures = {
        "ck_edge_pairs_ragged": (count, 3, 11),
        "ck_edge_distance_ragged": (count, 3, 13),
        "ck_points_in_polygons": (None, 3, 10),
        "ck_convex_rows": (None, 3, 7),
        "ck_m_corners": (count, 3, 6),
        "ck_enclosed_rects": (count, 2, 6),
        "ck_enclosed_circles": (count, 2, 4),
    }
    for name, (restype, n_counts, n_pointers) in signatures.items():
        function = getattr(library, name)
        function.restype = restype
        function.argtypes = (count,) * n_counts + (pointer,) * n_pointers
    return library


# ---------------------------------------------------------------------------
# Backend construction
# ---------------------------------------------------------------------------


def _numpy_convex_rows(avx, avy, rows_a, bvx, bvy, rows_b):
    """Gather the rows, then the oracle's separating-axis test."""
    return _fastops.convex_intersect_bulk(
        avx[rows_a], avy[rows_a], bvx[rows_b], bvy[rows_b]
    )


def _build_numpy_set() -> KernelSet:
    # The builders' oracles live with their approximations, which import
    # this module: imported here, once both are loaded.
    from ..approximations.mcorner import m_corner_rows
    from ..approximations.mec import enclosed_circles
    from ..approximations.mer import enclosed_rect_rows

    return KernelSet(
        "numpy",
        points_in_polygons_bulk=_fastops.points_in_polygons_bulk,
        edge_pairs_intersect_ragged=_fastops.edge_pairs_intersect_ragged,
        rects_intersect_bulk=_fastops.rects_intersect_bulk,
        min_edge_distance_ragged=_fastops.min_edge_distance_ragged,
        convex_intersect_rows=_numpy_convex_rows,
        m_corners_ragged=m_corner_rows,
        enclosed_rects_ragged=enclosed_rect_rows,
        enclosed_circles_ragged=enclosed_circles,
    )


def _column(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _index(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _pointers(arrays) -> List[int]:
    """Data pointers of ``arrays``; the caller keeps the arrays alive."""
    return [a.ctypes.data for a in arrays]


def _edge_count(evaluated: int) -> int:
    if evaluated < 0:
        raise MemoryError("C kernel could not allocate its kept-edge list")
    return evaluated


# The C kernels index raw buffers, so every shape and index they rely on
# is checked here first: a bad argument raises like the numpy oracle
# would, instead of reading out of bounds.


def _c_table(table, with_bounds: bool) -> List[np.ndarray]:
    """``table``'s coords, boxes, offsets (and bounds), checked."""
    arrays = [_column(table.coords), _column(table.boxes),
              _index(table.offsets)]
    coords, boxes, offsets = arrays
    n_objects = len(offsets) - 1
    if with_bounds:
        arrays.append(_column(table.bounds))
    if not (
        coords.ndim == 2 and len(coords) == 4 and boxes.shape == coords.shape
        and n_objects >= 0 and offsets.min() >= 0
        and offsets.max() <= coords.shape[1]
        and (not with_bounds or arrays[3].shape == (n_objects, 4))
    ):
        raise ValueError("malformed edge table")
    return arrays


def _c_index(values, size: int, n: int) -> np.ndarray:
    """``n`` int64 indices, each in ``range(size)``."""
    values = _index(values)
    if values.shape != (n,):
        raise ValueError(f"expected {n} indices, got shape {values.shape}")
    if n and (values.min() < 0 or values.max() >= size):
        raise IndexError(f"index out of range(0, {size})")
    return values


def _c_builder_table(table, object_rings=None,
                     ring_offsets=None) -> List[np.ndarray]:
    """``table``'s coords, offsets and mbrs (and ring columns), checked.

    Every row needs an edge, and where rings are given, each row's
    rings must tile its edges with a non-empty shell first.
    """
    arrays = [_column(table.coords), _index(table.offsets),
              _column(table.mbrs)]
    coords, offsets, mbrs = arrays
    n_rows = len(offsets) - 1
    ok = (
        coords.ndim == 2 and len(coords) == 4 and n_rows >= 0
        and mbrs.shape == (n_rows, 4)
        and (n_rows == 0 or (
            offsets[0] >= 0 and offsets[-1] <= coords.shape[1]
            and bool(np.all(np.diff(offsets) > 0))
        ))
    )
    if ok and object_rings is not None:
        object_rings, ring_offsets = _index(object_rings), _index(ring_offsets)
        arrays += [object_rings, ring_offsets]
        ok = (
            object_rings.shape == (n_rows + 1,) and len(ring_offsets) >= 1
            and (n_rows == 0 or (
                object_rings[0] >= 0
                and object_rings[-1] < len(ring_offsets)
                and bool(np.all(np.diff(object_rings) > 0))
                and bool(np.all(np.diff(ring_offsets) >= 0))
                and np.array_equal(ring_offsets[object_rings], offsets)
                and bool(np.all(ring_offsets[object_rings[:-1] + 1]
                                > offsets[:-1]))
            ))
        )
    if not ok:
        raise ValueError("malformed edge table or ring columns")
    return arrays


def _built(status: int) -> None:
    if status < 0:
        raise MemoryError("C kernel could not allocate its workspace")


def _convex_rows_args(avx, avy, rows_a, bvx, bvy, rows_b) -> Tuple:
    """The checked, contiguous arguments of ``convex_intersect_rows``."""
    n = len(rows_a)
    sides = []
    for vx, vy, rows in ((avx, avy, rows_a), (bvx, bvy, rows_b)):
        vx, vy = _column(vx), _column(vy)
        if vx.ndim != 2 or vy.shape != vx.shape:
            raise ValueError(
                f"vertex matrices must share one 2-D shape, got "
                f"{vx.shape} and {vy.shape}"
            )
        sides += [vx, vy, _c_index(rows, len(vx), n)]
    return tuple(sides)


def _c_rows(values, shape: Tuple[int, ...]) -> np.ndarray:
    values = _column(values)
    if values.shape != shape:
        raise ValueError(f"expected shape {shape}, got {values.shape}")
    return values


def _build_c_set() -> KernelSet:
    """The C kernels, adapted to the oracle kernels' signatures."""
    library = _c_library()[0]
    oracle = get_kernels("numpy")
    edge_pairs = library.ck_edge_pairs_ragged
    edge_dist = library.ck_edge_distance_ragged
    pts_in_poly = library.ck_points_in_polygons
    sat_rows = library.ck_convex_rows
    corners = library.ck_m_corners
    rects = library.ck_enclosed_rects
    circles = library.ck_enclosed_circles

    def points_in_polygons_bulk(px, py, qidx, ex1, ey1, ex2, ey2, mbrs=None):
        k = len(px)
        n_edges = len(qidx)
        inside = np.zeros(k, dtype=np.bool_)
        arrays = (
            _c_rows(px, (k,)), _c_rows(py, (k,)), _c_index(qidx, k, n_edges),
            *(_c_rows(e, (n_edges,)) for e in (ex1, ey1, ex2, ey2)),
            _NO_MBRS if mbrs is None else _c_rows(mbrs, (k, 4)),
            inside, np.zeros(k, dtype=np.bool_),
        )
        pts_in_poly(k, n_edges, mbrs is not None, *_pointers(arrays))
        return inside

    def edge_pairs_intersect_ragged(table_a, table_b, rows_a, rows_b,
                                    clip, margin):
        n = len(rows_a)
        hits = np.zeros(n, dtype=np.bool_)
        side_a = _c_table(table_a, False)
        side_b = _c_table(table_b, False)
        arrays = (
            *side_a, *side_b,
            _c_index(rows_a, len(side_a[2]) - 1, n),
            _c_index(rows_b, len(side_b[2]) - 1, n),
            _c_rows(clip, (n, 4)), _c_rows(margin, (n,)), hits,
        )
        evaluated = edge_pairs(
            n, side_a[0].shape[1], side_b[0].shape[1], *_pointers(arrays)
        )
        return hits, _edge_count(evaluated)

    def min_edge_distance_ragged(table_a, table_b, rows_a, rows_b,
                                 reach, margin):
        n = len(rows_a)
        dist = np.empty(n, dtype=np.float64)
        side_a = _c_table(table_a, True)
        side_b = _c_table(table_b, True)
        arrays = (
            *side_a, *side_b,
            _c_index(rows_a, len(side_a[2]) - 1, n),
            _c_index(rows_b, len(side_b[2]) - 1, n),
            _c_rows(reach, (n,)), _c_rows(margin, (n,)), dist,
        )
        evaluated = edge_dist(
            n, side_a[0].shape[1], side_b[0].shape[1], *_pointers(arrays)
        )
        return dist, _edge_count(evaluated)

    def convex_intersect_rows(avx, avy, rows_a, bvx, bvy, rows_b):
        args = _convex_rows_args(avx, avy, rows_a, bvx, bvy, rows_b)
        n = len(args[2])
        out = np.zeros(n, dtype=np.bool_)
        sat_rows(n, args[0].shape[1], args[3].shape[1],
                 *_pointers((*args, out)))
        return out

    def m_corners_ragged(table, object_rings, ring_offsets, m):
        if m < 3:
            raise ValueError(f"m-corner needs m >= 3, got {m}")
        coords, offsets, _, object_rings, ring_offsets = _c_builder_table(
            table, object_rings, ring_offsets
        )
        n = len(offsets) - 1
        vx, vy = np.zeros((n, m)), np.zeros((n, m))
        counts = np.zeros(n, dtype=np.int64)
        _built(corners(
            n, coords.shape[1], m,
            *_pointers((coords, object_rings, ring_offsets, vx, vy, counts)),
        ))
        return vx, vy, counts

    def enclosed_rects_ragged(table, object_rings, ring_offsets):
        arrays = _c_builder_table(table, object_rings, ring_offsets)
        coords, offsets, mbrs, object_rings, ring_offsets = arrays
        n = len(offsets) - 1
        out = np.zeros((n, 4))
        _built(rects(
            n, coords.shape[1],
            *_pointers((coords, offsets, object_rings, ring_offsets, mbrs,
                        out)),
        ))
        return out

    def enclosed_circles_ragged(table):
        coords, offsets, mbrs = _c_builder_table(table)
        n = len(offsets) - 1
        out = np.zeros((n, 3))
        _built(circles(
            n, coords.shape[1], *_pointers((coords, offsets, mbrs, out))
        ))
        return out

    return KernelSet(
        "c",
        points_in_polygons_bulk=points_in_polygons_bulk,
        edge_pairs_intersect_ragged=edge_pairs_intersect_ragged,
        rects_intersect_bulk=oracle.rects_intersect_bulk,
        min_edge_distance_ragged=min_edge_distance_ragged,
        convex_intersect_rows=convex_intersect_rows,
        m_corners_ragged=m_corners_ragged,
        enclosed_rects_ragged=enclosed_rects_ragged,
        enclosed_circles_ragged=enclosed_circles_ragged,
    )


_SET_FACTORIES: Dict[str, Callable[[], KernelSet]] = {
    "numpy": _build_numpy_set,
    "c": _build_c_set,
}


# ---------------------------------------------------------------------------
# Warm-up (load the backend before any join or tile needs it)
# ---------------------------------------------------------------------------

_WARM_EVENTS: List[str] = []


def warm_events() -> Tuple[str, ...]:
    """Backends warmed in this process, in order (for regression tests)."""
    return tuple(_WARM_EVENTS)


def warm_up(name: str = "auto") -> str:
    """Run every kernel of the backend once on tiny inputs.

    For the C backend this builds (once per source hash) and loads the
    library, so later joins and tiles in the process, and processes
    forked from it, run compiled code immediately.  Returns the
    resolved backend name and records the event for
    :func:`warm_events`.
    """
    backend = resolve_backend(name)
    kernels = get_kernels(backend)
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
    square_x = np.array([[0.0, 1.0, 1.0, 0.0, 0.0]])
    square_y = np.array([[0.0, 0.0, 1.0, 1.0, 0.0]])
    kernels.convex_intersect_rows(square_x, square_y, one, square_x,
                                  square_y, one)
    rings = (np.array([0, 1]), np.array([0, 4]))
    kernels.m_corners_ragged(table, *rings, 3)
    kernels.enclosed_rects_ragged(table, *rings)
    kernels.enclosed_circles_ragged(table)
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

    def convex_intersect_rows(self, avx, avy, rows_a, bvx, bvy, rows_b):
        """One call per filter step; ``pairs`` counts row pairs."""
        start = time.perf_counter()
        out = self.kernels.convex_intersect_rows(
            avx, avy, rows_a, bvx, bvy, rows_b
        )
        self._record("convex_intersect_rows", len(out),
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


def dispatcher_for(config_kernels: str,
                   stats=None) -> KernelDispatcher:
    """Dispatcher for a ``JoinConfig.kernels`` value."""
    return KernelDispatcher(get_kernels(config_kernels), stats)
