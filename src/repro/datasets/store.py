"""Persistent columnar relation store: mmap warm starts across processes.

:class:`~repro.datasets.columnar.ColumnarRelation` packs a relation's
geometry into numpy columns once per process — and dies with it.  The
serving runtime's warm-join wins (PR 5's fingerprint-keyed segment
cache) therefore never survive a restart: a rebooted server re-parses
WKT, re-packs ring columns object by object, and re-digests the
fingerprint before the first byte reaches shared memory.

:class:`RelationStore` moves that work to disk, once.  ``save()``
writes a relation's packed columns as raw little-endian page files
under a content-addressed directory::

    <store_dir>/<fingerprint>/
        manifest.json     dtype/shape/nbytes per column + format version
        oids.bin          int64[n]          ring column  \\
        object_rings.bin  int64[n + 1]      ring column   | the shared
        ring_offsets.bin  int64[n_rings+1]  ring column   | segment payload
        ring_xy.bin       float64[n_pts,2]  ring column  /
        mbrs.bin          float64[n, 4]     object MBRs
        areas.bin         float64[n]        exact object areas

and ``load()`` maps them back with ``np.memmap`` — no parsing, no
packing, bytes touched only on access.  The four ring pages are laid
out exactly like one shared-memory segment's interior
(:class:`repro.core.parallel_exec.SegmentLayout`), so a restarted
:class:`~repro.core.session.JoinSession` can warm its segment cache by
streaming the page files straight into shared memory
(:meth:`JoinSession.warm_from_store`, one ``readinto`` per page) without
ever materialising Python geometry.

The directory name, the manifest, and the page bytes are all keyed by
the relation's content fingerprint
(:func:`repro.datasets.columnar.ring_fingerprint`), which makes the
store idempotent (re-saving identical content is a no-op), restart
-stable (the same relation packs to the same fingerprint in any
process — ``tests/test_store.py`` proves it via a subprocess), and
verifiable (:meth:`StoredRelation.verify` re-digests the pages).
Corrupted manifests and truncated pages raise
:class:`StoreCorruptionError` at load time — a clean error, never a
wrong join result.

Approximation sidecars
----------------------
The paper stores approximations with the index entry; here they are
additive sidecar pages beside the relation's::

    <store_dir>/<fingerprint>/approx/<kind>/
        manifest.json     kind, family, algorithm_version, page specs, digest
        vx.bin vy.bin     float64[n, W]  padded vertex rows   (convex kinds)
        counts.bin        int64[n]       true vertex counts   (convex kinds)
        circles.bin       float64[n, 3]  cx, cy, r            (circle kinds)
        mbrs.bin          float64[n, 4]  approximation MBRs
        false_areas.bin   float64[n]     area(appr) - area(object)

— the stored form defined once by
:class:`repro.approximations.batch.ApproxColumns`.  They are published
lazily: ``save()`` writes the kinds the relation's columnar store has
*already packed* and never builds one; a loaded relation whose
:meth:`ColumnarRelation.approx` has to build a kind publishes it
(:meth:`StoredRelation.publish_approx` — same scratch directory +
``os.replace`` as the relation itself, skipped silently when the
directory is not writable; concurrent publishers serialise on an
advisory lock of the relation directory and converge on identical
bytes, and a current sidecar is never deleted).  Every later load installs what it finds
(:meth:`ColumnarRelation.from_stored`), so an approximation is computed
at most once per (relation content, kind) across processes.  The main
manifest, ``STORE_FORMAT_VERSION`` and :attr:`StoredRelation.nbytes`
know nothing of sidecars: a store without them stays valid.  A sidecar
whose ``algorithm_version`` is not the current one of its kind
(:func:`repro.approximations.factory.algorithm_version`) is ignored and
replaced by the next build; any structural defect is a
:class:`StoreCorruptionError` at load, and :meth:`StoredRelation.verify`
re-digests sidecar pages too.

``python -m repro store pack/ls/rm`` manages a store from the CLI;
``join --store-dir`` and the service's ``store_dir`` config resolve
``store:<fingerprint>`` relation references through one, skipping WKT
entirely.  ``benchmarks/bench_store.py`` gates the point of it all:
cold-session warm-up from the store must beat re-packing from Python
objects by >= 3x.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..approximations.batch import STORED_COLUMNS, ApproxColumns, stored_family
from ..approximations.factory import algorithm_version
from .columnar import ColumnarRelation, RingColumns, ring_fingerprint, unpack_polygon
from .relations import SpatialObject, SpatialRelation

#: bump when the page layout or manifest schema changes incompatibly.
STORE_FORMAT_VERSION = 1

_MANIFEST = "manifest.json"

#: subdirectory of a stored relation holding one directory per kind.
_APPROX_DIR = "approx"

#: the four ring columns, in shared-segment layout order.
RING_COLUMNS = ("oids", "object_rings", "ring_offsets", "ring_xy")

#: every page the store writes, with its manifest dtype.
_COLUMN_DTYPES = {
    "oids": "<i8",
    "object_rings": "<i8",
    "ring_offsets": "<i8",
    "ring_xy": "<f8",
    "mbrs": "<f8",
    "areas": "<f8",
}


class StoreError(RuntimeError):
    """Base class of persistent-store failures."""


class StoreMissError(StoreError, KeyError):
    """The requested fingerprint is not in the store."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return RuntimeError.__str__(self)


class StoreCorruptionError(StoreError):
    """A manifest or page failed validation (clean error, never bad data)."""


class PageFile(NamedTuple):
    """One column page on disk: what the session's warm loader streams."""

    column: str
    path: Path
    nbytes: int
    dtype: str
    shape: Tuple[int, ...]


def _page_file(directory: Path, name: str, spec: Dict) -> PageFile:
    """Descriptor of one page from its (validated) manifest entry."""
    return PageFile(
        column=name,
        path=directory / spec["file"],
        nbytes=spec["nbytes"],
        dtype=spec["dtype"],
        shape=tuple(spec["shape"]),
    )


def _page_specs(pages: Dict[str, np.ndarray]) -> Dict[str, Dict]:
    """Manifest entry of each page: file, dtype, shape, nbytes."""
    return {
        name: {
            "file": f"{name}.bin",
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "nbytes": array.nbytes,
        }
        for name, array in pages.items()
    }


def _publish(final: Path, pages: Dict[str, np.ndarray], manifest: Dict) -> None:
    """Write pages + manifest to a scratch directory, rename it to ``final``.

    Readers never observe a half-written page set.  Losing the rename
    to a concurrent publisher of the same content is success: its
    pages are byte-identical by construction.
    """
    scratch = final.parent / (
        f".{final.name}.tmp.{os.getpid()}.{threading.get_ident()}"
    )
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    try:
        for name, array in pages.items():
            array.tofile(scratch / f"{name}.bin")
        (scratch / _MANIFEST).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        try:
            os.replace(scratch, final)
        except OSError:
            if not (final / _MANIFEST).exists():
                raise
    finally:
        if scratch.exists():
            shutil.rmtree(scratch, ignore_errors=True)


@contextmanager
def _exclusive(directory: Path) -> Iterator[None]:
    """Hold an advisory lock on ``directory`` (no lock file is left behind).

    Serialises the publishers that may *replace* something inside it;
    readers never take it.  Released when the process dies.
    """
    handle = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield
    finally:
        os.close(handle)


def _check_page(where: str, name: str, spec, dtype: str, shape: List[int],
                directory: Path) -> None:
    """One page's manifest entry and file size against what must hold."""
    if not isinstance(spec, dict) or not {
        "file", "dtype", "shape", "nbytes"
    } <= set(spec):
        raise StoreCorruptionError(
            f"manifest of {where}: column {name!r} is missing or incomplete"
        )
    if spec["dtype"] != dtype:
        raise StoreCorruptionError(
            f"manifest of {where}: column {name!r} has dtype "
            f"{spec['dtype']!r}, expected {dtype!r}"
        )
    if list(spec["shape"]) != shape:
        raise StoreCorruptionError(
            f"manifest of {where}: column {name!r} shape {spec['shape']} "
            f"disagrees with the manifest counts (expected {shape})"
        )
    expected = int(np.prod(spec["shape"])) * np.dtype(dtype).itemsize
    if expected != spec["nbytes"]:
        raise StoreCorruptionError(
            f"manifest of {where}: column {name!r} shape {spec['shape']} "
            f"disagrees with nbytes {spec['nbytes']}"
        )
    path = directory / spec["file"]
    try:
        actual = path.stat().st_size
    except OSError as exc:
        raise StoreCorruptionError(
            f"page {path} of {where} is missing: {exc}"
        ) from exc
    if actual != spec["nbytes"]:
        raise StoreCorruptionError(
            f"page {path} of {where} is "
            f"{'truncated' if actual < spec['nbytes'] else 'oversized'}"
            f": {actual} bytes on disk, manifest says {spec['nbytes']}"
        )


def _map_page(page: "PageFile") -> np.ndarray:
    """Read-only memmap view of one page (an empty page maps to nothing)."""
    if page.nbytes == 0:
        return np.empty(page.shape, dtype=np.dtype(page.dtype))
    try:
        return np.memmap(
            page.path, dtype=np.dtype(page.dtype), mode="r", shape=page.shape
        )
    except (OSError, ValueError) as exc:
        raise StoreCorruptionError(
            f"cannot map page {page.path}: {exc}"
        ) from exc


def approx_digest(columns: ApproxColumns) -> str:
    """Blake2b digest over one kind's stored columns, in page order."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(columns.kind.encode("utf-8"))
    digest.update(len(columns).to_bytes(8, "little"))
    for array in columns.arrays.values():
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class StoredRelation:
    """One stored relation's pages, mapped lazily with ``np.memmap``.

    Column properties return read-only memmap views: creating a
    :class:`StoredRelation` touches only the manifest and the page
    *sizes*; page bytes fault in on access.  :meth:`to_relation`
    materialises live :class:`SpatialObject` geometry plus a
    pre-seeded :class:`ColumnarRelation` (fingerprint and every packed
    column taken from the pages — zero re-packing).
    """

    def __init__(self, directory: Path, manifest: Dict):
        self.directory = Path(directory)
        self.manifest = manifest
        self.fingerprint: str = manifest["fingerprint"]
        self.name: str = manifest["relation"]
        self.n_objects: int = manifest["n_objects"]
        self.n_rings: int = manifest["n_rings"]
        self.n_points: int = manifest["n_points"]
        self._maps: Dict[str, np.ndarray] = {}

    def column(self, name: str) -> np.ndarray:
        """Read-only memmap view of one column page."""
        view = self._maps.get(name)
        if view is None:
            view = self._maps[name] = _map_page(self.page(name))
        return view

    def page(self, name: str) -> PageFile:
        """Descriptor of one column page (validated against the manifest)."""
        spec = self.manifest["columns"].get(name)
        if spec is None:
            raise StoreCorruptionError(
                f"manifest of {self.fingerprint} has no column {name!r}"
            )
        return _page_file(self.directory, name, spec)

    def ring_pages(self) -> List[PageFile]:
        """The four ring pages in shared-segment layout order."""
        return [self.page(name) for name in RING_COLUMNS]

    @property
    def rings(self) -> RingColumns:
        """The packed ring geometry as memmap-backed columns."""
        return RingColumns(*(self.column(name) for name in RING_COLUMNS))

    @property
    def mbrs(self) -> np.ndarray:
        return self.column("mbrs")

    @property
    def areas(self) -> np.ndarray:
        return self.column("areas")

    @property
    def nbytes(self) -> int:
        """Total page bytes on disk (manifest excluded)."""
        return sum(
            spec["nbytes"] for spec in self.manifest["columns"].values()
        )

    def verify(self) -> None:
        """Re-digest the ring pages against the manifest fingerprint.

        Raises :class:`StoreCorruptionError` on mismatch — the
        belt-and-braces check for callers that must not trust disk
        (loading only validates sizes, cheaply).  Approximation
        sidecars are re-digested against their own manifests too.
        """
        actual = ring_fingerprint(self.name, self.n_objects, self.rings)
        if actual != self.fingerprint:
            raise StoreCorruptionError(
                f"page digest {actual} does not match stored fingerprint "
                f"{self.fingerprint} (corrupted or tampered pages)"
            )
        for kind in self.approx_kinds():
            columns = self.load_approx(kind)
            if columns is None:
                continue
            actual = approx_digest(columns)
            expected = self._approx_manifest(kind)["digest"]
            if actual != expected:
                raise StoreCorruptionError(
                    f"{kind} approximation pages of {self.fingerprint} "
                    f"digest to {actual}, manifest says {expected} "
                    "(corrupted or tampered pages)"
                )

    # -- approximation sidecars ---------------------------------------------

    def _approx_dir(self, kind: str) -> Path:
        return self.directory / _APPROX_DIR / kind

    def approx_kinds(self) -> List[str]:
        """Kinds with a published sidecar, sorted."""
        root = self.directory / _APPROX_DIR
        if not root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in root.iterdir()
            if not entry.name.startswith(".")
            and (entry / _MANIFEST).exists()
        )

    def _approx_manifest(self, kind: str) -> Optional[Dict]:
        """The validated sidecar manifest of ``kind``.

        ``None`` when no sidecar is published or it was built by
        another version of the kind's algorithm (the caller rebuilds
        and replaces it); :class:`StoreCorruptionError` for everything
        structurally wrong — never a silently wrong filter decision.
        """
        directory = self._approx_dir(kind)
        path = directory / _MANIFEST
        family = stored_family(kind)
        if family is None:
            return None
        where = f"{kind} approximations of {self.fingerprint}"
        try:
            manifest = json.loads(path.read_text())
        except FileNotFoundError:
            return None  # not published (or a stale one just moved aside)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreCorruptionError(
                f"unreadable manifest {path}: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise StoreCorruptionError(
                f"manifest of {where} is not a JSON object"
            )
        for key in ("format_version", "kind", "family", "algorithm_version",
                    "fingerprint", "n_objects", "digest", "columns"):
            if key not in manifest:
                raise StoreCorruptionError(
                    f"manifest of {where} is missing {key!r}"
                )
        expected = {
            "format_version": STORE_FORMAT_VERSION,
            "kind": kind,
            "family": family,
            "fingerprint": self.fingerprint,
            "n_objects": self.n_objects,
        }
        for key, value in expected.items():
            if manifest[key] != value:
                raise StoreCorruptionError(
                    f"manifest of {where}: {key} is {manifest[key]!r}, "
                    f"expected {value!r}"
                )
        if manifest["algorithm_version"] != algorithm_version(kind):
            return None
        columns = manifest["columns"]
        if not isinstance(columns, dict):
            raise StoreCorruptionError(
                f"manifest of {where}: 'columns' is not an object"
            )
        n = self.n_objects
        shapes = {"counts": [n], "mbrs": [n, 4], "false_areas": [n],
                  "circles": [n, 3]}
        if family == "convex":
            # The padded width is the one extent the counts do not fix;
            # both vertex pages must agree on it.
            try:
                width = int(columns["vx"]["shape"][1])
            except (KeyError, IndexError, TypeError, ValueError):
                raise StoreCorruptionError(
                    f"manifest of {where}: column 'vx' is missing or "
                    "incomplete"
                ) from None
            if width < 1:
                raise StoreCorruptionError(
                    f"manifest of {where}: vertex row width {width} < 1"
                )
            shapes["vx"] = shapes["vy"] = [n, width]
        for name in STORED_COLUMNS[family]:
            _check_page(
                where, name, columns.get(name),
                "<i8" if name == "counts" else "<f8", shapes[name], directory,
            )
        return manifest

    def approx_pages(self, kind: str) -> Optional[List[PageFile]]:
        """Validated page descriptors of one sidecar, in stored order.

        What the session's warm loader streams into shared memory;
        ``None`` when there is nothing current to load.
        """
        manifest = self._approx_manifest(kind)
        if manifest is None:
            return None
        directory = self._approx_dir(kind)
        return [
            _page_file(directory, name, manifest["columns"][name])
            for name in STORED_COLUMNS[manifest["family"]]
        ]

    def load_approx(self, kind: str) -> Optional[ApproxColumns]:
        """One kind's stored columns as memmap-backed arrays, if published."""
        pages = self.approx_pages(kind)
        if pages is None:
            return None
        return ApproxColumns(
            kind, {page.column: np.asarray(_map_page(page)) for page in pages}
        )

    def publish_approx(self, columns: ApproxColumns) -> bool:
        """Persist one kind's freshly built columns beside the ring pages.

        Returns True when this call published them.  A sidecar of the
        current algorithm version that is already there wins (its bytes
        are identical by construction) and is never deleted; a stale
        one is replaced, under a lock that serialises publishers so
        the directory removed is the one that was read as stale.  A
        store that cannot be written (read-only directory, full disk)
        is skipped silently — the caller has its columns either way.
        """
        kind = columns.kind
        final = self._approx_dir(kind)
        try:
            if self._approx_manifest(kind) is not None:
                return False
            pages = {
                name: np.ascontiguousarray(array)
                for name, array in columns.arrays.items()
            }
            manifest = {
                "format_version": STORE_FORMAT_VERSION,
                "kind": kind,
                "family": columns.family,
                "algorithm_version": algorithm_version(kind),
                "fingerprint": self.fingerprint,
                "n_objects": self.n_objects,
                "digest": approx_digest(columns),
                "columns": _page_specs(pages),
            }
            with _exclusive(self.directory):
                # Publishers are serialised from here on, so what the
                # re-read sees is what gets replaced: a sidecar another
                # publisher landed since the first look is current and
                # wins; only one read as stale *under the lock* is
                # moved aside (readers of a stale manifest return before
                # they touch its pages) and deleted.
                if self._approx_manifest(kind) is not None:
                    return False
                if final.exists():
                    aside = final.parent / (
                        f".{final.name}.stale.{os.getpid()}."
                        f"{threading.get_ident()}"
                    )
                    os.replace(final, aside)
                    shutil.rmtree(aside, ignore_errors=True)
                _publish(final, pages, manifest)
        except OSError:
            return False
        return True

    def to_relation(self) -> SpatialRelation:
        """Materialise the relation with a pre-seeded columnar store.

        Polygons are rebuilt bit-identically from the ring pages
        (:func:`~repro.datasets.columnar.unpack_polygon`, the same
        reconstruction the shared-memory workers use) and the
        relation's :meth:`~SpatialRelation.columnar` cache is installed
        up front via :meth:`ColumnarRelation.from_stored` — fingerprint,
        MBR/area columns, and ring columns all come from the pages, so
        no packing kernel and no digest runs on load.  Every published
        approximation sidecar is installed as well and seeds the
        objects' approximation caches: a loaded relation computes no
        approximation of a stored kind.
        """
        rings = self.rings
        objects = [
            SpatialObject(int(rings.oids[i]), unpack_polygon(rings, i))
            for i in range(self.n_objects)
        ]
        relation = SpatialRelation(self.name, [])
        relation.objects = objects
        relation._columnar = ColumnarRelation.from_stored(
            relation,
            mbrs=self.mbrs,
            areas=self.areas,
            rings=rings,
            fingerprint=self.fingerprint,
            approx_store=self,
        )
        return relation

    def __repr__(self) -> str:
        return (
            f"StoredRelation({self.name!r}, fingerprint={self.fingerprint}, "
            f"objects={self.n_objects}, nbytes={self.nbytes})"
        )


class RelationStore:
    """A directory of content-addressed relation page sets.

    Safe to share between processes that only ``save`` and ``load``:
    saves write into a scratch directory and publish with an atomic
    rename, so readers never observe a half-written page set, and two
    concurrent saves of the same content converge on identical bytes.
    (``remove`` racing a ``load`` of the same fingerprint is the
    caller's coordination problem, as with any file store.)
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- writing ------------------------------------------------------------

    def save(
        self, relation: Union[SpatialRelation, ColumnarRelation]
    ) -> str:
        """Persist the relation's packed columns; returns its fingerprint.

        Idempotent: content already in the store is left untouched (the
        fingerprint *is* the content identity).  Accepts a
        :class:`SpatialRelation` (its cached columnar store is used) or
        a :class:`ColumnarRelation` directly.  Approximation kinds the
        columnar store holds in memory are published as sidecars.
        """
        columnar = (
            relation.columnar()
            if isinstance(relation, SpatialRelation)
            else relation
        )
        fingerprint = columnar.fingerprint
        final = self.directory / fingerprint
        if not (final / _MANIFEST).exists():
            rings = columnar.rings
            pages = {
                "oids": np.ascontiguousarray(rings.oids, dtype=np.int64),
                "object_rings": np.ascontiguousarray(
                    rings.object_rings, dtype=np.int64
                ),
                "ring_offsets": np.ascontiguousarray(
                    rings.ring_offsets, dtype=np.int64
                ),
                "ring_xy": np.ascontiguousarray(
                    rings.ring_xy, dtype=np.float64
                ),
                "mbrs": np.ascontiguousarray(columnar.mbrs, dtype=np.float64),
                "areas": np.ascontiguousarray(
                    columnar.areas, dtype=np.float64
                ),
            }
            manifest = {
                "format_version": STORE_FORMAT_VERSION,
                "fingerprint": fingerprint,
                "relation": columnar.name,
                "n_objects": len(columnar),
                "n_rings": len(rings.ring_offsets) - 1,
                "n_points": len(rings.ring_xy),
                "columns": _page_specs(pages),
            }
            _publish(final, pages, manifest)
        # Approximation columns the relation has already packed go
        # along as sidecars; nothing is ever built here.
        packed = [
            columnar.approx(kind).columns()
            for kind in columnar.packed_kinds()
            if stored_family(kind) is not None
        ]
        if packed:
            stored = self.load(fingerprint)
            for columns in packed:
                stored.publish_approx(columns)
        return fingerprint

    # -- reading ------------------------------------------------------------

    def load(self, fingerprint: str) -> StoredRelation:
        """Open one stored relation (manifest + page sizes validated).

        Raises :class:`StoreMissError` for an unknown fingerprint and
        :class:`StoreCorruptionError` for anything structurally wrong —
        unparsable or incomplete manifests, unsupported format
        versions, missing or truncated pages, in the relation's own
        page set or in any approximation sidecar.  Page *contents* are not
        digested here (that would read every byte and defeat the mmap
        warm start); :meth:`StoredRelation.verify` does it on demand.
        """
        directory = self.directory / fingerprint
        manifest_path = directory / _MANIFEST
        if not manifest_path.exists():
            raise StoreMissError(
                f"fingerprint {fingerprint!r} is not in store "
                f"{self.directory}"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreCorruptionError(
                f"unreadable manifest {manifest_path}: {exc}"
            ) from exc
        self._validate(fingerprint, directory, manifest)
        stored = StoredRelation(directory, manifest)
        for kind in stored.approx_kinds():
            stored.approx_pages(kind)  # sidecar defects fail here too
        return stored

    def load_relation(self, fingerprint: str) -> SpatialRelation:
        """Load and materialise (see :meth:`StoredRelation.to_relation`)."""
        return self.load(fingerprint).to_relation()

    def _validate(
        self, fingerprint: str, directory: Path, manifest
    ) -> None:
        if not isinstance(manifest, dict):
            raise StoreCorruptionError(
                f"manifest of {fingerprint} is not a JSON object"
            )
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise StoreCorruptionError(
                f"store format version {version!r} of {fingerprint} is not "
                f"supported (expected {STORE_FORMAT_VERSION})"
            )
        for key in ("fingerprint", "relation", "n_objects", "n_rings",
                    "n_points", "columns"):
            if key not in manifest:
                raise StoreCorruptionError(
                    f"manifest of {fingerprint} is missing {key!r}"
                )
        if manifest["fingerprint"] != fingerprint:
            raise StoreCorruptionError(
                f"manifest fingerprint {manifest['fingerprint']!r} does not "
                f"match directory {fingerprint!r}"
            )
        for key in ("n_objects", "n_rings", "n_points"):
            count = manifest[key]
            if not isinstance(count, int) or isinstance(count, bool) \
                    or count < 0:
                raise StoreCorruptionError(
                    f"manifest of {fingerprint}: {key} must be a "
                    f"non-negative integer, got {count!r}"
                )
        columns = manifest["columns"]
        if not isinstance(columns, dict):
            raise StoreCorruptionError(
                f"manifest of {fingerprint}: 'columns' is not an object"
            )
        n = manifest["n_objects"]
        n_rings = manifest["n_rings"]
        n_points = manifest["n_points"]
        # Every page extent is fixed by the three counts; the session
        # warm loader streams pages into shared-segment slices sized
        # from the same counts, so shape drift must fail here.
        expected_shapes = {
            "oids": [n],
            "object_rings": [n + 1],
            "ring_offsets": [n_rings + 1],
            "ring_xy": [n_points, 2],
            "mbrs": [n, 4],
            "areas": [n],
        }
        for name, dtype in _COLUMN_DTYPES.items():
            _check_page(
                fingerprint, name, columns.get(name), dtype,
                expected_shapes[name], directory,
            )

    # -- management ---------------------------------------------------------

    def fingerprints(self) -> List[str]:
        """Stored fingerprints, sorted (scratch directories excluded)."""
        if not self.directory.exists():
            return []
        return sorted(
            entry.name
            for entry in self.directory.iterdir()
            if entry.is_dir()
            and not entry.name.startswith(".")
            and (entry / _MANIFEST).exists()
        )

    def __contains__(self, fingerprint: str) -> bool:
        return (self.directory / str(fingerprint) / _MANIFEST).exists()

    def __iter__(self) -> Iterator[str]:
        return iter(self.fingerprints())

    def __len__(self) -> int:
        return len(self.fingerprints())

    def remove(self, fingerprint: str) -> bool:
        """Delete one stored relation; True when something was removed."""
        directory = self.directory / fingerprint
        if not directory.is_dir():
            return False
        shutil.rmtree(directory)
        return True

    def __repr__(self) -> str:
        return f"RelationStore({str(self.directory)!r}, entries={len(self)})"
