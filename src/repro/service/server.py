"""A thin JSON-over-TCP endpoint in front of :class:`JoinService`.

Wire protocol: newline-delimited JSON, one request object per line, one
response object per line, over a plain TCP connection — trivially
driven from any language (or ``nc``), no HTTP dependency.  Requests
name relations by WKT file path; the server loads each path once and
caches the relation (keyed by resolved path), so repeated requests pay
neither the parse nor — thanks to the session segment cache underneath
— the geometry re-ship.  With a persistent store configured
(``serve --store-dir``), relations can instead be named by content
fingerprint — ``"store:<fingerprint>"`` — which skips WKT entirely:
the relation is materialised from the store's mmap pages, and a
``warm`` op pre-populates every session's segment cache straight from
those pages (:meth:`JoinService.warm_sessions`).

Request shapes::

    {"op": "join", "relation_a": "a.wkt", "relation_b": "b.wkt",
     "predicate": "intersects", "engine": "batched", "workers": 2,
     "grid": [4, 4], "partitioner": "grid", "exact": "vectorized", ...}
    {"op": "join", "relation_a": "a.wkt", "relation_b": "b.wkt",
     "predicate": "distance", "epsilon": 0.05}     # or "knn" with "k"
    {"op": "join", ..., "kernels": "c"}            # execution-only
    {"op": "join", "relation_a": "store:<fp>",
     "relation_b": "store:<fp>"}                   # by fingerprint
    {"op": "window", "relation": "a.wkt",
     "window": [xmin, ymin, xmax, ymax]}
    {"op": "knn", "relation": "a.wkt", "point": [x, y], "k": 5}
    {"op": "warm"}                                  # or {"fingerprints": [...]}
    {"op": "telemetry"}

Responses carry ``{"status": "ok", ...payload...}`` or
``{"status": "error", "code": <http-ish status>, "error": "..."}`` —
429 for admission-control rejections, 504 for per-request timeouts,
400 for malformed requests; in-flight requests on other connections
are never affected by one connection's failure.

Start it from the CLI::

    python -m repro serve --port 8765 --sessions 2 --workers 2
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from ..core.filters import FilterConfig
from ..core.join import JoinConfig
from ..datasets.io import load_relation
from ..datasets.relations import SpatialRelation
from ..datasets.store import StoreError
from ..geometry.rectangle import Rect
from .api import (
    BadRequestError,
    JoinRequest,
    KnnRequest,
    ServiceError,
    WindowRequest,
)
from .core import JoinService

#: bytes one socket read asks for.  asyncio's selector transport
#: receives into a fresh ``max_size`` buffer (256 KiB) per read; above
#: glibc's mmap threshold (128 KiB until a larger free raises it) that
#: is an mmap, page faults and an munmap per request line.  Request lines are far shorter; a longer one just
#: takes several reads.
_RECV_BYTES = 16 * 1024

#: request fields accepted by the "join" op and their JoinConfig names.
_JOIN_FIELDS = {
    "predicate": "predicate",
    "epsilon": "epsilon",
    "k": "k",
    "engine": "engine",
    "exact": "exact_method",
    "batch_size": "batch_size",
    "exact_batch": "exact_batch",
    "workers": "workers",
    "partitioner": "partitioner",
    "target_tasks": "target_tasks",
    "kernels": "kernels",
}


def _join_config_from_payload(payload: Dict, base: JoinConfig) -> JoinConfig:
    """Build the request's JoinConfig from JSON fields over ``base``.

    Unknown keys are rejected (a typoed field silently falling back to
    the default would be a debugging trap); value validation is
    JoinConfig's own ``__post_init__``.
    """
    known = set(_JOIN_FIELDS) | {
        "op", "relation_a", "relation_b", "grid", "conservative",
        "progressive",
    }
    unknown = set(payload) - known
    if unknown:
        raise BadRequestError(f"unknown join fields: {sorted(unknown)}")
    kwargs = {
        config_field: payload[wire_field]
        for wire_field, config_field in _JOIN_FIELDS.items()
        if wire_field in payload
    }
    if "grid" in payload:
        grid = payload["grid"]
        if not isinstance(grid, (list, tuple)):
            raise BadRequestError(f"grid must be [nx, ny], got {grid!r}")
        kwargs["grid"] = tuple(grid)
    if "conservative" in payload or "progressive" in payload:
        kwargs["filter"] = FilterConfig(
            conservative=payload.get("conservative", base.filter.conservative),
            progressive=payload.get("progressive", base.filter.progressive),
        )
    try:
        return replace(base, **kwargs)
    except (ValueError, TypeError) as exc:
        raise BadRequestError(str(exc)) from exc


def _finite_numbers(value, count: int, expected: str) -> Tuple[float, ...]:
    """``count`` finite floats from a JSON list, else a 400 ``expected``.

    JSON admits ``NaN`` and ``Infinity``; a non-finite window or point
    would silently match nothing.
    """
    if isinstance(value, (list, tuple)) and len(value) == count:
        try:
            numbers = tuple(float(v) for v in value)
        except (TypeError, ValueError):
            numbers = ()
        if len(numbers) == count and all(map(math.isfinite, numbers)):
            return numbers
    raise BadRequestError(f"{expected} (finite numbers), got {value!r}")


class JoinServiceServer:
    """Asyncio TCP server bridging JSON lines to a :class:`JoinService`."""

    def __init__(
        self,
        service: JoinService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: resolved path -> loaded relation (fingerprint-stable thanks
        #: to the repr-faithful WKT round-trip).
        self._relations: Dict[str, SpatialRelation] = {}
        self._connections: set = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # Ephemeral port 0 resolves on bind; republish the real one.
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Pre-3.12 wait_closed() does not wait for connection handlers;
        # cancel any idling in readline() and reap them explicitly.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self.service.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- request handling ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        if hasattr(writer.transport, "max_size"):
            writer.transport.max_size = _RECV_BYTES
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._handle_line(line)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown while this connection idled in readline();
            # finish quietly so the streams protocol doesn't log it.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _handle_line(self, line: bytes) -> Dict:
        try:
            request = self._parse(line)
            if isinstance(request, dict):  # control op, no execution
                op = request["op"]
                if op == "telemetry":
                    return self._telemetry_response()
                return await self._warm_response(request)
            response = await self.service.submit(request)
        except ServiceError as exc:
            return {"status": "error", "code": exc.status, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — report, keep serving
            return {"status": "error", "code": 500, "error": repr(exc)}
        payload = response.to_jsonable()
        payload["status"] = "ok"
        return payload

    def _telemetry_response(self) -> Dict:
        """The status endpoint's payload: service counters plus the
        pool-wide session stats (segment cache and store-load counters)
        and, when configured, a summary of the backing store."""
        store = self.service.store
        return {
            "status": "ok",
            "op": "telemetry",
            "telemetry": self.service.telemetry.to_dict(),
            "queue_depth": self.service.queue_depth,
            "cached_results": self.service.cached_results,
            "sessions": self.service.session_stats(),
            "store": (
                None
                if store is None
                else {
                    "dir": str(store.directory),
                    "entries": len(store),
                }
            ),
        }

    async def _warm_response(self, payload: Dict) -> Dict:
        """``{"op": "warm"}``: warm every session from the store.

        Optional ``fingerprints`` restricts the warm set.  Runs on the
        default executor so large page streams never stall the event
        loop (sessions serialise internally, so warming a session that
        is mid-join simply waits its turn).
        """
        fingerprints = payload.get("fingerprints")
        if fingerprints is not None and (
            not isinstance(fingerprints, list)
            or not all(isinstance(f, str) for f in fingerprints)
        ):
            raise BadRequestError(
                f"fingerprints must be a list of strings, "
                f"got {fingerprints!r}"
            )
        unknown = set(payload) - {"op", "fingerprints"}
        if unknown:
            raise BadRequestError(f"unknown warm fields: {sorted(unknown)}")
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None, self.service.warm_sessions, fingerprints
        )
        return {"status": "ok", "op": "warm", **report}

    def _parse(self, line: bytes):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BadRequestError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequestError("request must be a JSON object")
        op = payload.get("op")
        if op in ("telemetry", "warm"):
            return payload
        if op == "join":
            config = _join_config_from_payload(payload, self.service.config)
            return JoinRequest(
                relation_a=self._relation(payload, "relation_a"),
                relation_b=self._relation(payload, "relation_b"),
                config=config,
            )
        if op == "window":
            window = _finite_numbers(payload.get("window"), 4,
                                     "window must be [xmin, ymin, xmax, ymax]")
            try:
                rect = Rect(*window)
            except ValueError as exc:  # xmin > xmax or ymin > ymax
                raise BadRequestError(str(exc)) from exc
            return WindowRequest(
                relation=self._relation(payload, "relation"),
                window=rect,
            )
        if op == "knn":
            point = _finite_numbers(payload.get("point"), 2,
                                    "point must be [x, y]")
            if "k" in payload and not isinstance(payload["k"], int):
                raise BadRequestError(f"k must be an integer, got "
                                      f"{payload['k']!r}")
            return KnnRequest(
                relation=self._relation(payload, "relation"),
                point=point,
                k=payload.get("k", 5),
            )
        raise BadRequestError(
            f"unknown op {op!r}; expected join, window, knn, warm or "
            "telemetry"
        )

    def _relation(self, payload: Dict, key: str) -> SpatialRelation:
        path = payload.get(key)
        if not isinstance(path, str) or not path:
            raise BadRequestError(f"missing relation path field {key!r}")
        if path.startswith("store:"):
            return self._store_relation(path)
        resolved = str(Path(path).resolve())
        relation = self._relations.get(resolved)
        if relation is None:
            try:
                relation = load_relation(resolved)
            except (OSError, ValueError) as exc:
                raise BadRequestError(
                    f"cannot load relation {path!r}: {exc}"
                ) from exc
            self._relations[resolved] = relation
        return relation

    def _store_relation(self, ref: str) -> SpatialRelation:
        """Resolve a ``store:<fingerprint>`` reference — no WKT at all.

        The relation is materialised once from the store's pages
        (:meth:`~repro.datasets.store.RelationStore.load_relation`, its
        columnar representation pre-seeded from disk) and cached under
        the reference string; with the sessions warmed from the same
        store, a join by fingerprint ships zero geometry bytes anywhere
        on the request path.
        """
        relation = self._relations.get(ref)
        if relation is None:
            store = self.service.store
            if store is None:
                raise BadRequestError(
                    f"relation reference {ref!r} needs a store; start the "
                    "server with --store-dir"
                )
            try:
                relation = store.load_relation(ref[len("store:"):])
            except StoreError as exc:
                raise BadRequestError(
                    f"cannot load relation {ref!r}: {exc}"
                ) from exc
            self._relations[ref] = relation
        return relation


async def run_server(
    service: JoinService, host: str, port: int,
    ready: Optional[Callable[["JoinServiceServer"], None]] = None,
) -> None:
    """Start a server and serve until cancelled or signalled.

    On the main thread, SIGINT and SIGTERM stop the server the same
    way, whatever disposition the process inherited (a SIGINT inherited
    as ignored would otherwise leave no way to stop it but SIGKILL):
    the server and its service close, the sessions unlink their shared
    segments, and the call returns normally.
    """
    server = JoinServiceServer(service, host=host, port=port)
    await server.start()
    if ready is not None:
        ready(server)
    serving = asyncio.ensure_future(server.serve_forever())
    loop = asyncio.get_running_loop()
    signals = (
        (signal.SIGINT, signal.SIGTERM)
        if threading.current_thread() is threading.main_thread()
        else ()
    )
    for signum in signals:
        loop.add_signal_handler(signum, serving.cancel)
    try:
        await serving
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
        for signum in signals:
            loop.remove_signal_handler(signum)
