"""Async join service: a concurrent serving front-end over sessions.

The paper's multi-step join became a serving runtime in PR 5/6
(:class:`~repro.core.session.JoinSession`: persistent worker pools,
fingerprint-keyed shared-segment cache, pluggable
partitioners) — but a session runs one join at a time for
one caller.  This package is the ROADMAP's "millions of users" layer:
a long-lived asyncio service that multiplexes many concurrent
join/window/kNN requests onto a small pool of sessions, with

* a fingerprint-keyed **result cache** (both relations' content
  digests + the canonicalized :class:`~repro.core.join.JoinConfig`)
  layered on top of the per-session segment cache,
* **request coalescing** — identical in-flight requests share one
  execution,
* **admission control** — a bounded pending queue with 429-style
  rejection and per-request timeouts,
* full telemetry (:class:`~repro.service.core.ServiceTelemetry`).

Layers, front to back::

    JSON lines over TCP        repro.service.server.JoinServiceServer
      -> awaitable requests    repro.service.core.JoinService
        -> thread executor     one thread per session, checkout queue
          -> join sessions     repro.core.session.JoinSession
            -> process pool    repro.core.parallel_exec

Responses are byte-identical to serial joins — the concurrent
differential suite (``tests/test_service.py``) runs mixed concurrent
clients against the serial oracle and asserts identical pairs and
statistics, exactly-once execution for coalesced duplicates, and clean
rejection under overload.  ``python -m repro serve`` starts the
endpoint; ``benchmarks/bench_service.py`` measures throughput/latency
at 1/8/32 concurrent clients (report:
``benchmarks/reports/service.txt``).
"""

from .core import JoinService
from .server import run_server

__all__ = ["JoinService", "run_server"]
