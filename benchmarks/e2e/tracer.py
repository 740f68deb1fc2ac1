"""Outside-in span recorder for the traced pass.

Nothing under ``src/`` knows about tracing.  The traced pass installs
wrappers around the *public* entry point of each layer (``LAYER_CALLS``
below), replays a workload's ops in this process, and records one span
per call: ``{name, start_ns, end_ns, parent, op_id}``.  Spans stay in
memory until the pass ends.  A span's self time is its duration minus
what its child spans cover; ``coverage`` is the share of the op spans
that named layer calls account for.

The replayed workloads are closed loops with one op in flight, so a
single open-span stack is enough even where a request hops threads
(service: event loop -> executor thread): spans still nest in time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Dict, Iterator, List, Tuple

#: (module, "attr" or "Class.attr", span name, how to wrap).  "call" is
#: a plain function or method; "drain" is a generator function whose
#: items are pulled inside the span and handed on as a list iterator
#: (the engines drain a block of up to 1024 candidates before filtering,
#: so for these workloads the order of work is unchanged); "async" is a
#: coroutine function.
LAYER_CALLS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.datasets.relations", "compute_approximation", "approximations.build", "call"),
    ("repro.datasets.relations", "SpatialRelation.build_rtree", "index.rtree_build", "call"),
    ("repro.datasets.columnar", "ColumnarRelation.approx", "datasets.columnar.approx_pack", "call"),
    ("repro.datasets.store", "RelationStore.load_relation", "datasets.store.load_relation", "call"),
    ("repro.engine.base", "rstar_join", "index.mbr_join", "drain"),
    ("repro.engine.batched", "BatchGeometricFilter.classify", "engine.filter", "call"),
    ("repro.exact.refine", "BatchedRefinement.resolve_batch", "exact.refine", "call"),
    ("repro.core.join", "SpatialJoinProcessor.join", "core.join", "call"),
    ("repro.core.proximity", "distance_join_pipeline", "core.proximity.distance_join", "drain"),
    ("repro.core.proximity", "knn_join_pipeline", "core.proximity.knn_join", "drain"),
    ("repro.core.partition", "GridPartitioner.plan", "core.partition.plan", "call"),
    ("repro.core.partition", "GridPartitioner.plan_proximity", "core.partition.plan", "call"),
    ("repro.core.parallel_exec", "run_columnar_tile_task", "core.parallel_exec.tile", "call"),
    ("repro.core.parallel_exec", "SharedRelationSegment.__init__", "core.parallel_exec.ship", "call"),
    ("repro.core.session", "JoinSession.join", "core.session.join", "call"),
    ("repro.core.window", "WindowQueryProcessor.window_query", "index.window_query", "call"),
    ("repro.service.core", "knn_query", "index.knn_query", "call"),
    ("repro.service.core", "JoinService.submit", "service.submit", "async"),
)


class Tracer:
    """In-memory spans of one traced replay."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._open: List[int] = []
        self._op_id = -1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append({
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "parent": self._open[-1] if self._open else None,
            "op_id": self._op_id,
        })
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index]["end_ns"] = time.perf_counter_ns()
            self._open.remove(index)

    def op(self, kind: str):
        """Root span of one op; every span inside shares its ``op_id``."""
        self._op_id += 1
        return self.span("op." + kind)

    # -- wrapper installation -----------------------------------------------

    def _wrapped(self, original, name: str, how: str):
        tracer = self
        if how == "async":
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return await original(*args, **kwargs)
        elif how == "drain":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return iter(list(original(*args, **kwargs)))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every layer call; restore the originals on exit."""
        saved = []
        try:
            for module_name, path, name, how in LAYER_CALLS:
                owner = importlib.import_module(module_name)
                *holders, attr = path.split(".")
                for holder in holders:
                    owner = getattr(owner, holder)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapped(original, name, how))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], float, int]:
        """Self nanoseconds per span name, total op nanoseconds, op count."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end_ns"] - span["start_ns"]
        by_name: Dict[str, float] = {}
        op_ns = ops = 0
        for index, span in enumerate(self.spans):
            duration = span["end_ns"] - span["start_ns"]
            name = span["name"]
            if name.startswith("op."):
                name = "(outside named layers)"
                op_ns += duration
                ops += 1
            by_name[name] = by_name.get(name, 0.0) + duration - covered[index]
        return by_name, op_ns, ops

    def summary(self) -> Dict[str, object]:
        by_name, op_ns, ops = self.self_times()
        outside = by_name.get("(outside named layers)", 0.0)
        return {
            "coverage": 1.0 - outside / op_ns if op_ns else 0.0,
            "ops": ops,
            "self_ms_per_op": {
                name: ns / 1e6 / ops for name, ns in sorted(by_name.items())
            },
        }
