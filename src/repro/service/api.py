"""Request/response model of the join service.

A request names *what* to compute — a join, a window query, or a kNN
query over in-memory :class:`~repro.datasets.relations.SpatialRelation`
objects — and exposes a :meth:`cache_key`: the stable identity the
service's result cache and request coalescing key on.  For joins that
key is the triple

``(relation_a fingerprint, relation_b fingerprint, canonical config)``

— the relations' content digests
(:attr:`repro.datasets.columnar.ColumnarRelation.fingerprint`) plus
:meth:`repro.core.join.JoinConfig.fingerprint`, which strips the
execution-only fields (workers, session, kernels) that
can never change a response.  Two requests with equal cache keys are
guaranteed byte-identical responses, which is what makes caching and
coalescing semantics-free.

Responses are immutable value objects holding only deterministic data
(result pairs in serial order, the full Figure-1 statistics counters):
a cached response is indistinguishable from a fresh execution.  Wall
-clock measurements live in the service telemetry, never in responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..core.join import JoinConfig
from ..core.stats import MultiStepStats
from ..datasets.relations import SpatialRelation
from ..geometry.rectangle import Rect

#: one result pair on the wire: ``(oid_a, oid_b)``.
IdPair = Tuple[int, int]


class ServiceError(RuntimeError):
    """Base class of service-level failures; carries an HTTP-ish status."""

    status = 500


class ServiceClosedError(ServiceError):
    """The service has been closed; no further requests are accepted."""

    status = 503


class ServiceOverloadedError(ServiceError):
    """Admission control rejected the request (bounded queue full).

    The 429-style backpressure signal: the caller should retry later
    (or against another replica) — nothing was queued or executed.
    """

    status = 429


class ServiceTimeoutError(ServiceError):
    """The per-request timeout elapsed before the execution finished.

    Only the *wait* is abandoned: the underlying execution keeps
    running so coalesced waiters (and the result cache) still get the
    response.
    """

    status = 504


class BadRequestError(ServiceError):
    """A malformed request (unknown op, missing field, bad value)."""

    status = 400


def stats_to_dict(stats: MultiStepStats) -> Dict[str, object]:
    """Every Figure-1 counter as a flat, JSON-able dict.

    Deterministic for a given (relations, canonical config) — the
    differential suite compares these dicts against the serial oracle's
    verbatim.
    """
    return {
        "candidate_pairs": stats.candidate_pairs,
        "filter_false_hits": stats.filter_false_hits,
        "filter_hits_progressive": stats.filter_hits_progressive,
        "filter_hits_false_area": stats.filter_hits_false_area,
        "remaining_candidates": stats.remaining_candidates,
        "exact_hits": stats.exact_hits,
        "exact_false_hits": stats.exact_false_hits,
        "conservative_tests": stats.conservative_tests,
        "progressive_tests": stats.progressive_tests,
        "false_area_tests": stats.false_area_tests,
        "refine_batches": stats.refine_batches,
        "refine_batch_pairs": stats.refine_batch_pairs,
        "refine_fallback_pairs": stats.refine_fallback_pairs,
        "mbr_tests": stats.mbr_join.mbr_tests,
        "mbr_node_pairs": stats.mbr_join.node_pairs,
        "mbr_output_pairs": stats.mbr_join.output_pairs,
    }


@dataclass(frozen=True, eq=False)
class JoinRequest:
    """One multi-step join of two in-memory relations.

    ``config`` carries the full :class:`JoinConfig` — including
    execution-only knobs like ``workers``, which affect *how* the
    service runs the join but are stripped from :meth:`cache_key`, so
    e.g. a 1-worker and a 4-worker request for the same join coalesce
    onto one execution and share one cached response.
    """

    relation_a: SpatialRelation
    relation_b: SpatialRelation
    config: JoinConfig = field(default_factory=JoinConfig)

    def cache_key(self) -> Tuple:
        return (
            "join",
            self.relation_a.columnar().fingerprint,
            self.relation_b.columnar().fingerprint,
            self.config.fingerprint(),
        )


@dataclass(frozen=True, eq=False)
class WindowRequest:
    """A window (or point, when the rect is degenerate) query."""

    relation: SpatialRelation
    window: Rect

    def cache_key(self) -> Tuple:
        w = self.window
        return (
            "window",
            self.relation.columnar().fingerprint,
            (w.xmin, w.ymin, w.xmax, w.ymax),
        )


@dataclass(frozen=True, eq=False)
class KnnRequest:
    """The k nearest objects to a query point."""

    relation: SpatialRelation
    point: Tuple[float, float]
    k: int

    def cache_key(self) -> Tuple:
        return (
            "knn",
            self.relation.columnar().fingerprint,
            (float(self.point[0]), float(self.point[1])),
            int(self.k),
        )


@dataclass(frozen=True)
class JoinResponse:
    """Deterministic join result: serial-order pairs + full statistics."""

    op: str
    id_pairs: Tuple[IdPair, ...]
    stats: Tuple[Tuple[str, object], ...]

    @property
    def pair_count(self) -> int:
        return len(self.id_pairs)

    def stats_dict(self) -> Dict[str, object]:
        return thaw_stats(self.stats)

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "pairs": [list(pair) for pair in self.id_pairs],
            "pair_count": self.pair_count,
            "stats": self.stats_dict(),
        }


@dataclass(frozen=True)
class WindowResponse:
    """Window/point query result: matching oids + step counters."""

    op: str
    oids: Tuple[int, ...]
    candidates: int
    filter_hits: int
    exact_tests: int

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "oids": list(self.oids),
            "candidates": self.candidates,
            "filter_hits": self.filter_hits,
            "exact_tests": self.exact_tests,
        }


@dataclass(frozen=True)
class KnnResponse:
    """kNN query result: ``(oid, mindist)`` in ascending distance."""

    op: str
    neighbours: Tuple[Tuple[int, float], ...]

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "neighbours": [[oid, dist] for oid, dist in self.neighbours],
        }


def freeze_stats(stats: MultiStepStats) -> Tuple[Tuple[str, object], ...]:
    """Immutable form of :func:`stats_to_dict` for frozen responses."""
    return tuple(stats_to_dict(stats).items())


def thaw_stats(frozen: Tuple[Tuple[str, object], ...]) -> Dict[str, object]:
    """Inverse of :func:`freeze_stats`."""
    return dict(frozen)
