"""Simulated CPU/I-O-parallel execution of partitioned spatial joins.

The last sentence of the paper: "since the fast execution of spatial
join processing is extremely important, another task is to consider
CPU- and I/O-parallelism in future work".  The partitioned join
(:mod:`repro.core.partition`) produces independently-joinable tiles;
this module adds the missing half — a **deterministic simulator** of
running those tiles on ``p`` processors:

* per-tile *cost* combines the tile's CPU work (weighted geometric
  operations, Table 6 constants) and its I/O work (object fetches at the
  §5 page-access cost);
* tiles are placed on processors by LPT (longest-processing-time-first)
  list scheduling — the standard 4/3-approximation for makespan;
* the simulator reports makespan, speedup, efficiency, and the work
  imbalance that limits the achievable speedup (the paper's skewed
  cartographic data makes perfect balance impossible).

No actual threads are used here: the point is the *model* (what speedup
the paper's architecture could reach).  Real wall-clock parallelism
lives in :mod:`repro.core.parallel_exec`; :func:`simulate_parallel_join`
bridges the two when called with ``measure=True``, reporting measured
process-pool speedups next to the modeled LPT makespans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..datasets.relations import SpatialRelation
from .costs import PAGE_ACCESS_SECONDS
from .join import JoinConfig
from .partition import PartitionedJoinResult, PartitionStats, partitioned_join


@dataclass(frozen=True)
class TileCost:
    """Simulated execution cost of one tile's local join."""

    tile: Tuple[int, int]
    cpu_seconds: float
    io_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.cpu_seconds + self.io_seconds


@dataclass
class ProcessorLoad:
    """Tiles scheduled onto one simulated processor."""

    processor: int
    tiles: List[TileCost] = field(default_factory=list)

    @property
    def busy_seconds(self) -> float:
        return sum(t.total_seconds for t in self.tiles)


@dataclass
class ParallelSimulation:
    """Outcome of simulating a partitioned join on ``p`` processors."""

    processors: List[ProcessorLoad]
    sequential_seconds: float

    @property
    def makespan_seconds(self) -> float:
        return max((p.busy_seconds for p in self.processors), default=0.0)

    @property
    def speedup(self) -> float:
        if self.makespan_seconds == 0:
            return 1.0
        return self.sequential_seconds / self.makespan_seconds

    @property
    def efficiency(self) -> float:
        if not self.processors:
            return 0.0
        return self.speedup / len(self.processors)

    @property
    def imbalance(self) -> float:
        """Max / mean processor load (1.0 = perfectly balanced)."""
        loads = [p.busy_seconds for p in self.processors if p.busy_seconds > 0]
        if not loads:
            return 1.0
        return max(loads) / (sum(loads) / len(loads))


def tile_costs(
    partitions: Sequence[PartitionStats],
    cpu_seconds_per_candidate: float = 1e-3,
    page_access_seconds: float = PAGE_ACCESS_SECONDS,
) -> List[TileCost]:
    """Cost model for the tiles of a partitioned join.

    CPU: candidates examined times the §5 per-candidate CPU constant
    (1 ms — the TR*-tree exact-test cost).  I/O: every object copy
    assigned to the tile is fetched once (one page access per object,
    the paper's cautious §5 assumption).
    """
    out = []
    for p in partitions:
        cpu = p.candidate_pairs * cpu_seconds_per_candidate
        io = (p.objects_a + p.objects_b) * page_access_seconds
        out.append(TileCost(tile=p.tile, cpu_seconds=cpu, io_seconds=io))
    return out


def schedule_lpt(costs: Sequence[TileCost], processors: int) -> ParallelSimulation:
    """LPT list scheduling of tiles onto ``processors`` machines."""
    if processors < 1:
        raise ValueError("need at least one processor")
    loads = [ProcessorLoad(processor=i) for i in range(processors)]
    for cost in sorted(costs, key=lambda c: c.total_seconds, reverse=True):
        target = min(loads, key=lambda l: l.busy_seconds)
        target.tiles.append(cost)
    sequential = sum(c.total_seconds for c in costs)
    return ParallelSimulation(processors=loads, sequential_seconds=sequential)


@dataclass(frozen=True)
class MeasuredRun:
    """One measured execution of the real multi-process tile executor."""

    workers: int
    wall_seconds: float
    #: wall-clock speedup relative to the measured workers=1 run.
    speedup: float


@dataclass
class ParallelJoinReport:
    """A partitioned join plus its parallel-execution simulation."""

    result: PartitionedJoinResult
    simulations: List[Tuple[int, ParallelSimulation]]
    #: real process-pool runs (populated by ``measure=True``); empty
    #: when only the deterministic model was requested.
    measured: List[MeasuredRun] = field(default_factory=list)

    def speedup_table(self) -> List[Tuple[int, float, Optional[float]]]:
        """``(workers, modeled speedup, measured speedup or None)`` rows."""
        measured_by_workers = {m.workers: m.speedup for m in self.measured}
        return [
            (p, sim.speedup, measured_by_workers.get(p))
            for p, sim in self.simulations
        ]


def measure_parallel_join(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    grid: Tuple[int, int] = (4, 4),
    worker_counts: Sequence[int] = (1, 2, 4),
    config: Optional[JoinConfig] = None,
) -> List[MeasuredRun]:
    """Run the real tile executor at each worker count and time it.

    The workers=1 wall clock is the baseline for the reported speedups
    (measured 1 is prepended when absent so a baseline always exists).
    Unlike the simulator, this measures this host's actual fork/pickle
    overheads — on tiny inputs the measured speedup can be < 1 even
    when the model predicts a gain.

    Approximations are built once per relation content, by whichever
    run touches a kind first; they are built here before any clock
    starts, so the workers=1 baseline does not carry a one-time cost
    the later runs are spared.
    """
    from .parallel_exec import parallel_partitioned_join

    for relation in (relation_a, relation_b):
        for kind in (config or JoinConfig()).approximation_kinds():
            relation.columnar().approx(kind)
    counts = list(worker_counts)
    if 1 not in counts:
        counts.insert(0, 1)
    walls = {}
    for workers in counts:
        start = time.perf_counter()
        parallel_partitioned_join(
            relation_a, relation_b, grid=grid, config=config, workers=workers
        )
        walls[workers] = time.perf_counter() - start
    baseline = walls[1]
    return [
        MeasuredRun(
            workers=w,
            wall_seconds=walls[w],
            speedup=baseline / walls[w] if walls[w] > 0 else 1.0,
        )
        for w in counts
    ]


def simulate_parallel_join(
    relation_a: SpatialRelation,
    relation_b: SpatialRelation,
    grid: Tuple[int, int] = (4, 4),
    processor_counts: Sequence[int] = (1, 2, 4, 8),
    config: Optional[JoinConfig] = None,
    engine: Optional[str] = None,
    measure: bool = False,
) -> ParallelJoinReport:
    """Partition, join, and simulate execution on each processor count.

    The returned report's join result is identical to the plain
    multi-step join (the partitioning is result-transparent); the
    simulations quantify §6's parallelism outlook under the §5 cost
    constants.  ``engine`` overrides the execution engine the simulated
    processors run for their tile-local joins (``"streaming"`` or
    ``"batched"``, see :mod:`repro.engine`); the tile decomposition and
    the simulated cost model are engine-independent.

    ``measure=True`` additionally runs the real multi-process executor
    (:mod:`repro.core.parallel_exec`) at every processor count and fills
    ``report.measured``, so :meth:`ParallelJoinReport.speedup_table`
    shows the modeled LPT makespan next to this host's wall clock.
    """
    config = config or JoinConfig()
    if engine is not None:
        config = replace(config, engine=engine)
    result = partitioned_join(relation_a, relation_b, grid=grid, config=config)
    costs = tile_costs(result.partitions)
    simulations = [(p, schedule_lpt(costs, p)) for p in processor_counts]
    measured: List[MeasuredRun] = []
    if measure:
        measured = measure_parallel_join(
            relation_a, relation_b, grid=grid,
            worker_counts=processor_counts, config=config,
        )
    return ParallelJoinReport(
        result=result, simulations=simulations, measured=measured
    )
