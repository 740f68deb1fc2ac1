"""Support utilities for the benchmark harness (not a bench module)."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.testseries import TestSeries, canonical_series
from repro.geometry.fastops import polygons_intersect_fast
from repro.index.join import nested_loops_mbr_join


@dataclass(frozen=True)
class ScaleProfile:
    """Benchmark scale: None sizes mean paper-sized relations."""

    name: str
    europe_size: Optional[int]
    bw_size: Optional[int]
    #: object count for the large I/O experiments (paper: 130,000).
    io_objects: int
    #: sampled pairs for the per-pair §4.3 measurements.
    exact_sample: int


def scale_profile() -> ScaleProfile:
    if os.environ.get("REPRO_BENCH_SCALE", "full") == "quick":
        return ScaleProfile(
            "quick", europe_size=160, bw_size=60, io_objects=2000, exact_sample=16
        )
    return ScaleProfile(
        "full", europe_size=None, bw_size=None, io_objects=8000, exact_sample=40
    )


def get_series(name: str, scale: ScaleProfile) -> TestSeries:
    size = scale.europe_size if name.startswith("Europe") else scale.bw_size
    return canonical_series(name, size=size)


def classified_candidates(
    series: TestSeries,
) -> List[Tuple[object, object, bool]]:
    """All MBR-intersecting pairs with exact ground truth (hit or not)."""
    out = []
    for obj_a, obj_b in nested_loops_mbr_join(
        series.relation_a.mbr_items(), series.relation_b.mbr_items()
    ):
        hit = polygons_intersect_fast(obj_a.polygon, obj_b.polygon)
        out.append((obj_a, obj_b, hit))
    return out


def candidate_rows(series: TestSeries) -> np.ndarray:
    """``(n, 2)`` row pairs of all MBR-intersecting pairs.

    Nested-loops order, the order of :func:`classified_candidates`; row
    ``i`` is ``relation.objects[i]``, the currency of the batched filter
    and the exact step.
    """
    items = [
        [(obj.mbr, row) for row, obj in enumerate(relation)]
        for relation in (series.relation_a, series.relation_b)
    ]
    pairs = list(nested_loops_mbr_join(*items))
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


class BenchReport:
    """Collects paper-style tables, prints them and writes report files."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.directory.mkdir(exist_ok=True)
        self._tables: Dict[str, str] = {}

    def table(self, experiment_id: str, title: str, lines: List[str]) -> None:
        body = "\n".join([f"== {experiment_id}: {title} =="] + lines)
        self._tables[experiment_id] = body
        print("\n" + body)
        path = self.directory / f"{experiment_id.replace(' ', '_').lower()}.txt"
        path.write_text(body + "\n")

    def json_artifact(self, name: str, payload: Dict) -> Path:
        """Write the machine-readable ``BENCH_<name>.json`` artifact.

        The standard envelope every bench module shares (the text
        tables are for humans; CI and trend tooling consume these):
        the benchmark's payload dict plus the scale it ran at.
        ``name`` is the short benchmark id (``store``, ``kernels``, …).
        """
        document = {"benchmark": name, "scale": scale_profile().name}
        document.update(payload)
        path = self.directory / f"BENCH_{name}.json"
        path.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {path}")
        return path

    def flush_summary(self) -> None:
        if not self._tables:
            return
        summary = "\n\n".join(
            self._tables[k] for k in sorted(self._tables)
        )
        (self.directory / "ALL_RESULTS.txt").write_text(summary + "\n")


def fmt_row(cells: List[object], widths: List[int]) -> str:
    out = []
    for cell, width in zip(cells, widths):
        text = f"{cell:.1f}" if isinstance(cell, float) else str(cell)
        out.append(text.rjust(width))
    return "  ".join(out)
