"""Construction of approximations by kind name.

The benchmark harness sweeps over approximation kinds by their paper
names ("MBR", "RMBR", "4-C", "5-C", "CH", "MBC", "MBE", "MEC", "MER");
:func:`compute_approximation` maps a name to the right constructor.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..geometry.polygon import Polygon
from .base import Approximation
from .hull import ConvexHullApproximation
from .mbc import MBCApproximation
from .mbe import MBEApproximation
from .mbr import MBRApproximation
from .mcorner import MCornerApproximation
from .mec import MECApproximation
from .mer import MERApproximation
from .rmbr import RMBRApproximation

#: conservative kinds in increasing accuracy order (paper Figure 4).
CONSERVATIVE_KINDS = ("MBR", "MBC", "MBE", "RMBR", "4-C", "5-C", "CH")
#: progressive kinds (paper §3.3).
PROGRESSIVE_KINDS = ("MEC", "MER")
ALL_KINDS = CONSERVATIVE_KINDS + PROGRESSIVE_KINDS

#: construction-algorithm version per kind (default 1), persisted with
#: every stored approximation column set.  Bump a kind's entry when its
#: construction changes what it returns: stored columns of the old
#: version are then rebuilt instead of mixed with fresh ones.
#: MER 2: the cell-grid search returns the largest candidate rectangle
#: ``rect_inside`` accepts (version 1's binary search could miss it).
#: MEC 2: the pole-of-inaccessibility cell search replaces the sampled
#: Voronoi diagram.  MER 3: its fallback square is inscribed in that MEC.
_ALGORITHM_VERSIONS: Dict[str, int] = {"MER": 3, "MEC": 2}


def algorithm_version(kind: str) -> int:
    """Version of the algorithm :func:`compute_approximation` runs for ``kind``."""
    return _ALGORITHM_VERSIONS.get(kind, 1)


def compute_approximation(polygon: Polygon, kind: str) -> Approximation:
    """Compute the approximation ``kind`` for ``polygon``.

    Raises ``ValueError`` for unknown kinds.
    """
    if kind == "MBR":
        return MBRApproximation.of(polygon)
    if kind == "RMBR":
        return RMBRApproximation.of(polygon)
    if kind == "CH":
        return ConvexHullApproximation.of(polygon)
    if kind == "MBC":
        return MBCApproximation.of(polygon)
    if kind == "MBE":
        return MBEApproximation.of(polygon)
    if kind == "MEC":
        return MECApproximation.of(polygon)
    if kind == "MER":
        return MERApproximation.of(polygon)
    if kind.endswith("-C"):
        try:
            m = int(kind[:-2])
        except ValueError:
            raise ValueError(f"unknown approximation kind: {kind!r}") from None
        return MCornerApproximation.of(polygon, m)
    raise ValueError(f"unknown approximation kind: {kind!r}")


def compute_approximations(
    polygon: Polygon, kinds: Iterable[str]
) -> Dict[str, Approximation]:
    """Compute several approximations of one polygon at once."""
    return {kind: compute_approximation(polygon, kind) for kind in kinds}


def approximation_parameters(kind: str, sample: Approximation) -> int:
    """Storage parameter count of an approximation instance."""
    return sample.num_parameters
