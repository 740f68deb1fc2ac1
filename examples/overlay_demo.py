"""Map overlay: the GIS operation the paper's join was built for.

Overlays two synthetic administrative layers (think: municipalities x
forest regions).  The multi-step join finds the intersecting pairs,
the Greiner-Hormann clipper computes each pair's intersection region,
and the overlay reports the result layer with per-piece areas.

Run:  python examples/overlay_demo.py
"""

from repro.core.filters import FilterConfig
from repro.core.join import JoinConfig
from repro.core.overlay import MapOverlay
from repro.datasets.relations import europe


def main() -> None:
    municipalities = europe(size=80)
    forests = europe(seed=4242, size=60)
    print(f"layer A: {municipalities!r}")
    print(f"layer B: {forests!r}")

    overlay = MapOverlay(
        JoinConfig(filter=FilterConfig(conservative="5-C", progressive="MER"))
    )
    result = overlay.intersection(municipalities, forests)

    print(f"\noverlay produced {len(result)} intersection pieces")
    print(f"total overlay area: {result.total_area():.5f}")
    if result.failed_pairs:
        print(f"degenerate pairs skipped: {len(result.failed_pairs)}")

    print("\n--- join statistics behind the overlay ---")
    stats = result.stats
    print(f"  MBR-join candidates:   {stats.candidate_pairs}")
    print(f"  settled by the filter: {stats.filter_hits + stats.filter_false_hits}")
    print(f"  exact tests needed:    {stats.remaining_candidates}")

    print("\nlargest overlay pieces (A-id, B-id, area):")
    largest = sorted(result.pieces, key=lambda p: p.area, reverse=True)[:5]
    for piece in largest:
        regions = len(piece.regions)
        print(
            f"  A{piece.oid_a:>4} x B{piece.oid_b:>4}  area={piece.area:.6f}"
            f"  ({regions} region{'s' if regions != 1 else ''})"
        )

    # The per-pair area API respects holes via inclusion-exclusion.
    rows = overlay.intersection_areas(municipalities, forests)
    print(f"\nintersection_areas() returned {len(rows)} positive-area pairs")


if __name__ == "__main__":
    main()
