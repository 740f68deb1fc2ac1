"""Index explorer: R*-tree and TR*-tree behaviour under the I/O model.

Demonstrates the index substrate directly: build an R*-tree over a
relation, run point/window queries and a spatial join while counting
page accesses through an LRU buffer (the paper's §3.4 methodology), and
inspect a TR*-tree decomposition of a single complex polygon.

Run:  python examples/index_explorer.py
"""

from repro.datasets.relations import europe
from repro.datasets.testseries import strategy_a
from repro.exact.decomposition import trapezoid_decomposition
from repro.geometry.rectangle import Rect
from repro.index.join import rstar_join
from repro.index.pagemodel import AccessCounter, LRUBuffer, PageLayout
from repro.index.rstar import RStarTree


def main() -> None:
    relation = europe(size=200)
    layout = PageLayout(page_size=4096, key_bytes=16, extra_leaf_bytes=40)
    print(
        f"page layout: {layout.page_size}B pages, "
        f"{layout.leaf_capacity()} leaf entries (MBR + 5-C + info), "
        f"{layout.directory_capacity()} directory entries"
    )

    tree = RStarTree(
        max_entries=layout.leaf_capacity(),
        directory_max=layout.directory_capacity(),
    )
    for rect, obj in relation.mbr_items():
        tree.insert(rect, obj)
    tree.check_invariants()
    print(
        f"R*-tree: {tree.size} entries, height {tree.height}, "
        f"{tree.node_count()} nodes ({tree.leaf_count()} leaves)\n"
    )

    buffer = LRUBuffer(layout.buffer_pages(128 * 1024))
    counter = AccessCounter(buffer=buffer)

    # Window queries of growing selectivity.
    print("window queries (128 KB LRU buffer):")
    for extent in (0.01, 0.05, 0.2):
        counter.reset()
        window = Rect(0.4, 0.4, 0.4 + extent, 0.4 + extent)
        found = tree.window_query(window, counter)
        print(
            f"  {extent:4.0%} window: {len(found):4d} objects, "
            f"{counter.node_visits:3d} node visits, "
            f"{counter.page_reads:3d} page reads"
        )

    # A spatial join against the shifted copy, with shared buffer.
    series = strategy_a(relation)
    other = RStarTree(
        max_entries=layout.leaf_capacity(),
        directory_max=layout.directory_capacity(),
    )
    for rect, obj in series.relation_b.mbr_items():
        other.insert(rect, obj)
    buffer.clear()
    ca = AccessCounter(buffer=buffer)
    cb = AccessCounter(buffer=buffer)
    pairs = sum(1 for _ in rstar_join(tree, other, ca, cb))
    print(
        f"\nMBR-join: {pairs} candidate pairs, "
        f"{ca.page_reads + cb.page_reads} page reads "
        f"({ca.node_visits + cb.node_visits} node visits, "
        f"{buffer.hits} buffer hits)"
    )

    # TR*-tree anatomy of the most complex object (paper Figure 15).
    complex_obj = max(relation, key=lambda o: o.polygon.num_vertices)
    traps = trapezoid_decomposition(complex_obj.polygon)
    trstar = complex_obj.trstar(max_entries=3)
    print(
        f"\nTR*-tree of the most complex object "
        f"({complex_obj.polygon.num_vertices} vertices):"
    )
    print(f"  trapezoids: {len(traps)} (area preserved: "
          f"{abs(sum(t.area() for t in traps) - complex_obj.polygon.area()) < 1e-9})")
    print(f"  tree height: {trstar.height}, nodes: {trstar.node_count()}, "
          f"M = {trstar.max_entries}")


if __name__ == "__main__":
    main()
